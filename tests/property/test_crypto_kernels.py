"""Parity suite: the commitment kernels against the per-element ``pow`` oracle.

``repro.crypto.multiexp`` replaces one ``pow`` per exponentiation with
fixed-base tables (Enc(r), ``encode``, key generation) and a Pippenger
fold (the prover's ∏ Enc(r_i)^{u_i}).  Transcripts stay byte-identical
only if every kernel returns exactly the oracle's integers
(``tests/crypto/pow_oracle.py``), so Hypothesis drives both on all
four commitment groups:

* weights and messages 0, 1, p−1, values ≥ p, negative values, and
  the all-ones digit patterns 2^(k·w)−1 at the windows the kernels
  pick;
* vector lengths 0, 1, 2, every length where the chosen window
  widens, and 666 (the p128-b8 proof-vector length), plus all-zero
  weight vectors;
* ciphertext components a gateway prover reads off the wire and
  cannot assume are subgroup elements: 0, 1, P−1, values ≥ P, negative
  values (``int(…, 16)`` accepts them) and non-subgroup elements;
* Enc(r) must also leave the PRG exactly where n scalar encryptions
  leave it, so later verifier draws are unchanged.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    GROUP_GOLDILOCKS_512,
    GROUP_P128_512,
    GROUP_P128_1024,
    GROUP_P220_1024,
    ElGamalCiphertext,
    ElGamalKeypair,
    FieldPRG,
    SchnorrGroup,
    homomorphic_inner_product,
)
from repro.crypto.multiexp import MAX_WINDOW, window_width
from repro.field import GOLDILOCKS, P128, P220, PrimeField

from ..crypto.pow_oracle import encrypt_vector_pow, inner_product_pow

GROUPS = {
    g.name: g
    for g in (GROUP_GOLDILOCKS_512, GROUP_P128_512, GROUP_P128_1024, GROUP_P220_1024)
}
_FIELDS = {
    params.modulus: PrimeField(params, check_prime=False)
    for params in (GOLDILOCKS, P128, P220)
}

#: the proof-vector length of the p128-b8 benchmark workload
PROOF_LENGTH = 666


def _field(group: SchnorrGroup) -> PrimeField:
    return _FIELDS[group.order]


def _bits(group: SchnorrGroup) -> int:
    return group.order.bit_length()


def _window_changes(bits: int) -> list[int]:
    """Every length at which the chosen window widens, up to the widest."""
    changes, n = [], 0
    while window_width(n, bits) < MAX_WINDOW:
        n += 1
        if window_width(n, bits) != window_width(n - 1, bits):
            changes.append(n)
    return changes


def _non_subgroup(group: SchnorrGroup) -> int:
    return next(x for x in itertools.count(2) if not group.contains(x))


def _exponent_edges(group: SchnorrGroup, n: int) -> list[int]:
    """Weights/messages at the reduction edges and at the digit edges of
    the window a length-n vector picks and of the generator table's."""
    q, bits = group.order, _bits(group)
    digit_edges = [
        (1 << (k * w)) - 1
        for w in {window_width(n, bits), MAX_WINDOW}
        for k in range(1, -(-bits // w) + 1)
    ]
    return [0, 1, 2, q - 1, q, q + 1, 2 * q - 1, 3 * q + 5, -1, -q - 2] + digit_edges


def _component_edges(group: SchnorrGroup) -> list[int]:
    """Ciphertext components a peer may send: not all subgroup elements."""
    P = group.modulus
    return [0, 1, P - 1, P, P + 1, 2 * P + 3, -1, -P - 3, _non_subgroup(group)]


def _keypair(group: SchnorrGroup) -> ElGamalKeypair:
    return ElGamalKeypair.generate(group, FieldPRG(_field(group), b"kernel-parity", "key"))


def _patched(data, values: list[int], edges: list[int], max_patches: int) -> list[int]:
    """``values`` with a Hypothesis-chosen handful of entries set to edges."""
    if values:
        patches = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(values) - 1), st.sampled_from(edges)
                ),
                max_size=max_patches,
            )
        )
        for index, value in patches:
            values[index] = value
    return values


def _ciphertexts(data, group: SchnorrGroup, n: int) -> list[ElGamalCiphertext]:
    """Components from [0, P), some replaced by wire edge values.

    The fold's arithmetic does not depend on subgroup membership, so
    uniform residues (almost all outside the subgroup) stand in for
    honest encryptions at a fraction of the cost."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    edges = _component_edges(group)
    c1 = _patched(data, [rng.randrange(group.modulus) for _ in range(n)], edges, 6)
    c2 = _patched(data, [rng.randrange(group.modulus) for _ in range(n)], edges, 6)
    return [ElGamalCiphertext(a, b) for a, b in zip(c1, c2)]


def _weights(data, group: SchnorrGroup, n: int) -> list[int]:
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    weights = [rng.randrange(1, group.order) for _ in range(n)]
    return _patched(data, weights, _exponent_edges(group, n), 12)


#: lengths past this run few examples: the oracle costs ~1 s per fold
LONG = 64


def _fold_cases(long: bool) -> list[tuple[str, int]]:
    """(group, n): 0, 1, 2, every window change and the proof length."""
    cases = []
    for name, group in GROUPS.items():
        lengths = {0, 1, 2, PROOF_LENGTH, *_window_changes(_bits(group))}
        cases += [(name, n) for n in sorted(lengths) if (n > LONG) == long]
    return cases


def _check_fold(name: str, n: int, data) -> None:
    group = GROUPS[name]
    cts = _ciphertexts(data, group, n)
    weights = _weights(data, group, n)
    assert homomorphic_inner_product(group, cts, weights) == inner_product_pow(
        group, cts, weights
    )


@pytest.mark.parametrize("name, n", _fold_cases(long=False))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_fold_matches_pow_oracle(name, n, data):
    _check_fold(name, n, data)


@pytest.mark.parametrize("name, n", _fold_cases(long=True))
@settings(max_examples=1, deadline=None)
@given(data=st.data())
def test_fold_matches_pow_oracle_long(name, n, data):
    _check_fold(name, n, data)


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("n", [1, 5, PROOF_LENGTH])
def test_fold_all_zero_weights(name, n):
    """An all-zero proof vector folds to Enc(0) = (1, 1), like the oracle."""
    group = GROUPS[name]
    cts = [ElGamalCiphertext(c, c) for c in _component_edges(group)] * n
    cts = cts[:n]
    assert homomorphic_inner_product(group, cts, [0] * n) == ElGamalCiphertext(1, 1)
    assert inner_product_pow(group, cts, [0] * n) == ElGamalCiphertext(1, 1)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_encrypt_vector_matches_pow_oracle(name, data):
    group = GROUPS[name]
    n = data.draw(st.integers(0, 20))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    messages = _patched(
        data,
        [rng.randrange(group.order) for _ in range(n)],
        _exponent_edges(group, n),
        8,
    )
    public = _keypair(group).public
    seed = rng.randbytes(16)
    kernel_prg = FieldPRG(_field(group), seed, "enc")
    oracle_prg = FieldPRG(_field(group), seed, "enc")
    assert public.encrypt_vector(messages, kernel_prg) == encrypt_vector_pow(
        public, messages, oracle_prg
    )
    # the next verifier draw sees the same stream position
    assert kernel_prg.next_bytes(32) == oracle_prg.next_bytes(32)


@pytest.mark.parametrize("name", GROUPS)
def test_encrypt_vector_matches_pow_oracle_at_proof_length(name):
    group = GROUPS[name]
    rng = random.Random(PROOF_LENGTH)
    messages = [rng.randrange(group.order) for _ in range(PROOF_LENGTH)]
    messages[:4] = [0, 1, group.order - 1, group.order]
    public = _keypair(group).public
    kernel_prg = FieldPRG(_field(group), b"long", "enc")
    oracle_prg = FieldPRG(_field(group), b"long", "enc")
    assert public.encrypt_vector(messages, kernel_prg) == encrypt_vector_pow(
        public, messages, oracle_prg
    )
    assert kernel_prg.next_bytes(32) == oracle_prg.next_bytes(32)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_encode_and_keygen_match_pow(name, data):
    group = GROUPS[name]
    m = data.draw(
        st.one_of(
            st.sampled_from(_exponent_edges(group, 1)),
            st.integers(-(group.order**2), group.order**2),
        )
    )
    assert group.encode(m) == pow(group.generator, m % group.order, group.modulus)
    keypair = ElGamalKeypair.generate(
        group, FieldPRG(_field(group), data.draw(st.binary(max_size=8)), "key")
    )
    assert keypair.public.h == pow(group.generator, keypair.secret, group.modulus)


def test_generator_table_first_use_race():
    """Threads racing on a group's first ``encode`` all get correct powers."""
    group = dataclasses.replace(GROUP_P128_512)  # no table built yet
    assert "generator_table" not in vars(group)
    exponents = [group.order - e for e in range(1, 9)]  # every window nonzero
    results: dict[int, int] = {}
    barrier = threading.Barrier(len(exponents))

    def worker(e: int) -> None:
        barrier.wait(timeout=10)
        results[e] = group.encode(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(e,)) for e in exponents]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {
        e: pow(group.generator, e, group.modulus) for e in exponents
    }
    table = group.generator_table
    assert len(table.rows) == -(-_bits(group) // MAX_WINDOW)
    assert all(len(row) == 1 << MAX_WINDOW for row in table.rows)
