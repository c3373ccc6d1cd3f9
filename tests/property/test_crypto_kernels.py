"""Parity suite: the crypto kernels against their one-at-a-time oracles.

The commitment kernels are checked against the per-element ``pow``
oracle, the keystream routes against the RFC 8439 block function one
block at a time (``tests/crypto/chacha_oracle.py``), and the PRG's bulk
draws against one draw at a time.

``repro.crypto.multiexp`` replaces one ``pow`` per exponentiation with
fixed-base tables (Enc(r), ``encode``, key generation) and a Pippenger
fold (the prover's ∏ Enc(r_i)^{u_i}); the verifier's key turns Enc(r)
into (g^k, g^((m + x·k) mod q)) and decryption into c2 · (c1⁻¹)^x.
Transcripts stay byte-identical only if every kernel returns exactly
the oracle's integers (``tests/crypto/pow_oracle.py``), so Hypothesis
drives both on all four commitment groups:

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
  leave it, so later verifier draws are unchanged;
* decryption must equal c2 · c1^(P−1−x) for every c1 a peer may send,
  the multiples of P (which have no inverse) included.

The keystream and PRG sections (after the commitment ones) check that
the packed-int route ``chacha20_packed`` and the numpy kernel
``chacha20_blocks`` equal the block loop at every block count up to
past the crossover ``KERNEL_MIN_BLOCKS`` and at one p128 query
repetition, from counters that wrap past 2^32; that any sequence of
``ChaChaStream.read`` sizes equals one whole read, and returns the
same bytes with numpy and without it; that each read takes the route
the crossover names, and without numpy runs in calls of at most
``KERNEL_MIN_BLOCKS`` blocks; and that ``FieldPRG.next_vector`` and
``next_below_vector`` equal n scalar draws and leave the PRG where
those leave it, on all four fields, on a modulus just above 2^63
that rejects about half of its samples, and on a 57-bit prime whose
8-byte samples are reduced mod p; 8-byte samples are checked with
numpy and with numpy blocked.
"""

from __future__ import annotations

import contextlib
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
    ChaChaStream,
    ElGamalCiphertext,
    ElGamalKeypair,
    FieldPRG,
    SchnorrGroup,
    chacha20_blocks,
    chacha20_packed,
    homomorphic_inner_product,
)
from repro.crypto import chacha
from repro.crypto.chacha import KERNEL_MIN_BLOCKS
from repro.crypto.multiexp import MAX_WINDOW, window_width
from repro.field import GOLDILOCKS, HAVE_NUMPY, P128, P192, P220, PrimeField

from ..crypto.chacha_oracle import block_loop
from ..crypto.pow_oracle import decrypt_pow, encrypt_vector_pow, inner_product_pow

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
    keypair = _keypair(group)
    seed = rng.randbytes(16)
    kernel_prg = FieldPRG(_field(group), seed, "enc")
    oracle_prg = FieldPRG(_field(group), seed, "enc")
    assert keypair.encrypt_vector(messages, kernel_prg) == encrypt_vector_pow(
        keypair.public, messages, oracle_prg
    )
    # the next verifier draw sees the same stream position
    assert kernel_prg.next_bytes(32) == oracle_prg.next_bytes(32)


@pytest.mark.parametrize("name", GROUPS)
def test_encrypt_vector_matches_pow_oracle_at_proof_length(name):
    group = GROUPS[name]
    rng = random.Random(PROOF_LENGTH)
    messages = [rng.randrange(group.order) for _ in range(PROOF_LENGTH)]
    messages[:6] = [0, 1, group.order - 1, group.order, -1, 3 * group.order + 7]
    keypair = _keypair(group)
    kernel_prg = FieldPRG(_field(group), b"long", "enc")
    oracle_prg = FieldPRG(_field(group), b"long", "enc")
    assert keypair.encrypt_vector(messages, kernel_prg) == encrypt_vector_pow(
        keypair.public, messages, oracle_prg
    )
    assert kernel_prg.next_bytes(32) == oracle_prg.next_bytes(32)


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("n", [0, 1, 2, 12])
def test_encrypt_vector_at_short_lengths(name, n):
    """Enc(r) as g^((m + x·k) mod q) equals the textbook (g^k, g^m·h^k)
    at the gateway's lengths, cycling through the reduction edges."""
    group = GROUPS[name]
    q = group.order
    edges = [0, 1, q - 1, -1, -q - 2, q, q + 1, 2 * q - 1]
    messages = [edges[(i + n) % len(edges)] for i in range(n)]
    keypair = _keypair(group)
    kernel_prg = FieldPRG(_field(group), b"short", "enc")
    oracle_prg = FieldPRG(_field(group), b"short", "enc")
    assert keypair.encrypt_vector(messages, kernel_prg) == encrypt_vector_pow(
        keypair.public, messages, oracle_prg
    )
    assert kernel_prg.next_bytes(32) == oracle_prg.next_bytes(32)


@pytest.mark.parametrize("name", GROUPS)
def test_decrypt_matches_pow_oracle(name):
    """c2 · (c1⁻¹)^x equals c2 · c1^(P−1−x) for every c1 a peer may send,
    the multiples of P (no inverse; they decrypt to 0) included."""
    group = GROUPS[name]
    P = group.modulus
    keypair = _keypair(group)
    rng = random.Random(P)
    c1s = [0, P, -P, 2 * P, 1, P - 1, -1, -P - 3, P + 1, 3 * P + 5, _non_subgroup(group)]
    c1s += [rng.randrange(P) for _ in range(4)]
    (honest,) = keypair.encrypt_vector([5], FieldPRG(_field(group), b"dec", "enc"))
    cts = [honest] + [
        ElGamalCiphertext(c1, c2)
        for c1 in c1s
        for c2 in (rng.randrange(P), 1, 0, -7, P + 2)
    ]
    for ct in cts:
        assert keypair.decrypt_to_group(ct) == decrypt_pow(keypair, ct), ct
    assert keypair.decrypt_to_group(honest) == group.encode(5)


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


# -- keystream ----------------------------------------------------------------

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the kernel needs numpy")

#: keystream blocks one p128 LCS m=4 query repetition reads
#: (5,328 samples of 16 bytes)
REPETITION_BLOCKS = 1332

_keys = st.binary(min_size=32, max_size=32)
_nonces = st.binary(min_size=12, max_size=12)
#: counters near 2^32, so long reads wrap, or anywhere
_counters = st.one_of(
    st.integers(2**32 - 2 * REPETITION_BLOCKS, 2**32 - 1), st.integers(0, 2**32 - 1)
)
#: counters a read of up to KERNEL_MIN_BLOCKS + 8 blocks wraps from
_wrapping = st.integers(2**32 - KERNEL_MIN_BLOCKS - 8, 2**32 - 1)


@pytest.mark.parametrize("count", range(KERNEL_MIN_BLOCKS + 9))
@settings(max_examples=10, deadline=None)
@given(key=_keys, nonce=_nonces, counter=st.one_of(_wrapping, _counters))
def test_keystream_packed_matches_block_loop(count, key, nonce, counter):
    assert chacha20_packed(key, counter, nonce, count) == block_loop(
        key, counter, nonce, count
    )


@settings(max_examples=2, deadline=None)
@given(key=_keys, nonce=_nonces, counter=_counters)
def test_keystream_packed_matches_block_loop_at_repetition(key, nonce, counter):
    assert chacha20_packed(key, counter, nonce, REPETITION_BLOCKS) == block_loop(
        key, counter, nonce, REPETITION_BLOCKS
    )


def test_keystream_packed_wraps_the_counter():
    key, nonce = bytes(range(32)), bytes(range(12))
    stream = chacha20_packed(key, 2**32 - 2, nonce, 4)
    assert stream[:128] == block_loop(key, 2**32 - 2, nonce, 2)
    assert stream[128:] == block_loop(key, 0, nonce, 2)


@needs_numpy
@pytest.mark.parametrize("count", range(KERNEL_MIN_BLOCKS + 5))
@settings(max_examples=10, deadline=None)
@given(key=_keys, nonce=_nonces, counter=_counters)
def test_keystream_kernel_matches_block_loop(count, key, nonce, counter):
    assert chacha20_blocks(key, counter, nonce, count) == block_loop(
        key, counter, nonce, count
    )


@needs_numpy
@settings(max_examples=2, deadline=None)
@given(key=_keys, nonce=_nonces, counter=_counters)
def test_keystream_kernel_matches_block_loop_at_repetition(key, nonce, counter):
    assert chacha20_blocks(key, counter, nonce, REPETITION_BLOCKS) == block_loop(
        key, counter, nonce, REPETITION_BLOCKS
    )


@needs_numpy
def test_keystream_kernel_wraps_the_counter():
    key, nonce = bytes(range(32)), bytes(range(12))
    stream = chacha20_blocks(key, 2**32 - 2, nonce, 4)
    assert stream[128:] == block_loop(key, 0, nonce, 2)


#: read sizes in bytes: short ones, and ones within two blocks of the
#: crossover, so reads land on either route and on the buffer
_read_sizes = st.one_of(
    st.integers(0, 200),
    st.integers(64 * (KERNEL_MIN_BLOCKS - 2), 64 * (KERNEL_MIN_BLOCKS + 2)),
    st.integers(200, 64 * (KERNEL_MIN_BLOCKS + 8)),
)


@settings(max_examples=25, deadline=None)
@given(
    key=_keys,
    nonce=_nonces,
    counter=_counters,
    sizes=st.lists(_read_sizes, max_size=10),
)
def test_stream_reads_equal_one_whole_read(key, nonce, counter, sizes):
    pieces = ChaChaStream(key, nonce, counter)
    whole = ChaChaStream(key, nonce, counter)
    total = sum(sizes)
    data = b"".join(pieces.read(n) for n in sizes)
    assert data == whole.read(total)
    # both streams are left at the same position
    after = pieces.read(100)
    assert after == whole.read(100)
    blocks = -(-(total + 100) // 64)
    assert data + after == block_loop(key, counter, nonce, blocks)[: total + 100]


@contextlib.contextmanager
def _without_numpy():
    """``repro.crypto.chacha`` as it runs where numpy is not installed."""
    saved, chacha._np = chacha._np, None
    try:
        yield
    finally:
        chacha._np = saved


@settings(max_examples=25, deadline=None)
@given(
    key=_keys,
    nonce=_nonces,
    counter=st.one_of(_wrapping, _counters),
    sizes=st.lists(_read_sizes, min_size=1, max_size=6),
)
def test_stream_reads_agree_without_numpy(key, nonce, counter, sizes):
    """The same read sequence returns the same bytes on every route mix."""
    with_numpy = ChaChaStream(key, nonce, counter)
    expected = [with_numpy.read(n) for n in sizes]
    with _without_numpy():
        without = ChaChaStream(key, nonce, counter)
        assert [without.read(n) for n in sizes] == expected


def _record_routes(monkeypatch) -> list[tuple[str, int]]:
    """Record ``(route, blocks)`` for every keystream call from now on."""
    calls: list[tuple[str, int]] = []
    for route in ("chacha20_packed", "chacha20_blocks"):
        fn = getattr(chacha, route)
        monkeypatch.setattr(
            chacha,
            route,
            lambda *args, _fn=fn, _route=route: calls.append((_route, args[3])) or _fn(*args),
        )
    return calls


def test_stream_without_numpy_reads_in_chunks(monkeypatch):
    """Without numpy a long read runs the packed route in calls of at
    most ``KERNEL_MIN_BLOCKS`` blocks."""
    calls = _record_routes(monkeypatch)
    blocks = 3 * KERNEL_MIN_BLOCKS + 5
    with _without_numpy():
        data = ChaChaStream(bytes(32)).read(64 * blocks)
    assert calls == [("chacha20_packed", KERNEL_MIN_BLOCKS)] * 3 + [("chacha20_packed", 5)]
    assert data == block_loop(bytes(32), 0, bytes(12), blocks)


@needs_numpy
def test_stream_routes_each_read(monkeypatch):
    """With numpy, a read of fewer than ``KERNEL_MIN_BLOCKS`` blocks is
    one packed call and a longer one one kernel call, which buffers
    ``KERNEL_MIN_BLOCKS`` blocks past it for the reads that follow."""
    calls = _record_routes(monkeypatch)
    stream = ChaChaStream(bytes(32))
    stream.read(64 * (KERNEL_MIN_BLOCKS - 1))
    assert calls == [("chacha20_packed", KERNEL_MIN_BLOCKS - 1)]
    stream.read(64 * KERNEL_MIN_BLOCKS)
    assert calls[1:] == [("chacha20_blocks", 2 * KERNEL_MIN_BLOCKS)]
    stream.read(64 * KERNEL_MIN_BLOCKS)  # all buffered
    assert len(calls) == 2


# -- field PRG ----------------------------------------------------------------

#: the smallest prime above 2^63: 8-byte samples, about half rejected
P_REJECT = 2**63 + 29
#: the smallest 57-bit prime: 8-byte samples below 255·p are accepted,
#: so the reduction mod p is what maps them into the field
P_57 = 2**56 + 81
_PRG_FIELDS = {
    **{
        params.name: PrimeField(params, check_prime=False)
        for params in (GOLDILOCKS, P128, P192, P220)
    },
    "p63+29": PrimeField(P_REJECT),
    "p57": PrimeField(P_57),
}
#: the fields whose samples are 8 bytes wide (the uint64 route)
_EIGHT_BYTE = ("goldilocks", "p63+29", "p57")


def _prg_pair(field: PrimeField, seed: bytes) -> tuple[FieldPRG, FieldPRG]:
    return FieldPRG(field, seed, "parity"), FieldPRG(field, seed, "parity")


def _count_reads(prg: FieldPRG) -> list[int]:
    """Record the size of every keystream read ``prg`` makes from now on."""
    reads: list[int] = []
    read = prg._stream.read
    prg._stream.read = lambda n: reads.append(n) or read(n)
    return reads


@pytest.mark.parametrize("name", _PRG_FIELDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.binary(max_size=16), sizes=st.lists(st.integers(0, 400), max_size=4))
def test_next_vector_matches_next_element(name, seed, sizes):
    bulk, single = _prg_pair(_PRG_FIELDS[name], seed)
    for n in sizes:
        assert bulk.next_vector(n) == [single.next_element() for _ in range(n)]
    # the PRG is left where the scalar draws leave it
    assert bulk.next_element() == single.next_element()
    assert bulk.next_bytes(100) == single.next_bytes(100)


@pytest.mark.parametrize("name", _PRG_FIELDS)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.binary(max_size=16),
    bound=st.one_of(
        # 2^50 and 2^55 + 3 draw 8-byte samples, and 2^50 divides 2^64,
        # so nothing is rejected
        st.sampled_from([1, 2, 7, 256, 2**50, 2**55 + 3, 2**63 + 1, P_REJECT, P_57]),
        st.integers(1, 2**256),
    ),
    sizes=st.lists(st.integers(0, 400), max_size=4),
)
def test_next_below_vector_matches_next_below(name, seed, bound, sizes):
    bulk, single = _prg_pair(_PRG_FIELDS[name], seed)
    for n in sizes:
        assert bulk.next_below_vector(bound, n) == [
            single.next_below(bound) for _ in range(n)
        ]
    assert bulk.next_below(bound) == single.next_below(bound)
    assert bulk.next_vector(3) == single.next_vector(3)


@pytest.mark.parametrize("name", _PRG_FIELDS)
def test_next_vector_at_repetition_length(name):
    """One query repetition's draw (LCS m=4: 8 vectors of 666)."""
    bulk, single = _prg_pair(_PRG_FIELDS[name], b"repetition")
    assert bulk.next_vector(8 * 666) == [single.next_element() for _ in range(8 * 666)]
    assert bulk.next_nonzero() == single.next_nonzero()


@pytest.mark.parametrize("name", _EIGHT_BYTE)
@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "numpy-blocked"])
@settings(max_examples=10, deadline=None)
@given(seed=st.binary(max_size=16), sizes=st.lists(st.integers(0, 700), max_size=4))
def test_eight_byte_samples_match_per_sample_draws(name, numpy, seed, sizes):
    """8-byte samples are accepted and reduced as one uint64 array per
    read when numpy is present, and one at a time without it; both give
    the per-sample draws and leave the stream where they leave it."""
    from repro.crypto import prg as prg_module

    if numpy and not HAVE_NUMPY:
        pytest.skip("numpy absent")
    field = _PRG_FIELDS[name]
    saved = prg_module._np
    if not numpy:
        prg_module._np = None
    try:
        bulk, single = _prg_pair(field, seed)
        for n in sizes:
            got = bulk.next_vector(n)
            assert got == [single.next_element() for _ in range(n)]
            assert all(type(v) is int and 0 <= v < field.p for v in got)
        assert bulk.next_bytes(64) == single.next_bytes(64)
    finally:
        prg_module._np = saved


def test_rejections_refill_only_the_shortfall():
    """Near 2^63 about half the samples are rejected, so the refill loop
    runs; it reads only the shortfall, so the PRG ends where n scalar
    draws leave it."""
    bulk, single = _prg_pair(_PRG_FIELDS["p63+29"], b"reject")
    reads = _count_reads(bulk)
    n = 1000
    assert bulk.next_vector(n) == [single.next_element() for _ in range(n)]
    assert reads[0] == 8 * n and len(reads) > 5
    assert all(later <= earlier for earlier, later in zip(reads, reads[1:]))
    assert bulk.next_bytes(64) == single.next_bytes(64)
