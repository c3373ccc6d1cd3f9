"""Differential backend-parity suite: scalar vs numpy, bit-for-bit.

The numpy backend's claim (docs/PERFORMANCE.md) is that every vector
kernel computes the *same canonical integers* as the pure-Python
scalar kernels — exactness, not approximate agreement.  This suite is
the differential harness behind that claim: Hypothesis drives both
backends of each named modulus (goldilocks through p220, so the
uint64 limb kernel and the object-array butterflies are covered) and
of 65537, a user-supplied modulus of the kind ``constraints/serialize``
reads from a program file (2-adicity 16; it takes the same route as
the big moduli).  The ops are add/scale/lincomb/mul/dot/inv, ntt/intt,
their stacked 2-D forms, the CRT product and the product of rows with
a vector (``mat_vec``, on int rows and on :class:`WordRows`), with the canonical edge
values 0, 1, p−1 force-included and non-power-of-two lengths
throughout the elementwise ops.  Each op's draws straddle the length
at which the numpy backend hands it to the uint64 kernel
(``MIN_VECTOR``, ``MIN_INNER_PRODUCT``, ``MIN_BATCH_INV``,
``MIN_LINCOMB``, ``MIN_MAT_VEC``); vectors longer than Hypothesis' buffer come from a
drawn seed with a drawn handful of entries set to the edge values.

Runs are meaningful only with numpy installed; without it the numpy
backend degrades to scalar and the comparison is vacuous, so the
module skips.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import (
    GOLDILOCKS,
    HAVE_NUMPY,
    NAMED_FIELDS,
    NumpyBackend,
    PrimeField,
    WordRows,
    element_words,
)
from repro.poly.ntt import ntt, ntt_reference

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy absent: numpy backend degrades to scalar"
)

#: the named fields, then a user-supplied modulus (named by its value)
_MODULI = sorted(NAMED_FIELDS) + ["65537"]


def _pair(name: str) -> tuple[PrimeField, PrimeField]:
    params = NAMED_FIELDS.get(name) or int(name)
    return (
        PrimeField(params, check_prime=False, backend="scalar"),
        PrimeField(params, check_prime=False, backend="numpy"),
    )


_FIELDS = {name: _pair(name) for name in _MODULI}


def _elements(p: int):
    """Canonical elements, biased toward the reduction edge cases."""
    return st.one_of(
        st.sampled_from([0, 1, p - 1, p // 2]),
        st.integers(min_value=0, max_value=p - 1),
    )


#: the numpy backend's small-vector cutoff; vector draws straddle it
_CUTOFF = NumpyBackend.MIN_VECTOR
#: a prime above the cutoff, so drawn lengths are overwhelmingly
#: non-powers of two and straddle it
_MAX_LEN = 293


def _vectors(p: int, min_size: int = 0, max_size: int = _MAX_LEN):
    return st.lists(_elements(p), min_size=min_size, max_size=max_size)


def _seeded(data, n: int, low: int, high: int, edges: list[int], label: str) -> list[int]:
    """n values from [low, high) off a drawn seed, a drawn handful of
    them replaced by ``edges``."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed"))
    values = [rng.randrange(low, high) for _ in range(n)]
    if n:
        patches = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(edges)), max_size=8),
            label=f"{label} edges",
        )
        for index, value in patches:
            values[index] = value
    return values


def _around(cutoff: int):
    """Lengths up to ``_MAX_LEN`` or just either side of ``cutoff``."""
    return st.one_of(
        st.integers(min_value=0, max_value=_MAX_LEN),
        st.integers(min_value=cutoff - 3, max_value=cutoff + 37),
    )


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_elementwise_parity(name, data):
    scalar, vec = _FIELDS[name]
    p = scalar.p
    a = data.draw(_vectors(p), label="a")
    b = data.draw(st.lists(_elements(p), min_size=len(a), max_size=len(a)), label="b")
    c = data.draw(_elements(p), label="c")
    assert vec.vec_add(a, b) == scalar.vec_add(a, b)
    assert vec.vec_scale(c, a) == scalar.vec_scale(c, a)
    assert vec.vec_lincomb(a, [c], [b]) == scalar.vec_lincomb(a, [c], [b])
    assert vec.hadamard(a, b) == scalar.hadamard(a, b)


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inner_product_parity(name, data):
    scalar, vec = _FIELDS[name]
    p = scalar.p
    n = data.draw(_around(NumpyBackend.MIN_INNER_PRODUCT), label="n")
    edges = [0, 1, p - 1, p // 2]
    a = _seeded(data, n, 0, p, edges, "a")
    b = _seeded(data, n, 0, p, edges, "b")
    assert vec.inner_product(a, b) == scalar.inner_product(a, b)
    assert scalar.inner_product(a, b) == sum(x * y for x, y in zip(a, b)) % p


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_inv_parity(name, data):
    scalar, vec = _FIELDS[name]
    p = scalar.p
    n = data.draw(_around(NumpyBackend.MIN_BATCH_INV), label="n")
    values = _seeded(data, n, 1, p, [1, p - 1, p // 2], "values")
    got = vec.batch_inv(values)
    assert got == scalar.batch_inv(values)
    # agreement with the one-at-a-time inverses, not just cross-backend
    assert got == [scalar.inv(v) for v in values]


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ntt_parity(name, data):
    scalar, vec = _FIELDS[name]
    p = scalar.p
    max_log = min(scalar.two_adicity, 8)
    log = data.draw(st.integers(min_value=0, max_value=max_log), label="log_size")
    n = 1 << log
    values = data.draw(
        st.lists(_elements(p), min_size=n, max_size=n), label="values"
    )
    forward = ntt(vec, values)
    assert forward == ntt(scalar, values) == ntt_reference(scalar, values)
    inverse = ntt(vec, values, invert=True)
    assert inverse == ntt(scalar, values, invert=True)
    assert ntt(vec, forward, invert=True) == values


@pytest.mark.parametrize("name", _MODULI)
def test_large_ntt_roundtrip_parity(name):
    """One deterministic size-4096 transform per modulus: the vectorized
    butterfly path (above the backend's small-transform cutoff) against
    the from-scratch reference."""
    import random

    scalar, vec = _FIELDS[name]
    if scalar.two_adicity < 12:
        pytest.skip(f"{name} caps NTT size below 2^12")
    rng = random.Random(0xBACCE5)
    values = [rng.randrange(scalar.p) for _ in range(4096)]
    forward = ntt(vec, values)
    assert forward == ntt_reference(scalar, values)
    assert ntt(vec, forward, invert=True) == values


# -- 2-D batch-axis kernels ---------------------------------------------------


def _matrix(p: int, batch: int, n: int):
    return st.lists(
        st.lists(_elements(p), min_size=n, max_size=n),
        min_size=batch,
        max_size=batch,
    )


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mat_elementwise_parity(name, data):
    """Batched add/sub/hadamard, scalar vs numpy.

    batch=1 (the degenerate single-row matrix) is in range on purpose.
    """
    scalar, vec = _FIELDS[name]
    p = scalar.p
    batch = data.draw(st.integers(min_value=1, max_value=5), label="batch")
    # up to 5 × 100 elements, so the matrices straddle the cutoff too
    n = data.draw(st.integers(min_value=1, max_value=100), label="n")
    a = data.draw(_matrix(p, batch, n), label="a")
    b = data.draw(_matrix(p, batch, n), label="b")
    assert vec.mat_add(a, b) == scalar.mat_add(a, b)
    assert vec.mat_sub(a, b) == scalar.mat_sub(a, b)
    assert vec.mat_hadamard(a, b) == scalar.mat_hadamard(a, b)


@pytest.mark.parametrize("name", _MODULI)
def test_batch_inv_zero_escape_exception_parity(name):
    """Satellite regression: a *non-canonical* zero (a multiple of p)
    must raise ZeroDivisionError on both backends — it used to escape
    the numpy guard and poison the whole prefix-product scan."""
    scalar, vec = _FIELDS[name]
    p = scalar.p
    values = [(i % (p - 1)) + 1 for i in range(NumpyBackend.MIN_BATCH_INV + 8)]
    values[17] = p
    with pytest.raises(ZeroDivisionError):
        scalar.batch_inv(values)
    with pytest.raises(ZeroDivisionError):
        vec.batch_inv(values)


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mat_transform_parity(name, data):
    """Stacked NTTs over one plan == per-row transforms, both directions."""
    from repro.poly import get_ntt_plan

    scalar, vec = _FIELDS[name]
    p = scalar.p
    max_log = min(scalar.two_adicity, 8)
    log = data.draw(st.integers(min_value=1, max_value=max_log), label="log_size")
    n = 1 << log
    batch = data.draw(st.integers(min_value=1, max_value=4), label="batch")
    rows = data.draw(_matrix(p, batch, n), label="rows")
    plan_s = get_ntt_plan(scalar, n)
    plan_v = get_ntt_plan(vec, n)
    assert (
        vec.mat_transform(plan_v, rows)
        == scalar.mat_transform(plan_s, rows)
        == [plan_s.forward(list(row)) for row in rows]
    )
    assert (
        vec.mat_transform(plan_v, rows, invert=True)
        == scalar.mat_transform(plan_s, rows, invert=True)
        == [plan_s.inverse(list(row)) for row in rows]
    )


_CRT_MODULI = [name for name in _MODULI if _FIELDS[name][0].p != GOLDILOCKS.modulus]


@pytest.mark.parametrize("name", _CRT_MODULI)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mat_polymul_crt_bit_identity(name, data):
    """The CRT residue-plane convolution reconstructs the exact scalar
    product for every modulus without a uint64 kernel, row for row."""
    from repro.poly import poly_mul

    scalar, vec = _FIELDS[name]
    p = scalar.p
    batch = data.draw(st.integers(min_value=1, max_value=4), label="batch")
    la = data.draw(st.integers(min_value=1, max_value=48), label="la")
    lb = data.draw(st.integers(min_value=1, max_value=48), label="lb")
    rows_a = data.draw(_matrix(p, batch, la), label="rows_a")
    rows_b = data.draw(_matrix(p, batch, lb), label="rows_b")
    got = vec.mat_polymul(rows_a, rows_b)
    assert got is not None, "moduli without a uint64 kernel take the CRT path"
    out_len = la + lb - 1
    for out_row, ra, rb in zip(got, rows_a, rows_b):
        ref = poly_mul(scalar, list(ra), list(rb))
        assert out_row == ref + [0] * (out_len - len(ref))


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_noncanonical_fallback_parity(name, data):
    """Non-canonical operands (negative, >= p) must fall back to the
    tolerant scalar semantics, not produce silently different values."""
    scalar, vec = _FIELDS[name]
    p = scalar.p
    wild = st.integers(min_value=-2 * p, max_value=2 * p)
    n = data.draw(st.integers(min_value=_CUTOFF + 1, max_value=_CUTOFF + 38), label="n")
    a = data.draw(st.lists(wild, min_size=n, max_size=n), label="a")
    b = data.draw(st.lists(wild, min_size=n, max_size=n), label="b")
    c = data.draw(wild, label="c")
    assert vec.vec_add(a, b) == scalar.vec_add(a, b)
    assert vec.vec_scale(c, a) == scalar.vec_scale(c, a)
    assert vec.hadamard(a, b) == scalar.hadamard(a, b)
    # the reductions and t reach their kernels only at longer lengths:
    # values in [p, 2^64) load as uint64 (the kernels reduce them),
    # negative and wider ones send the call back to the scalar loops
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    loadable = [p, p + 1, 2**64 - 1]
    unloadable = [-1, -p - 3, 2**64, 3 * p + 2**70]
    for extra in (loadable, loadable + unloadable):
        def draw(count):
            return [rng.choice([*extra, rng.randrange(p)]) for _ in range(count)]

        n = NumpyBackend.MIN_INNER_PRODUCT + rng.randrange(38)
        a, b = draw(n), draw(n)
        assert vec.inner_product(a, b) == scalar.inner_product(a, b)
        rows = [draw(40) for _ in range(30)]
        coeffs = draw(30)
        base = [rng.randrange(p) for _ in range(40)]
        assert vec.vec_lincomb(base, coeffs, rows) == scalar.vec_lincomb(
            base, coeffs, rows
        )
        # a non-canonical base falls back too
        wild_base = draw(40)
        assert vec.vec_lincomb(wild_base, coeffs, rows) == scalar.vec_lincomb(
            wild_base, coeffs, rows
        )


def _lincomb_reference(p: int, a, coeffs, rows) -> list[int]:
    """a + Σ cᵢ·rowsᵢ, one reduction per multiply-add."""
    out = [x % p for x in a]
    for c, row in zip(coeffs, rows):
        out = [(x + c * y) % p for x, y in zip(out, row)]
    return out


@pytest.mark.parametrize("name", _MODULI)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lincomb_parity(name, data):
    """t = r + Σ αᵢ·qᵢ on both backends equals one multiply-add at a
    time, for μ·n on either side of ``MIN_LINCOMB`` (one row and
    all-zero rows included)."""
    scalar, vec = _FIELDS[name]
    p = scalar.p
    mu = data.draw(st.integers(min_value=0, max_value=60), label="mu")
    cutoff = NumpyBackend.MIN_LINCOMB
    n = data.draw(
        st.one_of(
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=cutoff // max(mu, 1), max_value=cutoff // max(mu, 1) + 3),
        ),
        label="n",
    )
    edges = [0, 1, p - 1, p // 2]
    a = _seeded(data, n, 0, p, edges, "a")
    coeffs = _seeded(data, mu, 0, p, edges, "coeffs")
    rows = [_seeded(data, n, 0, p, edges, f"row {i}") for i in range(mu)]
    zeros = data.draw(st.lists(st.integers(0, max(mu - 1, 0)), max_size=3), label="zeros")
    for i in zeros if mu else []:
        rows[i] = [0] * n
    expected = _lincomb_reference(p, a, coeffs, rows)
    assert vec.vec_lincomb(a, coeffs, rows) == expected
    assert scalar.vec_lincomb(a, coeffs, rows) == expected


@pytest.mark.parametrize("name", _MODULI)
@pytest.mark.parametrize(
    "mu, n, fill",
    [
        (1, NumpyBackend.MIN_LINCOMB, "max"),  # one row, at the cutoff
        (56, 666, "max"),  # the goldilocks-b1 shape, every sum at its largest
        (56, 666, "zero"),  # all-zero rows
        (56, 12, "max"),  # the gateway's shape, below the cutoff
        (0, 666, "max"),  # no rows: t = r
        # too many rows for the limb sums: at p − 1 everywhere they would
        # pass 2^64 from 65,538 rows, so the kernel must decline
        ((1 << 16) + 2, 1, "max"),
    ],
)
def test_lincomb_edges(name, mu, n, fill):
    scalar, vec = _FIELDS[name]
    p = scalar.p
    value = p - 1 if fill == "max" else 0
    a = [p - 1] * n
    coeffs = [p - 1] * mu
    rows = [[value] * n for _ in range(mu)]
    expected = [(p - 1 + mu * (p - 1) * value) % p] * n
    assert vec.vec_lincomb(a, coeffs, rows) == expected
    assert scalar.vec_lincomb(a, coeffs, rows) == expected


def _mat_vec_reference(p: int, rows, v) -> list[int]:
    """<row, v> per row, one reduction per multiply-add."""
    out = []
    for row in rows:
        acc = 0
        for x, y in zip(row, v):
            acc = (acc + x * y) % p
        out.append(acc)
    return out


@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mat_vec_parity(name, data):
    """The base rows' answers on both backends, from int rows and from
    :class:`WordRows`, equal one multiply-add at a time: zero, one and
    odd row counts, lengths zero, small and either side of
    ``MIN_MAT_VEC``.  ``vec_lincomb`` over the same :class:`WordRows`
    (t's fold) is checked alongside."""
    scalar, vec = _FIELDS[name]
    p = scalar.p
    count = data.draw(
        st.one_of(st.sampled_from([0, 1]), st.integers(0, 30).map(lambda k: 2 * k + 1)),
        label="count",
    )
    cutoff = NumpyBackend.MIN_MAT_VEC // max(count, 1)
    n = data.draw(
        st.one_of(st.integers(0, 40), st.integers(max(cutoff - 2, 0), cutoff + 3)),
        label="n",
    )
    edges = [0, 1, p - 1, p // 2]
    v = _seeded(data, n, 0, p, edges, "v")
    rows = [_seeded(data, n, 0, p, edges, f"row {i}") for i in range(count)]
    words = WordRows.from_ints(rows, element_words(p))
    expected = _mat_vec_reference(p, rows, v)
    for field in (scalar, vec):
        assert field.mat_vec(rows, v) == expected
        assert field.mat_vec(words, v) == expected
    a = _seeded(data, n, 0, p, edges, "a")
    coeffs = _seeded(data, count, 0, p, edges, "coeffs")
    expected = _lincomb_reference(p, a, coeffs, rows)
    for field in (scalar, vec):
        assert field.vec_lincomb(a, coeffs, words) == expected


@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
@pytest.mark.parametrize(
    "count, n",
    [
        (22, 333),  # goldilocks-b1's z rows, every sum at its largest
        (344, 342),  # a paper-parameter side
        (1, 8200),  # n·2w ≥ 2^15 for w ≥ 2: the multi-word limb kernel declines
    ],
)
def test_mat_vec_edges(name, count, n):
    scalar, vec = _FIELDS[name]
    p = scalar.p
    rows = [[p - 1] * n for _ in range(count)]
    words = WordRows.from_ints(rows, element_words(p))
    expected = [n * (p - 1) * (p - 1) % p] * count
    for field in (scalar, vec):
        assert field.mat_vec(rows, [p - 1] * n) == expected
        assert field.mat_vec(words, [p - 1] * n) == expected
    expected = [(p - 1 + count * (p - 1) * (p - 1)) % p] * n
    for field in (scalar, vec):
        assert field.vec_lincomb([p - 1] * n, [p - 1] * count, words) == expected
