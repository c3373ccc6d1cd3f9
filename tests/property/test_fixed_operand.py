"""Products against a fixed operand equal per-row ``poly_mul``.

``mat_poly_mul`` takes its second operand either as one row per row of
the first or as a :class:`~repro.poly.FixedOperand` whose k rows tile
the batch (row i meets ``rows[i mod k]``).  A fixed operand enters the
transform routes already transformed — on every CRT residue plane, in
the Goldilocks uint64 transform domain, or as the scalar backend's
transformed int rows — and those forms are kept between calls.  Every
route must still return exactly the per-row products, on every named
modulus and both backends: one row broadcast over B rows, k rows tiled
over k·B rows, B = 1, column windows, and a shape the batched kernels
decline (k not dividing the batch), which falls back to the per-row
tiling.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import HAVE_NUMPY, NAMED_FIELDS, PrimeField
from repro.poly import FixedOperand, mat_poly_mul, poly_mul

_BACKENDS = ("scalar", "numpy") if HAVE_NUMPY else ("scalar",)
_FIELDS = {
    (name, backend): PrimeField(NAMED_FIELDS[name], check_prime=False, backend=backend)
    for name in ("goldilocks", "p128", "p192", "p220")
    for backend in _BACKENDS
}


def _per_row(field, rows_a, rows_b, cols):
    out_len = len(rows_a[0]) + len(rows_b[0]) - 1
    lo, hi = cols if cols is not None else (0, out_len)
    out = []
    for i, row in enumerate(rows_a):
        conv = poly_mul(field, row, rows_b[i % len(rows_b)])
        out.append((conv + [0] * (out_len - len(conv)))[lo:hi])
    return out


def _rows(p: int, count: int, width: int):
    element = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    return st.lists(
        st.lists(element, min_size=width, max_size=width),
        min_size=count,
        max_size=count,
    )


@pytest.mark.parametrize("key", sorted(_FIELDS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fixed_operand_matches_per_row_products(key, data):
    """Widths span the row-by-row, column-wise and transform routes;
    every product runs twice, the second time on the kept forms."""
    field = _FIELDS[key]
    k = data.draw(st.sampled_from([1, 1, 2, 3]), label="k")
    batch = data.draw(st.integers(1, 4), label="B")
    la = data.draw(st.sampled_from([1, 3, 16, 40, 150]), label="la")
    lb = data.draw(st.sampled_from([2, 17, 41, 151, 300]), label="lb")
    rows_a = data.draw(_rows(field.p, k * batch, la), label="rows_a")
    rows_b = data.draw(_rows(field.p, k, lb), label="rows_b")
    out_len = la + lb - 1
    cols = data.draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, out_len), st.integers(0, out_len)).map(sorted).map(tuple),
        ),
        label="cols",
    )
    operand = FixedOperand(rows_b)
    expected = _per_row(field, rows_a, rows_b, cols)
    assert mat_poly_mul(field, rows_a, operand, cols) == expected
    assert mat_poly_mul(field, rows_a, operand, cols) == expected
    if k == len(rows_a):  # one operand row per row: the two-operand form
        assert mat_poly_mul(field, rows_a, rows_b, cols) == expected


@pytest.mark.parametrize("key", sorted(_FIELDS))
def test_declined_shape_falls_back(key):
    """Three operand rows do not tile four rows: the batched kernels
    decline, and the products still pair row i with row i mod 3."""
    field = _FIELDS[key]
    p = field.p
    rows_b = [[(7 * i + j) % p for j in range(300)] for i in range(3)]
    rows_a = [[(p - 1 - 5 * i - j) % p for j in range(200)] for i in range(4)]
    operand = FixedOperand(rows_b)
    expected = _per_row(field, rows_a, rows_b, (10, 400))
    assert mat_poly_mul(field, rows_a, operand, (10, 400)) == expected
    assert not any(route in ("crt", "u64") for route, _ in operand.forms)


@pytest.mark.parametrize("key", sorted(_FIELDS))
def test_many_rows_cross_the_row_tiles(key):
    """300 rows of 40 coefficients span several of the CRT core's row
    tiles; each tile must start on an operand boundary, so row i still
    meets operand row i mod 3."""
    field = _FIELDS[key]
    p = field.p
    rows_b = [[(11 * i + 5 * j + 1) % p for j in range(41)] for i in range(3)]
    rows_a = [[(p - 3 * i - j) % p for j in range(40)] for i in range(300)]
    operand = FixedOperand(rows_b)
    assert mat_poly_mul(field, rows_a, operand) == _per_row(field, rows_a, rows_b, None)


@pytest.mark.parametrize("name", ["goldilocks", "p128"])
def test_threads_racing_the_first_product_share_one_form(name):
    """Gateway handler threads share a QAP's operands.  Threads that race
    the first product each build the form, one is kept, and every
    product, during the race and after it, is exact."""
    import sys
    import threading

    field = PrimeField(NAMED_FIELDS[name], check_prime=False)
    p = field.p
    rows_b = [[(3 * j + 1) % p for j in range(300)]]
    rows_a = [[(p - 7 * i - j) % p for j in range(200)] for i in range(2)]
    expected = _per_row(field, rows_a, rows_b, (50, 450))
    operand = FixedOperand(rows_b)
    n_threads = 8  # more than the cores, so the builds interleave
    results: list = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def work(slot: int) -> None:
        barrier.wait()
        results[slot] = [mat_poly_mul(field, rows_a, operand, (50, 450)) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == [expected] * 3 for out in results)
    assert len(operand.forms) == 1
    assert mat_poly_mul(field, rows_a, operand, (50, 450)) == expected


def test_fixed_operand_validates_its_rows():
    with pytest.raises(ValueError, match="one width"):
        FixedOperand([[1, 2], [3]])
    with pytest.raises(ValueError, match="one width"):
        FixedOperand([])
