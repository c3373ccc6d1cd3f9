"""Unit tests for the multiplication dispatcher (schoolbook/Karatsuba/NTT)."""

import pytest

from repro import telemetry
from repro.field import PrimeField
from repro.poly import mat_poly_mul, poly_mul, poly_mul_naive


class TestDispatch:
    def test_small_sizes(self, gold, rng):
        for na, nb in [(1, 1), (3, 5), (31, 33)]:
            a = [rng.randrange(gold.p) for _ in range(na)]
            b = [rng.randrange(gold.p) for _ in range(nb)]
            assert poly_mul(gold, a, b) == poly_mul_naive(gold, a, b)

    def test_karatsuba_range(self, gold, rng):
        a = [rng.randrange(gold.p) for _ in range(100)]
        b = [rng.randrange(gold.p) for _ in range(90)]
        assert poly_mul(gold, a, b) == poly_mul_naive(gold, a, b)

    def test_ntt_range(self, gold, rng):
        a = [rng.randrange(gold.p) for _ in range(400)]
        b = [rng.randrange(gold.p) for _ in range(300)]
        assert poly_mul(gold, a, b) == poly_mul_naive(gold, a, b)

    def test_empty(self, gold):
        assert poly_mul(gold, [], [1]) == []
        assert poly_mul(gold, [1], []) == []


class TestNonNTTField:
    def test_karatsuba_fallback_for_low_two_adicity(self, rng):
        """A field with tiny 2-adicity cannot host large NTTs; the
        dispatcher must fall back to Karatsuba and stay correct."""
        field = PrimeField(2**61 - 1)  # Mersenne: 2-adicity is 1
        a = [rng.randrange(field.p) for _ in range(300)]
        b = [rng.randrange(field.p) for _ in range(280)]
        assert poly_mul(field, a, b) == poly_mul_naive(field, a, b)


class TestAlgebra:
    def test_commutative(self, gold, rng):
        a = [rng.randrange(gold.p) for _ in range(80)]
        b = [rng.randrange(gold.p) for _ in range(50)]
        assert poly_mul(gold, a, b) == poly_mul(gold, b, a)

    def test_associative(self, gold, rng):
        a = [rng.randrange(gold.p) for _ in range(20)]
        b = [rng.randrange(gold.p) for _ in range(20)]
        c = [rng.randrange(gold.p) for _ in range(20)]
        left = poly_mul(gold, poly_mul(gold, a, b), c)
        right = poly_mul(gold, a, poly_mul(gold, b, c))
        assert left == right


class TestMatPolyMul:
    """``mat_poly_mul`` picks its algorithm with ``mul_strategy``, as
    ``poly_mul`` does (priced for the whole batch), and every route
    returns per-row ``poly_mul`` zero-extended to the full convolution
    width."""

    @pytest.mark.parametrize("la, lb", [(4, 4), (7, 7), (100, 90), (400, 300)])
    def test_rows_match_poly_mul(self, gold, rng, la, lb):
        rows_a = [[rng.randrange(gold.p) for _ in range(la)] for _ in range(3)]
        rows_b = [[rng.randrange(gold.p) for _ in range(lb)] for _ in range(3)]
        out = mat_poly_mul(gold, rows_a, rows_b)
        for ra, rb, row in zip(rows_a, rows_b, out):
            conv = poly_mul(gold, ra, rb)
            assert row == conv + [0] * (la + lb - 1 - len(conv))

    @pytest.mark.parametrize(
        "width, batch, stacked",
        [(4, 1, False), (4, 8, False), (100, 1, False), (100, 2, True), (400, 1, True)],
    )
    def test_only_transform_shapes_stack_ntts(self, gold, rng, width, batch, stacked):
        """Batches ``mul_strategy`` does not mark "ntt" go row by row: a
        100-wide product is Karatsuba alone but a transform in pairs."""
        rows = [[rng.randrange(gold.p) for _ in range(width)] for _ in range(batch)]
        with telemetry.session() as tracer:
            mat_poly_mul(gold, rows, rows)
        ntt_calls = tracer.total_counters().get("poly.ntt_calls", 0)
        assert (ntt_calls > 0) == stacked
