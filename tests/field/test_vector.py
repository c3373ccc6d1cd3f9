"""Unit tests for vector operations."""

import pytest

from repro.field import outer, powers


class TestElementwise:
    def test_add_sub_roundtrip(self, gold, rng):
        a = [rng.randrange(gold.p) for _ in range(10)]
        b = [rng.randrange(gold.p) for _ in range(10)]
        # subtracting b is adding (−1)·b
        assert gold.vec_lincomb(gold.vec_add(a, b), [gold.p - 1], [b]) == a

    def test_neg(self, gold):
        # negation is scaling by −1
        assert gold.vec_scale(gold.p - 1, [0, 1, 2]) == [0, gold.p - 1, gold.p - 2]

    def test_scale(self, gold):
        assert gold.vec_scale(3, [1, 2]) == [3, 6]

    def test_addmul(self, gold):
        assert gold.vec_lincomb([1, 1], [2], [[3, 4]]) == [7, 9]
        assert gold.vec_lincomb([1, 1], [2, 5], [[3, 4], [0, 1]]) == [7, 14]
        assert gold.vec_lincomb([1, 1], [], []) == [1, 1]

    def test_length_mismatch(self, gold):
        with pytest.raises(ValueError):
            gold.vec_add([1], [1, 2])
        with pytest.raises(ValueError):
            gold.hadamard([1], [1, 2])
        with pytest.raises(ValueError):
            gold.vec_lincomb([1], [1], [[1, 2]])
        with pytest.raises(ValueError):
            gold.vec_lincomb([1], [1, 2], [[1]])


class TestProducts:
    def test_inner(self, gold):
        assert gold.inner_product([1, 2, 3], [4, 5, 6]) == 32

    def test_outer_shape_and_values(self, gold):
        result = outer(gold, [1, 2], [3, 4, 5])
        assert result == [3, 4, 5, 6, 8, 10]

    def test_outer_inner_consistency(self, gold, rng):
        """<a⊗b, c⊗d> == <a,c>·<b,d> — the identity behind the
        quadratic-correction test."""
        n = 6
        a, b, c, d = (
            [rng.randrange(gold.p) for _ in range(n)] for _ in range(4)
        )
        lhs = gold.inner_product(outer(gold, a, b), outer(gold, c, d))
        rhs = gold.mul(gold.inner_product(a, c), gold.inner_product(b, d))
        assert lhs == rhs

    def test_hadamard(self, gold):
        assert gold.hadamard([2, 3], [4, 5]) == [8, 15]


class TestPowers:
    def test_basic(self, gold):
        assert powers(gold, 3, 4) == [1, 3, 9, 27]

    def test_zero_count(self, gold):
        assert powers(gold, 3, 0) == []

    def test_is_polynomial_evaluation(self, gold, rng):
        """<powers(τ), h> must equal H(τ) — the q_d query's purpose."""
        from repro.poly import poly_eval

        h = [rng.randrange(gold.p) for _ in range(9)]
        tau = rng.randrange(gold.p)
        assert gold.inner_product(powers(gold, tau, 9), h) == poly_eval(gold, h, tau)
