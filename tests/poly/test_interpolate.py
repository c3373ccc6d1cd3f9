"""Unit tests for multipoint evaluation and interpolation."""

import pytest

from repro.poly import (
    SubproductTree,
    barycentric_lagrange_coeffs,
    barycentric_weights,
    barycentric_weights_arithmetic,
    interpolate_at_roots_of_unity,
    ntt,
    poly_eval,
    trim,
)

from ..qap.h_oracle import interpolate_lagrange_naive


class TestSubproductTree:
    def test_evaluate_matches_horner(self, gold, rng):
        pts = list(range(1, 20))
        tree = SubproductTree(gold, pts)
        poly = [rng.randrange(gold.p) for _ in range(19)]
        assert tree.evaluate(poly) == [poly_eval(gold, poly, x) for x in pts]

    def test_evaluate_non_power_of_two_points(self, gold, rng):
        pts = [rng.randrange(gold.p) for _ in range(13)]
        while len(set(pts)) != 13:
            pts = [rng.randrange(gold.p) for _ in range(13)]
        tree = SubproductTree(gold, pts)
        poly = [rng.randrange(gold.p) for _ in range(13)]
        assert tree.evaluate(poly) == [poly_eval(gold, poly, x) for x in pts]

    def test_interpolate_roundtrip(self, gold, rng):
        pts = list(range(100))
        tree = SubproductTree(gold, pts)
        poly = trim([rng.randrange(gold.p) for _ in range(100)])
        values = tree.evaluate(poly)
        assert tree.interpolate(values) == poly

    def test_interpolate_matches_naive(self, gold, rng):
        pts = [3, 8, 20, 44, 91]
        values = [rng.randrange(gold.p) for _ in range(5)]
        tree = SubproductTree(gold, pts)
        assert tree.interpolate(values) == interpolate_lagrange_naive(
            gold, pts, values
        )

    def test_duplicate_points_rejected(self, gold):
        with pytest.raises(ValueError):
            SubproductTree(gold, [1, 2, 2])

    def test_wrong_value_count(self, gold):
        tree = SubproductTree(gold, [1, 2, 3])
        with pytest.raises(ValueError):
            tree.interpolate([1, 2])

    def test_root_is_vanishing_poly(self, gold):
        tree = SubproductTree(gold, [1, 2, 3])
        for x in (1, 2, 3):
            assert poly_eval(gold, tree.root, x) == 0
        assert poly_eval(gold, tree.root, 4) != 0


class TestNaiveLagrange:
    def test_passes_through_points(self, gold, rng):
        pts = [1, 5, 9, 11]
        values = [rng.randrange(gold.p) for _ in range(4)]
        poly = interpolate_lagrange_naive(gold, pts, values)
        assert [poly_eval(gold, poly, x) for x in pts] == values

    def test_length_mismatch(self, gold):
        with pytest.raises(ValueError):
            interpolate_lagrange_naive(gold, [1, 2], [1])


class TestRootsOfUnity:
    def test_inverse_of_ntt(self, gold, rng):
        poly = trim([rng.randrange(gold.p) for _ in range(32)])
        evals = ntt(gold, poly + [0] * (32 - len(poly)))
        assert interpolate_at_roots_of_unity(gold, evals) == poly

    def test_rejects_odd_length(self, gold):
        with pytest.raises(ValueError):
            interpolate_at_roots_of_unity(gold, [1, 2, 3])


class TestBarycentric:
    def test_arithmetic_weights_match_general(self, gold):
        for n in (1, 2, 5, 16):
            assert barycentric_weights_arithmetic(
                gold, n
            ) == barycentric_weights(gold, list(range(n)))

    def test_evaluation_identity(self, gold, rng):
        """Σ f(x_j)·λ_j(τ) == f(τ) for deg f < n."""
        n = 12
        pts = list(range(n))
        poly = [rng.randrange(gold.p) for _ in range(n)]
        weights = barycentric_weights_arithmetic(gold, n)
        tau = rng.randrange(n + 1, gold.p)
        _, lam = barycentric_lagrange_coeffs(gold, pts, weights, tau)
        value = sum(
            poly_eval(gold, poly, x) * l for x, l in zip(pts, lam)
        ) % gold.p
        assert value == poly_eval(gold, poly, tau)

    def test_ell_is_vanishing_product(self, gold, rng):
        n = 6
        pts = list(range(n))
        weights = barycentric_weights_arithmetic(gold, n)
        tau = rng.randrange(n + 1, gold.p)
        ell, _ = barycentric_lagrange_coeffs(gold, pts, weights, tau)
        expected = 1
        for x in pts:
            expected = expected * (tau - x) % gold.p
        assert ell == expected

    def test_tau_collision_rejected(self, gold):
        weights = barycentric_weights_arithmetic(gold, 4)
        with pytest.raises(ValueError):
            barycentric_lagrange_coeffs(gold, [0, 1, 2, 3], weights, 2)

    def test_empty(self, gold):
        assert barycentric_weights_arithmetic(gold, 0) == []
