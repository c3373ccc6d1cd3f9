"""Batched Newton interpolation on the progression n..2n−1.

``mat_interpolate_newton`` is the prover's H(t) interpolation; these
tests hold it to the O(n²) Lagrange reference, the subproduct tree and
(at the prover's own shape) the tree-plus-Taylor-shift route it
replaced.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.field import GOLDILOCKS, HAVE_NUMPY, NAMED_FIELDS, PrimeField
from repro.poly import (
    SubproductTree,
    mat_interpolate_newton,
    newton_levels,
    pad_rows,
    poly_eval,
)

from ..qap.h_oracle import (
    TreeShiftInterpolator,
    interpolate_lagrange_naive,
    newton_inputs,
)

#: without numpy a numpy request degrades to the scalar kernels
BACKENDS = ("scalar", "numpy") if HAVE_NUMPY else ("scalar",)
SIZES = (1, 2, 3, 4, 5, 8, 9, 17, 64, 65)
GOLD = PrimeField(GOLDILOCKS, check_prime=False)


def interpolate(field, rows):
    """Coefficient rows of the polynomials with values ``rows`` at n..2n−1."""
    return mat_interpolate_newton(field, *newton_inputs(field, rows))


def random_rows(field, n, batch, seed):
    rng = random.Random(seed)
    return [[rng.randrange(field.p) for _ in range(n)] for _ in range(batch)]


def check_against_references(field, n, batch):
    rows = random_rows(field, n, batch, seed=n * 10 + batch)
    points = list(range(n, 2 * n))
    tree = SubproductTree(field, points)
    got = interpolate(field, rows)
    assert got == pad_rows([interpolate_lagrange_naive(field, points, r) for r in rows], n)
    assert got == pad_rows([tree.interpolate(r) for r in rows], n)


class TestMatchesReferences:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["goldilocks", "p128"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_named_fields(self, n, batch, name, backend):
        field = PrimeField(NAMED_FIELDS[name], check_prime=False, backend=backend)
        check_against_references(field, n, batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("p, m, wraps", [(97, 47, False), (67, 32, True)])
    def test_small_prime_at_capacity(self, p, m, wraps, batch, backend):
        """n = m + 1 points with p > 2m + 1, the bound ``build_qap``
        enforces, so the points n..2n−1 are distinct.  At p = 67 the
        padded nodes' points run past p and wrap: they multiply only
        zero blocks."""
        field = PrimeField(p, backend=backend)
        n = m + 1
        roots = {
            x
            for level in newton_levels(field, n, n)
            for node in level
            for x in range(p)
            if poly_eval(field, node, x) == 0
        }
        assert any(x < n for x in roots) == wraps
        check_against_references(field, n, batch)

    def test_prover_shape_matches_tree_and_shift(self, p128):
        """LCS m=4's shape (n = 342, B = 8) against the route it
        replaced: tree interpolation of G(t) = H(t + n), shifted back."""
        rows = random_rows(p128, 342, 8, seed=342)
        assert interpolate(p128, rows) == TreeShiftInterpolator(p128, 342)(rows)


@st.composite
def value_rows(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    batch = draw(st.integers(min_value=1, max_value=3))
    value = st.integers(min_value=0, max_value=GOLD.p - 1)
    return [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(batch)]


@settings(max_examples=25, deadline=None)
@given(value_rows())
def test_roundtrip_evaluates_back_to_the_values(rows):
    n = len(rows[0])
    for poly, values in zip(interpolate(GOLD, rows), rows):
        assert len(poly) == n
        assert [poly_eval(GOLD, poly, x) for x in range(n, 2 * n)] == values


class TestContract:
    def test_counts_one_interpolation_per_row(self, gold):
        rows = random_rows(gold, 9, 3, seed=1)
        with telemetry.session() as tracer:
            interpolate(gold, rows)
        totals = tracer.total_counters()
        assert totals["poly.interpolations"] == 3
        assert totals["poly.interpolation_points"] == 27

    def test_degenerate_batches(self, gold):
        assert mat_interpolate_newton(gold, [], [], []) == []
        assert mat_interpolate_newton(gold, [[], []], [], []) == [[], []]

    def test_rejects_ragged_rows_and_short_kernels(self, gold):
        levels = newton_levels(gold, 3, 3)
        with pytest.raises(ValueError, match="equal lengths"):
            mat_interpolate_newton(gold, [[1, 2, 3], [1, 2]], [1, 1, 1], levels)
        with pytest.raises(ValueError, match="difference kernel"):
            mat_interpolate_newton(gold, [[1, 2, 3]], [1, 1], levels)
