"""Interpolation and multipoint evaluation.

Two consumers, per §A.3:

* The **prover** interpolates from values at the distinguished points
  {σ_j} ("multipoint interpolation", budget ≈ f·|C|·log²|C|).  The
  paper interpolates A_w(t), B_w(t), C_w(t) on the subproduct tree
  here.  ``repro.qap.prover`` interpolates only H_w, once per proof, on
  the progression |C|+1..2|C|+1, where Newton form needs one product
  per tree node instead of the tree's two
  (``repro.poly.batch.mat_interpolate_newton``); the tree stays as the
  general-points reference the tests and the division oracle use.
  When the σ are successive powers of a root of unity, interpolation
  degenerates into an inverse NTT (see
  ``interpolate_at_roots_of_unity``).

* The **verifier** never interpolates: it evaluates every A_i, B_i, C_i
  at one random τ using barycentric Lagrange weights [14], exploiting
  the arithmetic-progression choice σ_j = j so the weights cost O(|C|)
  total (``barycentric_lagrange_coeffs``).
"""

from __future__ import annotations

from typing import Sequence

from .. import telemetry
from ..field import PrimeField
from .dense import poly_eval, trim
from .multiply import mul_strategy, poly_mul
from .ntt import intt
from .plan import get_ntt_plan


class SubproductTree:
    """Subproduct tree over a fixed set of evaluation points.

    Building the tree costs O(M(n) log n); it is then reused for any
    number of multipoint evaluations and interpolations at those points
    (the prover interpolates once per proof instance over the same σ
    set).
    """

    def __init__(self, field: PrimeField, points: Sequence[int]):
        if len(set(points)) != len(points):
            raise ValueError("interpolation points must be distinct")
        self.field = field
        self.points = [pt % field.p for pt in points]
        n = len(self.points)
        p = field.p
        # levels[0] is the leaves (t - x_i); levels[-1] is the root.
        levels: list[list[list[int]]] = [[[(-x) % p, 1] for x in self.points]]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            nxt: list[list[int]] = []
            for i in range(0, len(prev) - 1, 2):
                nxt.append(poly_mul(field, prev[i], prev[i + 1]))
            if len(prev) % 2:
                nxt.append(prev[-1])
            levels.append(nxt)
        self.levels = levels
        self.n = n
        self._derivative_evals: list[int] | None = None
        self._inv_derivative_evals: list[int] | None = None
        self._warm_mul_plans()

    def _warm_mul_plans(self) -> None:
        """Prebuild the NTT plans the interpolation up-sweep will need.

        At each tree level the up-sweep multiplies an accumulator (at
        most the sibling subtree's point count) by a fixed node
        polynomial, so the product sizes — and hence the NTT plan keys
        — are known at construction time.  Warming them here moves the
        plan misses into tree build (amortized over the batch) so
        per-instance interpolation runs entirely on plan-cache hits.
        """
        field = self.field
        sizes: set[int] = set()
        for level in self.levels[:-1]:
            for i in range(0, len(level) - 1, 2):
                # accumulator over subtree i has degree < its point
                # count = len(node) - 1; the product with the sibling
                # node polynomial is what poly_mul will see.
                la = len(level[i]) - 1
                lb = len(level[i + 1])
                if mul_strategy(field, la, lb) == "ntt":
                    size = 1
                    while size < la + lb - 1:
                        size <<= 1
                    sizes.add(size)
        for size in sorted(sizes):
            get_ntt_plan(field, size)

    @property
    def root(self) -> list[int]:
        """∏ (t - x_i) — the divisor polynomial when points are the σ_j."""
        return self.levels[-1][0] if self.n else [1]

    # -- multipoint evaluation ------------------------------------------------

    def evaluate(self, coeffs: Sequence[int]) -> list[int]:
        """Evaluate one polynomial at every tree point (going-down remainders)."""
        from .divide import poly_divmod

        if self.n == 0:
            return []
        field = self.field
        # Walk the tree top-down, reducing modulo each node's polynomial;
        # node i at depth d has parent i // 2 at depth d + 1 (carried
        # odd nodes are always last, so the index map holds for them too).
        rems: list[list[int]] = [list(coeffs)]
        for depth in range(len(self.levels) - 1, -1, -1):
            level = self.levels[depth]
            rems = [
                poly_divmod(field, rems[i // 2], node)[1]
                for i, node in enumerate(level)
            ]
        return [r[0] if r else 0 for r in rems]

    # -- interpolation ----------------------------------------------------------

    def derivative_evals(self) -> list[int]:
        """m'(x_i) for all points, where m is the root polynomial."""
        if self._derivative_evals is None:
            from .dense import poly_derivative

            deriv = poly_derivative(self.field, self.root)
            self._derivative_evals = self.evaluate(deriv)
        return self._derivative_evals

    def inv_derivative_evals(self) -> list[int]:
        """1/m'(x_i) for all points, batch-inverted once and reused.

        Every interpolation over this tree needs these denominators;
        computing the Montgomery batch inversion once per tree (instead
        of once per call) is part of the batch amortization measured by
        ``poly.plan_hits``.
        """
        if self._inv_derivative_evals is None:
            telemetry.count("poly.plan_misses")
            self._inv_derivative_evals = self.field.batch_inv(self.derivative_evals())
        else:
            telemetry.count("poly.plan_hits")
        return self._inv_derivative_evals

    def interpolate(self, values: Sequence[int]) -> list[int]:
        """Coefficients of the unique poly of degree < n through the points."""
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")
        if telemetry.enabled():
            telemetry.count("poly.interpolations")
            telemetry.count("poly.interpolation_points", self.n)
        if self.n == 0:
            return []
        field = self.field
        inv_denom = self.inv_derivative_evals()
        p = field.p
        weights = field.hadamard(list(values), inv_denom)
        # Combine up the tree: node poly = left*M_right + right*M_left.
        polys: list[list[int]] = [[w] if w else [] for w in weights]
        for depth in range(len(self.levels) - 1):
            level = self.levels[depth]
            nxt: list[list[int]] = []
            for i in range(0, len(level) - 1, 2):
                left = poly_mul(field, polys[i], level[i + 1])
                right = poly_mul(field, polys[i + 1], level[i])
                if len(left) < len(right):
                    left, right = right, left
                for j, c in enumerate(right):
                    left[j] = (left[j] + c) % p
                nxt.append(trim(left) if isinstance(left, list) else left)
            if len(level) % 2:
                nxt.append(polys[len(level) - 1])
            polys = nxt
        return trim(polys[0])


def interpolate_at_roots_of_unity(
    field: PrimeField, values: Sequence[int]
) -> list[int]:
    """Interpolation when the points are 1, ω, ω², ... (an inverse NTT).

    This is the fast σ-placement ablation: real QAP systems put the σ_j
    at a multiplicative subgroup precisely to get this path.
    """
    n = len(values)
    if n & (n - 1):
        raise ValueError("root-of-unity interpolation needs power-of-two length")
    if telemetry.enabled():
        telemetry.count("poly.interpolations")
        telemetry.count("poly.interpolation_points", n)
    return trim(intt(field, values))


def barycentric_weights(field: PrimeField, points: Sequence[int]) -> list[int]:
    """v_j = 1 / ∏_{k≠j} (x_j - x_k) for arbitrary distinct points; O(n²)."""
    p = field.p
    denoms = []
    for j, xj in enumerate(points):
        d = 1
        for k, xk in enumerate(points):
            if k != j:
                d = d * (xj - xk) % p
        denoms.append(d)
    return field.batch_inv(denoms)


def barycentric_weights_arithmetic(field: PrimeField, count: int) -> list[int]:
    """Weights for the progression 0, 1, ..., count-1 in O(count) field ops.

    §A.3's verifier trick: with σ_j in arithmetic progression,
    1/v_{j+1} follows from 1/v_j with two operations, since
    v_j = (-1)^(n-1-j) / (j! · (n-1-j)!).
    """
    p = field.p
    n = count
    if n == 0:
        return []
    # inv_v[j] = ∏_{k≠j} (j - k) = (-1)^(n-1-j) * j! * (n-1-j)!
    inv_v = [0] * n
    acc = 1
    for k in range(1, n):
        acc = acc * (-k) % p  # ∏_{k=1..n-1} (0 - k)
    inv_v[0] = acc
    if n > 1:
        # inv_v[j] = inv_v[j-1] * j / (j - n): two multiplies per step once
        # the (j - n) terms are batch-inverted.
        step_invs = field.batch_inv([(j - n) % p for j in range(1, n)])
        for j in range(1, n):
            inv_v[j] = inv_v[j - 1] * j % p * step_invs[j - 1] % p
    return field.batch_inv(inv_v)


def barycentric_lagrange_coeffs(
    field: PrimeField, points: Sequence[int], weights: Sequence[int], tau: int
) -> tuple[int, list[int]]:
    """ℓ(τ) and the coefficients λ_j(τ) = ℓ(τ)·v_j/(τ−x_j).

    With these, any polynomial given by its point values a_j evaluates
    at τ as Σ_j a_j·λ_j(τ) — this is how the verifier computes all
    A_i(τ), B_i(τ), C_i(τ) with one multiplication per nonzero entry
    (§A.3).  Requires τ ∉ points (true w.h.p. for random τ; callers
    fall back to direct evaluation otherwise).
    """
    p = field.p
    diffs = [(tau - x) % p for x in points]
    if any(d == 0 for d in diffs):
        raise ValueError("tau collides with an interpolation point")
    ell = 1
    for d in diffs:
        ell = ell * d % p
    inv_diffs = field.batch_inv(diffs)
    lam = field.hadamard(field.vec_scale(ell, list(weights)), inv_diffs)
    return ell, lam
