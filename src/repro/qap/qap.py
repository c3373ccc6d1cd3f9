"""Quadratic Arithmetic Programs from quadratic-form constraints (§A.1).

Given a canonical constraint system C over W = (Z, X, Y), the QAP is
the family of degree-|C| polynomials {Aᵢ(t), Bᵢ(t), Cᵢ(t)} for
i ∈ [0..n] defined by interpolation:

    Aᵢ(σ_j) = a_{ij}   (the coefficient of Wᵢ in p_{j,A})
    Aᵢ(σ₀)  = 0        (σ₀ = 0, pinning the degree)

plus the divisor polynomial D(t) = ∏_{j∈[1..|C|]} (t − σ_j).  Claim A.1:
D(t) | P_w(t) iff w's unbound part satisfies C(X=x, Y=y).

Neither party materializes the Aᵢ as coefficient vectors; everything
uses the sparse evaluation representation {(j, a_{ij}) : a_{ij} ≠ 0}
that Gennaro et al. observe is sufficient (§A.3).

Two σ-point placements are supported (the DESIGN.md ablation):

* ``"arithmetic"`` — σ_j = j, the paper's choice (§A.3: "a convenient
  choice is 1, 2, ..., |C|"), with one Newton-form interpolation per
  proof for the prover, on the progression |C|+1..2|C|+1 where it
  forms H (see ``repro.qap.prover``), and O(|C|) barycentric weights
  for the verifier.  The prover inverts 1..2|C|+1, so the field needs
  p > 2|C| + 1 (which also keeps the Newton points distinct);
* ``"roots"`` — σ_j ranges over a power-of-two subgroup (constraints
  padded with trivial 0·0=0 rows), turning the prover's interpolation
  into inverse NTTs and making D(t) = t^m − 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .. import telemetry
from ..constraints import QuadraticSystem
from ..field import PrimeField
from ..poly import (
    FixedOperand,
    SubproductTree,
    get_barycentric_weights,
    newton_levels,
    poly_from_roots,
)
from ..poly.divide import _series_inverse

#: sparse map: variable index -> [(constraint_index_1based, coefficient)]
SparseColumns = dict[int, list[tuple[int, int]]]


@dataclass(frozen=True)
class HTables:
    """The fixed vectors arithmetic-mode H(t) construction reads.

    With n = m + 1 points 0..m, ``repro.qap.prover`` extends A_w, B_w
    and C_w from their values at 0..m to n..2n−1 with one stacked
    convolution, forms H(n+k)/k! there pointwise and interpolates it by
    Newton form (:func:`~repro.poly.batch.mat_interpolate_newton`).
    Everything it multiplies by is a function of (p, n) alone:

    * ``weights[j]`` — the barycentric weight w_j of point j (the
      shared cache entry behind ``QAPInstance.barycentric_weights``);
    * ``kernel``, one row with ``kernel[l − 1] = 1/l`` for l = 1..2n−1,
      so that column n−1+k of (f(j)·w_j)_j convolved with it is
      Σ_j f(j)·w_j/(n+k−j) = f(n+k)/L_k with L_k = (n+k)!/k!;
    * ``scale[k] = (n+k)·L_k/k!`` and ``point[k] = (n+k)/k!``: since
      D(n+k) = L_k/(n+k), H(n+k)/k! = scale[k]·Ã_k·B̃_k − point[k]·C̃_k,
      the values Newton interpolation on n..2n−1 takes;
    * ``differences``, one row with ``differences[k] = (−1)^k/k!`` —
      the kernel whose convolution with those values gives H's Newton
      coefficients;
    * ``levels`` — the up-sweep's M_L = ∏ (t − x), one row per pair, one
      operand per level (:func:`~repro.poly.batch.newton_levels` over
      n..2n−1).

    ``kernel``, ``differences`` and each level are the second operands
    of H(t)'s products, so they are
    :class:`~repro.poly.batch.FixedOperand` s: their plain ``rows``,
    plus each route's transform of them, built by the first product
    that needs it and then kept for every batch against this QAP.
    """

    weights: list[int]
    kernel: FixedOperand
    scale: list[int]
    point: list[int]
    differences: FixedOperand
    levels: list[FixedOperand]


@dataclass
class QAPInstance:
    """A QAP plus the cached structures both parties reuse per batch."""

    field: PrimeField
    system: QuadraticSystem
    mode: str = "arithmetic"
    # filled by __post_init__:
    m: int = 0                      # number of (possibly padded) constraints
    sigma: list[int] = dataclass_field(default_factory=list)
    a_cols: SparseColumns = dataclass_field(default_factory=dict)
    b_cols: SparseColumns = dataclass_field(default_factory=dict)
    c_cols: SparseColumns = dataclass_field(default_factory=dict)
    _divisor_inverse: list[int] | None = dataclass_field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.system.is_canonical():
            raise ValueError("QAP construction requires a canonical system")
        if self.mode not in ("arithmetic", "roots"):
            raise ValueError(f"unknown sigma mode {self.mode!r}")
        field = self.field
        n_constraints = self.system.num_constraints
        if self.mode == "arithmetic":
            self.m = n_constraints
            if field.p <= 2 * self.m + 1:
                raise ValueError(
                    f"an arithmetic-mode QAP over {self.m} constraints needs "
                    f"p > 2m + 1 = {2 * self.m + 1} (the prover inverts "
                    f"1..2m+1), but p = {field.p}"
                )
            self.sigma = list(range(1, self.m + 1))
        else:
            size = 1
            while size < max(n_constraints, 2):
                size <<= 1
            self.m = size
            omega = field.root_of_unity(size)
            self.sigma = [pow(omega, j, field.p) for j in range(size)]
        for j, constraint in enumerate(self.system.constraints, start=1):
            for cols, lc in (
                (self.a_cols, constraint.a),
                (self.b_cols, constraint.b),
                (self.c_cols, constraint.c),
            ):
                for i, coeff in lc.terms.items():
                    if coeff:
                        cols.setdefault(i, []).append((j, coeff))

    # -- derived sizes ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Total variables (excluding the constant wire)."""
        return self.system.num_vars

    @property
    def n_prime(self) -> int:
        """|Z|: unbound variables, the length of πz queries."""
        return self.system.num_unbound

    @property
    def h_length(self) -> int:
        """Length of the h coefficient vector (|C| + 1 in the paper)."""
        return self.m + 1

    @property
    def proof_vector_length(self) -> int:
        """|u| = |Z| + |C| + 1."""
        return self.n_prime + self.h_length

    def nonzero_coefficients(self) -> int:
        """Total nonzero a/b/c entries — bounds V's query work (§A.3)."""
        return sum(
            len(entries)
            for cols in (self.a_cols, self.b_cols, self.c_cols)
            for entries in cols.values()
        )

    # -- cached interpolation machinery -------------------------------------------

    @cached_property
    def prover_points(self) -> list[int]:
        """Interpolation points for the prover's A/B/C reconstruction."""
        if self.mode == "arithmetic":
            return [0, *self.sigma]
        return list(self.sigma)

    @cached_property
    def subproduct_tree(self) -> SubproductTree:
        """Shared tree over ``prover_points`` (arithmetic mode only).

        No prover reads it (arithmetic mode interpolates H by Newton
        form from ``h_tables``).  It stays because the repository
        benchmark (``perfbench/workloads.py``'s ``warm_qap``) builds it,
        and a performance change may not edit the benchmark, and because
        the division oracle (``tests/qap/h_oracle.py``) interpolates on it.
        """
        return SubproductTree(self.field, self.prover_points)

    @cached_property
    def divisor_poly(self) -> list[int]:
        """D(t) coefficients.  Arithmetic mode only — roots mode never
        materializes D (it is t^m − 1).

        The prover no longer reads it (it checks D | P_w pointwise, see
        ``repro.qap.prover``); it stays because the repository benchmark
        (``perfbench/workloads.py``'s ``warm_qap``) builds it.
        """
        return poly_from_roots(self.field, self.sigma)

    @cached_property
    def h_tables(self) -> HTables:
        """The tables the arithmetic-mode prover multiplies by, built once.

        See :class:`HTables`; one ``batch_inv`` of 1..2m+1, O(m)
        products and the Newton levels (a product tree over n..2n−1,
        one stacked product per level).  The operands' transforms are
        left to the first product that needs each, so building the
        tables transforms nothing.  Arithmetic mode only.
        """
        field = self.field
        p = field.p
        n = self.h_length
        inv = field.batch_inv(list(range(1, 2 * n)))  # inv[l − 1] = 1/l
        ell = 1  # L_0 = n!
        for i in range(2, n + 1):
            ell = ell * i % p
        inv_fact = 1  # 1/k!
        scale, point, differences = [0] * n, [0] * n, [0] * n
        for k in range(n):
            point[k] = (n + k) * inv_fact % p
            scale[k] = point[k] * ell % p
            differences[k] = inv_fact if k % 2 == 0 else p - inv_fact
            ell = ell * (n + k + 1) % p * inv[k] % p  # L_{k+1} = L_k·(n+k+1)/(k+1)
            inv_fact = inv_fact * inv[k] % p
        return HTables(
            weights=self.barycentric_weights,
            kernel=FixedOperand([inv]),
            scale=scale,
            point=point,
            differences=FixedOperand([differences]),
            levels=[FixedOperand(level) for level in newton_levels(field, n, n)],
        )

    @property
    def barycentric_weights(self) -> list[int]:
        """Barycentric weights over ``prover_points`` (arithmetic mode),
        read by the verifier's queries and the prover's ``h_tables``.

        Backed by the process-wide plan cache (the points are 0, 1,
        ..., m — exactly the arithmetic progression), so the vector is
        computed once per (field, size) and shared by every schedule
        and every same-shape QAP; each query round's reuse shows up as
        a ``poly.plan_hits`` tick.
        """
        return get_barycentric_weights(self.field, self.m + 1)

    def divisor_inverse_series(self) -> list[int]:
        """Newton inverse of the reversed D(t), to precision |C| + 1.

        ``poly_div_exact`` needs rev(D)⁻¹ mod t^qlen with qlen ≤ m + 1
        (deg P_w ≤ 2m and deg D = m), so dividing many P_w by D through
        this cached series skips ``_series_inverse`` after the first.
        The list is padded (not trimmed) to m + 1 so callers can check
        its precision by length.

        The prover no longer divides; this stays because the repository
        benchmark (``perfbench/workloads.py``'s ``warm_qap``) builds it.
        """
        if self._divisor_inverse is None:
            telemetry.count("poly.plan_misses")
            rev_den = list(reversed(self.divisor_poly))
            inverse = _series_inverse(self.field, rev_den, self.h_length)
            inverse += [0] * (self.h_length - len(inverse))
            self._divisor_inverse = inverse
        else:
            telemetry.count("poly.plan_hits")
        return self._divisor_inverse

    @cached_property
    def inv_m(self) -> int:
        """1/m — the roots-mode Lagrange scale factor, inverted once."""
        return self.field.inv(self.m % self.field.p)

    def divisor_at(self, tau: int) -> int:
        """D(τ).  Arithmetic mode: D(τ) = ℓ(τ)/τ with one division
        (§A.3); roots mode: τ^m − 1."""
        p = self.field.p
        if self.mode == "roots":
            return (pow(tau, self.m, p) - 1) % p
        acc = 1
        for s in self.sigma:
            acc = acc * ((tau - s) % p) % p
        return acc


def build_qap(system: QuadraticSystem, *, mode: str = "arithmetic") -> QAPInstance:
    """Construct the QAP for a canonical quadratic system."""
    return QAPInstance(field=system.field, system=system, mode=mode)
