"""H(t) by the paper's route: interpolate three times, multiply, divide.

This is the reference ``repro.qap.prover.compute_h_batch`` must
reproduce row for row in arithmetic mode (§A.3): interpolate A_w, B_w
and C_w on the QAP's subproduct tree, form P_w = A_w·B_w − C_w with one
``mat_poly_mul``, and divide exactly by D(t) through the QAP's cached
Newton inverse.  ``tests/qap/test_prover.py`` and the H(t) section of
``benchmarks/bench_kernels.py`` compare against it.

``TreeShiftInterpolator`` keeps the interpolation step that Newton form
replaced inside the pipeline (subproduct tree plus Taylor shift), the
reference for ``repro.poly.batch.mat_interpolate_newton`` at the
prover's shape (``tests/poly/test_newton.py`` and the kernel bench);
``newton_inputs`` builds that kernel's inputs from their definitions.

``interpolate_lagrange_naive`` (O(n²) Lagrange) and ``divisor_at``
(D(τ) from the σ's) are the from-definition references for the tree,
Newton form, the verifier's barycentric weights and the prover's h.
"""

from __future__ import annotations

from repro.poly import (
    SubproductTree,
    mat_poly_mul,
    newton_levels,
    pad_rows,
    poly_div_exact,
    poly_mul,
    trim,
)
from repro.poly.divide import _NEWTON_CUTOFF
from repro.qap.prover import witness_poly_evaluations


def compute_h_batch_divide(qap, witnesses) -> list:
    """One entry per witness: h padded to ``qap.h_length``, or the
    ``ValueError`` its exact division raised."""
    if not witnesses:
        return []
    field = qap.field
    tree = qap.subproduct_tree
    triples = [witness_poly_evaluations(qap, w) for w in witnesses]
    polys_a, polys_b, polys_c = (
        [tree.interpolate(t[k]) for t in triples] for k in range(3)
    )
    la = max(len(r) for r in polys_a)
    lb = max(len(r) for r in polys_b)
    prod = mat_poly_mul(field, pad_rows(polys_a, la), pad_rows(polys_b, lb))
    width = max(len(prod[0]), max(len(r) for r in polys_c))
    p_rows = field.mat_sub(pad_rows(prod, width), pad_rows(polys_c, width))
    inv_rev = qap.divisor_inverse_series() if qap.m >= _NEWTON_CUTOFF else None
    out: list = []
    for row in p_rows:
        try:
            h = poly_div_exact(field, trim(list(row)), qap.divisor_poly, inv_rev_den=inv_rev)
        except ValueError as exc:
            out.append(exc)
            continue
        out.append(h + [0] * (qap.h_length - len(h)))
    return out


class TreeShiftInterpolator:
    """Interpolation on n..2n−1 by the route Newton form replaced.

    G(t) = H(t + n) is interpolated one row at a time on the subproduct
    tree over 0..n−1 (G(j) = H(n + j)), then shifted back to
    H(t) = G(t − n) by one B-row convolution:
    h_i = (1/i!)·Σ_s g_s·s!·(−n)^(s−i)/(s−i)!.  The tree and the three
    shift tables are built here, once, as the prover once held them.
    """

    def __init__(self, field, n: int):
        p = field.p
        self.field = field
        self.n = n
        self.tree = SubproductTree(field, range(n))
        self.tree.inv_derivative_evals()
        inv = field.batch_inv(list(range(1, n))) if n > 1 else []
        self.fact, self.inv_fact = [1] * n, [1] * n
        for i in range(1, n):
            self.fact[i] = self.fact[i - 1] * i % p
            self.inv_fact[i] = self.inv_fact[i - 1] * inv[i - 1] % p
        self.shift = [0] * n
        power = 1  # (−n)^l
        for l in range(n):
            self.shift[n - 1 - l] = power * self.inv_fact[l] % p
            power = power * -n % p

    def __call__(self, rows) -> list[list[int]]:
        """Coefficient rows (width n) of the polynomials whose values at
        n..2n−1 are ``rows``."""
        field, n = self.field, self.n
        g_rows = pad_rows([self.tree.interpolate(v) for v in rows], n)
        scaled = field.mat_hadamard(g_rows, [self.fact] * len(rows))
        conv = mat_poly_mul(field, scaled, [self.shift] * len(rows))
        shifted = [row[n - 1 : 2 * n - 1] for row in conv]
        return field.mat_hadamard(shifted, [self.inv_fact] * len(rows))


def newton_inputs(field, rows):
    """``mat_interpolate_newton``'s arguments for values ``rows`` at
    n..2n−1: the rows scaled by 1/j!, the kernel (−1)^k/k! and the
    levels — from their definitions, not from ``QAPInstance.h_tables``."""
    p = field.p
    n = len(rows[0])
    inv_fact = [1] * n
    for k in range(1, n):
        inv_fact[k] = inv_fact[k - 1] * field.inv(k) % p
    differences = [(-1) ** k * f % p for k, f in enumerate(inv_fact)]
    scaled = [field.hadamard(row, inv_fact) for row in rows]
    return scaled, differences, newton_levels(field, n, n)


def interpolate_lagrange_naive(field, points, values) -> list[int]:
    """O(n²) Lagrange interpolation: the polynomial through
    (points[i], values[i]), from the definition."""
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    p = field.p
    n = len(points)
    result: list[int] = []
    for i in range(n):
        # numerator poly ∏_{k≠i} (t - x_k), scaled by y_i / ∏ (x_i - x_k)
        num = [1]
        denom = 1
        for k in range(n):
            if k == i:
                continue
            num = poly_mul(field, num, [(-points[k]) % p, 1])
            denom = denom * (points[i] - points[k]) % p
        scale = values[i] * field.inv(denom) % p
        term = [c * scale % p for c in num]
        if len(result) < len(term):
            result += [0] * (len(term) - len(result))
        for j, c in enumerate(term):
            result[j] = (result[j] + c) % p
    return trim(result)


def divisor_at(qap, tau: int) -> int:
    """D(τ) of ``qap``: ∏ (τ − σ_j) in arithmetic mode, τ^m − 1 in
    roots mode."""
    p = qap.field.p
    if qap.mode == "roots":
        return (pow(tau, qap.m, p) - 1) % p
    acc = 1
    for s in qap.sigma:
        acc = acc * ((tau - s) % p) % p
    return acc
