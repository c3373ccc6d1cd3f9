"""H(t) by the paper's route: interpolate three times, multiply, divide.

This is the reference ``repro.qap.prover.compute_h_batch`` must
reproduce row for row in arithmetic mode (§A.3): interpolate A_w, B_w
and C_w on the QAP's subproduct tree, form P_w = A_w·B_w − C_w with one
``mat_poly_mul``, and divide exactly by D(t) through the QAP's cached
Newton inverse.  ``tests/qap/test_prover.py`` and the H(t) section of
``benchmarks/bench_kernels.py`` compare against it.
"""

from __future__ import annotations

from repro.poly import mat_poly_mul, pad_rows, poly_div_exact, trim
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
