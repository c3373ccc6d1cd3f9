"""The QAP prover pipeline: from witness to the proof vector (z, h).

§A.3, "The prover": three FFT-flavoured steps costing
≈ 3·f·|C|·log²|C| —

1. evaluate A_w, B_w, C_w at the interpolation points (free: the value
   at σ_j is just the j-th constraint's p_A/p_B/p_C evaluated at w) and
   interpolate to coefficient form;
2. multiply: P_w(t) = A_w(t)·B_w(t) − C_w(t);
3. divide exactly by D(t) to get H_w(t).

``build_proof_vector`` assembles u = (z, h), the two linear functions
π_z, π_h of §3, as one flat vector (the commitment layer treats them
as a single linear function over F^(|Z|+|C|+1) with queries embedded
by ``embed_z_query`` / ``embed_h_query``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..poly import (
    mat_interpolate_at_roots_of_unity,
    mat_poly_mul,
    pad_rows,
    poly_div_exact,
    trim,
)
from ..poly.divide import _NEWTON_CUTOFF
from .qap import QAPInstance


@dataclass
class QAPProof:
    """The Zaatar proof vector for one instance."""

    z: list[int]
    h: list[int]  # padded to qap.h_length

    @property
    def vector(self) -> list[int]:
        """The flat proof vector u = z ++ h the commitment binds."""
        return self.z + self.h


def witness_poly_evaluations(
    qap: QAPInstance, w: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """A_w, B_w, C_w evaluated at the prover's interpolation points.

    A_w(σ_j) = Σᵢ wᵢ·Aᵢ(σ_j) = Σᵢ wᵢ·a_{ij} = p_{j,A}(w): no polynomial
    work at all, just one linear-combination evaluation per constraint.
    Padded rows (roots mode) evaluate to zero.
    """
    field = qap.field
    evals_a: list[int] = []
    evals_b: list[int] = []
    evals_c: list[int] = []
    if qap.mode == "arithmetic":
        # leading entry is the σ₀ = 0 point where every Aᵢ vanishes
        evals_a.append(0)
        evals_b.append(0)
        evals_c.append(0)
    for constraint in qap.system.constraints:
        evals_a.append(constraint.a.evaluate(field, w))
        evals_b.append(constraint.b.evaluate(field, w))
        evals_c.append(constraint.c.evaluate(field, w))
    pad = len(qap.prover_points) - len(evals_a)
    if pad:
        zeros = [0] * pad
        evals_a += zeros
        evals_b += zeros
        evals_c += zeros
    return evals_a, evals_b, evals_c


def compute_h(qap: QAPInstance, w: Sequence[int]) -> list[int]:
    """Coefficients of H_w(t) = P_w(t)/D(t), padded to ``qap.h_length``.

    A one-row :func:`compute_h_batch`.  Raises ``ValueError`` if w does
    not satisfy the constraints — by Claim A.1 divisibility is
    equivalent to satisfiability.
    """
    (h,) = compute_h_batch(qap, [w])
    if isinstance(h, Exception):
        raise h
    return h


def _mat_divide_by_subgroup_vanishing(field, p_rows, m: int):
    """Exact division of every row by t^m − 1 (roots mode).

    For deg(P) ≤ 2m − 1 write P = P_lo + t^m·P_hi with both halves of
    length m; then P = (t^m − 1)·P_hi + (P_lo + P_hi), so the quotient
    is ``P[m:2m]`` and the division is exact iff ``P[:m] + P[m:2m] ≡ 0``
    — one batched add and a zero test.  Returns one length-m quotient
    row (the true quotient plus trailing zeros) per input row, or a
    ``ValueError`` for a row that leaves a remainder (failure
    isolation — one bad witness never poisons its batchmates).
    """
    padded = pad_rows(p_rows, 2 * m)
    heads = [row[:m] for row in padded]
    tails = [row[m:] for row in padded]
    checks = field.mat_add(heads, tails)
    return [
        ValueError(
            "polynomial is not divisible by t^m - 1 "
            "(witness does not satisfy the constraints?)"
        )
        if any(check)
        else tail
        for check, tail in zip(checks, tails)
    ]


def compute_h_batch(qap: QAPInstance, witnesses: Sequence[Sequence[int]]) -> list:
    """H_w(t) rows for many witnesses against one fixed QAP.

    The prover's only H(t) pipeline, at every batch size: interpolate,
    multiply and divide run as stacked 2-D kernels (one plan, one array
    program per step — see ``repro.poly.batch``).  Each returned entry
    is either the coefficient list padded to ``qap.h_length`` or the
    ``ValueError`` that witness's division raised (failure isolation).
    A witness's row does not depend on its batchmates, so a batch of B
    gives the same rows as B one-row calls.
    """
    batch = len(witnesses)
    if batch == 0:
        return []
    field = qap.field
    with telemetry.span("qap.witness_evals", rows=batch):
        triples = [witness_poly_evaluations(qap, w) for w in witnesses]
    evals_a = [t[0] for t in triples]
    evals_b = [t[1] for t in triples]
    evals_c = [t[2] for t in triples]
    if qap.mode == "roots":
        m = qap.m
        with telemetry.span("qap.interpolate", mode=qap.mode, rows=batch):
            rows_a = mat_interpolate_at_roots_of_unity(field, evals_a)
            rows_b = mat_interpolate_at_roots_of_unity(field, evals_b)
            rows_c = mat_interpolate_at_roots_of_unity(field, evals_c)
        with telemetry.span("qap.multiply", rows=batch):
            prod = mat_poly_mul(field, rows_a, rows_b)  # width 2m − 1
            p_rows = field.mat_sub(pad_rows(prod, 2 * m), pad_rows(rows_c, 2 * m))
        with telemetry.span("qap.divide", mode=qap.mode, rows=batch):
            h_rows = _mat_divide_by_subgroup_vanishing(field, p_rows, m)
    else:
        with telemetry.span("qap.interpolate", mode=qap.mode, rows=batch):
            tree = qap.subproduct_tree
            polys_a = [tree.interpolate(e) for e in evals_a]
            polys_b = [tree.interpolate(e) for e in evals_b]
            polys_c = [tree.interpolate(e) for e in evals_c]
        with telemetry.span("qap.multiply", rows=batch):
            la = max(len(r) for r in polys_a)
            lb = max(len(r) for r in polys_b)
            prod = mat_poly_mul(field, pad_rows(polys_a, la), pad_rows(polys_b, lb))
            width = max(len(prod[0]), max(len(r) for r in polys_c))
            p_rows = field.mat_sub(pad_rows(prod, width), pad_rows(polys_c, width))
        with telemetry.span("qap.divide", mode=qap.mode, rows=batch):
            # the QAP caches rev(D)⁻¹, so no row pays the Newton iteration
            inv_rev = qap.divisor_inverse_series() if qap.m >= _NEWTON_CUTOFF else None
            h_rows = []
            for row in p_rows:
                try:
                    h_rows.append(
                        poly_div_exact(
                            field, trim(list(row)), qap.divisor_poly, inv_rev_den=inv_rev
                        )
                    )
                except ValueError as exc:
                    h_rows.append(exc)
    out: list = []
    for h in h_rows:
        if isinstance(h, Exception):
            out.append(h)
            continue
        h = trim(list(h))  # batched rows carry fixed-width zero padding
        if len(h) > qap.h_length:
            raise AssertionError("H(t) degree exceeds the protocol bound")
        out.append(h + [0] * (qap.h_length - len(h)))
    return out


def build_proof_vector(qap: QAPInstance, witness: Sequence[int]) -> QAPProof:
    """u = (z, h) from a full canonical assignment (witness[0] == 1)."""
    z = list(witness[1 : qap.n_prime + 1])
    return QAPProof(z=z, h=compute_h(qap, witness))


def embed_z_query(qap: QAPInstance, q: Sequence[int]) -> list[int]:
    """Lift a πz query (length |Z|) into full-proof-vector coordinates."""
    if len(q) != qap.n_prime:
        raise ValueError(f"z-query length {len(q)} != {qap.n_prime}")
    return list(q) + [0] * qap.h_length


def embed_h_query(qap: QAPInstance, q: Sequence[int]) -> list[int]:
    """Lift a πh query (length |C|+1) into full-proof-vector coordinates."""
    if len(q) != qap.h_length:
        raise ValueError(f"h-query length {len(q)} != {qap.h_length}")
    return [0] * qap.n_prime + list(q)
