"""The QAP prover pipeline: from witness to the proof vector (z, h).

§A.3, "The prover", builds H_w(t) = P_w(t)/D(t) in three FFT-flavoured
steps costing ≈ 3·f·|C|·log²|C| (the prover term of the paper's
Figure 3, which ``repro.costmodel`` keeps for paper-scale projections):
interpolate A_w, B_w and C_w from their values at the σ_j (free: the
value at σ_j is just the j-th constraint's p_A/p_B/p_C evaluated at w),
multiply to P_w = A_w·B_w − C_w, and divide exactly by D(t).

``compute_h_batch`` builds the same H_w from evaluations instead.  In
arithmetic mode (σ_j = j, n = |C| + 1 points 0..|C|):

1. check A_w(j)·B_w(j) = C_w(j) for j = 1..|C|.  D has the distinct
   roots σ_j, so by Claim A.1 this is exactly D | P_w and replaces
   the exact division;
2. extend A_w, B_w and C_w (degree < n) from 0..|C| to n..2n−1 with
   one convolution each against the fixed kernel 1/l (Bostan, Gaudry
   and Schost, SIAM J. Comput. 36(6), 2007);
3. form H(n+k)/k! = P_w(n+k)/(D(n+k)·k!) pointwise — D(n+k)·k! is a
   fixed table, so this divides nothing at proof time;
4. interpolate H by Newton form on the points n..2n−1
   (``repro.poly.batch.mat_interpolate_newton``, Bostan and Schost,
   J. Complexity 21(4), 2005): its Newton coefficients are one more
   convolution of those values with the fixed kernel (−1)^k/k!, and
   the up-sweep to monomial coefficients is one stacked product per
   tree level across the whole batch, P = P_L + M_L·P_R, with the
   M_L fixed per QAP (``QAPInstance.h_tables``).

That is one interpolation per instance instead of three, and no
polynomial division; the coefficients are the same field elements.
Roots mode keeps the paper's steps with inverse NTTs, where division
by D(t) = t^m − 1 is one add.

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
    mat_interpolate_newton,
    mat_poly_mul,
    pad_rows,
    trim,
)
from .qap import QAPInstance

#: the arithmetic-mode rejection: by Claim A.1 the pointwise check fails
#: exactly when dividing P_w(t) by D(t) would leave a remainder
_UNSATISFIED = (
    "polynomial division has a nonzero remainder "
    "(witness does not satisfy the constraints?)"
)


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


def _middle_product(field, rows, kernel: list[int]) -> list[list[int]]:
    """Columns n−1..2n−2 of each width-n row convolved with ``kernel``."""
    n = len(rows[0])
    conv = mat_poly_mul(field, rows, [kernel] * len(rows))
    return [row[n - 1 : 2 * n - 1] for row in conv]


def _h_from_evaluations(qap: QAPInstance, evals_a, evals_b, evals_c) -> list:
    """Arithmetic mode: H_w's coefficients (width n) from the values of
    A_w, B_w and C_w at 0..m, or the row's ``ValueError`` (steps 1–4 of
    the module docstring)."""
    field = qap.field
    batch = len(evals_a)
    with telemetry.span("qap.divide", mode=qap.mode, rows=batch):
        products = field.mat_hadamard(evals_a, evals_b)
        live = [i for i in range(batch) if products[i] == evals_c[i]]
    h_rows: list = [ValueError(_UNSATISFIED) for _ in range(batch)]
    if not live:
        return h_rows
    tables = qap.h_tables
    rows = len(live)

    def table(values: list[int]) -> list[list[int]]:
        return [values] * rows

    with telemetry.span("qap.multiply", rows=rows):
        # one B-row product per polynomial keeps the peak at one
        # (3n−2)-wide matrix; only the n middle columns survive it
        a_ext, b_ext, c_ext = (
            _middle_product(
                field,
                field.mat_hadamard([evals[i] for i in live], table(tables.weights)),
                tables.kernel,
            )
            for evals in (evals_a, evals_b, evals_c)
        )
        values = field.mat_sub(
            field.mat_hadamard(field.mat_hadamard(a_ext, b_ext), table(tables.scale)),
            field.mat_hadamard(c_ext, table(tables.point)),
        )
    with telemetry.span("qap.interpolate", mode=qap.mode, rows=rows):
        h_live = mat_interpolate_newton(field, values, tables.differences, tables.levels)
    for i, h in zip(live, h_live):
        h_rows[i] = h
    return h_rows


def compute_h_batch(qap: QAPInstance, witnesses: Sequence[Sequence[int]]) -> list:
    """H_w(t) rows for many witnesses against one fixed QAP.

    The prover's only H(t) pipeline, at every batch size: each step
    runs as stacked 2-D kernels over the batch (one plan, one array
    program per step — see ``repro.poly.batch``), and arithmetic mode
    builds H from evaluations (module docstring).  Each returned entry
    is either the coefficient list padded to ``qap.h_length`` or the
    ``ValueError`` for a witness that does not satisfy the constraints
    (failure isolation).  A witness's row does not depend on its
    batchmates, so a batch of B gives the same rows as B one-row calls.
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
        h_rows = _h_from_evaluations(qap, evals_a, evals_b, evals_c)
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
