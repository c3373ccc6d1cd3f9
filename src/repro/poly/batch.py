"""Batch-axis polynomial kernels: a whole Zaatar batch as one array program.

A batched argument proves many instances against one fixed QAP, so the
prover's H(t) pipeline runs the *same* transform shapes for every
instance.  These helpers stack the instance axis into a ``batch × n``
matrix and push it through the field layer's 2-D kernels
(``repro.field.backend``): one :class:`~repro.poly.plan.NTTPlan` lookup
and one set of cached twiddle arrays serve every row, and for the big
128/192/220-bit moduli the product drops into the CRT residue-plane
fast path (``repro.field.crt``) instead of the object-dtype slow path.

Bit-identity: every helper produces exactly the canonical coefficients
the corresponding per-row route produces (the convolution values of a
polynomial product are route-independent; only trailing-zero padding
differs, and callers that care — the QAP prover — trim or slice at
fixed protocol widths).  ``tests/qap/test_prover.py`` and the parity
suite pin this.

Telemetry: the batched interpolations report the same
``poly.interpolations`` / ``poly.interpolation_points`` totals as the
per-row calls they replace (one per row, n points each), so
Figure-5-style op accounting is batching-invariant.
"""

from __future__ import annotations

from typing import Sequence

from .. import telemetry
from ..field import PrimeField
from .multiply import mul_strategy, poly_mul
from .plan import get_ntt_plan


def pad_rows(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Each row zero-extended to ``width`` (rows must not exceed it)."""
    return [list(row) + [0] * (width - len(row)) for row in rows]


def mat_interpolate_at_roots_of_unity(
    field: PrimeField, rows: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Batched inverse-NTT interpolation over 1, ω, ω², …

    The stacked twin of
    :func:`~repro.poly.interpolate.interpolate_at_roots_of_unity`:
    every row of evaluations becomes a row of coefficients.  Rows come
    back **untrimmed** (length n, possibly with trailing zeros) — the
    batch pipeline works at fixed widths and slices at protocol
    boundaries instead of trimming per row.
    """
    if not rows:
        return []
    n = len(rows[0])
    if n & (n - 1):
        raise ValueError("root-of-unity interpolation needs power-of-two length")
    if any(len(row) != n for row in rows):
        raise ValueError("interpolation rows must have equal lengths")
    if telemetry.enabled():
        batch = len(rows)
        telemetry.count("poly.interpolations", batch)
        telemetry.count("poly.interpolation_points", batch * n)
        telemetry.count("poly.ntt_calls", batch)
        telemetry.count("poly.ntt_points", batch * n)
    if n <= 1:
        return [list(row) for row in rows]
    plan = get_ntt_plan(field, n)
    return field.mat_transform(plan, rows, invert=True)


def mat_poly_mul(
    field: PrimeField,
    rows_a: Sequence[Sequence[int]],
    rows_b: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Row-wise polynomial products as full untrimmed convolutions.

    Every output row has width ``la + lb − 1`` (the operand widths;
    rows must be uniform per operand), with the exact canonical
    coefficients per-row :func:`~repro.poly.multiply.poly_mul` yields
    plus trailing zeros where the true product has lower degree.

    Routing follows :func:`~repro.poly.multiply.mul_strategy`, as
    per-row ``poly_mul`` does, priced for the whole batch: B products
    of ``la × lb`` cost what one product of a ``max(la, lb)``-long
    operand by a ``B·min(la, lb)``-long one does under the schoolbook
    and Karatsuba algorithms, so that is the shape it judges (at B = 1,
    exactly ``poly_mul``'s own choice).  Shapes it does not mark
    ``"ntt"`` (tiny products, mid-size ones in small batches, fields
    without a long-enough transform) go row by row through
    ``poly_mul``.  The rest take the backend's dedicated batched
    convolution (the CRT residue-plane path for moduli without a uint64
    kernel) or else stacked NTTs over one shared plan.
    """
    batch = len(rows_a)
    if len(rows_b) != batch:
        raise ValueError(f"batch size mismatch: {batch} vs {len(rows_b)}")
    if batch == 0:
        return []
    la = len(rows_a[0])
    lb = len(rows_b[0])
    if any(len(r) != la for r in rows_a) or any(len(r) != lb for r in rows_b):
        raise ValueError("mat_poly_mul requires uniform row lengths per operand")
    if la == 0 or lb == 0:
        return [[] for _ in range(batch)]
    out_len = la + lb - 1
    if mul_strategy(field, max(la, lb), batch * min(la, lb)) != "ntt":
        out = []
        for ra, rb in zip(rows_a, rows_b):
            conv = poly_mul(field, ra, rb)
            out.append(conv + [0] * (out_len - len(conv)))
        return out
    fast = field.mat_polymul(rows_a, rows_b)
    if fast is not None:
        return fast
    size = 2
    while size < out_len:
        size <<= 1
    if telemetry.enabled():
        telemetry.count("poly.ntt_calls", 3 * batch)
        telemetry.count("poly.ntt_points", 3 * batch * size)
    plan = get_ntt_plan(field, size)
    fa = field.mat_transform(plan, pad_rows(rows_a, size))
    fb = field.mat_transform(plan, pad_rows(rows_b, size))
    out = field.mat_transform(plan, field.mat_hadamard(fa, fb), invert=True)
    return [row[:out_len] for row in out]


def newton_levels(field: PrimeField, start: int, n: int) -> list[list[list[int]]]:
    """The up-sweep multipliers of :func:`mat_interpolate_newton`.

    For the n points x_j = start + j, level d (d = 0..⌈log₂ n⌉ − 1)
    merges coefficient blocks of width 2^d in pairs; ``levels[d][b]`` is
    the left block's M_L = ∏ (t − x_j) over j ∈ [2b·2^d, (2b+1)·2^d),
    width 2^d + 1, for the ⌈n/2^(d+1)⌉ pairs that hold any of the n
    coefficients.  A pair whose right block is all padding multiplies
    only zeros, so its M_L may take points past x_(n−1) (reduced mod p).

    The nodes are built bottom-up, one stacked :func:`mat_poly_mul`
    per level, over just the blocks some M_L needs.
    """
    depth = (n - 1).bit_length() if n > 1 else 0
    pairs = [-(-n >> (d + 1)) for d in range(depth)]  # ⌈n / 2^(d+1)⌉
    need = [0] * (depth + 1)  # nodes built at each level
    for d in reversed(range(depth)):
        need[d] = max(2 * pairs[d] - 1, 2 * need[d + 1])
    p = field.p
    nodes = [[-(start + j) % p, 1] for j in range(need[0])]
    levels = []
    for d in range(depth):
        levels.append(nodes[: 2 * pairs[d] : 2])
        built = 2 * need[d + 1]
        nodes = mat_poly_mul(field, nodes[:built:2], nodes[1:built:2])
    return levels


def mat_interpolate_newton(
    field: PrimeField,
    rows: Sequence[Sequence[int]],
    differences: Sequence[int],
    levels: Sequence[Sequence[Sequence[int]]],
) -> list[list[int]]:
    """Batched interpolation on the progression x_j = x_0 + j, j < n.

    Row i holds f_i(x_j)/j! for j = 0..n−1; the result row holds f_i's
    n coefficients (untrimmed, as the other batched kernels).
    ``differences`` is the kernel (−1)^k/k!, k < n, and ``levels`` is
    :func:`newton_levels` for (x_0, n).  On a unit-step progression
    (Bostan and Schost, J. Complexity 21(4), 2005):

    1. the Newton coefficients c_k = Σ_{j≤k} f(x_j)/j!·(−1)^(k−j)/(k−j)!
       are the first n columns of one B-row product with the kernel;
    2. the Newton-to-monomial up-sweep merges coefficient blocks in
       pairs, P = P_L + M_L·P_R, with rows zero-padded past n: one
       stacked :func:`mat_poly_mul` over every instance's pairs and one
       ``mat_add`` per level, ⌈log₂ n⌉ levels.

    The caller keeps n ≤ p, so that the points are distinct mod p and
    every j! is invertible.
    """
    batch = len(rows)
    if batch == 0:
        return []
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("interpolation rows must have equal lengths")
    if len(differences) != n:
        raise ValueError(f"difference kernel has {len(differences)} entries, need {n}")
    if telemetry.enabled():
        telemetry.count("poly.interpolations", batch)
        telemetry.count("poly.interpolation_points", batch * n)
    if n == 0:
        return [[] for _ in rows]
    coeffs = [row[:n] for row in mat_poly_mul(field, rows, [differences] * batch)]
    width = 1
    for level in levels:
        pairs, span = len(level), 2 * width
        starts = range(0, pairs * span, span)
        coeffs = pad_rows(coeffs, pairs * span)
        lefts = [row[k : k + width] for row in coeffs for k in starts]
        rights = [row[k + width : k + span] for row in coeffs for k in starts]
        products = mat_poly_mul(field, rights, list(level) * batch)
        lows = field.mat_add([prod[:width] for prod in products], lefts)
        merged = [low + prod[width:] for low, prod in zip(lows, products)]
        coeffs = [
            [c for block in merged[i : i + pairs] for c in block]
            for i in range(0, len(merged), pairs)
        ]
        width = span
    return [row[:n] for row in coeffs]
