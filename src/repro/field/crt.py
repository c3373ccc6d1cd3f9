"""CRT residue planes: exact batched big-modulus convolution on uint64.

The 128/192/220-bit moduli have no native machine-word kernel, so their
polynomial products normally run on ``object``-dtype transforms —
every multiply a Python big-int multiply.  This module lifts *batched*
polynomial products off that path entirely.

The trick is that a product of polynomials with coefficients in
``[0, p)`` is, before any modular reduction, an **integer** convolution
whose coefficients are bounded by ``min(la, lb) · (p − 1)²``.  Compute
that integer convolution exactly and ``% p`` at the end, and the result
is bit-identical to the scalar route.  To compute it exactly on 64-bit
hardware:

1. split every coefficient into residues modulo ``k`` NTT-friendly
   30-bit **plane primes** ``q = c·2^20 + 1`` (``c`` odd, so the
   two-adicity is exactly 20 — convolutions up to length ``2^20``);
2. run the whole ``batch × size`` matrix of rows through stacked
   uint64 NTTs per plane, driven by each plane field's cached
   :class:`~repro.poly.plan.NTTPlan` butterfly schedule.  The plane
   arithmetic is **division-free Montgomery** (R = 2^32): twiddles are
   stored premultiplied by R, so ``mont_mul(x, t·R) = x·t mod q`` keeps
   the data in normal form with only masks, shifts and conditional
   subtractions — no hardware integer division in the butterflies,
   which is what the generic uint64 kernel's ``%`` reductions spend
   most of their time on;
3. reconstruct the unique integer below ``Πqᵢ`` from the residue
   convolutions with Garner's mixed-radix algorithm — the O(k²) digit
   passes stay vectorized in uint64 (Montgomery again), adjacent digit
   pairs are folded into single uint64 values, and only the final
   recombination over the folded pairs touches big ints — a weighted
   sum with weights pre-reduced mod ``p`` (one small multiply-add per
   *pair* of planes per element, instead of a big-int multiply per
   *butterfly*).

Because ``Πqᵢ`` is chosen strictly above the coefficient bound, step 3
recovers the exact integer convolution, so the reduced result equals
``poly_mul`` coefficient-for-coefficient — the parity suite pins this
against the scalar backend (``tests/property/test_backend_parity.py``).

Step 2 splits in two: the second operand is transformed on its own
(:func:`crt_operand`: forward NTT on every plane, values reduced to
[0, 2q)), and one core transforms the first operand's rows, multiplies
pointwise and transforms back.  An operand fixed for many products —
the H(t) prover's kernels and Newton levels, one per QAP — is
transformed once and kept; a two-operand product transforms its second
operand first and runs the same core.  The core can also keep only a
window of output columns: the inverse transform's last level, Garner
and the recombination then run on those columns alone.

Entry point: :func:`mat_polymul_crt`, called by
``NumpyBackend.mat_polymul`` for every modulus without a uint64
kernel (all but Goldilocks).  It returns
``None`` for any shape it cannot cover exactly (ragged rows,
non-canonical values, convolutions beyond ``2^20``), and callers fall
back to the existing routes — the fast path is an optimization, never
a semantic fork.
"""

from __future__ import annotations

import threading

from .. import telemetry

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: two-adicity of every plane prime (q = c·2^20 + 1, c odd)
PLANE_TWO_ADICITY = 20

#: largest convolution length the planes can transform
MAX_CONV = 1 << PLANE_TWO_ADICITY

_MASK32 = (1 << 32) - 1

#: target elements per batch tile (keeps plane arrays cache-resident)
_TILE_ELEMS = 1 << 14

_LOCK = threading.Lock()
#: plane primes found so far, in discovery order (largest c first);
#: every plane set is a prefix of this list, so sets are deterministic
_PLANE_PRIMES: list[int] = []
#: next candidate multiplier c (odd, descending; c·2^20 + 1 < 2^30, so
#: lazy butterfly values in [0, 4q) stay below 2^32 and every product
#: in the REDC pipeline fits uint64)
_NEXT_C = (1 << 10) - 1
_PLANE_SETS: dict[int, "_PlaneSet"] = {}


def _extend_primes(count: int) -> bool:
    """Grow ``_PLANE_PRIMES`` to at least ``count`` entries (locked)."""
    global _NEXT_C
    from .prime_field import is_probable_prime  # deferred: import cycle

    while len(_PLANE_PRIMES) < count:
        if _NEXT_C <= 0:
            return False
        candidate = _NEXT_C * (1 << PLANE_TWO_ADICITY) + 1
        _NEXT_C -= 2
        if is_probable_prime(candidate):
            _PLANE_PRIMES.append(candidate)
    return True


class _Mont:
    """Division-free arithmetic mod one plane prime, R = 2^32, q < 2^30.

    ``mul_lazy(a, bm)`` computes ``a·b·R⁻¹ mod q`` in the *lazy* range
    ``[0, 2q)`` for any ``a, bm < 2^32``: the REDC step replaces the
    hardware integer division of a plain ``%`` with a mask, two
    multiplies and a shift, and skipping the final canonicalization
    saves two more passes.  All intermediates fit uint64
    (``a·bm < 2^62``, ``x + m·q < 2^63``), and ``q < 2^30`` keeps the
    output below ``2q``: ``t < a·bm/R + q ≤ 4q·q/2^32 + q < 2q``.
    """

    def __init__(self, q: int):
        self.q = q
        self.qu = _np.uint64(q)
        self.two_q = _np.uint64(2 * q)
        self.mask = _np.uint64(_MASK32)
        self.shift = _np.uint64(32)
        self.neg_qinv = _np.uint64((-pow(q, -1, 1 << 32)) % (1 << 32))

    def to_mont(self, value: int) -> int:
        """The Montgomery form ``value·R mod q`` (for constant tables)."""
        return (value << 32) % self.q

    def mul_lazy(self, a, bm):
        """``a·b mod q`` or ``q`` more, for ``a < 4q``, ``bm < 2q``."""
        x = a * bm
        m = x * self.neg_qinv
        m &= self.mask
        m *= self.qu
        m += x
        m >>= self.shift  # exact multiple of R removed; result < 2q
        return m

    def mul(self, a, bm):
        """Canonical ``a·b mod q`` for ``a < 4q``, ``bm = b·R mod q``.

        The conditional subtraction is a ``minimum``: ``t − q`` wraps
        to a huge value exactly when ``t < q``, so the elementwise
        minimum of ``t`` and ``t − q`` is the canonical representative
        of ``t`` whenever ``t < 2q`` — comparison, bool cast and
        multiply fused into two passes.
        """
        m = self.mul_lazy(a, bm)
        return _np.minimum(m, m - self.qu)

    def add(self, u, v):
        s = u + v
        return _np.minimum(s, s - self.qu)

    def sub(self, u, v):
        # wraparound when u < v puts u − v above 2^63; adding q back
        # lands on the true canonical value, which minimum then picks
        d = u - v
        return _np.minimum(d, d + self.qu)


class _PlaneSet:
    """The first ``k`` plane primes plus their Montgomery/Garner tables."""

    def __init__(self, primes: list[int]):
        from .prime_field import PrimeField

        self.primes = primes
        self.modulus = 1
        for q in primes:
            self.modulus *= q
        self.monts = [_Mont(q) for q in primes]
        # scalar-backend fields: we only need them as NTTPlan keys (the
        # Montgomery plane ops drive the actual transforms)
        self.fields = [
            PrimeField(q, check_prime=False, backend="scalar") for q in primes
        ]
        # Garner: inv[j][i] = q_i^{-1} mod q_j (Montgomery form), i < j
        self.inv = [
            [
                _np.uint64(self.monts[j].to_mont(pow(primes[i], -1, primes[j])))
                for i in range(j)
            ]
            for j in range(len(primes))
        ]
        # digits d_i < q_i reduce mod q_j by one conditional subtract
        # only while every prime is within 2× of every other; the c
        # multipliers would have to fall below ~2^10 (hundreds of
        # planes) before this fails, but guard it anyway
        self.close_primes = primes[0] < 2 * primes[-1]


def _plane_set_for(bound: int) -> "_PlaneSet | None":
    """The cached plane set whose prime product strictly exceeds ``bound``."""
    with _LOCK:
        k = 0
        product = 1
        while product <= bound:
            k += 1
            if not _extend_primes(k):  # pragma: no cover - needs ~2^1500 bound
                return None
            product *= _PLANE_PRIMES[k - 1]
        planes = _PLANE_SETS.get(k)
        if planes is None:
            planes = _PLANE_SETS[k] = _PlaneSet(_PLANE_PRIMES[:k])
        return planes


def _as_matrix(rows, p: int):
    """Rows → a rectangular object-dtype matrix of canonical values, or None."""
    arr = _np.asarray(rows, dtype=object)
    if arr.ndim != 2:
        return None
    if arr.size and bool(((arr < 0) | (arr >= p)).any()):
        return None
    return arr


def _limbs(obj_matrix, n_limbs: int) -> list:
    """The 32-bit little-endian limb planes of an object matrix, as uint64.

    Extracted one 64-bit *word* at a time — two object-dtype passes per
    word instead of three per limb — then split into 32-bit halves with
    cheap uint64 ops (object→uint64 casts are exact below 2^64).
    """
    mask32 = _np.uint64(_MASK32)
    shift32 = _np.uint64(32)
    out: list = []
    n_words = (n_limbs + 1) // 2
    for w in range(n_words):
        src = obj_matrix if w == 0 else obj_matrix >> (64 * w)
        if w < n_words - 1:
            src = src & ((1 << 64) - 1)
        word = src.astype(_np.uint64)
        out.append(word & mask32)
        if len(out) < n_limbs:
            out.append(word >> shift32)
    return out


def _fold_plane(limbs: list, q: int):
    """Residues mod ``q`` of the integers with the given limb planes.

    Horner in base 2^32: ``acc·(2^32 mod q) + limb`` stays below
    ``2^31·2^31 + 2^32 < 2^63``, so the fold never wraps uint64.
    """
    qu = _np.uint64(q)
    b32 = _np.uint64((1 << 32) % q)
    acc = _np.zeros(limbs[0].shape, dtype=_np.uint64)
    for limb in reversed(limbs):
        acc = (acc * b32 + limb) % qu
    return acc


def _mont_scratch(plan, mont: "_Mont"):
    """Montgomery-form twiddle tables for one plane's plan, cached.

    The inverse-transform tail tables fold in an extra R on top of the
    plan's ``n⁻¹`` scaling (``to_mont`` applied twice), cancelling the
    R⁻¹ that the Montgomery pointwise product leaves on every element —
    so the inverse transform here is only correct for post-pointwise
    data, which is the only way the convolution uses it.
    """
    scratch = plan.np_scratch.get("mont")
    if scratch is None:
        perm = _np.arange(plan.n)
        for i, j in plan.swaps:
            perm[i], perm[j] = perm[j], perm[i]
        to = mont.to_mont
        scratch = {
            "perm": perm,
            "fwd": [
                _np.asarray([to(x) for x in t], dtype=_np.uint64) for t in plan.fwd
            ],
            "inv_head": [
                _np.asarray([to(x) for x in t], dtype=_np.uint64)
                for t in plan._inv_head
            ],
            "n_inv": _np.uint64(to(to(plan.n_inv))),
            "inv_last": _np.asarray(
                [to(to(x)) for x in plan._inv_last], dtype=_np.uint64
            ),
        }
        # build fully, then publish: setdefault keeps the first complete
        # dict when two threads race on the same plan
        scratch = plan.np_scratch.setdefault("mont", scratch)
    return scratch


def _mont_butterflies(mont: "_Mont", a, tables, *, skip_first: bool = False) -> None:
    """Harvey-style lazy butterflies: [0, 4q) in, [0, 4q) out.

    Only the ``u`` half is reduced (to ``[0, 2q)``) at the top of each
    level; ``t`` comes out of the lazy multiply below ``2q``, so
    ``u + t`` and ``u − t + 2q`` stay below ``4q`` without any per-level
    canonicalization of the outputs — three fewer vectorized passes per
    level than a canonical butterfly.
    """
    if skip_first:
        # zero-padded inputs of width ≤ n/2 land their zeros on every
        # odd (bit-reversal) position, so the h=1 level degenerates to
        # u' = u, v' = u — a single copy instead of a full butterfly
        view = a.reshape(-1, 2)
        view[:, 1] = view[:, 0]
        tables = tables[1:]
    two_q = mont.two_q
    for tw in tables:
        h = tw.size
        view = a.reshape(-1, 2 * h)
        u = view[:, :h]
        u = _np.minimum(u, u - two_q)  # [0, 4q) → [0, 2q)
        t = mont.mul_lazy(view[:, h:], tw)  # [0, 2q)
        _np.add(u, t, out=view[:, :h])  # u + t < 4q
        u -= t  # wraps below zero where u < t …
        _np.add(u, two_q, out=view[:, h:])  # … + 2q restores: < 4q


def _plane_forward(mont: "_Mont", plan, residues, size: int):
    """Zero-padded residue rows, forward transformed, values in [0, 2q)."""
    rows, width = residues.shape
    padded = _np.zeros((rows, size), dtype=_np.uint64)
    padded[:, :width] = residues
    scratch = _mont_scratch(plan, mont)
    # ascontiguousarray: the butterflies mutate through a reshaped view,
    # which column fancy-indexing's non-C-order result would break
    out = _np.ascontiguousarray(padded[:, scratch["perm"]])
    _mont_butterflies(mont, out, scratch["fwd"], skip_first=width <= size >> 1)
    # lazy outputs are in [0, 4q); one reduction keeps a pointwise
    # operand below 2q so the product fits uint64
    _np.minimum(out, out - mont.two_q, out=out)
    return out


def _plane_product(mont: "_Mont", plan, residues, fb, cols: tuple[int, int]):
    """Columns ``cols`` of the cyclic convolutions of residue rows with a
    transformed operand ``fb`` (k rows, k dividing the row count; row i
    meets operand row i mod k), canonical."""
    size = plan.n
    fa = _plane_forward(mont, plan, residues, size)
    prod = mont.mul_lazy(fa.reshape(-1, fb.shape[0], size), fb).reshape(-1, size)
    scratch = _mont_scratch(plan, mont)
    a = _np.ascontiguousarray(prod[:, scratch["perm"]])  # carries a uniform R⁻¹ …
    _mont_butterflies(mont, a, scratch["inv_head"])
    # … cancelled by the doubly-Montgomery tail tables; the last level
    # runs on the kept columns only, and its lazy sums (< 4q)
    # canonicalize with two conditional subtractions
    half = size >> 1
    two_q, qu = mont.two_q, mont.qu
    parts = []
    for leg, lo, hi in plan.tail_windows(*cols):
        u = mont.mul_lazy(a[:, lo:hi], scratch["n_inv"])
        v = mont.mul_lazy(a[:, half + lo : half + hi], scratch["inv_last"][lo:hi])
        if leg:
            u -= v
            u += two_q  # u − v + 2q ∈ (0, 4q)
        else:
            u += v  # < 4q
        _np.minimum(u, u - two_q, out=u)
        parts.append(_np.minimum(u, u - qu))
    if len(parts) == 1:
        return parts[0]
    return _np.concatenate(parts or [a[:, :0]], axis=1)


def _garner_digits(planes: "_PlaneSet", residues: list) -> list:
    """Mixed-radix digits d_i from per-plane residues, vectorized.

    ``x = d_0 + q_0·(d_1 + q_1·(d_2 + …))`` with ``0 ≤ d_i < q_i``.
    Every intermediate stays a uint64 array below 2^63.
    """
    fast = planes.close_primes
    digits = [residues[0]]
    for j in range(1, len(planes.primes)):
        qj = planes.primes[j]
        qju = _np.uint64(qj)
        mont = planes.monts[j]
        t = residues[j]
        for i in range(j):
            if fast:  # d_i < q_i < 2·q_j, so one conditional subtract
                di = _np.minimum(digits[i], digits[i] - qju)
                t = mont.sub(t, di)
                t = mont.mul(t, planes.inv[j][i])
            else:  # pragma: no cover - needs hundreds of planes
                di = digits[i] % qju
                t = (t + (qju - di)) % qju
                t = mont.mul(t, planes.inv[j][i])
        digits.append(t)
    return digits


def _fold_digit_pairs(planes: "_PlaneSet", digits: list) -> list:
    """Fold adjacent mixed-radix digits into single uint64 planes.

    ``d_{2t} + q_{2t}·d_{2t+1} < 2^31 + 2^31·2^31 < 2^63`` fits uint64,
    halving the number of big-int recombination passes downstream.
    """
    primes = planes.primes
    folded = []
    for t in range(0, len(digits) - 1, 2):
        folded.append(digits[t] + _np.uint64(primes[t]) * digits[t + 1])
    if len(digits) % 2:
        folded.append(digits[-1])
    return folded


def _pair_weights(planes: "_PlaneSet", p: int) -> list:
    """Positional weights of the folded digit pairs, pre-reduced mod p.

    The reconstructed integer is ``x = Σ W_t·e_t`` with
    ``W_t = Πᵢ<₂ₜ qᵢ``.  Only ``x mod p`` is ever needed, so the weights
    enter the sum already reduced: every product is then a 63-bit array
    element times a value below ``p`` instead of Horner's ever-growing
    multi-hundred-bit accumulator, and the final ``%`` sees
    ``k/2 · p · 2^63`` instead of the full ``Πqᵢ``-sized integers.
    """
    primes = planes.primes
    weights, w = [], 1
    for t in range(0, len(primes), 2):
        weights.append(w % p)
        w *= primes[t] * (primes[t + 1] if t + 1 < len(primes) else 1)
    return weights


class CrtOperand:
    """A product's second operand, transformed once on every residue plane.

    ``arrays[j]`` holds the operand's k rows zero-padded to ``size``,
    forward transformed on plane ``planes.primes[j]`` and reduced to
    [0, 2q): the form the pointwise product reads.  The arrays are
    read-only, because the butterflies run in place and one operand may
    serve every thread and forked worker of a process.  Built by
    :func:`crt_operand` for products with rows of one width ``la``.
    """

    __slots__ = ("planes", "size", "width", "la", "arrays")

    def __init__(self, planes: "_PlaneSet", size: int, width: int, la: int, arrays):
        self.planes = planes
        self.size = size
        self.width = width
        self.la = la
        self.arrays = tuple(arrays)


def crt_operand(p: int, rows_b, la: int) -> "CrtOperand | None":
    """``rows_b`` transformed for products with ``la``-wide rows mod ``p``,
    or ``None`` when the planes cannot cover the shape (numpy missing,
    ragged or empty rows, non-canonical values, convolution longer than
    ``2^20``)."""
    if _np is None:  # pragma: no cover - exercised via the no-numpy CI job
        return None
    if not rows_b or la < 1:
        return None
    lb = len(rows_b[0])
    out_len = la + lb - 1
    if lb == 0 or out_len > MAX_CONV:
        return None
    obj_b = _as_matrix(rows_b, p)
    if obj_b is None:
        return None
    # every output coefficient is a sum of ≤ min(la, lb) products of
    # values ≤ p − 1; the plane product must strictly dominate it
    planes = _plane_set_for(min(la, lb) * (p - 1) ** 2)
    if planes is None:  # pragma: no cover - needs an astronomical modulus
        return None
    size = _conv_size(out_len)
    from ..poly.plan import get_ntt_plan  # deferred: import cycle

    limbs = _limbs(obj_b, _limb_count(p))
    arrays = []
    for q, mont, field in zip(planes.primes, planes.monts, planes.fields):
        arr = _plane_forward(mont, get_ntt_plan(field, size), _fold_plane(limbs, q), size)
        arr.setflags(write=False)
        arrays.append(arr)
    return CrtOperand(planes, size, lb, la, arrays)


def _limb_count(p: int) -> int:
    return max(1, (p.bit_length() + 31) // 32)


def _conv_size(out_len: int) -> int:
    """The transform size for a convolution of ``out_len`` columns."""
    size = 2  # n = 1 plans have no butterfly levels; 2 is the floor
    while size < out_len:
        size <<= 1
    return size


def _convolve(p: int, obj_a, operand: "CrtOperand", cols: tuple[int, int]) -> list:
    """The one CRT product core: columns ``cols`` of row i of the
    canonical object matrix ``obj_a`` times operand row i mod k, for a
    row count that the operand's k rows divide."""
    from ..poly.plan import get_ntt_plan  # deferred: import cycle

    planes, size = operand.planes, operand.size
    plans = [get_ntt_plan(field, size) for field in planes.fields]
    n_limbs = _limb_count(p)
    weights = _pair_weights(planes, p)
    k = operand.arrays[0].shape[0]
    # process the batch in row tiles of ~2^14 elements, a multiple of k
    # so every tile meets the whole operand: a full-batch working array
    # per plane falls out of L2 at large sizes, and every butterfly
    # pass then streams from main memory instead
    tile = max(1, max(4, _TILE_ELEMS // size) // k) * k
    result: list = []
    for lo in range(0, obj_a.shape[0], tile):
        limbs_a = _limbs(obj_a[lo : lo + tile], n_limbs)
        residues = [
            _plane_product(mont, plan, _fold_plane(limbs_a, q), fb, cols)
            for q, mont, plan, fb in zip(planes.primes, planes.monts, plans, operand.arrays)
        ]
        digits = _garner_digits(planes, residues)
        folded = _fold_digit_pairs(planes, digits)
        # weighted recombination mod p — the only big-int arithmetic
        # in the path: x ≡ Σ (W_t mod p)·e_t  (W_0 = 1)
        acc = folded[0].astype(object)
        for t in range(1, len(folded)):
            acc += weights[t] * folded[t].astype(object)
        result.extend((acc % p).tolist())
    return result


def mat_polymul_crt(p: int, rows_a, rows_b, cols=None, operand=None):
    """Batched exact polynomial products mod ``p`` via residue planes.

    Row i is ``rows_a[i]`` times ``rows_b[i mod k]``, where the k rows
    of ``rows_b`` divide the batch (k = batch pairs the rows one to
    one).  Returns columns ``cols = (lo, hi)`` of each full untrimmed
    convolution (all ``la + lb − 1`` by default) as lists of canonical
    ints, bit-identical to the scalar route — or ``None`` when the fast
    path does not apply (numpy missing, ragged or empty rows,
    non-canonical values, convolution longer than ``2^20``, k not
    dividing the batch).

    ``operand`` is ``rows_b`` already transformed by :func:`crt_operand`
    for these rows' width, so a fixed operand is transformed once for
    many calls.  Without one, ``rows_b`` is transformed here, one row
    tile at a time when it pairs the rows one to one; either way the
    product runs through the same core.
    """
    if _np is None:  # pragma: no cover - exercised via the no-numpy CI job
        return None
    batch, k = len(rows_a), len(rows_b)
    if batch == 0 or k == 0 or batch % k:
        return None
    la, lb = len(rows_a[0]), len(rows_b[0])
    if la == 0 or lb == 0:
        return None
    lo, hi = cols if cols is not None else (0, la + lb - 1)
    obj_a = _as_matrix(rows_a, p)
    if obj_a is None or obj_a.shape[1] != la:
        return None
    if operand is None and k == batch:
        # one to one: an operand per row tile keeps both operands'
        # plane arrays cache-resident
        result = []
        tile = max(4, _TILE_ELEMS // _conv_size(la + lb - 1))
        for start in range(0, batch, tile):
            part = crt_operand(p, rows_b[start : start + tile], la)
            if part is None or part.width != lb:
                return None
            result.extend(_convolve(p, obj_a[start : start + tile], part, (lo, hi)))
        planes = part.planes
    else:
        operand = operand or crt_operand(p, rows_b, la)
        if operand is None or (operand.la, operand.width) != (la, lb):
            return None
        result = _convolve(p, obj_a, operand, (lo, hi))
        planes = operand.planes
    telemetry.count("crt.mat_polymul")
    telemetry.count("crt.rows", batch)
    telemetry.count("crt.planes", len(planes.primes))
    return result
