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


def _plane_convolve(mont: "_Mont", plan, ra, rb, size: int):
    """Stacked cyclic convolution of residue rows on one plane."""
    batch = ra.shape[0]
    pa = _np.zeros((batch, size), dtype=_np.uint64)
    pa[:, : ra.shape[1]] = ra
    pb = _np.zeros((batch, size), dtype=_np.uint64)
    pb[:, : rb.shape[1]] = rb
    scratch = _mont_scratch(plan, mont)
    perm = scratch["perm"]
    # ascontiguousarray: the butterflies mutate through a reshaped view,
    # which column fancy-indexing's non-C-order result would break
    half = size >> 1
    two_q = mont.two_q
    qu = mont.qu
    fa = _np.ascontiguousarray(pa[:, perm])
    _mont_butterflies(mont, fa, scratch["fwd"], skip_first=ra.shape[1] <= half)
    fb = _np.ascontiguousarray(pb[:, perm])
    _mont_butterflies(mont, fb, scratch["fwd"], skip_first=rb.shape[1] <= half)
    # lazy outputs are in [0, 4q); one reduction each keeps the
    # pointwise operands below 2q so their product fits uint64
    _np.minimum(fa, fa - two_q, out=fa)
    _np.minimum(fb, fb - two_q, out=fb)
    prod = mont.mul_lazy(fa, fb)  # carries a uniform R⁻¹ factor …
    a = _np.ascontiguousarray(prod[:, perm])
    _mont_butterflies(mont, a, scratch["inv_head"])
    # … cancelled here by the doubly-Montgomery tail tables; the lazy
    # sums (< 4q) canonicalize with two conditional subtractions
    u = mont.mul_lazy(a[..., :half], scratch["n_inv"])
    v = mont.mul_lazy(a[..., half:], scratch["inv_last"])
    s = u + v  # < 4q
    d = u - v
    d += two_q  # u − v + 2q ∈ (0, 4q)
    for lazy, dst in ((s, a[..., :half]), (d, a[..., half:])):
        _np.minimum(lazy, lazy - two_q, out=lazy)
        _np.minimum(lazy, lazy - qu, out=dst)
    return a


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


def mat_polymul_crt(p: int, rows_a, rows_b):
    """Batched exact polynomial products mod ``p`` via residue planes.

    Returns the full untrimmed convolutions
    ``[poly_mul(rows_a[i], rows_b[i]) for i]`` as lists of canonical
    ints, bit-identical to the scalar route — or ``None`` when the fast
    path does not apply (numpy missing, ragged or empty rows,
    non-canonical values, convolution longer than ``2^20``).
    """
    if _np is None:  # pragma: no cover - exercised via the no-numpy CI job
        return None
    batch = len(rows_a)
    if batch == 0 or len(rows_b) != batch:
        return None
    la = len(rows_a[0])
    lb = len(rows_b[0])
    if la == 0 or lb == 0:
        return None
    out_len = la + lb - 1
    if out_len > MAX_CONV:
        return None
    obj_a = _as_matrix(rows_a, p)
    obj_b = _as_matrix(rows_b, p)
    if obj_a is None or obj_b is None:
        return None
    # every output coefficient is a sum of ≤ min(la, lb) products of
    # values ≤ p − 1; the plane product must strictly dominate it
    bound = min(la, lb) * (p - 1) ** 2
    planes = _plane_set_for(bound)
    if planes is None:  # pragma: no cover - needs an astronomical modulus
        return None
    size = 2  # n = 1 plans have no butterfly levels; 2 is the floor
    while size < out_len:
        size <<= 1
    from ..poly.plan import get_ntt_plan  # deferred: import cycle

    n_limbs = max(1, (p.bit_length() + 31) // 32)
    plans = [get_ntt_plan(field, size) for field in planes.fields]
    # process the batch in row tiles of ~2^15 elements: a full-batch
    # (batch × size) working array per plane falls out of L2 at large
    # sizes and every butterfly pass streams from main memory instead
    tile = max(4, _TILE_ELEMS // size)
    weights = _pair_weights(planes, p)
    result: list = []
    for lo in range(0, batch, tile):
        limbs_a = _limbs(obj_a[lo : lo + tile], n_limbs)
        limbs_b = _limbs(obj_b[lo : lo + tile], n_limbs)
        residues = []
        for q, mont, plan in zip(planes.primes, planes.monts, plans):
            conv = _plane_convolve(
                mont, plan, _fold_plane(limbs_a, q), _fold_plane(limbs_b, q), size
            )
            residues.append(conv[:, :out_len])
        digits = _garner_digits(planes, residues)
        folded = _fold_digit_pairs(planes, digits)
        # weighted recombination mod p — the only big-int arithmetic
        # in the path: x ≡ Σ (W_t mod p)·e_t  (W_0 = 1)
        acc = folded[0].astype(object)
        for t in range(1, len(folded)):
            acc += weights[t] * folded[t].astype(object)
        result.extend((acc % p).tolist())
    telemetry.count("crt.mat_polymul")
    telemetry.count("crt.rows", batch)
    telemetry.count("crt.planes", len(planes.primes))
    return result
