"""Pluggable vectorized field-arithmetic backends.

Every hot path of the argument system — NTT butterflies, the QAP
prover's H(t) pipeline, linear-PCP query evaluation, commitment dot
products — bottoms out in batch-shaped field arithmetic.  This module
is the kernel-dispatch layer for those shapes: a :class:`PrimeField`
owns one :class:`FieldBackend`, and the vector entry points
(``field.vec_add`` … ``field.inner_product`` … ``field.transform``)
route through it.

Two backends exist:

* :class:`ScalarBackend` — the original pure-Python kernels, always
  available, and the semantic reference every other backend must match
  bit-for-bit (the ``tests/property/test_backend_parity.py`` harness
  enforces this differentially).
* :class:`NumpyBackend` — batched kernels over ``numpy`` arrays,
  chosen from the modulus:

  - the 64-bit Goldilocks field gets an exact ``uint64``
    limb-arithmetic kernel for every op (64×64→128-bit products via
    32-bit limbs, then the classic ``2^64 ≡ 2^32 − 1 (mod p)``
    reduction);
  - every other modulus (the 128/192/220-bit fields, and any modulus
    a user supplies) runs transforms as butterflies over
    ``object``-dtype arrays, batched polynomial products on CRT
    residue planes (``repro.field.crt``), and ``mat_vec`` and
    ``vec_lincomb`` over :class:`WordRows` as exact uint64 limb
    products; its other elementwise ops, dot products and inversions
    stay on the scalar kernels, which measure faster than object
    arrays there.

Selection order: an explicit ``PrimeField(backend=...)`` argument, the
``REPRO_FIELD_BACKEND`` environment variable (``scalar`` / ``numpy`` /
``auto``), then ``auto`` — numpy when importable, scalar otherwise.
Requesting ``numpy`` without numpy installed degrades to scalar with a
single warning, never an error, so the system imports and runs cleanly
on minimal installs.

Beyond the 1-D vector kernels, every backend exposes **2-D batch-axis
kernels** (``mat_add`` … ``mat_ntt``) operating on a ``batch × n``
matrix of rows at once — the shape of a Zaatar batch, where one fixed
QAP proves many instances and the H(t) pipeline is SIMD across the
*instance* axis.  The stacked NTT reuses one
:class:`~repro.poly.plan.NTTPlan`'s cached twiddle/permutation arrays
across all rows.  ``mat_polymul`` runs a batch of polynomial products
as one array program — stacked uint64 transforms on Goldilocks, CRT
residue planes (off big-int arithmetic entirely) on every other
modulus — and can keep a fixed second operand transformed between
calls; ``mat_schoolbook`` runs tiny many-row products column-wise.

Every backend reports ``backend.<name>.calls`` / ``backend.<name>.elements``
counters to telemetry, attributed to whichever kernel actually ran
(a numpy backend that delegates a vector to its scalar kernels ticks
the scalar counters), so ``repro trace`` can show where the
vector work landed.  The 2-D entry points additionally tick
``backend.<name>.batch_calls`` / ``backend.<name>.batch_rows`` so
batched work is distinguishable from an equal volume of 1-D calls.
When a metrics registry is bound (prover-server sessions — see
``repro.telemetry.metrics``), the same names tick live counters there
too, giving ``repro top`` a per-backend element throughput series.
See docs/PERFORMANCE.md for the exactness argument and measured
speedups.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections import abc
from operator import mul
from typing import Sequence

from .. import telemetry
from ..telemetry import metrics as _metrics

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None

#: environment variable consulted when ``PrimeField`` gets no explicit backend
BACKEND_ENV_VAR = "REPRO_FIELD_BACKEND"

#: the Goldilocks modulus, whose reduction the uint64 kernel hardcodes
_GOLDILOCKS_P = 2**64 - 2**32 + 1


class _ScalarFallback(Exception):
    """Internal: a numpy kernel declining an input it cannot handle
    exactly (non-canonical or unconvertible values); the dispatching
    backend retries on the scalar kernel, which is tolerant."""


def element_words(p: int) -> int:
    """64-bit words per element of the field of modulus ``p``."""
    return (p.bit_length() + 63) // 64


class WordRows(abc.Sequence):
    """Equal-length rows of field elements held as one uint64 array.

    ``words`` has shape (rows, n, w): each element's w little-endian
    64-bit words.  A keystream draw whose accepted samples are already
    canonical yields this layout with no int in between
    (``FieldPRG.next_words``), and it is the layout the numpy limb
    kernels (``mat_vec``, ``vec_lincomb``) read.  To every other reader
    it is a sequence of int lists, built once on first use.
    """

    __slots__ = ("words", "_lists")

    def __init__(self, words):
        self.words = words
        self._lists: list[list[int]] | None = None

    @classmethod
    def from_ints(cls, rows: Sequence[Sequence[int]], w: int) -> "WordRows":
        """Equal-length rows of non-negative ints below 2^(64w) as words."""
        shape = (len(rows), len(rows[0]) if rows else 0, w)
        if w == 1:
            return cls(_np.asarray(rows, dtype=_np.uint64).reshape(shape))
        width = 8 * w
        data = b"".join(v.to_bytes(width, "little") for row in rows for v in row)
        return cls(_np.frombuffer(data, dtype="<u8").reshape(shape))

    @classmethod
    def stack(cls, parts: Sequence["WordRows"]) -> "WordRows":
        """The rows of ``parts``, in order, as one block."""
        return cls(_np.concatenate([part.words for part in parts]))

    @property
    def width(self) -> int:
        """Elements per row."""
        return self.words.shape[1]

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, index):
        return self.lists()[index]

    def lists(self) -> list[list[int]]:
        """The rows as int lists (built on the first call, then kept)."""
        if self._lists is None:
            count, n, w = self.words.shape
            if w == 1:
                self._lists = self.words[:, :, 0].tolist()
            else:
                data, width = self.words.tobytes(), 8 * w
                flat = [
                    int.from_bytes(data[i : i + width], "little")
                    for i in range(0, len(data), width)
                ]
                self._lists = [flat[i * n : (i + 1) * n] for i in range(count)]
        return self._lists


class FieldBackend:
    """One field's vector-kernel set.

    All methods take and return plain Python ``int`` lists in the same
    canonical representation ``PrimeField`` uses; implementations must
    be *bit-identical* to :class:`ScalarBackend` on canonical inputs
    (every value is a fully reduced element of [0, p), so any exact
    algorithm yields the same integers).  ``ntt`` may mutate the list
    it is given; callers pass private copies.
    """

    name = "?"

    def __init__(self, p: int):
        self.p = p
        self._calls_key = f"backend.{self.name}.calls"
        self._elems_key = f"backend.{self.name}.elements"
        self._batch_calls_key = f"backend.{self.name}.batch_calls"
        self._batch_rows_key = f"backend.{self.name}.batch_rows"

    def _tick(self, n: int) -> None:
        telemetry.count(self._calls_key)
        telemetry.count(self._elems_key, n)
        registry = _metrics.active()
        if registry is not None:
            registry.inc(self._calls_key)
            registry.inc(self._elems_key, n)

    def _tick_batch(self, rows: int, elems: int) -> None:
        telemetry.count(self._batch_calls_key)
        telemetry.count(self._batch_rows_key, rows)
        telemetry.count(self._elems_key, elems)
        registry = _metrics.active()
        if registry is not None:
            registry.inc(self._batch_calls_key)
            registry.inc(self._batch_rows_key, rows)
            registry.inc(self._elems_key, elems)

    def mat_polymul(self, rows_a, rows_b, cols=None, forms=None):
        """Batched per-row polynomial products by transforms, or None.

        Row i is ``rows_a[i] * rows_b[i mod k]``, k = ``len(rows_b)``
        dividing the batch: the full untrimmed convolution of length
        ``la + lb - 1``, or its columns ``cols = (lo, hi)``.  ``forms``
        is a dict in which the backend may keep ``rows_b`` transformed
        between calls (the rows must then be the same every call), or
        None.  Returns None when this backend has no fast path for the
        shape — callers fall back to the transform/poly_mul route.
        Inputs must be canonical.  The base implementation has no fast
        path.
        """
        return None

    def mat_schoolbook(self, rows_a, rows_b):
        """Row-wise schoolbook products as one array program, or None.

        Same pairing and full-width results as :meth:`mat_polymul`
        (all columns).  The base implementation has none; callers
        multiply row by row.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(p={self.p:#x})"


class ScalarBackend(FieldBackend):
    """The pure-Python reference kernels (the seed implementations).

    Tolerant of non-canonical operands wherever the original code was
    (everything funnels through ``% p``), which is also why it is the
    universal fallback.
    """

    name = "scalar"

    def vec_add(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Componentwise sum via ``% p`` list comprehension."""
        self._tick(len(a))
        p = self.p
        return [(x + y) % p for x, y in zip(a, b)]

    def vec_scale(self, c: int, a: Sequence[int]) -> list[int]:
        """Scalar multiple c·a via ``% p`` list comprehension."""
        self._tick(len(a))
        p = self.p
        return [c * x % p for x in a]

    def vec_lincomb(self, a: Sequence[int], coeffs: Sequence[int], rows) -> list[int]:
        """a + Σ coeffs[i]·rows[i]: each column's products summed as
        Python ints, then one ``% p``."""
        self._tick(len(a) * len(rows))
        p = self.p
        if not rows:
            return [x % p for x in a]
        return [
            (x + sum(map(mul, coeffs, column))) % p
            for x, column in zip(a, zip(*rows))
        ]

    def hadamard(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Componentwise product via ``% p`` list comprehension."""
        self._tick(len(a))
        p = self.p
        return [x * y % p for x, y in zip(a, b)]

    def inner_product(self, a: Sequence[int], b: Sequence[int]) -> int:
        """<a, b> with lazy reduction (one ``%`` at the end)."""
        self._tick(len(a))
        acc = 0
        for x, y in zip(a, b):
            acc += x * y
        return acc % self.p

    def mat_vec(self, rows, v: Sequence[int]) -> list[int]:
        """<row, v> per row: the products summed as Python ints, one
        ``% p`` per row."""
        self._tick_batch(len(rows), len(rows) * len(v))
        p = self.p
        return [sum(map(mul, row, v)) % p for row in rows]

    def batch_inv(self, values: Sequence[int]) -> list[int]:
        """Montgomery's trick: one inversion + 3n sequential muls."""
        self._tick(len(values))
        p = self.p
        n = len(values)
        prefix = [1] * (n + 1)
        for i, v in enumerate(values):
            # v ≡ 0 (mod p) must fail the same way literal 0 does, even
            # when v is a non-canonical multiple of p
            if v % p == 0:
                raise ZeroDivisionError("batch_inv of 0")
            prefix[i + 1] = prefix[i] * v % p
        inv_all = pow(prefix[n], -1, p)
        out = [0] * n
        for i in range(n - 1, -1, -1):
            out[i] = prefix[i] * inv_all % p
            inv_all = inv_all * values[i] % p
        return out

    def ntt(self, plan, a: list[int], invert: bool) -> list[int]:
        """Run the plan's pure-Python in-place butterflies."""
        self._tick(plan.n)
        return plan.inverse(a) if invert else plan.forward(a)

    # -- 2-D batch-axis kernels (the semantic reference) -----------------------
    #
    # Each mat_* result equals the corresponding 1-D op applied per
    # row; the numpy backend's 2-D kernels must match these bit-for-bit
    # on canonical inputs.

    def _mat_elems(self, rows) -> int:
        return sum(len(r) for r in rows)

    def mat_add(self, a, b) -> list[list[int]]:
        """Row-wise componentwise sum."""
        self._tick_batch(len(a), self._mat_elems(a))
        p = self.p
        return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def mat_sub(self, a, b) -> list[list[int]]:
        """Row-wise componentwise difference."""
        self._tick_batch(len(a), self._mat_elems(a))
        p = self.p
        return [[(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def mat_hadamard(self, a, b) -> list[list[int]]:
        """Row-wise componentwise product."""
        self._tick_batch(len(a), self._mat_elems(a))
        p = self.p
        return [[x * y % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def mat_ntt(self, plan, rows, invert: bool) -> list[list[int]]:
        """Per-row plan butterflies (rows transformed independently)."""
        self._tick_batch(len(rows), len(rows) * plan.n)
        if invert:
            return [plan.inverse(list(row)) for row in rows]
        return [plan.forward(list(row)) for row in rows]


# -- numpy kernels --------------------------------------------------------------


class _GoldilocksKernel:
    """Exact uint64 kernel for p = 2^64 − 2^32 + 1.

    Products are formed as full 128-bit integers from 32-bit limbs
    (every partial product fits a uint64), then reduced with the
    field's defining identities ``2^64 ≡ 2^32 − 1`` and
    ``2^96 ≡ −1 (mod p)``.  ``mulmod`` is exact for *any* uint64
    inputs; the compare-based ``addmod``/``submod`` require canonical
    operands, which ``_load(canonical=True)`` enforces (falling back
    to scalar otherwise).  The butterfly schedule, reduction trees and
    the prefix/suffix scans of Montgomery batch inversion are built on
    these three.  Everything is exact integer arithmetic, so results
    are the same canonical field elements the scalar kernels produce;
    the parity suite fuzzes this against pure Python across the edge
    values 0, 1, p−1.
    """

    def __init__(self):
        self.p = _GOLDILOCKS_P
        self.pu = _np.uint64(_GOLDILOCKS_P)
        self.m32 = _np.uint64(0xFFFFFFFF)
        self.s32 = _np.uint64(32)
        self.eps = _np.uint64(2**32 - 1)
        # vec_lincomb: 16-bit limb shifts, and the weight 2^(16k + 32h)
        # mod p of limb k times 32-bit half h, shaped (limb, 1, half)
        self.limb_shifts = _np.arange(0, 64, 16, dtype=_np.uint64)[:, None]
        self.limb_weights = _np.array(
            [[[pow(2, 16 * k + 32 * h, self.p) for h in range(2)]] for k in range(4)],
            dtype=_np.uint64,
        )

    def mulmod(self, a, b):
        m32, s32 = self.m32, self.s32
        a0 = a & m32
        a1 = a >> s32
        b0 = b & m32
        b1 = b >> s32
        ll = a0 * b0
        # standard 64×64 → (hi, lo) recombination; no partial overflows
        mid = a0 * b1 + (ll >> s32)
        mid2 = a1 * b0 + (mid & m32)
        hi = a1 * b1 + (mid >> s32) + (mid2 >> s32)
        lo = (mid2 << s32) | (ll & m32)
        # reduce hi·2^64 + lo:  2^64 ≡ 2^32 − 1,  2^96 ≡ −1 (mod p)
        hi1 = hi >> s32
        hi0 = hi & m32
        t0 = lo - hi1 - (self.eps * (lo < hi1).astype(_np.uint64))
        t1 = hi0 * self.eps
        res = t0 + t1
        res = res + self.eps * (res < t1).astype(_np.uint64)
        return res - self.pu * (res >= self.pu).astype(_np.uint64)

    def addmod(self, u, v):
        # u + v − p, then add p back where the true sum was below p
        s = u + (v - self.pu)
        return s + self.pu * (u < (self.pu - v)).astype(_np.uint64)

    def submod(self, u, v):
        return u - v + self.pu * (u < v).astype(_np.uint64)

    def _load(self, values: Sequence[int], *, canonical: bool):
        """List → uint64 array; refuse anything the kernel can't do exactly."""
        try:
            arr = _np.asarray(values, dtype=_np.uint64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise _ScalarFallback() from exc
        if canonical and arr.size and bool((arr >= self.pu).any()):
            raise _ScalarFallback()
        return arr

    def _scalar_operand(self, c: int):
        if not 0 <= c < 2**64:
            raise _ScalarFallback()
        return _np.uint64(c)

    def _load_mat(self, rows, *, canonical: bool):
        """List of equal-length rows → (batch × n) uint64 array."""
        if isinstance(rows, WordRows):  # one word per element, canonical
            if rows.words.shape[2] != 1:
                raise _ScalarFallback()
            return rows.words[:, :, 0]
        arr = self._load(rows, canonical=canonical)
        if arr.ndim != 2:
            raise _ScalarFallback()
        return arr

    # -- elementwise ----------------------------------------------------------

    def vec_add(self, a, b):
        return self.addmod(self._load(a, canonical=True), self._load(b, canonical=True)).tolist()

    def vec_scale(self, c, a):
        return self.mulmod(self._load(a, canonical=False), self._scalar_operand(c)).tolist()

    def vec_lincomb(self, a, coeffs, rows):
        """a + Σ cᵢ·rowsᵢ from eight exact column sums.

        Each cᵢ is split into four 16-bit limbs and each row element
        into its two 32-bit halves (a little-endian view of the row).
        One integer matrix product (numpy's own loop, not BLAS) sums
        limb k × half h over the rows; each sum is below μ·2^48, so it
        cannot wrap for μ < 2^16 rows.  ``mulmod`` weighs it by
        2^(16k + 32h) mod p, and the eight weighed sums are added to a.
        """
        m = self._load_mat(rows, canonical=False)
        mu, n = m.shape
        if mu >= 1 << 16:
            raise _ScalarFallback()
        c = self._load(coeffs, canonical=False)
        limbs = (c >> self.limb_shifts) & _np.uint64(0xFFFF)
        halves = m.astype("<u8", copy=False).view("<u4")  # lo₀, hi₀, lo₁, hi₁, …
        sums = (limbs @ halves).reshape(4, n, 2)
        terms = self.mulmod(sums, self.limb_weights)
        t = self._load(a, canonical=True)
        for row in terms.transpose(0, 2, 1).reshape(8, n):
            t = self.addmod(t, row)
        return t.tolist()

    def mat_vec(self, rows, v):
        """<row, v> per row from eight exact sums per row.

        The transpose of :meth:`vec_lincomb`'s product: each row element
        is split into four 16-bit limbs and each vᵢ into its two 32-bit
        halves, one integer matrix product sums limb k × half h along
        every row (below n·2^48, so no wrap for n < 2^16), and
        ``mulmod`` weighs the sums by 2^(16k + 32h) mod p.
        """
        m = self._load_mat(rows, canonical=False)
        count, n = m.shape
        if n >= 1 << 16:
            raise _ScalarFallback()
        limbs = _np.ascontiguousarray(m).view("<u2").reshape(count, n, 4)
        halves = self._load(v, canonical=False).view("<u4").reshape(n, 2)
        sums = limbs.transpose(0, 2, 1) @ halves.astype(_np.uint64)  # (count, 4, 2)
        terms = self.mulmod(sums, self.limb_weights[:, 0, :]).reshape(count, 8)
        out = terms[:, 0]
        for k in range(1, 8):
            out = self.addmod(out, terms[:, k])
        return out.tolist()

    def hadamard(self, a, b):
        return self.mulmod(self._load(a, canonical=False), self._load(b, canonical=False)).tolist()

    # -- reductions -----------------------------------------------------------

    def _split_sum(self, x) -> int:
        """Exact Σxᵢ of a uint64 array: sum the 32-bit halves separately
        (each stays below 2^64 for any realistic length) and recombine
        as a Python int."""
        return (int((x >> self.s32).sum()) << 32) + int((x & self.m32).sum())

    def inner_product(self, a, b) -> int:
        av = self._load(a, canonical=False)
        bv = self._load(b, canonical=False)
        if av.size == 0:
            return 0
        # Σ a·b from the four 32×32 partial-product sums, recombined
        # exactly in Python — the vectorized version of lazy reduction.
        a0 = av & self.m32
        a1 = av >> self.s32
        b0 = bv & self.m32
        b1 = bv >> self.s32
        total = (
            self._split_sum(a0 * b0)
            + ((self._split_sum(a0 * b1) + self._split_sum(a1 * b0)) << 32)
            + (self._split_sum(a1 * b1) << 64)
        )
        return total % self.p

    def _scan_products(self, arr):
        """Inclusive prefix products mod p (Hillis-Steele doubling scan)."""
        out = arr.copy()
        shift = 1
        n = out.size
        while shift < n:
            out[shift:] = self.mulmod(out[shift:], out[:-shift])
            shift <<= 1
        return out

    def batch_inv(self, values):
        """Vectorized Montgomery inversion via prefix/suffix product scans."""
        arr = self._load(values, canonical=False)
        # canonicalize BEFORE the zero guard: an input ≡ 0 (mod p) that
        # is not the literal 0 (p itself) must raise ZeroDivisionError
        # exactly like the scalar kernel does.  One conditional
        # subtraction suffices because 2p > 2^64 bounds every uint64.
        arr = arr - self.pu * (arr >= self.pu).astype(_np.uint64)
        if bool((arr == 0).any()):
            raise ZeroDivisionError("batch_inv of 0")
        n = arr.size
        inclusive = self._scan_products(arr)
        inv_total = _np.uint64(pow(int(inclusive[-1]), -1, self.p))
        # exclusive prefix / suffix products
        prefix = _np.empty_like(arr)
        prefix[0] = 1
        prefix[1:] = inclusive[:-1]
        suffix = _np.empty_like(arr)
        suffix[-1] = 1
        if n > 1:
            suffix[:-1] = self._scan_products(arr[::-1])[:-1][::-1]
        return self.mulmod(self.mulmod(prefix, suffix), inv_total).tolist()

    # -- transforms -----------------------------------------------------------

    def _scratch(self, plan):
        scratch = plan.np_scratch.get("u64")
        if scratch is None:
            perm = _np.arange(plan.n)
            for i, j in plan.swaps:
                perm[i], perm[j] = perm[j], perm[i]
            scratch = {
                "perm": perm,
                "fwd": [_np.asarray(t, dtype=_np.uint64) for t in plan.fwd],
                "inv_head": [_np.asarray(t, dtype=_np.uint64) for t in plan._inv_head],
                "inv_last": _np.asarray(plan._inv_last, dtype=_np.uint64),
                "n_inv": _np.uint64(plan.n_inv),
            }
            # build fully, then publish: setdefault keeps the first
            # complete dict when two sessions race, so no reader can
            # ever observe a partially-populated scratch
            scratch = plan.np_scratch.setdefault("u64", scratch)
        return scratch

    def _butterflies(self, a, tables) -> None:
        for tw in tables:
            h = tw.size
            view = a.reshape(-1, 2 * h)
            u = view[:, :h].copy()
            v = self.mulmod(view[:, h:], tw)
            view[:, :h] = self.addmod(u, v)
            view[:, h:] = self.submod(u, v)

    def _transform(self, plan, a, invert: bool):
        """Plan butterflies over the last axis of ``a`` (a 1-D vector or
        a 2-D row-stack), in place.  ``_butterflies``'s
        ``reshape(-1, 2h)`` never mixes rows because every row length is
        a multiple of ``2h`` at every level."""
        scratch = self._scratch(plan)
        if not invert:
            self._butterflies(a, scratch["fwd"])
        else:
            self._butterflies(a, scratch["inv_head"])
            half = plan.n >> 1
            u = self.mulmod(a[..., :half], scratch["n_inv"])
            v = self.mulmod(a[..., half:], scratch["inv_last"])
            a[..., :half] = self.addmod(u, v)
            a[..., half:] = self.submod(u, v)
        return a

    def ntt(self, plan, values, invert: bool) -> list[int]:
        a = self._load(values, canonical=True)[self._scratch(plan)["perm"]]
        return self._transform(plan, a, invert).tolist()

    # -- 2-D batch-axis kernels -----------------------------------------------

    def mat_add(self, a, b):
        return self.addmod(
            self._load_mat(a, canonical=True), self._load_mat(b, canonical=True)
        ).tolist()

    def mat_sub(self, a, b):
        return self.submod(
            self._load_mat(a, canonical=True), self._load_mat(b, canonical=True)
        ).tolist()

    def mat_hadamard(self, a, b):
        return self.mulmod(
            self._load_mat(a, canonical=False), self._load_mat(b, canonical=False)
        ).tolist()

    def mat_ntt(self, plan, rows, invert: bool):
        scratch = self._scratch(plan)
        arr = self._load_mat(rows, canonical=True)
        if arr.shape[1] != plan.n:
            raise _ScalarFallback()
        # ascontiguousarray: column fancy-indexing yields a non-C-order
        # array, and _butterflies' reshape must be a view (its writes
        # are in place)
        a = _np.ascontiguousarray(arr[:, scratch["perm"]])
        return self._transform(plan, a, invert).tolist()

    # -- products on stacked transforms ---------------------------------------

    def _forward(self, plan, rows):
        """Canonical rows zero-padded to ``plan.n``, forward transformed."""
        arr = self._load_mat(rows, canonical=True)
        padded = _np.zeros((arr.shape[0], plan.n), dtype=_np.uint64)
        padded[:, : arr.shape[1]] = arr
        a = _np.ascontiguousarray(padded[:, self._scratch(plan)["perm"]])
        self._butterflies(a, self._scratch(plan)["fwd"])
        return a

    def operand(self, plan, rows):
        """A product's second operand in the transform domain, read-only."""
        a = self._forward(plan, rows)
        a.setflags(write=False)
        return a

    def polymul(self, plan, rows_a, fb, cols: tuple[int, int]):
        """Columns ``cols`` of row i of ``rows_a`` times row i mod k of the
        transformed operand ``fb`` (k rows dividing the batch)."""
        scratch = self._scratch(plan)
        n, half = plan.n, plan.n >> 1
        fa = self._forward(plan, rows_a)
        prod = self.mulmod(fa.reshape(-1, fb.shape[0], n), fb).reshape(-1, n)
        a = _np.ascontiguousarray(prod[:, scratch["perm"]])
        self._butterflies(a, scratch["inv_head"])
        # the last inverse level, on the kept columns only
        parts = []
        for leg, lo, hi in plan.tail_windows(*cols):
            u = self.mulmod(a[:, lo:hi], scratch["n_inv"])
            v = self.mulmod(a[:, half + lo : half + hi], scratch["inv_last"][lo:hi])
            parts.append(self.submod(u, v) if leg else self.addmod(u, v))
        return _np.concatenate(parts or [a[:, :0]], axis=1).tolist()


def _int_words(values: Sequence[int], w: int):
    """Non-negative ints below 2^(64w) → an (n, w) uint64 word array."""
    width = 8 * w
    try:
        data = b"".join(v.to_bytes(width, "little") for v in values)
    except (OverflowError, AttributeError, TypeError) as exc:
        raise _ScalarFallback() from exc
    return _np.frombuffer(data, dtype="<u8").reshape(len(values), w)


def _limb_values(sums) -> list[int]:
    """The exact integers Σ sums[..., k, h]·2^(16k + 32h), one per
    leading index.  Sums of equal weight are added first, then carried
    into 16-bit digits, and each row of digits becomes one Python int.
    The callers keep every sum below 2^63 / (2w), so neither the adds
    nor a carry can wrap."""
    limbs, halves = sums.shape[-2:]
    sums = sums.reshape(-1, limbs, halves)
    count, width = sums.shape[0], limbs + 2 * (halves - 1)
    shifted = _np.zeros((count, width), dtype=_np.uint64)
    for h in range(halves):
        shifted[:, 2 * h : 2 * h + limbs] += sums[:, :, h]
    digits = _np.empty((count, width + 4), dtype=_np.uint16)
    carry = _np.zeros(count, dtype=_np.uint64)
    for s in range(width):
        total = shifted[:, s] + carry
        digits[:, s] = total & _np.uint64(0xFFFF)
        carry = total >> _np.uint64(16)
    digits[:, width:] = carry.astype("<u8").view("<u2").reshape(count, 4)
    data, step = digits.astype("<u2", copy=False).tobytes(), 2 * (width + 4)
    return [int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step)]


class _LimbKernel:
    """Exact products of multi-word elements, for every modulus.

    Operands held as :class:`WordRows` are split into 16-bit limbs or
    32-bit halves by viewing their words, with no int conversion; one
    integer matrix product (numpy's own loop, not BLAS) sums limb k ×
    half h, and each output's sums are recombined as one Python int
    and reduced once.  A limb × half product is below 2^48, so the
    sums stay exact while the summed length times the 2w halves stays
    below 2^15.
    """

    def __init__(self, p: int):
        self.p = p
        self.w = element_words(p)

    def mat_vec(self, rows: WordRows, v):
        count, n, w = rows.words.shape
        if w != self.w or n * 2 * w >= 1 << 15:
            raise _ScalarFallback()
        limbs = _np.ascontiguousarray(rows.words).view("<u2")  # (count, n, 4w)
        halves = _int_words(v, w).view("<u4").astype(_np.uint64)  # (n, 2w)
        p = self.p
        return [x % p for x in _limb_values(limbs.transpose(0, 2, 1) @ halves)]

    def vec_lincomb(self, a, coeffs, rows: WordRows):
        count, n, w = rows.words.shape
        if w != self.w or count * 2 * w >= 1 << 15:
            raise _ScalarFallback()
        limbs = _int_words(coeffs, w).view("<u2").T.astype(_np.uint64)  # (4w, count)
        halves = _np.ascontiguousarray(rows.words).view("<u4").reshape(count, n * 2 * w)
        sums = (limbs @ halves).reshape(4 * w, n, 2 * w).transpose(1, 0, 2)
        p = self.p
        return [(x + y) % p for x, y in zip(a, _limb_values(sums))]


class _ObjectKernel:
    """Transforms for every modulus without a uint64 kernel.

    Runs the plan's butterfly schedule over ``object``-dtype arrays
    (cached object-dtype twiddles in ``plan.np_scratch["obj"]``): one
    C-level dispatch per level instead of one per butterfly, while the
    arithmetic stays arbitrary-precision Python ints.  That is what
    makes the *2-D* stacked transform worthwhile for a whole batch of
    rows at once.  Elementwise ops and dot products have no kernel
    here: on object arrays they measure slower than the scalar loops.
    """

    def __init__(self, p: int):
        self.p = p

    def _scratch(self, plan):
        scratch = plan.np_scratch.get("obj")
        if scratch is None:
            perm = _np.arange(plan.n)
            for i, j in plan.swaps:
                perm[i], perm[j] = perm[j], perm[i]
            scratch = {
                "perm": perm,
                "fwd": [_np.asarray(t, dtype=object) for t in plan.fwd],
                "inv_head": [_np.asarray(t, dtype=object) for t in plan._inv_head],
                "inv_last": _np.asarray(plan._inv_last, dtype=object),
                "n_inv": plan.n_inv,
            }
            # build fully, then publish (same no-torn-reads discipline
            # as the uint64 scratch)
            scratch = plan.np_scratch.setdefault("obj", scratch)
        return scratch

    def _butterflies(self, a, tables) -> None:
        # same level order and formulas as plan.forward/inverse, so the
        # resulting canonical integers are bit-identical to the scalar
        # butterflies; reshape(-1, 2h) never mixes rows (row length is
        # a multiple of 2h at every level)
        p = self.p
        for tw in tables:
            h = tw.size
            view = a.reshape(-1, 2 * h)
            u = view[:, :h].copy()
            v = (view[:, h:] * tw) % p
            view[:, :h] = (u + v) % p
            view[:, h:] = (u - v) % p

    def _transform(self, plan, a, invert: bool):
        scratch = self._scratch(plan)
        if not invert:
            self._butterflies(a, scratch["fwd"])
        else:
            self._butterflies(a, scratch["inv_head"])
            half = plan.n >> 1
            p = self.p
            u = (a[..., :half] * scratch["n_inv"]) % p
            v = (a[..., half:] * scratch["inv_last"]) % p
            a[..., :half] = (u + v) % p
            a[..., half:] = (u - v) % p
        return a

    def ntt(self, plan, values, invert: bool) -> list[int]:
        a = _np.asarray(values, dtype=object)[self._scratch(plan)["perm"]]
        return self._transform(plan, a, invert).tolist()

    def mat_ntt(self, plan, rows, invert: bool):
        scratch = self._scratch(plan)
        if any(len(row) != plan.n for row in rows):
            raise _ScalarFallback()
        arr = _np.empty((len(rows), plan.n), dtype=object)
        for i, row in enumerate(rows):
            arr[i] = row
        # C-order required: _butterflies' reshape must stay a view
        a = _np.ascontiguousarray(arr[:, scratch["perm"]])
        return self._transform(plan, a, invert).tolist()


class NumpyBackend(FieldBackend):
    """Batched kernels over numpy arrays, chosen from the modulus.

    Goldilocks runs every op on the exact uint64 kernel.  Any other
    modulus runs transforms on object-array butterflies and batched
    polynomial products on CRT residue planes; its other ops go to the
    scalar kernels (see module docs).  Small inputs also stay scalar
    (numpy call overhead would dominate), as does any input the exact
    kernels decline (non-canonical or unconvertible values) — so
    results match the scalar backend on every input the scalar backend
    accepts.
    """

    name = "numpy"

    #: below this many elements the scalar kernels win: on Goldilocks
    #: the uint64 ``hadamard`` takes 0.7–0.8× the scalar loop's speed at
    #: 128 elements and 1.04–1.09× at 256 (``bench_kernels.py``'s
    #: backend sweep, 2-core Xeon); 2-D kernels count every row's elements
    MIN_VECTOR = 256
    #: the uint64 ``inner_product`` runs at 0.67–0.76× the scalar loop's
    #: speed at 256 elements, 0.95–1.08× at 666 and 0.99–1.21× at 1,024
    #: (interleaved best of 15, three runs, 2-core Xeon), so the
    #: prover's 666-element answers stay on the scalar loop
    MIN_INNER_PRODUCT = 1024
    #: the uint64 ``batch_inv`` (prefix/suffix scans) runs at 0.36–0.44×
    #: at 342 elements, 0.72–0.83× at 1,024 and 1.00–1.05× at 2,048
    #: (same timing)
    MIN_BATCH_INV = 2048
    #: ``vec_lincomb`` counts μ rows × n columns: 0.88× at 56 × 12,
    #: 1.11× at 56 × 18 and 2.6× at 56 × 666 (interleaved best of 25)
    MIN_LINCOMB = 1024
    #: ``mat_vec`` counts rows × n elements, like ``MIN_LINCOMB``
    MIN_MAT_VEC = 1024
    #: below this transform size the scalar butterflies beat the object
    #: butterflies
    MIN_NTT = 64
    #: below this many points, counting every row of a stacked
    #: transform, they beat the uint64 butterflies: one round trip runs
    #: at 0.35× at 64 points, 0.63× at 128 and 1.26–1.39× at 256
    #: (``bench_kernels.py``'s backend sweep, uint64 kernel alone), and
    #: a stack crosses over near 256 points whatever its row length
    #: (8 × 8 0.40×, 16 × 8 0.91×, 32 × 8 1.21×, 3 × 64 0.87×,
    #: 8 × 64 1.96×)
    MIN_NTT_U64 = 256

    def __init__(self, p: int):
        if not HAVE_NUMPY:
            raise RuntimeError("NumpyBackend requires numpy")
        super().__init__(p)
        self.scalar = ScalarBackend(p)
        #: the kernel for every op, when the modulus has a uint64 kernel
        self.u64 = _GoldilocksKernel() if p == _GOLDILOCKS_P else None
        #: the kernel that runs transforms
        self.kernel = self.u64 or _ObjectKernel(p)
        #: the products over :class:`WordRows` of any other modulus
        self.limbs = _LimbKernel(p) if self.u64 is None else None

    def _transforms_on_kernel(self, plan, rows: int) -> bool:
        """Whether ``rows`` stacked transforms of ``plan`` run on
        ``kernel``: the uint64 cutoff counts every row's points, the
        object one each transform's."""
        if self.u64 is not None:
            return rows * plan.n >= self.MIN_NTT_U64
        return plan.n >= self.MIN_NTT

    def _vector(self, op: str, n: int, start: int, *args, kernel=None):
        """1-D ``op`` on ``kernel`` (default: the uint64 kernel, when the
        modulus has one) when ``n`` reaches ``start``, else on the scalar
        kernels."""
        kernel = kernel or self.u64
        if kernel is not None and n >= start:
            try:
                result = getattr(kernel, op)(*args)
            except _ScalarFallback:
                pass
            else:
                self._tick(n)
                return result
        return getattr(self.scalar, op)(*args)

    def vec_add(self, a, b):
        """Componentwise sum."""
        return self._vector("vec_add", len(a), self.MIN_VECTOR, a, b)

    def vec_scale(self, c, a):
        """Scalar multiple c·a."""
        return self._vector("vec_scale", len(a), self.MIN_VECTOR, c, a)

    def vec_lincomb(self, a, coeffs, rows):
        """a + Σ cᵢ·rowsᵢ via one product of limbs (every row's elements
        count toward ``MIN_LINCOMB``); on a modulus without the uint64
        kernel, :class:`WordRows` take the limb kernel."""
        n = len(a) * len(rows)
        kernel = self.limbs if isinstance(rows, WordRows) else None
        return self._vector("vec_lincomb", n, self.MIN_LINCOMB, a, coeffs, rows, kernel=kernel)

    def mat_vec(self, rows, v):
        """<row, v> per row via one product of limbs, on the uint64
        kernel or, for :class:`WordRows`, the limb kernel."""
        n = len(rows) * len(v)
        kernel = self.u64 or (self.limbs if isinstance(rows, WordRows) else None)
        if kernel is not None and n >= self.MIN_MAT_VEC:
            try:
                result = kernel.mat_vec(rows, v)
            except _ScalarFallback:
                pass
            else:
                self._tick_batch(len(rows), n)
                return result
        return self.scalar.mat_vec(rows, v)

    def hadamard(self, a, b):
        """Componentwise product."""
        return self._vector("hadamard", len(a), self.MIN_VECTOR, a, b)

    def inner_product(self, a, b):
        """<a, b> via limb-split partial-product sums."""
        return self._vector("inner_product", len(a), self.MIN_INNER_PRODUCT, a, b)

    def batch_inv(self, values):
        """Montgomery inversion via prefix/suffix product scans."""
        return self._vector("batch_inv", len(values), self.MIN_BATCH_INV, values)

    def ntt(self, plan, a, invert):
        """Vectorized butterfly levels over the plan's cached arrays."""
        if self._transforms_on_kernel(plan, 1):
            try:
                result = self.kernel.ntt(plan, a, invert)
            except _ScalarFallback:
                pass
            else:
                self._tick(plan.n)
                return result
        return self.scalar.ntt(plan, a, invert)

    # -- 2-D batch-axis entry points ------------------------------------------

    @staticmethod
    def _rect(rows):
        """Total element count when all rows have equal length, else None
        (the numpy kernels need a rectangular matrix; the scalar
        reference handles anything)."""
        if not rows:
            return 0
        n = len(rows[0])
        for row in rows:
            if len(row) != n:
                return None
        return n * len(rows)

    def _matrix(self, op: str, a, b):
        """Row-wise ``op`` on the uint64 kernel when the modulus has one
        and ``a`` is a rectangular matrix of at least ``MIN_VECTOR``
        elements, else on the scalar kernels."""
        if self.u64 is not None:
            elems = self._rect(a)
            if elems is not None and elems >= self.MIN_VECTOR:
                try:
                    result = getattr(self.u64, op)(a, b)
                except _ScalarFallback:
                    pass
                else:
                    self._tick_batch(len(a), elems)
                    return result
        return getattr(self.scalar, op)(a, b)

    def mat_add(self, a, b):
        """Row-wise sums in one 2-D kernel call."""
        return self._matrix("mat_add", a, b)

    def mat_sub(self, a, b):
        """Row-wise differences in one 2-D kernel call."""
        return self._matrix("mat_sub", a, b)

    def mat_hadamard(self, a, b):
        """Row-wise componentwise products in one 2-D kernel call."""
        return self._matrix("mat_hadamard", a, b)

    def mat_ntt(self, plan, rows, invert):
        """Stacked transforms sharing one plan's cached twiddles."""
        if rows and self._transforms_on_kernel(plan, len(rows)):
            try:
                result = self.kernel.mat_ntt(plan, rows, invert)
            except _ScalarFallback:
                pass
            else:
                self._tick_batch(len(rows), len(rows) * plan.n)
                return result
        return self.scalar.mat_ntt(plan, rows, invert)

    def mat_polymul(self, rows_a, rows_b, cols=None, forms=None):
        """Batched convolution with ``rows_b`` transformed as an operand.

        Goldilocks runs stacked uint64 transforms; every other modulus
        splits each row into k uint64 residue planes modulo 30-bit NTT
        primes, convolves every plane with stacked uint64 transforms
        and reconstructs exact integer convolutions via Garner/CRT (see
        ``repro.field.crt``).  Either route transforms ``rows_b`` once
        as an operand and runs one product core over ``rows_a``; with
        ``forms`` the transformed operand is kept there for the next
        call.  Bit-identical to per-row ``poly_mul``; None for shapes
        the route cannot cover.
        """
        if not rows_a or not rows_b or len(rows_a) % len(rows_b):
            return None
        la, lb = len(rows_a[0]), len(rows_b[0])
        if la == 0 or lb == 0:
            return None
        cols = cols if cols is not None else (0, la + lb - 1)
        if self.u64 is not None:
            result = self._u64_polymul(rows_a, rows_b, cols, forms)
        else:
            from .crt import crt_operand, mat_polymul_crt

            operand = None
            if forms is not None:
                operand = forms.get(("crt", la))
                if operand is None:
                    operand = crt_operand(self.p, rows_b, la)
                    if operand is not None:
                        operand = forms.setdefault(("crt", la), operand)
            result = mat_polymul_crt(self.p, rows_a, rows_b, cols, operand)
        if result is not None:
            elems = sum(len(r) for r in rows_a) + sum(len(r) for r in rows_b)
            self._tick_batch(len(rows_a), elems)
        return result

    def _u64_polymul(self, rows_a, rows_b, cols, forms):
        from ..poly.plan import get_ntt_plan  # deferred: import cycle
        from .prime_field import PrimeField

        size = 2
        while size < len(rows_a[0]) + len(rows_b[0]) - 1:
            size <<= 1
        # plans are keyed by modulus, and every Goldilocks field finds
        # the same two-adic generator, so this is its fields' own plan
        plan = get_ntt_plan(PrimeField(self.p, check_prime=False, backend=self), size)
        try:
            fb = forms.get(("u64", size)) if forms is not None else None
            if fb is None:
                fb = self.u64.operand(plan, rows_b)
                telemetry.count("poly.ntt_calls", len(rows_b))
                telemetry.count("poly.ntt_points", len(rows_b) * size)
                if forms is not None:
                    fb = forms.setdefault(("u64", size), fb)
            result = self.u64.polymul(plan, rows_a, fb, cols)
        except _ScalarFallback:
            return None
        telemetry.count("poly.ntt_calls", 2 * len(rows_a))
        telemetry.count("poly.ntt_points", 2 * len(rows_a) * size)
        return result

    def mat_schoolbook(self, rows_a, rows_b):
        """Column-wise schoolbook over object arrays.

        One vectorized multiply-add per coefficient of the shorter
        operand, across every row at once, and one reduction at the
        end: the sums of at most ``min(la, lb)`` products stay exact
        Python ints.  Bit-identical to per-row ``poly_mul``.
        """
        if not rows_a or not rows_b or len(rows_a) % len(rows_b):
            return None
        a = _np.asarray(rows_a, dtype=object)
        b = _np.asarray(rows_b, dtype=object)
        if a.ndim != 2 or b.ndim != 2 or not a.size or not b.size:
            return None
        k, (batch, la), lb = b.shape[0], a.shape, b.shape[1]
        # row i meets operand row i mod k: split the batch into k-row blocks
        a = a.reshape(batch // k, k, la)
        out = _np.zeros((batch // k, k, la + lb - 1), dtype=object)
        if la <= lb:
            for j in range(la):
                out[..., j : j + lb] += a[..., j : j + 1] * b
        else:
            for j in range(lb):
                out[..., j : j + la] += a * b[:, j : j + 1]
        self._tick_batch(batch, a.size + b.size)
        return (out.reshape(batch, -1) % self.p).tolist()


# -- resolution -----------------------------------------------------------------

_RESOLVE_LOCK = threading.Lock()
_BACKENDS: dict[tuple[str, int], FieldBackend] = {}
_warned_missing_numpy = False


def _warn_missing_numpy() -> None:
    global _warned_missing_numpy
    if not _warned_missing_numpy:
        _warned_missing_numpy = True
        warnings.warn(
            "REPRO_FIELD_BACKEND requested the numpy backend but numpy is not "
            "importable; degrading to the scalar backend",
            RuntimeWarning,
            stacklevel=4,
        )


def resolve_backend(spec: "str | FieldBackend | None", p: int) -> FieldBackend:
    """The backend a field of modulus ``p`` should use.

    ``spec`` is a :class:`FieldBackend` instance (used as-is), a name
    (``"scalar"`` / ``"numpy"`` / ``"auto"``), or ``None`` — which
    consults :data:`BACKEND_ENV_VAR` and then defaults to ``auto``.
    ``auto`` picks numpy when importable; an *explicit* numpy request
    without numpy degrades to scalar with a one-time warning.  Resolved
    backends are cached per ``(name, modulus)``, so every field over
    one modulus shares one backend object (and its kernels).
    """
    if isinstance(spec, FieldBackend):
        return spec
    name = (spec or os.environ.get(BACKEND_ENV_VAR) or "auto").strip().lower()
    if name == "auto":
        name = "numpy" if HAVE_NUMPY else "scalar"
    elif name == "numpy" and not HAVE_NUMPY:
        _warn_missing_numpy()
        name = "scalar"
    if name not in ("scalar", "numpy"):
        raise ValueError(
            f"unknown field backend {name!r}; choose from scalar, numpy, auto"
        )
    key = (name, p)
    backend = _BACKENDS.get(key)
    if backend is None:
        with _RESOLVE_LOCK:
            backend = _BACKENDS.get(key)
            if backend is None:
                cls = NumpyBackend if name == "numpy" else ScalarBackend
                backend = cls(p)
                _BACKENDS[key] = backend
    return backend
