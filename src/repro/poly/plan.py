"""Precomputed kernel plans for the polynomial layer.

A Zaatar batch reuses one fixed QAP across many instances, so everything
that depends only on the *shape* of the computation — NTT twiddle
factors, bit-reversal schedules, barycentric weight vectors — is
instance-independent and worth computing exactly once.  This module is
the cache for that scaffolding:

* :class:`NTTPlan` — per ``(field, size)``: the per-butterfly-level
  twiddle tables (forward and inverse), the bit-reversal swap schedule,
  and the fused ``n⁻¹`` scaling of the inverse transform.  ``ntt`` /
  ``intt`` / ``ntt_mul`` all route through it.
* :func:`get_barycentric_weights` — per ``(field, count)``: the
  verifier's arithmetic-progression weight vector (§A.3), shared across
  every schedule and every QAP of the same size.

Cache keys are ``(field.p, size)``; a :class:`~repro.field.CountingField`
therefore shares plans with the plain field of the same modulus.  Plans
are immutable after construction and the cache dictionaries are guarded
by a lock, so lookups are safe from any thread; forked prover workers
inherit the parent's cache copy-on-write.  The cache lives for the
process (entries are never invalidated — a plan is a pure function of
its key) and :func:`clear_plan_caches` exists for tests and benchmarks
that need a cold start.

Every lookup reports ``poly.plan_hits`` / ``poly.plan_misses`` to
telemetry, which is how ``repro trace`` and ``benchmarks/bench_kernels``
prove the amortization (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import threading
from typing import Sequence

from .. import telemetry
from ..field import PrimeField


def bit_reversal_swaps(n: int) -> list[tuple[int, int]]:
    """The (i, j) exchanges, i < j, of the length-``n`` bit-reversal."""
    swaps: list[tuple[int, int]] = []
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            swaps.append((i, j))
    return swaps


class NTTPlan:
    """Precomputed radix-2 transform structure for one (field, size).

    Holds everything the iterative NTT recomputes when run from
    scratch: ``swaps`` (the bit-reversal permutation as exchange
    pairs), ``fwd``/``inv`` (one twiddle table per butterfly level,
    smallest level first, ``fwd[k][i] = w_len^i``), and the inverse
    transform's ``n⁻¹`` scaling fused into its last butterfly level
    (``_inv_last`` is the top inverse table pre-multiplied by ``n⁻¹``,
    so the final pass scales both butterfly legs without a separate
    O(n) sweep).

    The integer tables never mutate after ``__init__``, so plans are
    safe to share across threads and forked workers.  ``np_scratch`` is
    the one lazily-filled slot: vector backends (``repro.field.backend``
    and the CRT planes in ``repro.field.crt``) cache their array-typed
    views of the tables there, keyed by kernel kind.  Each entry is a
    pure function of the immutable tables, and builders follow a
    build-fully-then-publish discipline: the complete entry is
    constructed locally and installed with ``dict.setdefault``, so a
    concurrent reader can never observe a partially-built entry and a
    racing double-build keeps the first complete value (the losers'
    identical copies are discarded).
    """

    __slots__ = (
        "p",
        "n",
        "root",
        "inv_root",
        "n_inv",
        "swaps",
        "fwd",
        "inv",
        "_inv_head",
        "_inv_last",
        "np_scratch",
    )

    def __init__(self, field: PrimeField, n: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"NTT plan size must be a power of two >= 2, got {n}")
        p = field.p
        self.p = p
        self.n = n
        self.root = field.root_of_unity(n)
        self.inv_root = pow(self.root, p - 2, p)
        self.n_inv = pow(n, p - 2, p)
        self.swaps = bit_reversal_swaps(n)
        self.fwd = self._twiddle_tables(self.root)
        self.inv = self._twiddle_tables(self.inv_root)
        # n⁻¹ fused into the last inverse level: both butterfly outputs
        # are (u ± v); scaling v's twiddles and u once by n⁻¹ replaces
        # the classic full post-scaling pass.
        self._inv_head = self.inv[:-1]
        self._inv_last = [w * self.n_inv % p for w in self.inv[-1]]
        self.np_scratch: dict[str, object] = {}

    def _twiddle_tables(self, root: int) -> list[list[int]]:
        p, n = self.p, self.n
        tables: list[list[int]] = []
        length = 2
        while length <= n:
            half = length >> 1
            w_len = pow(root, n // length, p)
            tw = [1] * half
            for k in range(1, half):
                tw[k] = tw[k - 1] * w_len % p
            tables.append(tw)
            length <<= 1
        return tables

    # -- transforms (in place on a list of canonical ints) -------------------

    def _butterflies(self, a: list[int], tables: Sequence[list[int]]) -> None:
        p, n = self.p, self.n
        for tw in tables:
            half = len(tw)
            length = half << 1
            for start in range(0, n, length):
                i = start
                for w in tw:
                    j = i + half
                    u = a[i]
                    v = a[j] * w % p
                    a[i] = (u + v) % p
                    a[j] = (u - v) % p
                    i += 1

    def forward(self, a: list[int]) -> list[int]:
        """Forward transform, in place; returns ``a``."""
        for i, j in self.swaps:
            a[i], a[j] = a[j], a[i]
        self._butterflies(a, self.fwd)
        return a

    def inverse(self, a: list[int]) -> list[int]:
        """Inverse transform with fused n⁻¹ scaling, in place."""
        p = self.p
        for i, j in self.swaps:
            a[i], a[j] = a[j], a[i]
        self._butterflies(a, self._inv_head)
        n_inv = self.n_inv
        half = self.n >> 1
        i = 0
        for w in self._inv_last:
            j = i + half
            u = a[i] * n_inv % p
            v = a[j] * w % p
            a[i] = (u + v) % p
            a[j] = (u - v) % p
            i += 1
        return a

    def tail_windows(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """Where the inverse's last level writes output columns [lo, hi).

        That level turns positions i and i + n/2 (i < n/2) into
        u + v at column i and u − v at column i + n/2.  Returns
        ``(leg, start, stop)`` ranges of i, in column order: leg 0
        (the sums) covers columns [start, stop), leg 1 (the
        differences) columns [start + n/2, stop + n/2).  A kernel that
        keeps only some columns runs the last level on these alone.
        """
        half = self.n >> 1
        windows = []
        if lo < min(hi, half):
            windows.append((0, lo, min(hi, half)))
        if max(lo, half) < hi:
            windows.append((1, max(lo, half) - half, hi - half))
        return windows


# -- the process-wide caches ----------------------------------------------------

_CACHE_LOCK = threading.Lock()
_NTT_PLANS: dict[tuple[int, int], NTTPlan] = {}
_BARY_WEIGHTS: dict[tuple[int, int], list[int]] = {}


def get_ntt_plan(field: PrimeField, n: int) -> NTTPlan:
    """The shared :class:`NTTPlan` for ``(field.p, n)``, built on first use."""
    key = (field.p, n)
    plan = _NTT_PLANS.get(key)
    if plan is not None:
        telemetry.count("poly.plan_hits")
        return plan
    with _CACHE_LOCK:
        plan = _NTT_PLANS.get(key)
        if plan is not None:
            telemetry.count("poly.plan_hits")
            return plan
        plan = NTTPlan(field, n)
        _NTT_PLANS[key] = plan
    telemetry.count("poly.plan_misses")
    return plan


def get_barycentric_weights(field: PrimeField, count: int) -> list[int]:
    """Shared verifier weight vector for the progression 0..count-1.

    Callers treat the returned list as immutable: it is the cache entry
    itself, shared by every schedule over a same-size QAP.
    """
    key = (field.p, count)
    weights = _BARY_WEIGHTS.get(key)
    if weights is not None:
        telemetry.count("poly.plan_hits")
        return weights
    from .interpolate import barycentric_weights_arithmetic

    with _CACHE_LOCK:
        weights = _BARY_WEIGHTS.get(key)
        if weights is not None:
            telemetry.count("poly.plan_hits")
            return weights
        weights = barycentric_weights_arithmetic(field, count)
        _BARY_WEIGHTS[key] = weights
    telemetry.count("poly.plan_misses")
    return weights


def plan_cache_info() -> dict[str, int]:
    """Sizes of the process-wide plan caches (for benches and debugging)."""
    with _CACHE_LOCK:
        return {
            "ntt_plans": len(_NTT_PLANS),
            "barycentric_weight_tables": len(_BARY_WEIGHTS),
        }


def clear_plan_caches() -> None:
    """Drop every cached plan (tests and cold-start benchmarks only)."""
    with _CACHE_LOCK:
        _NTT_PLANS.clear()
        _BARY_WEIGHTS.clear()
