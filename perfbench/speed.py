"""Host speed reference: a fixed computation timed around every sample.

On the shared 2-core host this benchmark was built on, the same code
runs up to ~50% slower for phases of a few seconds to minutes, with no
steal time and with CPU time rising along with wall time.  A run of
half a minute can sit entirely inside a slow phase, so medians of raw
times drift between runs by more than any useful regression bound.

The benchmark therefore times :func:`reference_seconds`, a fixed
mix of what the prover and verifier spend their time on (big-integer
modular exponentiation and interpreter-bound loops over small ints),
before and after every unit of work (a batch, a slice of gateway
sessions, a set-up repetition).  Each time-valued sample is reported
at the reference speed: scaled by ``REFERENCE_SECONDS`` over the mean
of the two reference times around it.  The reference computation is
part of the benchmark, never of the program under test, so a change to
the program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

#: what :func:`reference_seconds` takes at the reference speed, which is
#: about the fast phase of the host the bounds were tuned on
REFERENCE_SECONDS = 0.015

#: 2^521 − 1, a fixed modulus of the size of the commitment groups
_MODULUS = (1 << 521) - 1
#: fixed 128-bit exponents, the size of the p128 field's elements
_EXPONENTS = tuple((0x9E3779B97F4A7C15F39CC0605CEDC834 * (i + 1)) >> 1 for i in range(64))


def _reference_work() -> int:
    x = 3
    for exponent in _EXPONENTS:
        x = pow(x, exponent, _MODULUS)
    table = {}
    acc = 0
    for i in range(16000):
        acc = (acc * 31 + i) % 65521
        table[i & 255] = acc
    return x ^ acc ^ len(table)


def reference_seconds() -> float:
    """Wall seconds the reference computation takes right now."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


class Unit:
    """One unit of work's scale factor, set when the unit has ended."""

    __slots__ = ("factor",)


class HostSpeed:
    """Brackets units of work with reference timings."""

    def __init__(self):
        self._last = reference_seconds()
        self.factors: list[float] = []

    @contextmanager
    def unit(self) -> Iterator[Unit]:
        """Time the reference after the block; set the block's factor."""
        unit = Unit()
        before = self._last
        try:
            yield unit
        finally:
            self._last = reference_seconds()
            unit.factor = REFERENCE_SECONDS / ((before + self._last) / 2)
            self.factors.append(unit.factor)
