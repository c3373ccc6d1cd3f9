"""Exponentiation kernels for the commitment round.

Both hot loops of the linear commitment raise many values to
exponents below the group order, modulo one P: the verifier's Enc(r)
computes g^k and g^((m + x·k) mod q) per element of r, and the
prover's fold computes ∏ Enc(r_i)^{u_i}.  One ``pow`` per
exponentiation costs about ``bits`` modular squarings plus a
multiplication per window.  At the commitment's sizes a modular
multiplication costs far more than the interpreter's dispatch around
it, so the kernels below win by doing fewer multiplications, even
though they run in Python:

* :class:`FixedBaseTable` stores ``b^(d·2^(8i))`` for every byte d of
  every window i.  Then ``b^e`` is one stored entry per byte of e,
  multiplied together: ⌈bits/8⌉ − 1 multiplications and no squarings.
* :func:`multi_pow_pair` folds ∏ x_j^{s_j} for a pair of base
  vectors that share one set of scalars, the two components of an
  ElGamal ciphertext, so each step of either route drives both
  products.  Below :data:`PIPPENGER_MIN_TERMS` nonzero scalars it runs
  Bos–Coster's heap method: it keeps a max-heap of the scalars,
  divides the largest by the runner-up, multiplies the runner-up's
  bases by the top's bases raised to the quotient (a plain
  multiplication when the quotient is 1, the usual case) and re-keys
  the top with the remainder.  Each run of equal scalars therefore
  folds with one multiplication per term, and the last entry costs one
  ``pow`` per component.  From the constant on it runs Pippenger's
  bucket method: per byte of the scalars it multiplies each base into
  the bucket of its digit, then combines the buckets with two running
  products.

Both return exactly the integers ``pow`` returns, for any integer
bases (including 0, negative values and values ≥ P), so transcripts
do not depend on which route computed them.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Iterable

#: a fold with fewer nonzero scalars runs Bos–Coster, one with at least
#: this many Pippenger.  Set from real proof vectors on goldilocks-512,
#: the group the figure benches fold on (``bench_kernels.py``'s fold
#: section): Bos–Coster's time over Pippenger's reads 0.82–0.86 at 482
#: terms (LCS m = 4), 0.90 at 753, 0.95–1.01 from 1,061 to 2,689 and
#: 1.02–1.40 at 7,251–7,307.  The constant sits where the routes start
#: to tie: every perfbench and gateway fold (at most 482 terms) runs
#: Bos–Coster, and the five apps' default proof vectors (1,061–7,307
#: terms) run Pippenger.
PIPPENGER_MIN_TERMS = 1024

#: digit width of the tables and of Pippenger's buckets, so a digit is
#: one byte of the scalar.  A 512-bit group with a 128-bit order keeps
#: 16·256 entries (~0.4 MB) per table.  For a Pippenger pass over n
#: ≥ PIPPENGER_MIN_TERMS scalars of the groups' 64, 128 or 220 bits, 8
#: also minimizes the cost ⌈bits/w⌉·(n + 2^w) over every w ≤ 8.
WINDOW = 8


class FixedBaseTable:
    """Byte-windowed powers of one base: ``rows[i][d] = base^(d·2^(8i))``.

    Exponents passed to :meth:`pow` must lie in [0, 2^bits).  A table
    is immutable once built, so threads may share it.
    """

    __slots__ = ("modulus", "count", "rows")

    def __init__(self, base: int, modulus: int, bits: int):
        self.modulus = modulus
        self.count = -(-bits // WINDOW)
        rows = []
        b = base % modulus
        for _ in range(self.count):
            row = [1, b]
            for _ in range(2, 1 << WINDOW):
                row.append(row[-1] * b % modulus)
            rows.append(row)
            b = row[-1] * b % modulus  # base^(2^(8·(i+1)))
        self.rows = rows

    def pow(self, e: int) -> int:
        """``pow(base, e, modulus)``."""
        P = self.modulus
        acc = 1
        for row, d in zip(self.rows, e.to_bytes(self.count, "little")):
            if d:
                acc = acc * row[d] % P
        return acc


def multi_pow_pair(
    bases: Iterable[tuple[int, int]], scalars: Iterable[int], modulus: int, bits: int
) -> tuple[int, int]:
    """(∏ a_j^{s_j}, ∏ b_j^{s_j}) mod ``modulus`` for ``bases`` (a_j, b_j).

    The result equals starting from 1 and multiplying in
    ``pow(a_j, s_j, modulus)`` (likewise for b) one term at a time,
    reducing after each.  Every scalar must lie in [0, 2^bits), or
    :class:`ValueError` is raised.  The count of nonzero scalars picks
    the route (:data:`PIPPENGER_MIN_TERMS`).
    """
    terms = nonzero_terms(bases, scalars, modulus, bits)
    if len(terms[2]) < PIPPENGER_MIN_TERMS:
        return bos_coster_pair(*terms, modulus)
    return pippenger_pair(*terms, modulus, bits)


def nonzero_terms(
    bases: Iterable[tuple[int, int]], scalars: Iterable[int], modulus: int, bits: int
) -> tuple[list[int], list[int], list[int]]:
    """The routes' input: each nonzero scalar's two bases, reduced mod P
    so that no route multiplies a component at the size it was sent,
    and the scalar, as three parallel lists.

    Raises :class:`ValueError` for a scalar outside [0, 2^bits).
    """
    limit = 1 << bits
    firsts, seconds, nonzero = [], [], []
    for (a, b), s in zip(bases, scalars):
        if not 0 <= s < limit:
            raise ValueError(f"scalar {s} outside [0, 2^{bits})")
        if s:
            firsts.append(a % modulus)
            seconds.append(b % modulus)
            nonzero.append(s)
    return firsts, seconds, nonzero


def bos_coster_pair(
    firsts: list[int], seconds: list[int], scalars: list[int], P: int
) -> tuple[int, int]:
    """Bos–Coster over positive ``scalars``; overwrites both base lists.

    Each step rewrites x^a·y^b (a ≥ b, the two largest scalars) as
    x^(a mod b)·(y·x^(a div b))^b, so the heap's scalars shrink like
    Euclid's remainders while the product stays the same.
    """
    if not scalars:
        return 1, 1
    heap = [(-s, index) for index, s in enumerate(scalars)]  # a max-heap
    heapify(heap)
    while len(heap) > 1:
        top, i = heap[0]
        # the runner-up is the root's child with the larger scalar
        runner_up, j = heap[1] if len(heap) == 2 or heap[1] < heap[2] else heap[2]
        # both keys negative: the quotient is a div b, the remainder −(a mod b)
        quotient, remainder = divmod(top, runner_up)
        if quotient == 1:
            firsts[j] = firsts[j] * firsts[i] % P
            seconds[j] = seconds[j] * seconds[i] % P
        else:
            firsts[j] = firsts[j] * pow(firsts[i], quotient, P) % P
            seconds[j] = seconds[j] * pow(seconds[i], quotient, P) % P
        if remainder:
            heapreplace(heap, (remainder, i))
        else:
            heappop(heap)
    top, i = heap[0]
    return pow(firsts[i], -top, P), pow(seconds[i], -top, P)


def pippenger_pair(
    firsts: list[int], seconds: list[int], scalars: list[int], P: int, bits: int
) -> tuple[int, int]:
    """Pippenger's bucket method, one byte of the scalars at a time;
    reads its lists without changing them."""
    count = -(-bits // WINDOW)
    size = 1 << WINDOW
    digit_rows = [s.to_bytes(count, "little") for s in scalars]
    acc1 = acc2 = 1
    for i in reversed(range(count)):
        buckets1 = [1] * size
        buckets2 = [1] * size
        for a, b, ds in zip(firsts, seconds, digit_rows):
            d = ds[i]
            if d:
                buckets1[d] = buckets1[d] * a % P
                buckets2[d] = buckets2[d] * b % P
        acc1 = pow(acc1, size, P) * _bucket_product(buckets1, P) % P
        acc2 = pow(acc2, size, P) * _bucket_product(buckets2, P) % P
    return acc1, acc2


def _bucket_product(buckets: list[int], P: int) -> int:
    """∏ buckets[d]^d, as a running product of the running products."""
    running = total = 1
    for d in range(len(buckets) - 1, 0, -1):
        bucket = buckets[d]
        if bucket != 1:
            running = running * bucket % P
        if running != 1:
            total = total * running % P
    return total
