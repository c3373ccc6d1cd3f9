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

* :class:`FixedBaseTable` stores ``b^(d·2^(i·w))`` for every w-bit
  digit d of every window i.  Then ``b^e`` is one stored entry per
  digit of e, multiplied together: ⌈bits/w⌉ − 1 multiplications and no
  squarings.
* :func:`multi_pow_pair` is Pippenger's bucket method for
  ∏ x_j^{s_j}.  Per w-bit window it multiplies each base into the
  bucket of its digit, then combines the buckets with two running
  products.  A pair of base vectors shares one set of scalars, so
  each scalar's digits are extracted once and drive both products:
  the two components of an ElGamal ciphertext.

Both return exactly the integers ``pow`` returns, for any integer
bases (including 0, negative values and values ≥ P), so transcripts
do not depend on which route computed them.
"""

from __future__ import annotations

from typing import Sequence

#: widest window any table uses, to bound memory: a 512-bit group with
#: a 128-bit order keeps 16·256 entries (~0.4 MB) at this width
MAX_WINDOW = 8


def window_width(n: int, bits: int) -> int:
    """The w ≤ :data:`MAX_WINDOW` minimizing ⌈bits/w⌉·(n + 2^w).

    A Pippenger pass over n bases with ``bits``-bit scalars costs
    ⌈bits/w⌉ windows of n bucket multiplications plus about 2^w to
    combine the buckets.
    """
    return min(
        range(1, MAX_WINDOW + 1), key=lambda w: -(-bits // w) * (n + (1 << w))
    )


def digits(e: int, width: int, count: int) -> Sequence[int]:
    """The ``count`` base-2^width digits of ``e``, least significant first.

    ``e`` must lie in [0, 2^(width·count)).
    """
    if width == 8:
        return e.to_bytes(count, "little")
    mask = (1 << width) - 1
    return [(e >> shift) & mask for shift in range(0, width * count, width)]


class FixedBaseTable:
    """Windowed powers of one base: ``rows[i][d] = base^(d·2^(i·width))``.

    Exponents passed to :meth:`pow` must lie in [0, 2^bits).  A table
    is immutable once built, so threads may share it.
    """

    __slots__ = ("modulus", "width", "count", "rows")

    def __init__(self, base: int, modulus: int, bits: int, width: int):
        self.modulus = modulus
        self.width = width
        self.count = -(-bits // width)
        rows = []
        b = base % modulus
        for _ in range(self.count):
            row = [1, b]
            for _ in range(2, 1 << width):
                row.append(row[-1] * b % modulus)
            rows.append(row)
            b = row[-1] * b % modulus  # base^(2^(width·(i+1)))
        self.rows = rows

    def pow(self, e: int) -> int:
        """``pow(base, e, modulus)``."""
        P = self.modulus
        acc = 1
        for row, d in zip(self.rows, digits(e, self.width, self.count)):
            if d:
                acc = acc * row[d] % P
        return acc


def multi_pow_pair(
    bases: Sequence[tuple[int, int]], scalars: Sequence[int], modulus: int, bits: int
) -> tuple[int, int]:
    """(∏ a_j^{s_j}, ∏ b_j^{s_j}) mod ``modulus`` for ``bases`` (a_j, b_j).

    Scalars must lie in [0, 2^bits).  The result equals starting from 1
    and multiplying in ``pow(a_j, s_j, modulus)`` (likewise for b) one
    term at a time, reducing after each.
    """
    P = modulus
    width = window_width(len(scalars), bits)
    count = -(-bits // width)
    size = 1 << width
    digit_rows = [digits(s, width, count) for s in scalars]
    acc1 = acc2 = 1
    for i in reversed(range(count)):
        buckets1 = [1] * size
        buckets2 = [1] * size
        for (a, b), ds in zip(bases, digit_rows):
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
