"""Vector constructions over prime fields.

The argument system is dominated by operations on long vectors of field
elements: the proof vector u, query vectors q_i, and their inner
products.  The arithmetic itself is ``PrimeField``'s (``vec_add``,
``inner_product``, ...), which dispatches to the active kernel backend
(``repro.field.backend``); this module holds the two vector shapes the
protocol builds from scratch.
"""

from __future__ import annotations

from typing import Sequence

from .prime_field import PrimeField


def outer(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Outer product a ⊗ b, flattened row-major.

    Ginger's proof vector is ``(z, z ⊗ z)`` (§2.2); this is quadratic in
    ``len(a)`` and is what Zaatar's encoding eliminates.
    """
    p = field.p
    out: list[int] = []
    for x in a:
        out.extend(x * y % p for y in b)
    return out


def powers(field: PrimeField, x: int, count: int) -> list[int]:
    """[1, x, x^2, ..., x^(count-1)] — the q_d query shape of Fig 10."""
    p = field.p
    out = [0] * count
    if count == 0:
        return out
    acc = 1
    for i in range(count):
        out[i] = acc
        acc = acc * x % p
    return out
