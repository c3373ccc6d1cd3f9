"""Polynomial division: schoolbook divmod and Newton-iteration fast division.

Step 3 of the paper's prover (§A.3) divides P_w(t) by the divisor
polynomial D(t) to obtain H(t); the paper budgets ≈ f·|C|·log|C| for it,
which requires the FFT-based algorithm implemented here (reversal +
Newton inversion of a power series + two multiplications).  This
repository's prover builds H from evaluations and divides nothing
(``repro.qap.prover``); the division route stays as its test oracle
(``tests/qap/h_oracle.py``) and as the subproduct tree's multipoint
evaluation.
"""

from __future__ import annotations

from typing import Sequence

from ..field import PrimeField
from .dense import degree, poly_mul_naive, poly_sub, trim
from .multiply import poly_mul

#: below this size the quadratic schoolbook loop wins
_NEWTON_CUTOFF = 64


def poly_divmod_naive(
    field: PrimeField, num: Sequence[int], den: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Schoolbook long division; returns (quotient, remainder).

    Inputs may be non-canonical (negative or ``>= p`` coefficients);
    both are reduced up front so p-multiples in the leading positions
    count as the zeros they are.
    """
    p = field.p
    den = [c % p for c in den]
    dd = degree(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [c % p for c in num]
    trim(rem)
    dn = degree(rem)
    if dn < dd:
        return [], rem
    inv_lead = field.inv(den[dd])
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        coeff = rem[dd + k] * inv_lead % p
        if coeff:
            quot[k] = coeff
            for i in range(dd + 1):
                rem[i + k] = (rem[i + k] - coeff * den[i]) % p
    return trim(quot), trim(rem)


def _series_inverse(field: PrimeField, f: Sequence[int], n: int) -> list[int]:
    """Inverse of f(t) as a power series mod t^n, by Newton iteration.

    Requires f[0] != 0.  Each iteration doubles the precision:
    g ← g·(2 - f·g) mod t^(2k).
    """
    if not f or f[0] == 0:
        raise ZeroDivisionError("power series inverse requires nonzero constant term")
    p = field.p
    g = [field.inv(f[0])]
    k = 1
    while k < n:
        k = min(2 * k, n)
        fg = poly_mul(field, f[:k], g)
        del fg[k:]
        # t = 2 - f*g
        t = [(-c) % p for c in fg] + [0] * (k - len(fg))
        t[0] = (t[0] + 2) % p
        g = poly_mul(field, g, t)
        del g[k:]
    return trim(g)


def poly_divmod(
    field: PrimeField,
    num: Sequence[int],
    den: Sequence[int],
    *,
    inv_rev_den: Sequence[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Fast division with remainder: O(M(n)) via reversal + Newton.

    rev(num) = rev(den)·rev(quot) mod t^(deg q + 1), so the quotient's
    reversal is rev(num)·rev(den)^{-1} truncated.

    ``inv_rev_den``, if given, is the Newton inverse of the *reversed*
    divisor as a power series, computed to precision >= the quotient
    length (and padded to it — trailing zeros of the series matter for
    the precision check).  A fixed divisor amortized over a batch (the
    QAP's D(t), see ``QAPInstance.divisor_inverse_series``) pays for
    its inversion once and every later division skips straight to the
    two multiplications.

    Inputs may be non-canonical (negative or >= p coefficients); the
    quotient and remainder are always returned in canonical form.
    """
    p = field.p
    num = [c % p for c in num]
    den = [c % p for c in den]
    dn, dd = degree(num), degree(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if dn < dd:
        return [], trim(num)
    qlen = dn - dd + 1
    usable_inverse = inv_rev_den is not None and len(inv_rev_den) >= qlen
    if not usable_inverse and (dn - dd < _NEWTON_CUTOFF or dd < _NEWTON_CUTOFF):
        return poly_divmod_naive(field, num, den)
    rev_num = [num[dn - i] for i in range(dn + 1)]
    if usable_inverse:
        inverse = trim(list(inv_rev_den[:qlen]))
    else:
        rev_den = [den[dd - i] for i in range(dd + 1)]
        inverse = _series_inverse(field, rev_den, qlen)
    rev_quot = poly_mul(field, rev_num[:qlen], inverse)
    del rev_quot[qlen:]
    rev_quot += [0] * (qlen - len(rev_quot))
    quot = list(reversed(rev_quot))
    trim(quot)
    rem = poly_sub(field, num, poly_mul(field, den, quot))
    return quot, rem


def poly_div_exact(
    field: PrimeField,
    num: Sequence[int],
    den: Sequence[int],
    *,
    inv_rev_den: Sequence[int] | None = None,
) -> list[int]:
    """Division known to be exact; raises if a remainder appears.

    The paper's prover uses this for H(t) = P_w(t)/D(t): Claim A.1
    guarantees exactness precisely when z is a satisfying assignment, so
    a nonzero remainder here means the witness is wrong.  The H(t)
    oracle in the tests divides this way, passing the QAP's cached
    ``inv_rev_den``.
    """
    quot, rem = poly_divmod(field, num, den, inv_rev_den=inv_rev_den)
    if rem:
        raise ValueError(
            "polynomial division has a nonzero remainder "
            "(witness does not satisfy the constraints?)"
        )
    return quot


__all__ = [
    "poly_div_exact",
    "poly_divmod",
    "poly_divmod_naive",
    "poly_mul_naive",
]
