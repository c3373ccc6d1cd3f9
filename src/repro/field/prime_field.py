"""Prime-field arithmetic.

``PrimeField`` is the workhorse: it operates on plain Python integers in
``[0, p)`` so that hot loops (NTTs, inner products over proof vectors)
pay no wrapper overhead.  Every arithmetic method has one row in the
op table (``repro.field.ops``), from which the checked twin here and
the counting twin (``counting.py``) derive their overrides.

The microbenchmark parameters of the paper's cost model (§5.1) map onto
methods here: ``f`` is ``mul``, ``f_lazy`` is ``mul_lazy`` (no final
reduction), ``f_div`` is ``div``, and ``c`` is a pseudorandom draw (see
``repro.crypto.prg``).
"""

from __future__ import annotations

import random
from typing import Sequence

from .backend import FieldBackend, WordRows, resolve_backend
from .ops import ELEM, ROWS, VEC, FieldOp, derive, parameters
from .params import FieldParams, field_params

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test (deterministic witnesses + random rounds)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0xC0FFEE ^ n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic modulo a prime ``p``, on raw integers in ``[0, p)``.

    Instances are cheap, hashable by modulus, and safe to share across
    threads (all state is immutable).

    **Canonical-form precondition.**  The comparison-based operations
    ``add``/``sub``/``neg`` assume both operands are already canonical
    (in ``[0, p)``) and *silently return out-of-range results*
    otherwise — they trade the ``%`` reduction for a single compare,
    which is what makes the prover's inner loops affordable in pure
    Python.  ``mul``/``pow``/``inv``/``div`` reduce fully and tolerate
    any integer operand.  Callers bringing external or
    signed values into the field must go through :meth:`reduce` /
    :meth:`from_signed` first; :class:`CheckedPrimeField` enforces the
    precondition at runtime for tests and debugging.

    **Vector kernels.**  The batch-shaped entry points
    (:meth:`vec_add` … :meth:`inner_product` … :meth:`transform`)
    route through a pluggable :class:`~repro.field.backend.FieldBackend`
    selected at construction (``backend=`` argument, the
    ``REPRO_FIELD_BACKEND`` environment variable, or auto-detection) —
    see ``repro.field.backend``.  All backends are bit-identical on
    canonical inputs; the vector ops reduce fully and tolerate any
    integer operand, like ``mul``.
    """

    __slots__ = (
        "p",
        "name",
        "two_adicity",
        "backend",
        "_two_adic_generator",
        "_root_cache",
    )

    def __init__(
        self,
        params_or_modulus: FieldParams | int,
        *,
        check_prime: bool = True,
        backend: "str | FieldBackend | None" = None,
    ):
        if isinstance(params_or_modulus, FieldParams):
            params = params_or_modulus
            self.p = params.modulus
            self.name = params.name
            self.two_adicity = params.two_adicity
            self._two_adic_generator = params.two_adic_generator
        else:
            self.p = int(params_or_modulus)
            self.name = f"p{self.p.bit_length()}"
            # Derive the 2-adicity of p-1; the generator is found lazily.
            t, n = 0, self.p - 1
            while n % 2 == 0:
                n //= 2
                t += 1
            self.two_adicity = t
            self._two_adic_generator = 0
        if check_prime and not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        self.backend = resolve_backend(backend, self.p)
        self._root_cache: dict[int, int] = {}

    # -- identities ---------------------------------------------------------

    @classmethod
    def named(cls, name: str) -> "PrimeField":
        return cls(field_params(name), check_prime=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.name}, {self.p.bit_length()} bits)"

    @property
    def bits(self) -> int:
        """Bit length of the modulus."""
        return self.p.bit_length()

    # -- scalar arithmetic ---------------------------------------------------

    def reduce(self, a: int) -> int:
        """Map an arbitrary integer into canonical form ``[0, p)``."""
        return a % self.p

    def add(self, a: int, b: int) -> int:
        """a + b mod p.  Requires canonical operands (see class docs)."""
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        """a - b mod p.  Requires canonical operands (see class docs)."""
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a: int) -> int:
        """-a mod p.  Requires a canonical operand (see class docs)."""
        return self.p - a if a else 0

    def mul(self, a: int, b: int) -> int:
        """a · b mod p (the cost-model parameter f)."""
        return a * b % self.p

    def mul_lazy(self, a: int, b: int) -> int:
        """Multiplication *without* the final modular reduction.

        This is the paper's ``f_lazy`` (§5.1 footnote 8): accumulating
        unreduced products and reducing once is the standard trick in
        the inner-product loops of the prover.  Callers must eventually
        ``reduce`` the accumulated value.
        """
        return a * b

    def pow(self, a: int, e: int) -> int:
        """a^e mod p."""
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on 0."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        """a / b mod p (the cost-model parameter f_div)."""
        return a * self.inv(b) % self.p

    # -- encodings -----------------------------------------------------------

    def from_signed(self, v: int) -> int:
        """Embed a signed integer, mapping negatives to ``p - |v|``.

        This is how the compiler represents two's-complement-style
        signed values (§5.1: 32-bit signed integer inputs).
        """
        return v % self.p

    def to_signed(self, a: int) -> int:
        """Interpret a field element as a signed integer in ``(-p/2, p/2]``."""
        return a - self.p if a > self.p // 2 else a

    # -- batch helpers -------------------------------------------------------

    def _require_same_length(self, a: Sequence[int], b: Sequence[int]) -> None:
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")

    def inner_product(self, a: Sequence[int], b: Sequence[int]) -> int:
        """<a, b> with lazy reduction; the prover's core operation."""
        self._require_same_length(a, b)
        return self.backend.inner_product(a, b)

    def batch_inv(self, values: Sequence[int]) -> list[int]:
        """Montgomery's trick: n inversions for one inversion + 3n muls.

        Used by the verifier's barycentric-weight computation (§A.3),
        where ``f_div``-heavy loops would otherwise dominate.
        """
        return self.backend.batch_inv(values)

    def vec_add(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Componentwise sum (fully reduced)."""
        self._require_same_length(a, b)
        return self.backend.vec_add(a, b)

    def vec_scale(self, c: int, a: Sequence[int]) -> list[int]:
        """Scalar multiple c·a (fully reduced)."""
        return self.backend.vec_scale(c, a)

    def vec_lincomb(self, a: Sequence[int], coeffs: Sequence[int], rows) -> list[int]:
        """a + Σ coeffs[i]·rows[i], reduced once per column.

        The verifier's consistency query t = r + Σ αᵢ·qᵢ (§2.2) is this
        op over every PCP query at once.
        """
        if len(coeffs) != len(rows):
            raise ValueError(
                f"length mismatch: {len(coeffs)} coefficients vs {len(rows)} rows"
            )
        self._require_row_length(rows, len(a))
        return self.backend.vec_lincomb(a, coeffs, rows)

    def mat_vec(self, rows, v: Sequence[int]) -> list[int]:
        """<row, v> for every row, each reduced once.

        An honest prover answers the PCP's base query rows with this op
        on each half of its proof vector (one product per side).
        """
        self._require_row_length(rows, len(v))
        return self.backend.mat_vec(rows, v)

    def _require_row_length(self, rows, n: int) -> None:
        if isinstance(rows, WordRows):
            if len(rows) and rows.width != n:
                raise ValueError(f"length mismatch: {n} vs {rows.width}")
            return
        for row in rows:
            if len(row) != n:
                raise ValueError(f"length mismatch: {n} vs {len(row)}")

    def hadamard(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Componentwise product (fully reduced)."""
        self._require_same_length(a, b)
        return self.backend.hadamard(a, b)

    def transform(self, plan, values: list[int], invert: bool = False) -> list[int]:
        """Run an :class:`~repro.poly.plan.NTTPlan` on ``values``.

        The kernel may mutate ``values`` in place; callers pass a
        private copy and use the returned list.  Inputs must be
        canonical field elements (`repro.poly.ntt` guarantees this).
        """
        return self.backend.ntt(plan, values, invert)

    # -- 2-D batch-axis entry points -----------------------------------------
    #
    # The mat_* family operates on a batch × n matrix of rows at once —
    # the shape of a Zaatar batch, where one fixed QAP proves many
    # instances.  Semantics are exactly the corresponding 1-D op
    # applied per row; backends may execute the whole matrix as one
    # array program (see repro.field.backend).

    def _require_same_shape(self, a, b) -> None:
        if len(a) != len(b):
            raise ValueError(f"batch size mismatch: {len(a)} vs {len(b)}")
        for i, (ra, rb) in enumerate(zip(a, b)):
            if len(ra) != len(rb):
                raise ValueError(f"row {i} length mismatch: {len(ra)} vs {len(rb)}")

    def mat_add(self, a, b) -> list[list[int]]:
        """Row-wise componentwise sums (fully reduced)."""
        self._require_same_shape(a, b)
        return self.backend.mat_add(a, b)

    def mat_sub(self, a, b) -> list[list[int]]:
        """Row-wise componentwise differences (fully reduced)."""
        self._require_same_shape(a, b)
        return self.backend.mat_sub(a, b)

    def mat_hadamard(self, a, b) -> list[list[int]]:
        """Row-wise componentwise products (fully reduced)."""
        self._require_same_shape(a, b)
        return self.backend.mat_hadamard(a, b)

    def mat_transform(self, plan, rows, invert: bool = False) -> list[list[int]]:
        """Run one :class:`~repro.poly.plan.NTTPlan` over every row.

        All rows must have length ``plan.n``.  Backends share the
        plan's cached twiddle/permutation arrays across rows, so a
        whole batch of transforms is one array program.
        """
        return self.backend.mat_ntt(plan, rows, invert)

    def mat_polymul(self, rows_a, rows_b, cols=None, forms=None):
        """Batched per-row polynomial products by transforms, or None.

        Row i is ``rows_a[i] * rows_b[i mod k]`` for the k rows of
        ``rows_b`` (k must divide the batch; k = batch pairs the rows
        one to one): the full untrimmed convolution, or its columns
        ``cols = (lo, hi)``.  ``forms`` is a dict where the backend may
        keep ``rows_b`` transformed between calls with the same rows.
        None unless the backend has a dedicated fast path (stacked
        uint64 transforms on Goldilocks, CRT residue planes on every
        other modulus) — callers fall back to transforms or per-row
        ``poly_mul``.
        """
        self._require_tiling(rows_a, rows_b)
        return self.backend.mat_polymul(rows_a, rows_b, cols, forms)

    def mat_schoolbook(self, rows_a, rows_b):
        """Row-wise schoolbook products as one array program, or None.

        The pairing and full-width results of :meth:`mat_polymul`; None
        unless the backend has such a kernel (numpy's column-wise
        schoolbook) — callers multiply row by row.
        """
        self._require_tiling(rows_a, rows_b)
        return self.backend.mat_schoolbook(rows_a, rows_b)

    def _require_tiling(self, rows_a, rows_b) -> None:
        k = len(rows_b)
        if len(rows_a) % k if k else rows_a:
            raise ValueError(
                f"batch size mismatch: {len(rows_b)} rows do not tile {len(rows_a)}"
            )

    # -- roots of unity -------------------------------------------------------

    def two_adic_generator(self) -> int:
        """Generator of the subgroup of order ``2**two_adicity``."""
        if not self._two_adic_generator:
            if self.two_adicity == 0:
                raise ValueError("field has trivial 2-adicity")
            odd = (self.p - 1) >> self.two_adicity
            for h in range(2, 1000):
                g = pow(h, odd, self.p)
                if pow(g, 1 << (self.two_adicity - 1), self.p) != 1:
                    self._two_adic_generator = g
                    break
            else:  # pragma: no cover - astronomically unlikely
                raise RuntimeError("failed to find 2-adic generator")
        return self._two_adic_generator

    def root_of_unity(self, order: int) -> int:
        """Primitive ``order``-th root of unity; ``order`` a power of two."""
        if order & (order - 1):
            raise ValueError(f"order must be a power of two, got {order}")
        log = order.bit_length() - 1
        if log > self.two_adicity:
            raise ValueError(
                f"field {self.name} supports NTT sizes up to 2^{self.two_adicity}, "
                f"requested 2^{log}"
            )
        cached = self._root_cache.get(order)
        if cached is None:
            g = self.two_adic_generator()
            cached = pow(g, 1 << (self.two_adicity - log), self.p)
            self._root_cache[order] = cached
        return cached


def _checked(op: FieldOp, base):
    """``base`` behind a canonical-form check of each element operand."""
    names = parameters(base)
    kinds = dict(zip(names, op.operands))

    def method(self, *args, **kwargs):
        for name, value in [*zip(names, args), *kwargs.items()]:
            kind = kinds.get(name)
            if kind == ELEM:
                self._require_canonical(value)
            elif kind == VEC:
                self._require_canonical(*value)
            elif kind == ROWS:
                for row in value:
                    self._require_canonical(*row)
        return base(self, *args, **kwargs)

    return method


@derive(_checked)
class CheckedPrimeField(PrimeField):
    """A ``PrimeField`` that enforces the canonical-form precondition.

    ``add``/``sub``/``neg`` on the base class silently produce
    out-of-range results when fed non-canonical operands; this subclass
    raises ``ValueError`` instead, on every element operand of every op
    in the table (``repro.field.ops``).  It is a debugging and testing
    tool — hot paths keep the unchecked base class — and interoperates
    with plan caches and ``CountingField`` because equality/hashing stay
    modulus-based.
    """

    __slots__ = ()

    def _require_canonical(self, *operands: int) -> None:
        p = self.p
        for v in operands:
            if not 0 <= v < p:
                raise ValueError(
                    f"non-canonical field operand {v} (expected 0 <= v < {p}); "
                    "reduce() or from_signed() it first"
                )


def twin(cls: type, base: PrimeField):
    """A ``cls`` twin of ``base`` (same modulus, name, NTT structure and
    backend), or ``base`` itself when it already is one."""
    if isinstance(base, cls):
        return base
    field = cls(base.p, check_prime=False, backend=base.backend)
    field.name = base.name
    field.two_adicity = base.two_adicity
    field._two_adic_generator = base._two_adic_generator
    return field


def checked_field(base: PrimeField) -> CheckedPrimeField:
    """A checked twin of ``base`` (same modulus, name, NTT structure)."""
    return twin(CheckedPrimeField, base)
