"""Pseudorandom generation of field elements from a ChaCha-keyed stream.

The cost-model parameter ``c`` (§5.1) is "the cost of pseudorandomly
generating an element in F"; this module is the thing being measured.
Both parties instantiate a ``FieldPRG`` from the same key to derive
identical query vectors without shipping them over the network
(§A.1, network costs: "a random seed from which V and P derive the PCP
queries pseudorandomly").  The prover gets only that stream's key,
:func:`query_key`, in the decommit challenge, never the seed.
"""

from __future__ import annotations

import hashlib

from ..field import PrimeField
from .chacha import ChaChaStream

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: reads of fewer samples than this take the per-sample loop even when
#: the uint64 path applies: that path costs a few µs per read, so it
#: loses below about 16 samples (``bench_kernels.py``'s PRG rows)
BULK_MIN_SAMPLES = 16


class FieldPRG:
    """Draws uniform elements of a prime field by rejection sampling."""

    def __init__(self, field: PrimeField, seed: bytes | str | int, domain: str = ""):
        self.field = field
        key = _derive_key(seed, domain)
        self._stream = ChaChaStream(key)
        # Each sample is exactly ceil(bits/8) bytes, rejected unless it
        # falls below the largest multiple of p that fits; the width is
        # part of every transcript.  (``next_below`` is the draw that
        # reads a spare byte, to keep its rejection rate low.)
        self._sample_bytes = (field.p.bit_length() + 7) // 8
        self._mask = (1 << (self._sample_bytes * 8)) - 1
        self._limit = self._mask + 1 - ((self._mask + 1) % field.p)
        # when a sample is whole 64-bit words and the limit is p itself,
        # an accepted sample is already canonical: its words are p's
        # words compared most significant first (see ``next_words``)
        words, rest = divmod(self._sample_bytes, 8)
        self._p_words = (
            [(field.p >> (64 * j)) & (2**64 - 1) for j in reversed(range(words))]
            if _np is not None and not rest and self._limit == field.p
            else None
        )

    @classmethod
    def from_key(cls, field: PrimeField, key: bytes) -> "FieldPRG":
        """The stream that ``key`` keys: ``from_key(field, query_key(seed))``
        draws what ``FieldPRG(field, seed, "queries")`` does."""
        prg = cls(field, b"")
        prg._stream = ChaChaStream(key)
        return prg

    def next_element(self) -> int:
        """One uniform draw from [0, p)."""
        while True:
            raw = int.from_bytes(self._stream.read(self._sample_bytes), "little")
            if raw < self._limit:
                return raw % self.field.p

    def next_nonzero(self) -> int:
        """Uniform draw from [1, p)."""
        while True:
            v = self.next_element()
            if v:
                return v

    def next_vector(self, n: int) -> list[int]:
        """n uniform field elements: ``[next_element() for _ in range(n)]``
        in one keystream read (plus one per refill)."""
        return self._samples(n, self._sample_bytes, self._limit, self.field.p)

    def next_words(self, n: int):
        """n uniform elements as an (n, w) uint64 array of each one's w
        little-endian 64-bit words, drawn and rejected exactly as
        ``next_vector(n)`` draws them, with no int in between.

        None without numpy, or when an accepted sample still needs a
        reduction: the sample is not whole words, or the rejection limit
        is a multiple of p above p itself (p220's is 16·p).
        """
        if self._p_words is None:
            return None
        w = len(self._p_words)
        parts, got = [_np.empty((0, w), dtype=_np.uint64)], 0
        while got < n:
            data = self._stream.read((n - got) * 8 * w)
            raw = _np.frombuffer(data, dtype="<u8").reshape(-1, w)
            below = _np.zeros(len(raw), dtype=bool)
            equal = _np.ones(len(raw), dtype=bool)
            for j, limit in zip(reversed(range(w)), self._p_words):
                word = raw[:, j]
                below |= equal & (word < _np.uint64(limit))
                equal &= word == _np.uint64(limit)
            parts.append(raw[below])
            got += len(parts[-1])
        return _np.concatenate(parts)

    def next_bytes(self, n: int) -> bytes:
        """Raw keystream bytes (for non-field randomness)."""
        return self._stream.read(n)

    def next_below(self, bound: int) -> int:
        """Uniform draw from [0, bound); used for exponent sampling."""
        nbytes, limit = _below_sampling(bound)
        while True:
            raw = int.from_bytes(self._stream.read(nbytes), "little")
            if raw < limit:
                return raw % bound

    def next_below_vector(self, bound: int, n: int) -> list[int]:
        """``[next_below(bound) for _ in range(n)]`` in one keystream read
        (plus one per refill)."""
        return self._samples(n, *_below_sampling(bound), bound)

    def _samples(self, n: int, width: int, limit: int, modulus: int) -> list[int]:
        """n accepted ``width``-byte samples, reduced mod ``modulus``.

        Samples are accepted in stream order while below ``limit``.  When
        some are rejected, only the shortfall is read again, so this
        consumes exactly the bytes n one-at-a-time draws would.  With
        numpy, reads of at least :data:`BULK_MIN_SAMPLES` 8-byte samples
        (57- to 64-bit moduli, Goldilocks among them) are accepted and
        reduced as one uint64 array.
        """
        out: list[int] = []
        from_bytes = int.from_bytes
        while len(out) < n:
            size = (n - len(out)) * width
            data = self._stream.read(size)
            if width == 8 and _np is not None and n - len(out) >= BULK_MIN_SAMPLES:
                raw = _np.frombuffer(data, dtype="<u8")
                if limit < 1 << 64:  # a power-of-two bound rejects nothing
                    raw = raw[raw < _np.uint64(limit)]
                out += (raw % _np.uint64(modulus)).tolist()
            else:
                out += [
                    raw % modulus
                    for i in range(0, size, width)
                    if (raw := from_bytes(data[i : i + width], "little")) < limit
                ]
        return out


def _below_sampling(bound: int) -> tuple[int, int]:
    """(sample width in bytes, rejection limit) for draws below ``bound``:
    one spare byte over the bound's width keeps rejections rare."""
    nbytes = (bound.bit_length() + 15) // 8
    space = 1 << (nbytes * 8)
    return nbytes, space - (space % bound)


def query_key(seed: bytes | str | int) -> bytes:
    """K_q = SHA-256(seed ‖ 0 ‖ "queries"), the query stream's key."""
    return _derive_key(seed, "queries")


def _derive_key(seed: bytes | str | int, domain: str) -> bytes:
    """32-byte ChaCha key from an arbitrary seed plus a domain label.

    Distinct domains ("linearity", "tau", "alpha", ...) give independent
    streams from one protocol seed, so query schedules cannot collide.
    """
    if isinstance(seed, int):
        seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "little")
    elif isinstance(seed, str):
        seed = seed.encode()
    return hashlib.sha256(seed + b"\x00" + domain.encode()).digest()
