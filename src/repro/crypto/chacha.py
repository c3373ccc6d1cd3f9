"""ChaCha20 stream cipher.

The paper uses ChaCha as its pseudorandom generator (§5.1, [13]): the
verifier derives its PCP queries pseudorandomly from a short seed, and
a copy of the seed is what travels to the prover instead of full query
vectors (§A.1, "network costs").  This implementation follows RFC 8439
(20 rounds, 32-byte key, 12-byte nonce, 32-bit block counter).

Two routes produce the same keystream, bit for bit:

* :func:`chacha20_block`, one 64-byte block in pure Python — the RFC
  reference, and the only route when numpy is absent;
* :func:`chacha20_blocks`, any number of consecutive blocks at once on
  numpy ``uint32`` arrays.  The state is held as four rows of shape
  (4 × blocks) — words 0–3, 4–7, 8–11 and 12–15 — so one ufunc runs a
  step of four quarter-rounds over every block.  Its fixed cost is
  worth about :data:`KERNEL_MIN_BLOCKS` per-block calls, so
  :class:`ChaChaStream` takes it only for reads at least that long.
"""

from __future__ import annotations

import struct

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_MASK = 0xFFFFFFFF

#: reads needing fewer blocks than this run the per-block loop: the
#: kernel costs about as much as 3–4 ``chacha20_block`` calls whatever
#: its length (docs/PERFORMANCE.md, "Bulk keystream")
KERNEL_MIN_BLOCKS = 4


def _rotl32(v: int, c: int) -> int:
    return ((v << c) & _MASK) | (v >> (32 - c))


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 7)


_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _check_key_nonce(key: bytes, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 §2.3)."""
    _check_key_nonce(key, nonce)
    state = list(_CONSTANTS)
    state += list(struct.unpack("<8I", key))
    state.append(counter & _MASK)
    state += list(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK for w, s in zip(working, state)]
    return struct.pack("<16I", *out)


if _np is not None:
    # Word order for the diagonal round: rows b, c and d rotated left by
    # 1, 2 and 3 words, so row i of a, b, c and d holds the words of the
    # diagonal quarter-rounds (0, 5, 10, 15), (1, 6, 11, 12), ...;
    # _UNDIAGONAL restores the column order.
    _DIAGONAL = _np.array([0, 1, 2, 3, 5, 6, 7, 4, 10, 11, 8, 9, 15, 12, 13, 14])
    _UNDIAGONAL = _np.argsort(_DIAGONAL)
    _ROTATIONS = tuple(
        (_np.uint32(c), _np.uint32(32 - c)) for c in (16, 12, 8, 7)
    )


def chacha20_blocks(key: bytes, counter: int, nonce: bytes, count: int) -> bytes:
    """``count`` consecutive keystream blocks from ``counter`` (numpy).

    Equal to ``chacha20_block(key, (counter + j) mod 2^32, nonce)`` for
    j = 0 … count−1, concatenated: the counter wraps as the
    per-block route's does.
    """
    if _np is None:
        raise RuntimeError("chacha20_blocks needs numpy; chacha20_block does not")
    _check_key_nonce(key, nonce)
    if count <= 0:
        return b""
    np = _np
    state = np.empty((16, count), dtype=np.uint32)
    state[:12] = np.array(_CONSTANTS + struct.unpack("<8I", key), dtype=np.uint32)[:, None]
    state[12] = np.arange(count, dtype=np.uint32) + np.uint32(counter & _MASK)  # wraps
    state[13:] = np.array(struct.unpack("<3I", nonce), dtype=np.uint32)[:, None]
    x = state.copy()
    spare = np.empty_like(x)
    t = np.empty((4, count), dtype=np.uint32)
    add, xor, bor = np.add, np.bitwise_xor, np.bitwise_or
    shl, shr, take = np.left_shift, np.right_shift, np.take
    for half_round in range(20):  # column, diagonal, column, ...
        a, b, c, d = x[0:4], x[4:8], x[8:12], x[12:16]
        # the quarter-round's steps p += q; r ^= p; r <<<= k, each on four
        # quarter-rounds of every block at once
        for p, q, r, (left, right) in zip((a, c, a, c), (b, d, b, d), (d, b, d, b), _ROTATIONS):
            add(p, q, out=p)
            xor(r, p, out=r)
            shr(r, right, out=t)
            shl(r, left, out=r)
            bor(r, t, out=r)
        take(x, _UNDIAGONAL if half_round & 1 else _DIAGONAL, axis=0, out=spare)
        x, spare = spare, x
    add(x, state, out=x)
    return x.T.astype("<u4").tobytes()


class ChaChaStream:
    """Incremental keystream reader over successive ChaCha20 blocks."""

    def __init__(self, key: bytes, nonce: bytes = b"\x00" * 12, counter: int = 0):
        self._key = key
        self._nonce = nonce
        self._counter = counter
        self._buffer = b""

    def read(self, n: int) -> bytes:
        """Next ``n`` keystream bytes (buffered across blocks).

        The blocks a read needs come from one :func:`chacha20_blocks`
        call when numpy is present and they number at least
        :data:`KERNEL_MIN_BLOCKS`, else from the per-block loop.  The
        kernel also buffers :data:`KERNEL_MIN_BLOCKS` blocks past the
        read, so the short read that often follows a long one (a
        schedule's τ after its linearity draw) is served from the buffer.
        """
        chunks = [self._buffer] if self._buffer else []
        blocks = -(-(n - len(self._buffer)) // 64)
        if blocks >= KERNEL_MIN_BLOCKS and _np is not None:
            blocks += KERNEL_MIN_BLOCKS
            chunks.append(chacha20_blocks(self._key, self._counter, self._nonce, blocks))
            self._counter = (self._counter + blocks) & _MASK
        else:
            for _ in range(blocks):
                chunks.append(chacha20_block(self._key, self._counter, self._nonce))
                self._counter = (self._counter + 1) & _MASK
        data = b"".join(chunks)
        self._buffer = data[n:]
        return data[:n]


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, counter: int = 1) -> bytes:
    """XOR a message with the keystream (encryption == decryption)."""
    stream = ChaChaStream(key, nonce, counter)
    ks = stream.read(len(plaintext))
    return bytes(a ^ b for a, b in zip(plaintext, ks))
