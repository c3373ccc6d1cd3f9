"""ChaCha20 stream cipher.

The paper uses ChaCha as its pseudorandom generator (§5.1, [13]): the
verifier derives its PCP queries pseudorandomly from a short seed, and
a copy of the seed is what travels to the prover instead of full query
vectors (§A.1, "network costs").  This implementation follows RFC 8439
(20 rounds, 32-byte key, 12-byte nonce, 32-bit block counter).

Two routes produce the same keystream, bit for bit, and both equal
the RFC 8439 block function (``tests/crypto/chacha_oracle.py``):

* :func:`chacha20_packed`, any number of consecutive blocks on packed
  Python ints: each row of the state (words 0–3, 4–7, 8–11, 12–15)
  is one int with a 64-bit lane per word and block, so one int op
  runs a step of four quarter-rounds for every block.  It costs about
  40 µs for one block and grows with the block count; it is the only
  route when numpy is absent.
* :func:`chacha20_blocks`, the same on numpy ``uint32`` arrays of
  shape (4 × blocks) per row.  Its ~420 ufunc calls cost about as much
  whatever the length, so :class:`ChaChaStream` takes it only for
  reads of at least :data:`KERNEL_MIN_BLOCKS` blocks, where it starts
  to beat the packed route.
"""

from __future__ import annotations

import struct

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_MASK = 0xFFFFFFFF

#: reads needing fewer blocks than this run on packed ints, longer ones
#: on the numpy kernel: where the two routes' times cross
#: (``benchmarks/bench_kernels.py``'s keystream sweep; docs/PERFORMANCE.md,
#: "Bulk keystream")
KERNEL_MIN_BLOCKS = 56


_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _check_key_nonce(key: bytes, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")


#: one lane's mask bytes, little-endian: a 32-bit word under 32 zero
#: guard bits; ``_PAD`` packs a word into its lane
_LANE = b"\xff\xff\xff\xff\x00\x00\x00\x00"
_PAD = struct.Struct("<Q")


def chacha20_packed(key: bytes, counter: int, nonce: bytes, count: int) -> bytes:
    """``count`` consecutive keystream blocks from ``counter`` (packed ints).

    Rows a, b, c and d of the state (words 0–3, 4–7, 8–11, 12–15) are
    one Python int each, with one 64-bit lane per word and block: lane
    ``i·count + j`` holds word i of block j in its low 32 bits, under 32
    zero guard bits.  So one int op runs a step of four quarter-rounds
    for every block: an add is ``(x + y) & mask``, whose carry lands in
    the guard bits; a rotation is ``((x << c) | (x >> (32 − c))) & mask``,
    whose spill out of each word lands in guard bits too; and the
    diagonal round rotates rows b, c and d left by 1, 2 and 3 words,
    which moves every block's lanes together.  Equal to
    :func:`chacha20_blocks`, and to the RFC 8439 block function at
    ``(counter + j) mod 2^32`` for j = 0 … count−1, concatenated.
    """
    _check_key_nonce(key, nonce)
    if count <= 0:
        return b""
    lanes = 4 * count
    one, two, three = 64 * count, 128 * count, 192 * count  # word offsets, in bits
    mask = int.from_bytes(_LANE * lanes, "little")
    spread = [_PAD.pack(w) * count for w in _CONSTANTS + struct.unpack("<8I", key)]
    a0, b0, c0 = (
        int.from_bytes(b"".join(spread[r : r + 4]), "little") for r in (0, 4, 8)
    )
    counters = struct.pack(f"<{count}Q", *[(counter + j) & _MASK for j in range(count)])
    d0 = int.from_bytes(
        counters + b"".join([_PAD.pack(w) * count for w in struct.unpack("<3I", nonce)]),
        "little",
    )
    a, b, c, d = a0, b0, c0, d0
    for _ in range(10):
        # column round, then the diagonal round with rows b, c and d
        # rotated left by 1, 2 and 3 words; each half ends by rotating
        # them on (into the diagonals) or back
        for left, right in ((one, three), (three, one)):
            a = (a + b) & mask
            d ^= a
            d = ((d << 16) | (d >> 16)) & mask
            c = (c + d) & mask
            b ^= c
            b = ((b << 12) | (b >> 20)) & mask
            a = (a + b) & mask
            d ^= a
            d = ((d << 8) | (d >> 24)) & mask
            c = (c + d) & mask
            b ^= c
            b = ((b << 7) | (b >> 25)) & mask
            b = (b >> left) | ((b << right) & mask)
            c = (c >> two) | ((c << two) & mask)
            d = (d >> right) | ((d << left) & mask)
    rows = ((a + a0) & mask, (b + b0) & mask, (c + c0) & mask, (d + d0) & mask)
    # word k of block j is lane k·count + j of the rows laid end to end,
    # and its bytes are the lane's low four; the output is block after
    # block, so each word's lanes are copied to a stride of 16 words
    raw = b"".join([row.to_bytes(8 * lanes, "little") for row in rows])
    words = memoryview(raw).cast("I")[::2]
    out = bytearray(16 * lanes)
    blocks = memoryview(out).cast("I")
    for k in range(16):
        blocks[k::16] = words[k * count : (k + 1) * count]
    return bytes(out)


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

    Equal to :func:`chacha20_packed`, and to the RFC 8439 block
    function at ``(counter + j) mod 2^32`` for j = 0 … count−1,
    concatenated: the counter wraps mod 2^32.
    """
    if _np is None:
        raise RuntimeError("chacha20_blocks needs numpy; chacha20_packed does not")
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
        :data:`KERNEL_MIN_BLOCKS`, else from :func:`chacha20_packed`
        (without numpy, in calls of at most :data:`KERNEL_MIN_BLOCKS`
        blocks).  The kernel also buffers :data:`KERNEL_MIN_BLOCKS`
        blocks past the read, so the short read that often follows a
        long one (a schedule's τ after its linearity draw) is served
        from the buffer.
        """
        chunks = [self._buffer] if self._buffer else []
        blocks = -(-(n - len(self._buffer)) // 64)
        if blocks >= KERNEL_MIN_BLOCKS and _np is not None:
            blocks += KERNEL_MIN_BLOCKS
            chunks.append(chacha20_blocks(self._key, self._counter, self._nonce, blocks))
            self._counter = (self._counter + blocks) & _MASK
        else:
            while blocks > 0:
                step = min(blocks, KERNEL_MIN_BLOCKS)
                chunks.append(chacha20_packed(self._key, self._counter, self._nonce, step))
                self._counter = (self._counter + step) & _MASK
                blocks -= step
        data = b"".join(chunks)
        self._buffer = data[n:]
        return data[:n]
