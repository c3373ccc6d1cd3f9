"""ChaCha20 one 64-byte block at a time: the RFC 8439 reference.

This is the keystream the production routes (``repro.crypto.chacha``:
the packed-int route and the numpy kernel behind ``ChaChaStream``) must
reproduce byte for byte.  The parity suite
(``tests/property/test_crypto_kernels.py``), the RFC vectors in
``tests/crypto/test_chacha.py`` and the keystream section of
``benchmarks/bench_kernels.py`` compare against it.  It shares no code
with the module it checks.
"""

from __future__ import annotations

import struct

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


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


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 §2.3)."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
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


def block_loop(key: bytes, counter: int, nonce: bytes, count: int) -> bytes:
    """``count`` consecutive blocks from ``counter``, which wraps mod 2^32."""
    return b"".join(
        chacha20_block(key, (counter + j) & _MASK, nonce) for j in range(count)
    )


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, counter: int = 1) -> bytes:
    """XOR a message with the keystream from ``counter`` (RFC 8439 §2.4)."""
    stream = block_loop(key, counter, nonce, -(-len(plaintext) // 64))
    return bytes(a ^ b for a, b in zip(plaintext, stream))
