"""ChaCha20 against the RFC 8439 test vectors.

Every vector is checked on the reference (``chacha_oracle``) and on the
production routes: ``ChaChaStream``, the packed-int route and, with
numpy, the numpy kernel.
"""

import pytest

from repro.crypto import ChaChaStream, chacha20_blocks, chacha20_packed
from repro.field import HAVE_NUMPY

from .chacha_oracle import block_loop, chacha20_block, chacha20_encrypt


def _routes():
    """(name, blocks(key, counter, nonce, count)) for every route."""
    routes = [
        ("oracle", block_loop),
        ("stream", lambda k, c, n, count: ChaChaStream(k, n, c).read(64 * count)),
        ("packed", chacha20_packed),
    ]
    if HAVE_NUMPY:
        routes.append(("kernel", chacha20_blocks))
    return routes


def _xor_stream(key: bytes, nonce: bytes, message: bytes, counter: int = 1) -> bytes:
    """RFC 8439 §2.4's encryption, on the production stream."""
    stream = ChaChaStream(key, nonce, counter).read(len(message))
    return bytes(a ^ b for a, b in zip(message, stream))


class TestRFC8439Vectors:
    def test_block_function(self):
        """RFC 8439 §2.3.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        for name, blocks in _routes():
            assert blocks(key, 1, nonce, 1) == expected, name

    def test_encryption(self):
        """RFC 8439 §2.4.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        expected = (
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d"
        )
        assert chacha20_encrypt(key, nonce, plaintext, counter=1).hex() == expected
        assert _xor_stream(key, nonce, plaintext).hex() == expected
        # the two blocks it reads, from each route
        for name, blocks in _routes():
            stream = blocks(key, 1, nonce, 2)[: len(plaintext)]
            assert bytes(a ^ b for a, b in zip(plaintext, stream)).hex() == expected, name

    def test_zero_key_block(self):
        """RFC 8439 A.1 test vectors #1 and #2 (blocks 0 and 1)."""
        first = (
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        )
        second = (
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
            "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
        )
        for name, blocks in _routes():
            assert blocks(b"\x00" * 32, 0, b"\x00" * 12, 2).hex() == first + second, name


class TestStream:
    def test_reads_are_contiguous(self):
        key = bytes(range(32))
        one = ChaChaStream(key)
        parts = one.read(10) + one.read(100) + one.read(1)
        whole = ChaChaStream(key).read(111)
        assert parts == whole

    def test_different_keys_differ(self):
        a = ChaChaStream(b"\x00" * 32).read(64)
        b = ChaChaStream(b"\x01" + b"\x00" * 31).read(64)
        assert a != b

    def test_encrypt_decrypt_roundtrip(self):
        key = bytes(range(32))
        nonce = b"\x07" * 12
        msg = b"attack at dawn"
        ct = _xor_stream(key, nonce, msg)
        assert ct == chacha20_encrypt(key, nonce, msg)
        assert _xor_stream(key, nonce, ct) == msg


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError, match="key"):
            chacha20_block(b"short", 0, b"\x00" * 12)
        with pytest.raises(ValueError, match="key"):
            chacha20_packed(b"short", 0, b"\x00" * 12, 1)
        with pytest.raises(ValueError, match="key"):
            ChaChaStream(b"short").read(1)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError, match="nonce"):
            chacha20_block(b"\x00" * 32, 0, b"\x00" * 8)
        with pytest.raises(ValueError, match="nonce"):
            chacha20_packed(b"\x00" * 32, 0, b"\x00" * 8, 1)
        with pytest.raises(ValueError, match="nonce"):
            ChaChaStream(b"\x00" * 32, b"\x00" * 8).read(1)
