"""Property-based tests for wire codecs and serialization."""

from hypothesis import given, settings, strategies as st

from repro.argument.framing import hex_list, unhex_list
from repro.crypto.chacha import ChaChaStream
from repro.field import GOLDILOCKS, P128, PrimeField

from ..crypto.chacha_oracle import chacha20_encrypt

GOLD = PrimeField(GOLDILOCKS, check_prime=False)
P128F = PrimeField(P128, check_prime=False)

gold_elements = st.lists(
    st.integers(min_value=0, max_value=GOLD.p - 1), max_size=50
)
p128_elements = st.lists(
    st.integers(min_value=0, max_value=P128F.p - 1), max_size=20
)


@settings(max_examples=30)
@given(st.binary(min_size=32, max_size=32), st.binary(max_size=200))
def test_chacha_encrypt_is_involutive(key, message):
    nonce = b"\x01" * 12

    def encrypt(data):  # RFC 8439 §2.4 on the production stream
        stream = ChaChaStream(key, nonce, 1).read(len(data))
        return bytes(a ^ b for a, b in zip(data, stream))

    ct = encrypt(message)
    assert ct == chacha20_encrypt(key, nonce, message)
    assert encrypt(ct) == message
    # an all-zero keystream prefix has probability 2^-8·len; only at
    # >= 16 bytes is "ciphertext differs" a sound whp assertion (short
    # messages genuinely collide: a 1-byte keystream is 0x00 for 1 in
    # 256 keys, and Hypothesis finds such a key)
    if len(message) >= 16:
        assert ct != message


@settings(max_examples=20)
@given(
    st.binary(min_size=32, max_size=32),
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=8),
)
def test_chacha_stream_chunking_invariant(key, chunk_sizes):
    """Reading in any chunking yields the same keystream bytes."""
    total = sum(chunk_sizes)
    whole = ChaChaStream(key).read(total)
    stream = ChaChaStream(key)
    parts = b"".join(stream.read(n) for n in chunk_sizes)
    assert parts == whole


@settings(max_examples=25)
@given(gold_elements, p128_elements)
def test_transcript_hex_roundtrip(gold_values, p128_values):
    """The hex encoding of transcripts and net frames is lossless, and
    the decoder reduces a peer's non-canonical value mod p."""
    for field, values in ((GOLD, gold_values), (P128F, p128_values)):
        assert unhex_list(hex_list(values), p=field.p) == values
        shifted = hex_list(v + field.p for v in values)
        assert unhex_list(shifted, p=field.p) == values
