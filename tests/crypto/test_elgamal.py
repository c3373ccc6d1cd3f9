"""Unit tests for message-in-exponent ElGamal and its homomorphisms."""

import pytest

from repro.crypto import (
    ElGamalKeypair,
    FieldPRG,
    group_for_field,
    homomorphic_inner_product,
)


@pytest.fixture
def setup(gold):
    group = group_for_field(gold)
    prg = FieldPRG(gold, b"elgamal-tests")
    keypair = ElGamalKeypair.generate(group, prg)
    return gold, group, prg, keypair


class TestEncryptDecrypt:
    def test_roundtrip_in_exponent(self, setup):
        _, group, prg, keypair = setup
        for m in (0, 1, 42, group.order - 1):
            ct = keypair.encrypt_vector([m], prg)[0]
            assert keypair.decrypt_to_group(ct) == group.encode(m)

    def test_randomized(self, setup):
        _, _, prg, keypair = setup
        a = keypair.encrypt_vector([7], prg)[0]
        b = keypair.encrypt_vector([7], prg)[0]
        assert a != b  # fresh randomness per encryption

    def test_vector_encrypt(self, setup):
        _, group, prg, keypair = setup
        messages = [3, 1, 4, 1, 5]
        cts = keypair.encrypt_vector(messages, prg)
        assert [keypair.decrypt_to_group(ct) for ct in cts] == [
            group.encode(m) for m in messages
        ]


class TestHomomorphisms:
    def test_additive(self, setup):
        _, group, prg, keypair = setup
        ct = homomorphic_inner_product(
            group,
            [keypair.encrypt_vector([10], prg)[0], keypair.encrypt_vector([32], prg)[0]],
            [1, 1],
        )
        assert keypair.decrypt_to_group(ct) == group.encode(42)

    def test_scalar(self, setup):
        _, group, prg, keypair = setup
        ct = homomorphic_inner_product(group, [keypair.encrypt_vector([5], prg)[0]], [9])
        assert keypair.decrypt_to_group(ct) == group.encode(45)

    def test_inner_product(self, setup):
        gold, group, prg, keypair = setup
        r = [prg.next_element() for _ in range(12)]
        u = [prg.next_element() for _ in range(12)]
        cts = keypair.encrypt_vector(r, prg)
        combined = homomorphic_inner_product(group, cts, u)
        expected = gold.inner_product(r, u)
        assert keypair.decrypt_to_group(combined) == group.encode(expected)

    def test_inner_product_skips_zero_weights(self, setup):
        gold, group, prg, keypair = setup
        r = [5, 6, 7]
        cts = keypair.encrypt_vector(r, prg)
        combined = homomorphic_inner_product(group, cts, [0, 2, 0])
        assert keypair.decrypt_to_group(combined) == group.encode(12)

    def test_inner_product_length_mismatch(self, setup):
        _, group, prg, keypair = setup
        cts = keypair.encrypt_vector([1], prg)
        with pytest.raises(ValueError):
            homomorphic_inner_product(group, cts, [1, 2])


class TestExponentFieldAlignment:
    def test_group_order_equals_field_modulus(self, setup):
        """The property the commitment's soundness rests on."""
        gold, group, _, _ = setup
        assert group.order == gold.p

    def test_field_reduction_matches_exponent_reduction(self, setup):
        gold, group, prg, keypair = setup
        # a value ≥ p encrypts the same as its field reduction
        big = gold.p + 123
        a = keypair.decrypt_to_group(keypair.encrypt_vector([big], prg)[0])
        assert a == group.encode(123)
