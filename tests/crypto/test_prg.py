"""Unit tests for the ChaCha-backed field-element PRG."""

import hashlib

from repro.crypto import FieldPRG, query_key


class TestDeterminism:
    def test_same_seed_same_stream(self, gold):
        a = FieldPRG(gold, b"seed", "domain")
        b = FieldPRG(gold, b"seed", "domain")
        assert a.next_vector(20) == b.next_vector(20)

    def test_domain_separation(self, gold):
        a = FieldPRG(gold, b"seed", "queries")
        b = FieldPRG(gold, b"seed", "commitment")
        assert a.next_vector(10) != b.next_vector(10)

    def test_query_key_reproduces_the_query_stream(self, gold, p128):
        """The prover keys its stream with K_q alone and draws exactly
        what the verifier's seeded ``"queries"`` stream draws."""
        seed = b"verifier-seed"
        assert query_key(seed) == hashlib.sha256(seed + b"\x00queries").digest()
        for field in (gold, p128):
            seeded = FieldPRG(field, seed, "queries")
            keyed = FieldPRG.from_key(field, query_key(seed))
            assert keyed.next_vector(40) == seeded.next_vector(40)
            assert keyed.next_nonzero() == seeded.next_nonzero()

    def test_seed_types(self, gold):
        # int, str, bytes seeds are all accepted and deterministic
        assert FieldPRG(gold, 42).next_element() == FieldPRG(gold, 42).next_element()
        assert FieldPRG(gold, "x").next_element() == FieldPRG(gold, "x").next_element()


class TestRange:
    def test_elements_in_field(self, gold):
        prg = FieldPRG(gold, b"r")
        assert all(0 <= v < gold.p for v in prg.next_vector(200))

    def test_nonzero(self, gold):
        prg = FieldPRG(gold, b"r")
        assert all(prg.next_nonzero() != 0 for _ in range(50))

    def test_next_below(self, gold):
        prg = FieldPRG(gold, b"r")
        for bound in (1, 2, 7, 1 << 40):
            assert all(0 <= prg.next_below(bound) < bound for _ in range(20))

    def test_large_field(self, p128):
        prg = FieldPRG(p128, b"r")
        values = prg.next_vector(50)
        assert all(0 <= v < p128.p for v in values)
        # 128-bit draws should essentially never repeat
        assert len(set(values)) == 50


class TestUniformityRoughly:
    def test_mean_is_centered(self, gold):
        """Crude sanity: the mean of many draws sits near p/2."""
        prg = FieldPRG(gold, b"stats")
        n = 2000
        mean = sum(prg.next_element() for _ in range(n)) / n
        assert 0.4 * gold.p < mean < 0.6 * gold.p

    def test_bytes_interface(self, gold):
        prg = FieldPRG(gold, b"bytes")
        assert len(prg.next_bytes(100)) == 100
