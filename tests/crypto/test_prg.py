"""Unit tests for the ChaCha-backed field-element PRG."""

import hashlib

import pytest

from repro.crypto import FieldPRG, query_key
from repro.crypto.prg import BULK_MIN_SAMPLES
from repro.field import NAMED_FIELDS, PrimeField


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


    @pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
    def test_every_field_draws_canonical_elements(self, name):
        """p220's limit is a multiple of p above p, so its samples must be
        reduced; every other named field's accepted samples already are."""
        field = PrimeField(NAMED_FIELDS[name], check_prime=False)
        values = FieldPRG(field, b"range").next_vector(300)
        assert all(0 <= v < field.p for v in values)
        assert len(set(values)) == 300


class TestShortReads:
    @pytest.mark.parametrize(
        "n", [1, BULK_MIN_SAMPLES - 1, BULK_MIN_SAMPLES, BULK_MIN_SAMPLES + 1, 200]
    )
    def test_either_side_of_the_bulk_cutoff(self, gold, n):
        """Below ``BULK_MIN_SAMPLES`` a read takes the per-sample loop, at
        and above it the uint64 path; both draw what one-at-a-time draws
        do, and leave the stream at the same place."""
        bulk, single = FieldPRG(gold, b"short"), FieldPRG(gold, b"short")
        assert bulk.next_vector(n) == [single.next_element() for _ in range(n)]
        assert bulk.next_vector(3) == [single.next_element() for _ in range(3)]


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
