"""Tests for the adversarial oracle models themselves."""

import pytest

from repro.pcp import (
    MostlyLinearOracle,
    NonLinearOracle,
    TargetedCheatOracle,
    VectorOracle,
)


@pytest.fixture
def vector(gold, rng):
    return [rng.randrange(gold.p) for _ in range(12)]


class TestVectorOracle:
    def test_is_inner_product(self, gold, vector, rng):
        oracle = VectorOracle(gold, vector)
        q = [rng.randrange(gold.p) for _ in range(12)]
        assert oracle.query(q) == gold.inner_product(q, vector)

    def test_linearity(self, gold, vector, rng):
        oracle = VectorOracle(gold, vector)
        a = [rng.randrange(gold.p) for _ in range(12)]
        b = [rng.randrange(gold.p) for _ in range(12)]
        s = [(x + y) % gold.p for x, y in zip(a, b)]
        assert (oracle.query(a) + oracle.query(b)) % gold.p == oracle.query(s)


class TestNonLinearOracle:
    def test_consistent_per_query(self, gold):
        oracle = NonLinearOracle(gold)
        q = [1, 2, 3]
        assert oracle.query(q) == oracle.query(list(q))

    def test_not_linear(self, gold, rng):
        """With overwhelming probability a random function breaks
        additivity on the first try."""
        oracle = NonLinearOracle(gold, seed=7)
        a = [rng.randrange(gold.p) for _ in range(6)]
        b = [rng.randrange(gold.p) for _ in range(6)]
        s = [(x + y) % gold.p for x, y in zip(a, b)]
        assert (oracle.query(a) + oracle.query(b)) % gold.p != oracle.query(s)


class TestMostlyLinearOracle:
    def test_corruption_rate_roughly_matches(self, gold, vector):
        oracle = MostlyLinearOracle(gold, vector, corrupt_fraction=0.3, seed=1)
        honest = VectorOracle(gold, vector)
        import random

        r = random.Random(2)
        corrupted = 0
        trials = 200
        for _ in range(trials):
            q = [r.randrange(gold.p) for _ in range(12)]
            if oracle.query(q) != honest.query(q):
                corrupted += 1
        assert 0.15 < corrupted / trials < 0.45

    def test_decisions_are_sticky(self, gold, vector):
        oracle = MostlyLinearOracle(gold, vector, corrupt_fraction=0.5, seed=3)
        q = [5] * 12
        assert oracle.query(q) == oracle.query(list(q))

    def test_zero_fraction_is_honest(self, gold, vector, rng):
        oracle = MostlyLinearOracle(gold, vector, corrupt_fraction=0.0)
        honest = VectorOracle(gold, vector)
        for _ in range(10):
            q = [rng.randrange(gold.p) for _ in range(12)]
            assert oracle.query(q) == honest.query(q)


class TestTargetedCheatOracle:
    def test_lies_only_on_target(self, gold, vector, rng):
        target = [rng.randrange(gold.p) for _ in range(12)]
        oracle = TargetedCheatOracle(gold, vector, target, answer=42)
        honest = VectorOracle(gold, vector)
        assert oracle.query(target) == 42
        other = [rng.randrange(gold.p) for _ in range(12)]
        assert oracle.query(other) == honest.query(other)
