"""Unit tests for PrimeField scalar arithmetic."""

import random

import pytest

from repro.field import GOLDILOCKS, P128, P192, P220, PrimeField, is_probable_prime


class TestPrimality:
    def test_known_primes(self):
        for params in (GOLDILOCKS, P128, P192, P220):
            assert is_probable_prime(params.modulus), params.name

    def test_known_composites(self):
        assert not is_probable_prime(2**64 - 1)
        assert not is_probable_prime(561)  # Carmichael
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)

    def test_small_primes(self):
        assert is_probable_prime(2)
        assert is_probable_prime(3)
        assert is_probable_prime(97)

    def test_constructor_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(91)


class TestArithmetic:
    def test_add_wraps(self, gold):
        assert gold.add(gold.p - 1, 1) == 0
        assert gold.add(gold.p - 1, 2) == 1

    def test_sub_wraps(self, gold):
        assert gold.sub(0, 1) == gold.p - 1

    def test_neg(self, gold):
        assert gold.neg(0) == 0
        assert gold.neg(5) == gold.p - 5

    def test_mul_matches_reference(self, gold, rng):
        for _ in range(50):
            a, b = rng.randrange(gold.p), rng.randrange(gold.p)
            assert gold.mul(a, b) == a * b % gold.p

    def test_mul_lazy_needs_reduction(self, gold):
        a = b = gold.p - 1
        lazy = gold.mul_lazy(a, b)
        assert lazy >= gold.p
        assert gold.reduce(lazy) == gold.mul(a, b)

    def test_inverse(self, gold, rng):
        for _ in range(20):
            a = rng.randrange(1, gold.p)
            assert gold.mul(a, gold.inv(a)) == 1

    def test_inverse_of_zero_raises(self, gold):
        with pytest.raises(ZeroDivisionError):
            gold.inv(0)

    def test_div(self, gold):
        assert gold.div(10, 5) == 2
        assert gold.mul(gold.div(7, 3), 3) == 7

    def test_pow(self, gold):
        assert gold.pow(3, 0) == 1
        assert gold.pow(2, 10) == 1024
        # Fermat: a^(p-1) == 1
        assert gold.pow(12345, gold.p - 1) == 1


class TestSignedEncoding:
    def test_roundtrip(self, gold):
        for v in (-100, -1, 0, 1, 100):
            assert gold.to_signed(gold.from_signed(v)) == v

    def test_negative_embedding(self, gold):
        assert gold.from_signed(-1) == gold.p - 1


class TestBatchHelpers:
    def test_inner_product(self, gold, rng):
        a = [rng.randrange(gold.p) for _ in range(30)]
        b = [rng.randrange(gold.p) for _ in range(30)]
        expected = sum(x * y for x, y in zip(a, b)) % gold.p
        assert gold.inner_product(a, b) == expected

    def test_inner_product_length_mismatch(self, gold):
        with pytest.raises(ValueError):
            gold.inner_product([1, 2], [1])

    def test_batch_inv(self, gold, rng):
        values = [rng.randrange(1, gold.p) for _ in range(17)]
        invs = gold.batch_inv(values)
        assert all(gold.mul(v, i) == 1 for v, i in zip(values, invs))

    def test_batch_inv_rejects_zero(self, gold):
        with pytest.raises(ZeroDivisionError):
            gold.batch_inv([1, 0, 2])

    def test_batch_inv_empty(self, gold):
        assert gold.batch_inv([]) == []


class TestRootsOfUnity:
    def test_orders(self, gold):
        for log in (1, 2, 5, 10):
            n = 1 << log
            w = gold.root_of_unity(n)
            assert pow(w, n, gold.p) == 1
            assert pow(w, n // 2, gold.p) != 1

    def test_rejects_non_power_of_two(self, gold):
        with pytest.raises(ValueError):
            gold.root_of_unity(3)

    def test_rejects_too_large(self, gold):
        with pytest.raises(ValueError):
            gold.root_of_unity(1 << 40)

    def test_p128_roots(self, p128):
        w = p128.root_of_unity(1 << 20)
        assert pow(w, 1 << 20, p128.p) == 1

    def test_derived_two_adicity(self):
        # field constructed from a raw modulus derives its own 2-adicity
        f = PrimeField(97)  # 96 = 2^5 * 3
        assert f.two_adicity == 5
        w = f.root_of_unity(32)
        assert pow(w, 32, 97) == 1 and pow(w, 16, 97) != 1


class TestIdentity:
    def test_equality_by_modulus(self, gold):
        other = PrimeField(GOLDILOCKS, check_prime=False)
        assert gold == other
        assert hash(gold) == hash(other)

    def test_inequality(self, gold, p128):
        assert gold != p128

    def test_repr(self, gold):
        assert "goldilocks" in repr(gold)


class TestCheckedField:
    """CheckedPrimeField enforces the canonical-form precondition that
    add/sub/neg silently assume on the plain field."""

    @pytest.fixture()
    def checked(self, gold):
        from repro.field import checked_field

        return checked_field(gold)

    def test_twin_preserves_identity(self, gold, checked):
        assert checked == gold
        assert checked.name == gold.name
        assert checked.two_adicity == gold.two_adicity
        assert checked.root_of_unity(8) == gold.root_of_unity(8)

    def test_idempotent(self, checked):
        from repro.field import checked_field

        assert checked_field(checked) is checked

    def test_canonical_operands_accepted(self, gold, checked, rng):
        for _ in range(50):
            a, b = rng.randrange(gold.p), rng.randrange(gold.p)
            assert checked.add(a, b) == gold.add(a, b)
            assert checked.sub(a, b) == gold.sub(a, b)
            assert checked.neg(a) == gold.neg(a)
            assert checked.mul(a, b) == gold.mul(a, b)

    def test_non_canonical_operands_raise(self, gold, checked):
        p = gold.p
        for bad in (-1, p, p + 1, 2 * p, -p):
            with pytest.raises(ValueError, match="non-canonical"):
                checked.add(bad, 1)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.add(1, bad)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.sub(bad, 0)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.neg(bad)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.mul(bad, 1)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.inv(bad)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.div(1, bad)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.mul_lazy(1, bad)
            with pytest.raises(ValueError, match="non-canonical"):
                checked.pow(bad, 2)

    def test_batch_entry_points_checked(self, gold, checked):
        with pytest.raises(ValueError, match="non-canonical"):
            checked.inner_product([1, 2, gold.p], [1, 2, 3])
        with pytest.raises(ValueError, match="non-canonical"):
            checked.batch_inv([1, -2, 3])

    def test_unchecked_base_silently_wraps(self, gold):
        """Documents the hazard the checked field exists to catch: the
        base field's compare-based add returns an out-of-range result
        on a non-canonical operand instead of raising."""
        out = gold.add(2 * gold.p + 5, 0)
        assert not 0 <= out < gold.p

    def test_counting_field_is_drift_free(self, gold, rng):
        """CountingField applied to random canonical operand sequences
        never feeds add/sub/neg a non-canonical value: replaying every
        intermediate through the checked field raises nothing and
        produces identical results."""
        from repro.field import checked_field, counting_field

        counting = counting_field(gold)
        checked = checked_field(gold)
        ops = ("add", "sub", "neg", "mul", "inv", "div")
        acc = rng.randrange(1, gold.p)
        for _ in range(300):
            op = rng.choice(ops)
            b = rng.randrange(1, gold.p)
            if op in ("neg", "inv"):
                got = getattr(counting, op)(acc)
                want = getattr(checked, op)(acc)
            else:
                got = getattr(counting, op)(acc, b)
                want = getattr(checked, op)(acc, b)
            assert got == want
            assert 0 <= got < gold.p  # every intermediate stays canonical
            acc = got or 1
        # batch helpers agree too
        vec = [rng.randrange(gold.p) for _ in range(64)]
        other = [rng.randrange(gold.p) for _ in range(64)]
        assert counting.inner_product(vec, other) == checked.inner_product(vec, other)
        nonzero = [v or 1 for v in vec]
        assert counting.batch_inv(nonzero) == checked.batch_inv(nonzero)
