"""Unit tests for QAP construction (§A.1)."""

import pytest

from repro.constraints import LinearCombination, QuadraticSystem
from repro.field import PrimeField
from repro.poly import poly_eval
from repro.qap import build_qap, compute_h

from .h_oracle import compute_h_batch_divide, divisor_at


@pytest.fixture(params=["arithmetic", "roots"])
def qap(request, sumsq_program):
    return build_qap(sumsq_program.quadratic, mode=request.param)


class TestConstruction:
    def test_sizes(self, sumsq_program, qap):
        system = sumsq_program.quadratic
        if qap.mode == "arithmetic":
            assert qap.m == system.num_constraints
        else:
            assert qap.m >= system.num_constraints
            assert qap.m & (qap.m - 1) == 0
        assert qap.n == system.num_vars
        assert qap.n_prime == system.num_unbound
        assert qap.h_length == qap.m + 1
        assert qap.proof_vector_length == qap.n_prime + qap.h_length

    def test_sigma_points_distinct_nonzero(self, qap):
        assert len(set(qap.sigma)) == len(qap.sigma)
        assert all(s != 0 for s in qap.sigma)

    def test_sparse_columns_match_constraints(self, sumsq_program, qap):
        system = sumsq_program.quadratic
        for j, constraint in enumerate(system.constraints, start=1):
            for i, coeff in constraint.a.terms.items():
                if coeff:
                    assert (j, coeff % qap.field.p) in [
                        (jj, cc % qap.field.p) for jj, cc in qap.a_cols[i]
                    ]

    def test_nonzero_coefficient_count(self, sumsq_program, qap):
        assert qap.nonzero_coefficients() == sumsq_program.quadratic.nonzero_coefficients()

    def test_requires_canonical_system(self, gold):
        from repro.constraints import LinearCombination, QuadraticSystem

        s = QuadraticSystem(field=gold, num_vars=2, input_vars=[1], output_vars=[])
        s.add(
            LinearCombination.variable(1),
            LinearCombination.constant(1),
            LinearCombination.variable(2),
        )
        with pytest.raises(ValueError):
            build_qap(s)

    def test_unknown_mode_rejected(self, sumsq_program):
        with pytest.raises(ValueError):
            build_qap(sumsq_program.quadratic, mode="fancy")


def power_chain(field, m: int) -> QuadraticSystem:
    """z_1 = x·x and z_{j+1} = z_j·x: m constraints over z_1..z_m and x."""
    x = m + 1
    system = QuadraticSystem(field=field, num_vars=m + 1, input_vars=[x])
    v = LinearCombination.variable
    system.add(v(x), v(x), v(1))
    for j in range(1, m):
        system.add(v(j), v(x), v(j + 1))
    return system


class TestFieldCapacity:
    """The arithmetic-mode prover inverts 1..2m+1, so the QAP build
    rejects a field with p <= 2m + 1 instead of the proof failing."""

    def test_small_field_rejected_at_build(self):
        field = PrimeField(97)
        for m in (48, 60):
            with pytest.raises(ValueError, match=rf"p > 2m \+ 1 = {2 * m + 1}"):
                build_qap(power_chain(field, m))

    def test_largest_system_the_field_allows_proves(self):
        field = PrimeField(97)
        qap = build_qap(power_chain(field, 47))  # 2m + 1 = 95 < 97
        x = 3
        witness = [1] + [pow(x, j + 1, field.p) for j in range(1, 48)] + [x]
        assert compute_h(qap, witness) == compute_h_batch_divide(qap, [witness])[0]


class TestDivisor:
    def test_divisor_vanishes_exactly_on_sigma(self, gold, qap, rng):
        if qap.mode == "arithmetic":
            d = qap.divisor_poly
            for s in qap.sigma[:5]:
                assert poly_eval(gold, d, s) == 0
            assert poly_eval(gold, d, qap.m + 17) != 0

    def test_divisor_at_matches_polynomial(self, gold, qap, rng):
        tau = rng.randrange(qap.m + 1, gold.p)
        expected = 1
        for s in qap.sigma:
            expected = expected * ((tau - s) % gold.p) % gold.p
        assert divisor_at(qap, tau) == expected

    def test_roots_mode_divisor_is_vanishing(self, sumsq_program, gold, rng):
        qap = build_qap(sumsq_program.quadratic, mode="roots")
        tau = rng.randrange(2, gold.p)
        assert divisor_at(qap, tau) == (pow(tau, qap.m, gold.p) - 1) % gold.p
