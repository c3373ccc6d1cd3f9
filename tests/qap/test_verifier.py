"""Unit tests for verifier-side query construction (§A.3)."""

import pytest

from repro.constraints import split_assignment
from repro.qap import (
    build_proof_vector,
    build_qap,
    circuit_queries,
    divisibility_check,
    instance_scalars,
)


@pytest.fixture(params=["arithmetic", "roots"])
def setup(request, sumsq_program):
    qap = build_qap(sumsq_program.quadratic, mode=request.param)
    sol = sumsq_program.solve([3, 1, 2])
    proof = build_proof_vector(qap, sol.quadratic_witness)
    return qap, sol, proof


class TestQueryShape:
    def test_lengths(self, setup, rng):
        qap, _, _ = setup
        q = circuit_queries(qap, rng.randrange(qap.m + 1, qap.field.p))
        assert len(q.qa) == len(q.qb) == len(q.qc) == qap.n_prime
        assert len(q.qd) == qap.h_length

    def test_qd_is_powers_of_tau(self, setup, rng):
        qap, _, _ = setup
        tau = rng.randrange(qap.m + 1, qap.field.p)
        q = circuit_queries(qap, tau)
        assert q.qd[0] == 1 and q.qd[1] == tau
        assert q.qd[2] == tau * tau % qap.field.p

    def test_bound_variables_present(self, setup, rng):
        qap, _, _ = setup
        q = circuit_queries(qap, rng.randrange(qap.m + 1, qap.field.p))
        bound = set(qap.system.input_vars) | set(qap.system.output_vars)
        # every bound variable with a nonzero column must appear in
        # exactly one of qa-slot or bound dicts
        for i in qap.a_cols:
            if i == 0 or i in bound:
                assert i in q.bound_a

    def test_queries_equal_lagrange_sums(self, setup, rng):
        """q_a[i-1] must equal A_i(τ) — cross-check against direct
        Lagrange interpolation of the sparse column."""
        from repro.poly import interpolate_lagrange_naive, poly_eval

        qap, _, _ = setup
        field = qap.field
        tau = rng.randrange(qap.m + 1, field.p)
        q = circuit_queries(qap, tau)
        # pick some variable with a nonzero A-column
        i = next(i for i in sorted(qap.a_cols) if 1 <= i <= qap.n_prime)
        points = list(qap.prover_points)
        values = [0] * len(points)
        offset = 1 if qap.mode == "arithmetic" else 0
        for j, coeff in qap.a_cols[i]:
            values[j - 1 + offset] = coeff % field.p
        poly = interpolate_lagrange_naive(field, points, values)
        assert q.qa[i - 1] == poly_eval(field, poly, tau)


class TestDivisibilityCheck:
    def test_completeness(self, setup, rng):
        qap, sol, proof = setup
        field = qap.field
        for _ in range(3):
            tau = rng.randrange(qap.m + 1, field.p)
            q = circuit_queries(qap, tau)
            scalars = instance_scalars(qap, q, sol.x, sol.y)
            assert divisibility_check(
                field,
                q,
                scalars,
                field.inner_product(q.qa, proof.z),
                field.inner_product(q.qb, proof.z),
                field.inner_product(q.qc, proof.z),
                field.inner_product(q.qd, proof.h),
            )

    def test_soundness_wrong_output(self, setup, rng):
        qap, sol, proof = setup
        field = qap.field
        bad_y = [(sol.y[0] + 1) % field.p]
        rejections = 0
        for _ in range(8):
            tau = rng.randrange(qap.m + 1, field.p)
            q = circuit_queries(qap, tau)
            scalars = instance_scalars(qap, q, sol.x, bad_y)
            ok = divisibility_check(
                field,
                q,
                scalars,
                field.inner_product(q.qa, proof.z),
                field.inner_product(q.qb, proof.z),
                field.inner_product(q.qc, proof.z),
                field.inner_product(q.qd, proof.h),
            )
            rejections += not ok
        assert rejections == 8  # whp: failure probability ≤ 2|C|/|F|

    def test_soundness_wrong_input_claim(self, setup, rng):
        qap, sol, proof = setup
        field = qap.field
        bad_x = list(sol.x)
        bad_x[0] = (bad_x[0] + 1) % field.p
        tau = rng.randrange(qap.m + 1, field.p)
        q = circuit_queries(qap, tau)
        scalars = instance_scalars(qap, q, bad_x, sol.y)
        assert not divisibility_check(
            field,
            q,
            scalars,
            field.inner_product(q.qa, proof.z),
            field.inner_product(q.qb, proof.z),
            field.inner_product(q.qc, proof.z),
            field.inner_product(q.qd, proof.h),
        )

    def test_io_length_validated(self, setup, rng):
        qap, sol, _ = setup
        q = circuit_queries(qap, rng.randrange(qap.m + 1, qap.field.p))
        with pytest.raises(ValueError):
            instance_scalars(qap, q, sol.x[:-1], sol.y)

    def test_tau_collision_rejected(self, setup):
        qap, _, _ = setup
        if qap.mode == "arithmetic":
            with pytest.raises(ValueError):
                circuit_queries(qap, 1)  # σ₁ = 1
        else:
            with pytest.raises(ValueError):
                circuit_queries(qap, qap.sigma[0])
