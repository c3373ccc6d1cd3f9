"""Property-based tests: QAP divisibility ⟺ satisfiability (Claim A.1)."""

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_program
from repro.constraints import split_assignment
from repro.field import GOLDILOCKS, PrimeField
from repro.qap import (
    build_proof_vector,
    build_qap,
    circuit_queries,
    compute_h,
    divisibility_check,
    instance_scalars,
)

FIELD = PrimeField(GOLDILOCKS, check_prime=False)


def _program():
    def build(b):
        x, y, z = b.inputs(3)
        t = b.define(x * y + z)
        b.output(t * t + x)

    return compile_program(FIELD, build)


PROG = _program()
QAP = build_qap(PROG.quadratic)
QAP_ROOTS = build_qap(PROG.quadratic, mode="roots")

inputs3 = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=3, max_size=3
)


@settings(max_examples=30, deadline=None)
@given(inputs3, st.integers(min_value=2, max_value=2**62))
def test_claim_a1_satisfying_direction(xs, tau_seed):
    """For every input, the honest witness's H satisfies the identity
    at a random τ, in both σ modes."""
    sol = PROG.solve(xs)
    for qap in (QAP, QAP_ROOTS):
        tau = tau_seed % (FIELD.p - qap.m - 2) + qap.m + 1
        proof = build_proof_vector(qap, sol.quadratic_witness)
        q = circuit_queries(qap, tau)
        scalars = instance_scalars(qap, q, sol.x, sol.y)
        assert divisibility_check(
            FIELD,
            q,
            scalars,
            FIELD.inner_product(q.qa, proof.z),
            FIELD.inner_product(q.qb, proof.z),
            FIELD.inner_product(q.qc, proof.z),
            FIELD.inner_product(q.qd, proof.h),
        )


@settings(max_examples=30, deadline=None)
@given(
    inputs3,
    st.integers(min_value=1, max_value=2**62),
    st.integers(min_value=0, max_value=100),
)
def test_claim_a1_unsatisfying_direction(xs, delta, which_var):
    """Perturbing any witness coordinate makes H computation impossible
    (the polynomial no longer divides)."""
    sol = PROG.solve(xs)
    w = list(sol.quadratic_witness)
    idx = 1 + which_var % (len(w) - 1)
    w[idx] = (w[idx] + delta % (FIELD.p - 1) + 1) % FIELD.p
    if PROG.quadratic.is_satisfied(w):
        return  # astronomically unlikely; perturbation happened to satisfy
    for qap in (QAP, QAP_ROOTS):
        try:
            compute_h(qap, w)
            raised = False
        except ValueError:
            raised = True
        assert raised


@settings(max_examples=20, deadline=None)
@given(inputs3, inputs3)
def test_query_schedule_instance_independent(xs1, xs2):
    """The same circuit queries verify different instances — only the
    L scalars differ (batching invariant)."""
    tau = 987654321 % FIELD.p
    q = circuit_queries(QAP, tau)
    for xs in (xs1, xs2):
        sol = PROG.solve(xs)
        proof = build_proof_vector(QAP, sol.quadratic_witness)
        scalars = instance_scalars(QAP, q, sol.x, sol.y)
        assert divisibility_check(
            FIELD,
            q,
            scalars,
            FIELD.inner_product(q.qa, proof.z),
            FIELD.inner_product(q.qb, proof.z),
            FIELD.inner_product(q.qc, proof.z),
            FIELD.inner_product(q.qd, proof.h),
        )
