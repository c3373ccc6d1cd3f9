"""Unit tests for the QAP prover pipeline (H computation, §A.3)."""

import random

import pytest

from repro.apps import ALL_APPS
from repro.field import HAVE_NUMPY, NAMED_FIELDS, PrimeField
from repro.poly import poly_eval, poly_from_roots, poly_mul, poly_sub
from repro.qap import (
    build_proof_vector,
    build_qap,
    compute_h,
    witness_poly_evaluations,
)
from repro.qap.prover import compute_h_batch

from ..integration.test_end_to_end import TINY_SIZES
from ..pcp.query_oracle import embed_h_query, embed_z_query
from .h_oracle import compute_h_batch_divide
from .test_edge_cases import single_constraint_system
from .test_qap import power_chain

#: without numpy a numpy request degrades to the scalar kernels
BACKENDS = ("scalar", "numpy") if HAVE_NUMPY else ("scalar",)


@pytest.fixture(params=["arithmetic", "roots"])
def qap_and_witness(request, sumsq_program):
    qap = build_qap(sumsq_program.quadratic, mode=request.param)
    sol = sumsq_program.solve([1, 2, 3])
    return qap, sol.quadratic_witness


class TestWitnessEvaluations:
    def test_values_are_constraint_evaluations(self, qap_and_witness):
        qap, w = qap_and_witness
        evals_a, evals_b, evals_c = witness_poly_evaluations(qap, w)
        offset = 1 if qap.mode == "arithmetic" else 0
        field = qap.field
        for j, constraint in enumerate(qap.system.constraints):
            assert evals_a[j + offset] == constraint.a.evaluate(field, w)
            assert evals_b[j + offset] == constraint.b.evaluate(field, w)
            assert evals_c[j + offset] == constraint.c.evaluate(field, w)

    def test_sigma0_pinning(self, qap_and_witness):
        qap, w = qap_and_witness
        if qap.mode == "arithmetic":
            evals_a, evals_b, evals_c = witness_poly_evaluations(qap, w)
            assert evals_a[0] == evals_b[0] == evals_c[0] == 0

    def test_satisfied_witness_has_ab_equals_c_on_sigma(self, qap_and_witness):
        """At every σ_j, A_w·B_w = C_w iff constraint j holds (Claim A.1)."""
        qap, w = qap_and_witness
        evals_a, evals_b, evals_c = witness_poly_evaluations(qap, w)
        offset = 1 if qap.mode == "arithmetic" else 0
        p = qap.field.p
        m = qap.system.num_constraints
        for j in range(m):
            assert evals_a[j + offset] * evals_b[j + offset] % p == evals_c[j + offset]


class TestComputeH:
    def test_divisibility_identity(self, qap_and_witness, rng):
        """D(t)·H(t) == P_w(t) at random points."""
        qap, w = qap_and_witness
        field = qap.field
        h = compute_h(qap, w)
        # reconstruct P_w via interpolation-free spot checks:
        for _ in range(4):
            tau = rng.randrange(qap.m + 2, field.p)
            d_tau = qap.divisor_at(tau)
            h_tau = poly_eval(field, h, tau)
            # P_w(τ) = A_w(τ)·B_w(τ) − C_w(τ), computed from queries
            from repro.qap import circuit_queries, instance_scalars
            from repro.constraints import split_assignment

            queries = circuit_queries(qap, tau)
            z, x, y = split_assignment(qap.system, w)
            scalars = instance_scalars(qap, queries, x, y)
            a_tau = (field.inner_product(queries.qa, z) + scalars.l_a) % field.p
            b_tau = (field.inner_product(queries.qb, z) + scalars.l_b) % field.p
            c_tau = (field.inner_product(queries.qc, z) + scalars.l_c) % field.p
            assert d_tau * h_tau % field.p == (a_tau * b_tau - c_tau) % field.p

    def test_h_padded_length(self, qap_and_witness):
        qap, w = qap_and_witness
        assert len(compute_h(qap, w)) == qap.h_length

    def test_unsatisfying_witness_raises(self, qap_and_witness):
        qap, w = qap_and_witness
        bad = list(w)
        bad[1] = (bad[1] + 1) % qap.field.p
        with pytest.raises(ValueError):
            compute_h(qap, bad)


class TestProofVector:
    def test_layout(self, qap_and_witness):
        qap, w = qap_and_witness
        proof = build_proof_vector(qap, w)
        assert proof.z == list(w[1 : qap.n_prime + 1])
        assert len(proof.h) == qap.h_length
        assert proof.vector == proof.z + proof.h

    def test_query_embedding(self, qap_and_witness, rng):
        qap, w = qap_and_witness
        field = qap.field
        proof = build_proof_vector(qap, w)
        qz = [rng.randrange(field.p) for _ in range(qap.n_prime)]
        qh = [rng.randrange(field.p) for _ in range(qap.h_length)]
        full_z = embed_z_query(qap, qz)
        full_h = embed_h_query(qap, qh)
        assert field.inner_product(full_z, proof.vector) == field.inner_product(qz, proof.z)
        assert field.inner_product(full_h, proof.vector) == field.inner_product(qh, proof.h)

    def test_embed_validates_length(self, qap_and_witness):
        qap, _ = qap_and_witness
        with pytest.raises(ValueError):
            embed_z_query(qap, [0] * (qap.n_prime + 1))
        with pytest.raises(ValueError):
            embed_h_query(qap, [0] * (qap.h_length - 1))


class TestComputeHBatch:
    """``compute_h`` is a one-row ``compute_h_batch``: a witness's row
    must not depend on its batchmates — values *and* failures."""

    def _witnesses(self, sumsq_program, count):
        return [
            sumsq_program.solve([i + 1, i + 2, i + 3]).quadratic_witness
            for i in range(count)
        ]

    def test_batched_equals_sequential(self, qap_and_witness, sumsq_program):
        from repro.qap.prover import compute_h_batch

        qap, _ = qap_and_witness
        witnesses = self._witnesses(sumsq_program, 5)
        expected = [compute_h(qap, w) for w in witnesses]
        assert compute_h_batch(qap, witnesses) == expected

    def test_degenerate_batches(self, qap_and_witness, sumsq_program):
        from repro.qap.prover import compute_h_batch

        qap, _ = qap_and_witness
        (witness,) = self._witnesses(sumsq_program, 1)
        assert compute_h_batch(qap, []) == []
        assert compute_h_batch(qap, [witness]) == [compute_h(qap, witness)]

    def test_failure_isolation_with_exact_messages(
        self, qap_and_witness, sumsq_program
    ):
        """A bad witness yields the ValueError ``compute_h`` raises for
        it; batchmates are unaffected."""
        from repro.qap.prover import compute_h_batch

        qap, _ = qap_and_witness
        witnesses = self._witnesses(sumsq_program, 4)
        bad = list(witnesses[2])
        bad[1] = (bad[1] + 1) % qap.field.p
        witnesses[2] = bad
        with pytest.raises(ValueError) as excinfo:
            compute_h(qap, bad)
        results = compute_h_batch(qap, witnesses)
        for i, (result, witness) in enumerate(zip(results, witnesses)):
            if i == 2:
                assert isinstance(result, ValueError)
                assert str(result) == str(excinfo.value)
            else:
                assert result == compute_h(qap, witness)


class TestMatchesDivisionOracle:
    """Arithmetic mode builds H from evaluations; every row must equal
    the paper's route (interpolate ×3, multiply, divide exactly) kept
    in ``h_oracle``, values and failures alike."""

    @staticmethod
    def _witnesses(field, app_name, count, seed=18):
        app = ALL_APPS[app_name]
        sizes = TINY_SIZES[app_name]
        prog = app.compile(field, sizes)
        rng = random.Random(seed)
        witnesses = [
            prog.solve(app.generate_inputs(rng, sizes)).quadratic_witness
            for _ in range(count)
        ]
        return build_qap(prog.quadratic), witnesses

    @pytest.mark.parametrize("field_name", ["goldilocks", "p128", "p220"])
    @pytest.mark.parametrize("app_name", sorted(TINY_SIZES))
    def test_paper_apps(self, app_name, field_name):
        """On the suite's backend (CI runs it under both)."""
        field = PrimeField(NAMED_FIELDS[field_name], check_prime=False)
        qap, witnesses = self._witnesses(field, app_name, 3)
        expected = compute_h_batch_divide(qap, witnesses)
        assert compute_h_batch(qap, witnesses[:1]) == expected[:1]
        assert compute_h_batch(qap, witnesses) == expected

    @pytest.mark.parametrize("field_name", ["goldilocks", "p128"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_sizes_and_backends(self, backend, field_name):
        """B = 1, 3 and 8: the products' operand tiles, the column-wise
        levels and the kept operand transforms all change with B."""
        field = PrimeField(NAMED_FIELDS[field_name], check_prime=False, backend=backend)
        qap, witnesses = self._witnesses(field, "longest_common_subsequence", 8)
        expected = compute_h_batch_divide(qap, witnesses)
        for batch in (1, 3, 8):
            assert compute_h_batch(qap, witnesses[:batch]) == expected[:batch]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tampered_witness_at_position_1(self, backend):
        field = PrimeField(NAMED_FIELDS["p128"], check_prime=False, backend=backend)
        qap, witnesses = self._witnesses(field, "longest_common_subsequence", 3)
        clean = compute_h_batch(qap, witnesses)
        bad = list(witnesses[1])
        bad[1] = (bad[1] + 1) % field.p
        witnesses[1] = bad
        expected = compute_h_batch_divide(qap, witnesses)
        got = compute_h_batch(qap, witnesses)
        assert isinstance(expected[1], ValueError)
        assert isinstance(got[1], ValueError)
        assert str(got[1]) == str(expected[1])
        assert got[0] == expected[0] == clean[0]
        assert got[2] == expected[2] == clean[2]

    def test_tiny_systems(self, gold):
        """``test_single_multiplication``'s program (two constraints) and
        a one-constraint system (m = 1: two points, a width-3 kernel)."""
        prog = single_constraint_system(gold)
        cases = [
            (
                build_qap(prog.quadratic),
                [prog.solve([x]).quadratic_witness for x in (7, 0, 12345)],
            ),
            (
                build_qap(power_chain(gold, 1)),
                [[1, x * x % gold.p, x] for x in (7, 0, gold.p - 1)],
            ),
        ]
        assert [qap.m for qap, _ in cases] == [2, 1]
        for qap, witnesses in cases:
            expected = compute_h_batch_divide(qap, witnesses)
            assert compute_h_batch(qap, witnesses[:1]) == expected[:1]
            assert compute_h_batch(qap, witnesses) == expected


class TestSubgroupDivision:
    """Roots mode divides every row by t^m − 1 in one batched step."""

    def test_divide_by_vanishing_matches_generic(self, gold, rng):
        from repro.qap.prover import _mat_divide_by_subgroup_vanishing

        m = 16
        quotients = [[rng.randrange(gold.p) for _ in range(m - k)] for k in (1, 2)]
        vanishing = [gold.p - 1] + [0] * (m - 1) + [1]  # t^m - 1
        rows = [poly_mul(gold, vanishing, h) for h in quotients]
        out = _mat_divide_by_subgroup_vanishing(gold, rows, m)
        # each quotient comes back at width m, zero-extended
        assert out == [h + [0] * (m - len(h)) for h in quotients]

    def test_inexact_raises(self, gold):
        from repro.qap.prover import _mat_divide_by_subgroup_vanishing

        m = 2
        good = poly_mul(gold, [gold.p - 1, 0, 1], [5])  # 5·(t^2 − 1)
        out = _mat_divide_by_subgroup_vanishing(gold, [[1, 2, 3], good, [7]], m)
        assert isinstance(out[0], ValueError)  # nonzero remainder
        assert out[1] == [5, 0]  # a batchmate is unaffected
        assert isinstance(out[2], ValueError)  # degree below m
