"""The soundness-regression harness: every catalogued cheat is rejected.

§2.2's guarantee — a prover that misuses the commitment, commits to a
non-linear function, to one not of the form (z, h), or to a
non-satisfying z', is rejected with probability ≥ 1 − ε — is kept as a
*tested invariant*: one test per (mutation, seed) pair, with the
rejection signature each mutation must trip.
"""

import pytest

from repro.argument import (
    MUTATION_CATALOG,
    MUTATIONS,
    AdversarialProver,
    ArgumentConfig,
    run_parallel_batch,
)
from repro.crypto import FieldPRG
from repro.pcp import MutatingOracle, SoundnessParams, VectorOracle, zaatar
from repro.qap import build_proof_vector, build_qap

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))

#: which verifier check each mutation must trip (None: either may fire)
EXPECTED_SIGNATURE = {
    "tamper-witness": "pcp",
    "wrong-h": "pcp",
    "zero-h": "pcp",
    "tamper-output": "pcp",
    "substitute-commitment": "commitment",
    "swap-answers": None,
}


class TestCatalog:
    def test_catalog_is_documented_and_sorted(self):
        assert MUTATIONS == tuple(sorted(MUTATION_CATALOG))
        assert len(MUTATIONS) == 6
        assert all(MUTATION_CATALOG[m] for m in MUTATIONS)
        assert set(EXPECTED_SIGNATURE) == set(MUTATIONS)

    def test_unknown_mutation_rejected(self, sumsq_program):
        with pytest.raises(ValueError, match="unknown mutation"):
            AdversarialProver(sumsq_program, FAST, mutation="frobnicate")

    def test_requires_commitment_layer(self, sumsq_program):
        bare = ArgumentConfig(params=FAST.params, use_commitment=False)
        with pytest.raises(ValueError, match="use_commitment"):
            AdversarialProver(sumsq_program, bare, mutation="tamper-witness")


class TestEveryMutationRejected:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verifier_rejects(self, sumsq_program, mutation, seed):
        adversary = AdversarialProver(
            sumsq_program, FAST, mutation=mutation, seed=seed
        )
        result = adversary.run_batch([[1, 2, 3]])
        (instance,) = result.instances
        assert instance.ok  # a proof was produced — and then rejected
        assert not instance.accepted, (
            f"mutation {mutation!r} (seed {seed}) was ACCEPTED: "
            f"{MUTATION_CATALOG[mutation]}"
        )
        signature = EXPECTED_SIGNATURE[mutation]
        if signature == "pcp":
            assert not instance.pcp_ok
        elif signature == "commitment":
            assert not instance.commitment_ok
        else:
            assert not (instance.commitment_ok and instance.pcp_ok)

    def test_rejected_through_parallel_engine(self, sumsq_program):
        """Every mutation, in the inline pass and in forked workers."""
        for mutation in MUTATIONS:
            adversary = AdversarialProver(
                sumsq_program, FAST, mutation=mutation, seed=0
            )
            for workers in (1, 2):
                result = run_parallel_batch(
                    adversary, [[1, 2, 3], [2, 3, 4]], num_workers=workers
                )
                outcomes = result.result.instances
                assert all(r.ok for r in outcomes), (mutation, workers)
                assert not any(r.accepted for r in outcomes), (mutation, workers)

    def test_mutations_are_counted(self, sumsq_program):
        from repro import telemetry

        adversary = AdversarialProver(
            sumsq_program, FAST, mutation="zero-h", seed=0
        )
        tracer = telemetry.enable()
        try:
            adversary.run_batch([[1, 2, 3]])
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert totals.get("adversary.mutations") == 1
        assert totals.get("adversary.mutations.zero-h") == 1


class TestMutatingOracle:
    """The PCP-level counterpart: adversaries below the commitment."""

    PARAMS = SoundnessParams(rho_lin=3, rho=2)

    @pytest.fixture()
    def setup(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        sol = sumsq_program.solve([2, 3, 4])
        proof = build_proof_vector(qap, sol.quadratic_witness)
        return qap, sol, proof

    def test_identity_mutation_accepts(self, setup, gold):
        qap, sol, proof = setup
        oracle = MutatingOracle(
            VectorOracle(gold, proof.vector), lambda i, q, a: a
        )
        result = zaatar.run_pcp(
            qap, self.PARAMS, FieldPRG(gold, b"mo"), oracle, sol.x, sol.y
        )
        assert result.accepted
        assert oracle.calls > 0

    def test_shifting_every_answer_rejected(self, setup, gold):
        qap, sol, proof = setup
        oracle = MutatingOracle(
            VectorOracle(gold, proof.vector),
            lambda i, q, a: (a + 1) % gold.p,
        )
        result = zaatar.run_pcp(
            qap, self.PARAMS, FieldPRG(gold, b"mo"), oracle, sol.x, sol.y
        )
        assert not result.accepted

    def test_shifting_one_late_answer_rejected(self, setup, gold):
        """A single doctored answer (by query order) must still lose:
        either the consistency layer or the circuit checks notice."""
        qap, sol, proof = setup
        oracle = MutatingOracle(
            VectorOracle(gold, proof.vector),
            lambda i, q, a: (a + 1) % gold.p if i == oracle_target else a,
        )
        oracle_target = 7
        result = zaatar.run_pcp(
            qap, self.PARAMS, FieldPRG(gold, b"mo-one"), oracle, sol.x, sol.y
        )
        assert not result.accepted
