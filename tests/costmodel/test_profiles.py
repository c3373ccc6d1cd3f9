"""Cross-checks between the cost model and live protocol measurements."""

import pytest

from repro import telemetry
from repro.argument import ArgumentConfig, ZaatarArgument
from repro.costmodel import ComputationProfile, zaatar_costs, run_microbench
from repro.pcp import SoundnessParams


class TestOpCountAgreement:
    def test_commitment_op_counts_match_model_shape(self, gold, sumsq_program):
        """The prover's counted h-ops must equal the nonzero entries of
        its proof vector — the |u| factor in Figure 3's 'Issue
        responses' row (zero entries are skipped by the optimized
        fold, so counted ops ≤ |u|)."""
        from repro.crypto import CommitmentProver, CommitmentVerifier, FieldPRG
        from repro.crypto import group_for_field
        from repro.qap import build_proof_vector, build_qap

        qap = build_qap(sumsq_program.quadratic)
        sol = sumsq_program.solve([1, 2, 3])
        proof = build_proof_vector(qap, sol.quadratic_witness)
        group = group_for_field(gold)
        verifier = CommitmentVerifier(gold, group, len(proof.vector), FieldPRG(gold, b"oc"))
        prover = CommitmentProver(gold, group, proof.vector)
        request = verifier.commit_request()
        with telemetry.session() as tracer:
            prover.commit(request)
        nonzero = sum(1 for v in proof.vector if v)
        assert tracer.total_counters()["crypto.ciphertext_ops"] == nonzero
        assert nonzero <= qap.proof_vector_length

    def test_verifier_encryption_count_is_u(self, gold, sumsq_program):
        """The verifier pays exactly one `e` per proof-vector entry."""
        arg = ZaatarArgument(
            sumsq_program, ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        )
        with telemetry.session() as tracer:
            arg.verifier_setup()
        assert (
            tracer.total_counters()["crypto.encryptions"]
            == arg.qap.proof_vector_length
        )

    def test_per_instance_decryptions(self, gold, sumsq_program):
        arg = ZaatarArgument(
            sumsq_program, ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        )
        _, commitment_verifier, request, challenge = arg.verifier_setup()
        from repro.crypto.commitment import DecommitResponse

        with telemetry.session() as tracer:
            for i, inputs in enumerate([[1, 1, 1], [2, 2, 2], [3, 3, 3]], start=1):
                (record,) = arg.prove_batch([inputs], request, challenge)
                commitment_verifier.verify(
                    record.commitment, DecommitResponse(record.answers)
                )
                # Figure 3: one `d` per instance
                assert tracer.total_counters()["crypto.decryptions"] == i


class TestProfileConstruction:
    def test_profile_quantities(self, gold, sumsq_program):
        profile = ComputationProfile(
            stats=sumsq_program.stats(),
            local_seconds=1e-4,
            num_inputs=3,
            num_outputs=1,
        )
        assert profile.u_zaatar == sumsq_program.stats().u_zaatar
        assert profile.u_ginger == sumsq_program.stats().u_ginger

    def test_model_uses_log_squared(self, gold, sumsq_program):
        """Construct-proof grows like |C|·log²|C| — double |C| and the
        modeled cost should grow by a factor between 2 and 3 (not 4)."""
        import dataclasses

        from repro.costmodel import PAPER_MICROBENCH_128
        from repro.pcp import PAPER_PARAMS

        stats = sumsq_program.stats()
        profile = ComputationProfile(stats, 0.0, 3, 1)
        doubled_stats = dataclasses.replace(
            stats,
            c_zaatar=2 * stats.c_zaatar,
            z_zaatar=2 * stats.z_zaatar,
            u_zaatar=2 * stats.u_zaatar,
        )
        doubled = ComputationProfile(doubled_stats, 0.0, 3, 1)
        small = zaatar_costs(profile, PAPER_MICROBENCH_128, PAPER_PARAMS).construct_proof
        large = zaatar_costs(doubled, PAPER_MICROBENCH_128, PAPER_PARAMS).construct_proof
        assert 2.0 < large / small < 3.0
