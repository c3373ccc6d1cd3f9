"""Integration tests for the batched argument system."""

import pytest

from repro.argument import (
    ArgumentConfig,
    GingerArgument,
    ZaatarArgument,
    ZaatarProver,
)
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


class TestZaatarBatch:
    def test_batch_accepts_and_outputs(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = arg.run_batch([[1, 2, 3], [4, 5, 6], [0, 0, 0]])
        assert result.all_accepted
        assert [r.output_values for r in result.instances] == [[14], [77], [0]]

    def test_stats_populated(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = arg.run_batch([[1, 1, 1]])
        stats = result.stats
        assert stats.batch_size == 1
        assert stats.verifier.query_setup > 0
        mean = stats.mean_prover()
        assert mean.e2e > 0
        assert mean.crypto_ops > 0  # commitment enabled

    def test_roots_mode(self, sumsq_program):
        cfg = ArgumentConfig(
            params=SoundnessParams(rho_lin=2, rho=1), qap_mode="roots"
        )
        assert ZaatarArgument(sumsq_program, cfg).run_batch([[2, 2, 2]]).all_accepted


class TestZaatarCheating:
    def test_tampered_output_claim_rejected(self, gold, sumsq_program):
        class OutputBumper(ZaatarProver):
            def commit(self, request, batch, **kwargs):
                committed = super().commit(request, batch, **kwargs)
                return [([(y[0] + 1) % gold.p], c) for y, c in committed]

        class CheatingProver(ZaatarArgument):
            prover_type = OutputBumper

        result = CheatingProver(sumsq_program, FAST).run_batch([[1, 2, 3]])
        assert not result.all_accepted
        assert not result.instances[0].pcp_ok

    def test_tampered_answers_fail_commitment(self, gold, sumsq_program):
        class AnswerBumper(ZaatarProver):
            def answer(self, challenge):
                answers = super().answer(challenge)
                for values in answers:
                    values[0] = (values[0] + 1) % gold.p
                return answers

        class AnswerTamperer(ZaatarArgument):
            prover_type = AnswerBumper

        result = AnswerTamperer(sumsq_program, FAST).run_batch([[1, 2, 3]])
        assert not result.all_accepted
        assert not result.instances[0].commitment_ok

    def test_one_bad_instance_in_batch(self, gold, sumsq_program):
        """Only the cheated instance is rejected; honest ones still pass."""

        class SecondBumper(ZaatarProver):
            def commit(self, request, batch, **kwargs):
                committed = super().commit(request, batch, **kwargs)
                y, c = committed[1]
                committed[1] = ([(y[0] + 1) % gold.p], c)
                return committed

        class SelectiveCheat(ZaatarArgument):
            prover_type = SecondBumper

        result = SelectiveCheat(sumsq_program, FAST).run_batch(
            [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
        )
        accepted = [r.accepted for r in result.instances]
        assert accepted == [True, False, True]


class TestGingerBaseline:
    def test_batch_accepts(self, sumsq_program):
        result = GingerArgument(sumsq_program, FAST).run_batch([[1, 2, 3], [2, 2, 2]])
        assert result.all_accepted
        assert [r.output_values for r in result.instances] == [[14], [12]]

    def test_cheating_rejected(self, gold, sumsq_program):
        class Cheat(GingerArgument):
            def run_batch(self, batch):
                result = super().run_batch(batch)
                return result

        # tamper via the PCP answer path: corrupt the witness's outer
        # product by monkeypatching build_ginger_proof
        import repro.argument.protocol as proto

        original = proto.build_ginger_proof

        def corrupt(gsys, w):
            u = original(gsys, w)
            u[gsys.num_vars] = (u[gsys.num_vars] + 1) % gold.p
            return u

        proto.build_ginger_proof = corrupt
        try:
            result = GingerArgument(sumsq_program, FAST).run_batch([[1, 2, 3]])
        finally:
            proto.build_ginger_proof = original
        assert not result.all_accepted


class TestAgreementBetweenSystems:
    def test_same_outputs(self, sumsq_program):
        """Both systems must verify the same computation results."""
        z = ZaatarArgument(sumsq_program, FAST).run_batch([[3, 3, 3]])
        g = GingerArgument(sumsq_program, FAST).run_batch([[3, 3, 3]])
        assert z.all_accepted and g.all_accepted
        assert (
            z.instances[0].output_values == g.instances[0].output_values == [27]
        )
