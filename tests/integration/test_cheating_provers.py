"""Adversarial integration tests: every §2.2 cheating mode, end to end.

"If P does not compute correctly — if it does not participate in the
commitment protocol correctly, if it commits to a function that is not
linear, if it commits to a linear function not of the form (z, z⊗z)
[Ginger] / (z, h) [Zaatar], or if it commits to (z', ...) where z' is
not a satisfying assignment — then V rejects the proof with probability
≥ 1 − ε."  Each test below exercises exactly one of these modes.
"""

import pytest

from repro.argument import ArgumentConfig, ZaatarArgument, ZaatarProver
from repro.pcp import SoundnessParams

CFG = ArgumentConfig(params=SoundnessParams(rho_lin=3, rho=2))


def running(prover_type):
    """A ZaatarArgument subclass whose every batch runs ``prover_type``."""
    return type("Cheating", (ZaatarArgument,), {"prover_type": prover_type})


@pytest.fixture(scope="module")
def honest(sumsq_program):
    return ZaatarArgument(sumsq_program, CFG)


class TestCommitmentMisbehaviour:
    def test_commit_then_answer_different_function(self, gold, honest, sumsq_program):
        """Commits to u but answers queries with u' ≠ u."""

        class SwitchingProver(ZaatarProver):
            def answer(self, challenge):
                # answer with a shifted vector
                self.committed = [
                    (index, stats, [(v + 1) % gold.p for v in u])
                    for index, stats, u in self.committed
                ]
                return super().answer(challenge)

        result = running(SwitchingProver)(sumsq_program, CFG).run_batch([[1, 2, 3]])
        assert not result.instances[0].commitment_ok
        assert not result.all_accepted


class TestNonLinearFunction:
    def test_random_answers_rejected(self, gold, sumsq_program):
        import random as _random

        class RandomAnswerProver(ZaatarProver):
            def answer(self, challenge):
                rnd = _random.Random(0)
                return [
                    [rnd.randrange(gold.p) for _ in values]
                    for values in super().answer(challenge)
                ]

        result = running(RandomAnswerProver)(sumsq_program, CFG).run_batch([[1, 2, 3]])
        assert not result.all_accepted


class TestWrongFormLinearFunction:
    def test_inconsistent_h_rejected(self, gold, sumsq_program):
        """Linear function (z, h') where h' is not P_w/D."""

        class WrongHProver(ZaatarProver):
            def build(self, *args):
                built = super().build(*args)
                for _, vector in built:
                    at = self.qap.n_prime
                    vector[at] = (vector[at] + 3) % gold.p
                return built

        result = running(WrongHProver)(sumsq_program, CFG).run_batch([[1, 2, 3]])
        # commitment is consistent (it IS a linear function) but the
        # PCP's divisibility test fails
        assert result.instances[0].commitment_ok
        assert not result.instances[0].pcp_ok


class TestUnsatisfyingAssignment:
    def test_valid_proof_for_wrong_claim_rejected(self, gold, sumsq_program):
        """z' satisfies C(X=x', Y=y') for different x'/y' than claimed."""

        class ReplayProver(ZaatarProver):
            def build(self, batch, *args):
                # prove a DIFFERENT instance but claim this one's outputs
                other = super().build([[9, 9, 9]] * len(batch), *args)
                claims = [self.program.solve(inputs, check=False) for inputs in batch]
                return [(sol, u) for sol, (_, u) in zip(claims, other)]

        result = running(ReplayProver)(sumsq_program, CFG).run_batch([[1, 2, 3]])
        assert result.instances[0].commitment_ok
        assert not result.instances[0].pcp_ok


class TestRepetitionStrength:
    def test_more_repetitions_never_accept_what_fewer_reject(self, gold, sumsq_program):
        weak = ArgumentConfig(params=SoundnessParams(rho_lin=1, rho=1))
        strong = ArgumentConfig(params=SoundnessParams(rho_lin=4, rho=3))

        class OutputBumper(ZaatarProver):
            def commit(self, request, batch, **kwargs):
                committed = super().commit(request, batch, **kwargs)
                return [([(y[0] + 1) % gold.p], c) for y, c in committed]

        Cheat = running(OutputBumper)
        assert not Cheat(sumsq_program, strong).run_batch([[1, 2, 3]]).all_accepted
