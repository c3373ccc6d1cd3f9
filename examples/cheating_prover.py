#!/usr/bin/env python3
"""Adversarial demo: every way a prover can cheat, and how it's caught.

§2.2 enumerates the misbehaviours the protocol defends against; this
demo mounts each one against the same computation and shows which
protocol layer rejects it:

  1. wrong output claim         → divisibility-correction test (PCP)
  2. answers ≠ committed π      → commitment consistency test
  3. non-linear proof function  → linearity tests (PCP)
  4. wrong-form linear function → divisibility-correction test (PCP)

Run:  python examples/cheating_prover.py
"""

import random

from repro.argument import ArgumentConfig, ZaatarArgument, ZaatarProver
from repro.compiler import compile_source
from repro.field import PrimeField
from repro.pcp import SoundnessParams

SOURCE = """
input bid[4]
output winner
output second
winner = 0
second = 0
for i in 0..4 {
    if (winner < bid[i]) { second = winner  winner = bid[i] }
    else { if (second < bid[i]) { second = bid[i] } }
}
"""

FIELD = PrimeField.named("goldilocks")
CONFIG = ArgumentConfig(params=SoundnessParams(rho_lin=3, rho=2))


class WrongOutputProver(ZaatarProver):
    """Claims a different auction winner (pays less!)."""

    def commit(self, request, batch, **kwargs):
        committed = super().commit(request, batch, **kwargs)
        # understate the second price
        return [([winner, (second - 5) % FIELD.p], c) for (winner, second), c in committed]


class InconsistentAnswersProver(ZaatarProver):
    """Commits honestly, then answers queries with doctored values."""

    def answer(self, challenge):
        answers = super().answer(challenge)
        for values in answers:
            values[3] = (values[3] + 1) % FIELD.p
        return answers


class NonLinearProver(ZaatarProver):
    """Answers with a random (consistent) non-linear function."""

    def answer(self, challenge):
        answers = super().answer(challenge)
        rng = random.Random(0)
        for values in answers:
            values[:-1] = [rng.randrange(FIELD.p) for _ in values[:-1]]
        return answers


class WrongFormProver(ZaatarProver):
    """Commits to a genuine linear function (z, h') with a bogus h'."""

    def build(self, *args):
        built = super().build(*args)
        at = self.qap.n_prime + 2
        for _, vector in built:
            vector[at] = (vector[at] + 9) % FIELD.p
        return built


def argument(prover_type, program):
    """The argument over ``program`` whose batches run ``prover_type``."""
    argument = ZaatarArgument(program, CONFIG)
    argument.prover_type = prover_type
    return argument


def main() -> None:
    program = compile_source(FIELD, SOURCE, name="second-price-auction", bit_width=12)
    bids = [[120, 455, 309, 222]]

    honest = ZaatarArgument(program, CONFIG).run_batch(bids)
    assert honest.all_accepted
    winner, second = honest.instances[0].output_values
    print(f"honest prover: winner bid = {winner}, clearing price = {second}  [ACCEPTED]")

    adversaries = [
        ("wrong output claim", WrongOutputProver),
        ("answers != committed function", InconsistentAnswersProver),
        ("non-linear proof function", NonLinearProver),
        ("linear but wrong-form (bogus h)", WrongFormProver),
    ]
    print("\nadversaries:")
    for label, cls in adversaries:
        result = argument(cls, program).run_batch(bids)
        instance = result.instances[0]
        layer = (
            "commitment consistency"
            if not instance.commitment_ok
            else "PCP checks"
        )
        verdict = "REJECTED" if not instance.accepted else "ACCEPTED (BUG!)"
        print(f"  {label:36s} -> {verdict} by {layer}")
        assert not instance.accepted, label


if __name__ == "__main__":
    main()
