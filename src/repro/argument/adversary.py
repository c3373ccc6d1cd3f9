"""Malicious-prover harness: seeded mutations the verifier must reject.

"If P does not compute correctly — if it does not participate in the
commitment protocol correctly, if it commits to a function that is not
linear, if it commits to a linear function not of the form (z, h), or
if it commits to (z', ...) where z' is not a satisfying assignment —
then V rejects the proof with probability ≥ 1 − ε" (§2.2).  Formal
Verification of Zero-Knowledge Circuits (PAPERS.md) argues this must be
a *tested invariant*, not an assumption; this module is the standing
soundness-regression harness that keeps it one.

:class:`AdversarialProver` runs :class:`MutatingProver`, the honest
:class:`~repro.argument.protocol.ZaatarProver` with exactly one seeded
mutation from :data:`MUTATION_CATALOG` per instance, applied where it
belongs: to u or to the claimed outputs as they are built, to the
commitment in ``commit``, to the answers in ``answer``.  Each
mutation maps onto a §2.2 cheating mode; the test suite
(``tests/argument/test_adversary.py``) asserts the verifier rejects
every one of them, for every seed it runs.  Mutations are deterministic
in ``(mutation, seed)``, so a rejection regression bisects cleanly.

The PCP-level counterpart (adversaries below the commitment layer) is
:class:`repro.pcp.oracle.MutatingOracle`.
"""

from __future__ import annotations

import functools
import random

from .. import telemetry
from ..crypto import CommitmentProver
from .protocol import ArgumentConfig, ZaatarArgument, ZaatarProver

#: every supported mutation, with the invariant it attacks
MUTATION_CATALOG: dict[str, str] = {
    "tamper-witness": (
        "flip one seeded entry of the z-part of u: a committed linear "
        "function over a non-satisfying assignment (divisibility test "
        "must fail)"
    ),
    "wrong-h": (
        "flip one seeded entry of the h-part of u: wrong H(t) "
        "contribution, so D(t)*H(t) != A*B - C (divisibility test must "
        "fail)"
    ),
    "zero-h": (
        "zero the entire h-part of u: the (z, h) form is violated "
        "wholesale (divisibility test must fail)"
    ),
    "substitute-commitment": (
        "commit to a shifted vector but answer with the honest one: "
        "breaks commit-then-answer binding (consistency check must "
        "fail)"
    ),
    "swap-answers": (
        "swap two seeded query answers of an honest proof: answers no "
        "longer come from one linear function (consistency or PCP "
        "checks must fail)"
    ),
    "tamper-output": (
        "prove honestly but claim a perturbed output y': valid proof "
        "for a wrong claim (circuit test against the claimed I/O must "
        "fail)"
    ),
}

MUTATIONS = tuple(sorted(MUTATION_CATALOG))


class MutatingProver(ZaatarProver):
    """The honest prover plus one seeded mutation per instance."""

    def __init__(self, program, qap, config, *, mutation: str, seed: int):
        super().__init__(program, qap, config)
        self.mutation = mutation
        self.seed = seed
        #: each live instance's mutation stream, by index
        self.rngs: dict[int, random.Random] = {}

    def build(self, batch, indices, per_stats, check=None) -> list:
        """The honest (sol, u), then a mutation of u or of the claim."""
        built = super().build(batch, indices, per_stats, check)
        p, n_prime, mutation = self.field.p, self.qap.n_prime, self.mutation
        for input_values, index, entry in zip(batch, indices, built):
            if isinstance(entry, Exception):
                continue
            sol, vector = entry
            rng = self.rngs[index] = random.Random(
                f"{mutation}:{self.seed}:{list(input_values)!r}"
            )
            telemetry.count("adversary.mutations")
            telemetry.count(f"adversary.mutations.{mutation}")
            if mutation in ("tamper-witness", "wrong-h"):
                witness = mutation == "tamper-witness"  # z's entries, else h's
                lo, hi = (0, n_prime) if witness else (n_prime, len(vector))
                at = lo + rng.randrange(hi - lo)
                vector[at] = (vector[at] + rng.randrange(1, p)) % p
            elif mutation == "zero-h":
                vector[n_prime:] = [0] * (len(vector) - n_prime)
            elif mutation == "tamper-output":
                y = sol.output_values  # the claim is the prover's word alone
                at = rng.randrange(len(y))
                y[at] = (y[at] + rng.randrange(1, p)) % p
        return built

    def commit(self, request, batch, **kwargs) -> list:
        """Commit honestly, but ``substitute-commitment`` sends the
        commitment to a shifted vector in place of u's."""
        committed = super().commit(request, batch, **kwargs)
        if self.mutation == "substitute-commitment":
            p = self.field.p
            live = [i for i, e in enumerate(committed) if not isinstance(e, Exception)]
            for i, (index, _, vector) in zip(live, self.committed):
                shifted = [(v + self.rngs[index].randrange(1, p)) % p for v in vector]
                other = CommitmentProver(self.field, self.group, shifted)
                committed[i] = (committed[i][0], other.commit(request))
        return committed

    def answer(self, challenge) -> list[list[int]]:
        """Answer honestly, but ``swap-answers`` swaps two answers."""
        answers = super().answer(challenge)
        for (index, _, _), values in zip(self.committed, answers):
            if self.mutation == "swap-answers":
                rng = self.rngs[index]
                i, j = rng.randrange(len(values)), rng.randrange(len(values))
                while j == i or values[i] == values[j]:
                    j = (j + 1) % len(values)
                values[i], values[j] = values[j], values[i]
        return answers


class AdversarialProver(ZaatarArgument):
    """A :class:`ZaatarArgument` whose prover is a :class:`MutatingProver`.

    Drop-in for :class:`~repro.argument.protocol.ZaatarArgument`: run
    it through ``run_batch`` / ``run_parallel_batch`` and check that no
    instance is accepted.  ``seed`` varies the mutated coordinates, not
    whether a mutation happens.
    """

    def __init__(
        self,
        program,
        config: ArgumentConfig | None = None,
        *,
        mutation: str,
        seed: int = 0,
    ):
        super().__init__(program, config)
        if mutation not in MUTATION_CATALOG:
            raise ValueError(
                f"unknown mutation {mutation!r} "
                f"(catalog: {', '.join(MUTATIONS)})"
            )
        self.prover_type = functools.partial(
            MutatingProver, mutation=mutation, seed=seed
        )
