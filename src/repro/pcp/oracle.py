"""Proof oracles: the π that the PCP verifier queries.

A PCP is "normally described as an oracle π (a fixed function to which
V has access)" (§2.2).  In the full argument system the prover
simulates the oracle through the commitment protocol; in unit tests
the verifier talks to an oracle object directly.  Adversarial oracles
(non-linear, wrong-form, unsatisfying) live here too so both the PCP
tests and the end-to-end argument tests can share them.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence

from ..field import PrimeField


class LinearOracle(Protocol):
    """Anything that answers inner-product queries."""

    def query(self, q: Sequence[int]) -> int:
        """Answer one query vector."""
        ...


class VectorOracle:
    """The honest oracle: π(q) = <q, u> for a fixed proof vector u."""

    def __init__(self, field: PrimeField, u: Sequence[int]):
        self.field = field
        self.u = list(u)

    def query(self, q: Sequence[int]) -> int:
        """<q, u>."""
        return self.field.inner_product(q, self.u)


class NonLinearOracle:
    """Cheats by answering a random function instead of a linear one.

    Each distinct query gets a consistent but random answer —
    the strongest kind of non-linear deviation, defeated by the
    linearity tests.
    """

    def __init__(self, field: PrimeField, seed: int = 0):
        self.field = field
        self._rng = random.Random(seed)
        self._memo: dict[tuple[int, ...], int] = {}

    def query(self, q: Sequence[int]) -> int:
        """A memoized random answer per distinct query."""
        key = tuple(q)
        if key not in self._memo:
            self._memo[key] = self._rng.randrange(self.field.p)
        return self._memo[key]


class MostlyLinearOracle:
    """Linear except on a fraction of queries — defeats naive (un-self-
    corrected) circuit checks but not the full protocol.

    Used by the self-correction ablation test: an oracle that is linear
    on, say, 90% of the query space can make an un-self-corrected
    divisibility query return a doctored value while passing most
    linearity tests.
    """

    def __init__(
        self,
        field: PrimeField,
        u: Sequence[int],
        corrupt_fraction: float = 0.1,
        seed: int = 0,
        offset: int = 1,
    ):
        self.field = field
        self.u = list(u)
        self.corrupt_fraction = corrupt_fraction
        self._rng = random.Random(seed)
        self._decisions: dict[tuple[int, ...], bool] = {}
        self.offset = offset

    def query(self, q: Sequence[int]) -> int:
        """Honest answer, shifted on a sticky random δ-fraction of queries."""
        value = self.field.inner_product(q, self.u)
        key = tuple(q)
        if key not in self._decisions:
            self._decisions[key] = self._rng.random() < self.corrupt_fraction
        if self._decisions[key]:
            return (value + self.offset) % self.field.p
        return value


class MutatingOracle:
    """Adversary hook: rewrites an inner oracle's answers per query.

    ``mutate(query_index, q, honest_answer) -> answer`` sees the 0-based
    order in which the verifier issued its queries, so harnesses (e.g.
    ``repro.argument.adversary``) can express "swap the answers to
    queries i and j" or "shift every k-th answer" below the commitment
    layer, against the information-theoretic PCP itself.
    """

    def __init__(self, inner_oracle: LinearOracle, mutate):
        self.inner = inner_oracle
        self.mutate = mutate
        self.calls = 0

    def query(self, q: Sequence[int]) -> int:
        """The inner oracle's answer, filtered through ``mutate``."""
        index = self.calls
        self.calls += 1
        return self.mutate(index, q, self.inner.query(q))


class TargetedCheatOracle:
    """Linear oracle that lies on one specific query vector.

    Models a prover that tries to fix up exactly the query it expects
    to be checked (e.g. doctoring πh(q_d) to force the divisibility
    identity) — self-correction randomizes the actual query so the lie
    lands on the wrong vector.
    """

    def __init__(self, field: PrimeField, u: Sequence[int], target: Sequence[int], answer: int):
        self.field = field
        self.u = list(u)
        self.target = list(target)
        self.answer = answer

    def query(self, q: Sequence[int]) -> int:
        """Honest everywhere except the one targeted query."""
        if list(q) == self.target:
            return self.answer
        return self.field.inner_product(q, self.u)
