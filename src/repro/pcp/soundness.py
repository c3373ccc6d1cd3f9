"""Soundness parameters (§A.2 and [53, Apdx A.2]).

The Zaatar protocol's PCP soundness error is κ^ρ where

    κ ≥ max{ (1 − 3δ + 6δ²)^ρ_lin ,  6δ + 2·|C|/|F| }

for any 0 < δ < δ*, δ* being the lesser root of 6δ² − 3δ + 2/9 = 0.
The paper picks δ = 0.0294, ρ_lin = 20 (so κ = 0.177 suffices) and
ρ = 8 repetitions, for a PCP error below 9.6·10⁻⁷.  The argument
system adds a commitment error of at most 9·µ·|F|^(−1/3) with µ the
number of PCP queries.

Query counts (Figure 3 legend):

    ℓ  = 3·ρ_lin + 2   high-order PCP queries in Ginger
    ℓ' = 6·ρ_lin + 4   total PCP queries in Zaatar
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def delta_star() -> float:
    """Lesser root of 6δ² − 3δ + 2/9 = 0 (≈ 0.0880)."""
    return (3 - math.sqrt(9 - 4 * 6 * (2 / 9))) / (2 * 6)


def kappa_bound(delta: float, rho_lin: int, num_constraints: int, field_size: int) -> float:
    """The κ that suffices for given parameters (max of the two branches)."""
    if not 0 < delta < delta_star():
        raise ValueError(f"delta must lie in (0, {delta_star():.6f}); got {delta}")
    linearity_branch = (1 - 3 * delta + 6 * delta * delta) ** rho_lin
    correction_branch = 6 * delta + 2 * num_constraints / field_size
    return max(linearity_branch, correction_branch)


class RepetitionError(ValueError):
    """A repetition count below 1: that test would never run."""


@dataclass(frozen=True)
class SoundnessParams:
    """Repetition counts plus the error bounds they buy.

    Both counts must be at least 1 (:class:`RepetitionError`, a
    ``ValueError``, otherwise): with ρ = 0 no PCP repetition runs, and
    with ρ_lin = 0 a repetition has no linearity tests, so either would
    accept without checking anything.
    """

    delta: float = 0.0294
    rho_lin: int = 20
    rho: int = 8

    def __post_init__(self) -> None:
        for name in ("rho_lin", "rho"):
            value = getattr(self, name)
            if value < 1:
                raise RepetitionError(f"{name} must be at least 1, got {value}")

    @property
    def kappa(self) -> float:
        """κ neglecting the 2|C|/|F| term (astronomical fields, §A.2)."""
        return max(
            (1 - 3 * self.delta + 6 * self.delta**2) ** self.rho_lin,
            6 * self.delta,
        )

    @property
    def pcp_error(self) -> float:
        """κ^ρ — the paper quotes < 9.6·10⁻⁷ for the defaults."""
        return self.kappa**self.rho

    def zaatar_queries_per_repetition(self) -> int:
        """ℓ' = 6·ρ_lin + 4."""
        return 6 * self.rho_lin + 4

    def ginger_high_order_queries_per_repetition(self) -> int:
        """ℓ = 3·ρ_lin + 2."""
        return 3 * self.rho_lin + 2

    def total_zaatar_queries(self) -> int:
        """µ = ρ·ℓ' — queries per proof across all repetitions."""
        return self.rho * self.zaatar_queries_per_repetition()

    def commitment_error(self, field_size: int, num_queries: int | None = None) -> float:
        """9·µ·|F|^(−1/3) ([53, Apdx A.2])."""
        mu = num_queries if num_queries is not None else self.total_zaatar_queries()
        return 9 * mu * field_size ** (-1 / 3)

    def argument_error(self, field_size: int, num_queries: int | None = None) -> float:
        """PCP error plus commitment error — the full argument bound."""
        return self.pcp_error + self.commitment_error(field_size, num_queries)


#: the paper's production parameters: κ ≈ 0.177, so the PCP soundness
#: error is κ^ρ ≈ 9.5·10⁻⁷, for 992 queries per proof
PAPER_PARAMS = SoundnessParams()

#: cheap parameters for tests and fast demos: κ ≈ 0.707, so the PCP
#: soundness error κ^ρ is ≈ 0.4999 — a cheating prover may pass up to
#: half the time — for 56 queries per proof.  Use PAPER_PARAMS for the
#: paper's bound.
TEST_PARAMS = SoundnessParams(delta=0.0294, rho_lin=4, rho=2)
