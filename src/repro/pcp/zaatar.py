"""Zaatar's linear PCP — the Figure 10 protocol.

Per repetition (ρ of them):

* ρ_lin linearity triples against πz (vectors in F^{n'}) and ρ_lin
  against πh (vectors in F^{|C|+1});
* divisibility-correction queries: a random τ, then
  q₁ = q_a + q₅, q₂ = q_b + q₅, q₃ = q_c + q₅, q₄ = q_d + q₈ —
  self-corrected [6 §5] by the (uniformly random) linearity vectors;
* the checks: all linearity identities, then
  D(τ)·(π(q₄) − π(q₈)) = A_τ·B_τ − C_τ with
  A_τ = π(q₁) − π(q₅) + Σ_{i>n'} wᵢ·Aᵢ(τ) + A₀(τ), etc.

Query *generation* is instance-independent; only the A_τ/B_τ/C_τ
aggregates involve the instance's (x, y), so one schedule serves a
whole batch (§2.2).  The schedule keeps every query embedded in
full-proof-vector coordinates (z-part ++ h-part) because the
commitment layer binds one linear function over the concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from ..crypto.prg import FieldPRG
from ..field import PrimeField
from ..qap import (
    CircuitQueries,
    QAPInstance,
    circuit_queries,
    embed_h_query,
    embed_z_query,
    instance_scalars,
)
from .oracle import LinearOracle
from .soundness import SoundnessParams


@dataclass
class LinearityTriple:
    """Indices (into the schedule's query list) with q_sum = q_first + q_second."""

    first: int
    second: int
    total: int


@dataclass
class ZaatarRepetition:
    lin_z: list[LinearityTriple]
    lin_h: list[LinearityTriple]
    # self-correction partners: the first z / h linearity base queries
    idx_q5: int
    idx_q8: int
    # corrected divisibility queries
    idx_q1: int
    idx_q2: int
    idx_q3: int
    idx_q4: int
    circuit: CircuitQueries


@dataclass
class ZaatarSchedule:
    """One batch's worth of queries plus the metadata to check answers."""

    qap: QAPInstance
    params: SoundnessParams
    queries: list[list[int]]
    repetitions: list[ZaatarRepetition]

    @property
    def num_queries(self) -> int:
        """ρ·ℓ' total queries in this schedule."""
        return len(self.queries)


def generate_schedule(
    qap: QAPInstance, params: SoundnessParams, prg: FieldPRG
) -> ZaatarSchedule:
    """The verifier's query-construction step (amortized over the batch)."""
    field = qap.field
    n_prime = qap.n_prime
    h_len = qap.h_length
    queries: list[list[int]] = []
    repetitions: list[ZaatarRepetition] = []

    def push(q: list[int]) -> int:
        queries.append(q)
        return len(queries) - 1

    for _ in range(params.rho):
        lin_z: list[LinearityTriple] = []
        lin_h: list[LinearityTriple] = []
        idx_q5 = idx_q8 = -1
        first_q5: list[int] = []
        first_q8: list[int] = []
        # this repetition's 4·ρ_lin linearity vectors in one draw, sliced
        # q5, q6, q8, q9 per iteration (the order is part of every transcript)
        draws = iter(prg.next_vector(params.rho_lin * 2 * (n_prime + h_len)))
        for it in range(params.rho_lin):
            q5 = list(islice(draws, n_prime))
            q6 = list(islice(draws, n_prime))
            q7 = field.vec_add(q5, q6)
            i5 = push(embed_z_query(qap, q5))
            i6 = push(embed_z_query(qap, q6))
            i7 = push(embed_z_query(qap, q7))
            lin_z.append(LinearityTriple(i5, i6, i7))
            q8 = list(islice(draws, h_len))
            q9 = list(islice(draws, h_len))
            q10 = field.vec_add(q8, q9)
            i8 = push(embed_h_query(qap, q8))
            i9 = push(embed_h_query(qap, q9))
            i10 = push(embed_h_query(qap, q10))
            lin_h.append(LinearityTriple(i8, i9, i10))
            if it == 0:
                idx_q5, first_q5 = i5, q5
                idx_q8, first_q8 = i8, q8

        # τ must avoid the interpolation points (probability ~ |C|/|F|;
        # retry on the astronomically rare collision).
        while True:
            tau = prg.next_nonzero()
            try:
                circuit = circuit_queries(qap, tau)
                break
            except ValueError:
                continue
        idx_q1 = push(embed_z_query(qap, field.vec_add(circuit.qa, first_q5)))
        idx_q2 = push(embed_z_query(qap, field.vec_add(circuit.qb, first_q5)))
        idx_q3 = push(embed_z_query(qap, field.vec_add(circuit.qc, first_q5)))
        idx_q4 = push(embed_h_query(qap, field.vec_add(circuit.qd, first_q8)))
        repetitions.append(
            ZaatarRepetition(
                lin_z=lin_z,
                lin_h=lin_h,
                idx_q5=idx_q5,
                idx_q8=idx_q8,
                idx_q1=idx_q1,
                idx_q2=idx_q2,
                idx_q3=idx_q3,
                idx_q4=idx_q4,
                circuit=circuit,
            )
        )
    return ZaatarSchedule(qap=qap, params=params, queries=queries, repetitions=repetitions)


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    failed_linearity: bool = False
    failed_divisibility: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


def check_answers(
    schedule: ZaatarSchedule,
    answers: Sequence[int],
    x: Sequence[int],
    y: Sequence[int],
) -> CheckResult:
    """Run every Fig-10 test for one instance's answers."""
    qap = schedule.qap
    field = qap.field
    p = field.p
    if len(answers) != len(schedule.queries):
        raise ValueError(
            f"expected {len(schedule.queries)} answers, got {len(answers)}"
        )
    for rep in schedule.repetitions:
        for triples in (rep.lin_z, rep.lin_h):
            for t in triples:
                if (answers[t.first] + answers[t.second] - answers[t.total]) % p:
                    return CheckResult(False, failed_linearity=True)
        scalars = instance_scalars(qap, rep.circuit, x, y)
        a_tau = (answers[rep.idx_q1] - answers[rep.idx_q5] + scalars.l_a) % p
        b_tau = (answers[rep.idx_q2] - answers[rep.idx_q5] + scalars.l_b) % p
        c_tau = (answers[rep.idx_q3] - answers[rep.idx_q5] + scalars.l_c) % p
        h_tau = (answers[rep.idx_q4] - answers[rep.idx_q8]) % p
        if rep.circuit.d_tau * h_tau % p != (a_tau * b_tau - c_tau) % p:
            return CheckResult(False, failed_divisibility=True)
    return CheckResult(True)


def run_pcp(
    qap: QAPInstance,
    params: SoundnessParams,
    prg: FieldPRG,
    oracle: LinearOracle,
    x: Sequence[int],
    y: Sequence[int],
) -> CheckResult:
    """Convenience: generate a schedule, query an oracle, run the checks.

    This is the PCP in its information-theoretic form (verifier talks
    to a proof oracle directly); the argument system replaces the
    oracle with a committed prover.
    """
    schedule = generate_schedule(qap, params, prg)
    answers = [oracle.query(q) for q in schedule.queries]
    return check_answers(schedule, answers, x, y)
