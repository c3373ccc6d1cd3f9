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
whole batch (§2.2).  Only 4·ρ_lin rows per repetition are fresh (q₅
and q₆ on z, q₈ and q₉ on h); every other query is a sum (q₇ = q₅ +
q₆, q₁₀ = q₈ + q₉, q₁–q₄ a circuit vector plus the first q₅ or q₈),
and each is zero on one of z or h.  So the schedule keeps the base
rows, z's and h's, and each query's recipe (a
:class:`~repro.crypto.commitment.QueryBasis`), and no query is built
in full-proof-vector coordinates unless :meth:`ZaatarSchedule.queries`
is asked for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..crypto.commitment import QueryBasis
from ..crypto.prg import FieldPRG
from ..field import NumpyBackend, WordRows, element_words
from ..qap import CircuitQueries, QAPInstance, circuit_queries, instance_scalars
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
    """One batch's queries, as base rows, plus the metadata to check answers.

    ``basis`` holds every repetition's fresh z rows then its q_a, q_b,
    q_c (length n′), every repetition's fresh h rows then its q_d
    (length |C| + 1), and each query's recipe; the repetitions index
    the queries, in the order the answers come.
    """

    qap: QAPInstance
    params: SoundnessParams
    basis: QueryBasis
    repetitions: list[ZaatarRepetition]

    @property
    def num_queries(self) -> int:
        """ρ·ℓ' total queries in this schedule."""
        return self.basis.num_queries

    def queries(self) -> list[list[int]]:
        """Every query in full-proof-vector coordinates (z-part ++
        h-part), built on request: for oracles, the full transport's
        byte count and tests.  No proving or verifying path calls it."""
        return self.basis.queries()


def _linearity_rows(field, prg: FieldPRG, rho_lin: int, n_prime: int, h_len: int):
    """One repetition's 4·ρ_lin fresh rows in one draw, sliced q5, q6,
    q8, q9 per iteration (the order is part of every transcript):
    ``(z rows, h rows)``, q5 and q6 alternating, then q8 and q9.

    On the numpy backend, a field whose accepted samples are canonical
    draws straight into :class:`WordRows`; otherwise int lists.
    """
    count = rho_lin * 2 * (n_prime + h_len)
    words = prg.next_words(count) if isinstance(field.backend, NumpyBackend) else None
    if words is not None:
        w = words.shape[1]
        draw = words.reshape(rho_lin, 2 * (n_prime + h_len), w)
        z = draw[:, : 2 * n_prime].reshape(2 * rho_lin, n_prime, w)
        h = draw[:, 2 * n_prime :].reshape(2 * rho_lin, h_len, w)
        return WordRows(z), WordRows(h)
    flat = prg.next_vector(count)
    z, h = [], []
    step = 2 * (n_prime + h_len)
    for it in range(rho_lin):
        at = it * step
        z += [flat[at : at + n_prime], flat[at + n_prime : at + 2 * n_prime]]
        at += 2 * n_prime
        h += [flat[at : at + h_len], flat[at + h_len : at + 2 * h_len]]
    return z, h


def _stack(parts: list):
    """One side's base rows from its per-repetition blocks."""
    if isinstance(parts[0], WordRows):
        return WordRows.stack(parts)
    return [row for part in parts for row in part]


def generate_schedule(
    qap: QAPInstance, params: SoundnessParams, prg: FieldPRG
) -> ZaatarSchedule:
    """The verifier's query-construction step (amortized over the batch)."""
    field = qap.field
    n_prime = qap.n_prime
    h_len = qap.h_length
    rho_lin = params.rho_lin
    # base-row indices: z rows first (2ρ_lin fresh + 3 circuit rows per
    # repetition), then h rows (2ρ_lin fresh + q_d per repetition)
    z_per_rep, h_per_rep = 2 * rho_lin + 3, 2 * rho_lin + 1
    z_parts: list = []
    h_parts: list = []
    recipes: list[tuple[int, ...]] = []
    repetitions: list[ZaatarRepetition] = []

    def push(*rows: int) -> int:
        recipes.append(rows)
        return len(recipes) - 1

    for rep in range(params.rho):
        z0 = rep * z_per_rep
        h0 = params.rho * z_per_rep + rep * h_per_rep
        fresh_z, fresh_h = _linearity_rows(field, prg, rho_lin, n_prime, h_len)
        lin_z: list[LinearityTriple] = []
        lin_h: list[LinearityTriple] = []
        for it in range(rho_lin):
            q5, q6 = z0 + 2 * it, z0 + 2 * it + 1
            lin_z.append(LinearityTriple(push(q5), push(q6), push(q5, q6)))
            q8, q9 = h0 + 2 * it, h0 + 2 * it + 1
            lin_h.append(LinearityTriple(push(q8), push(q9), push(q8, q9)))

        # τ must avoid the interpolation points (probability ~ |C|/|F|;
        # retry on the astronomically rare collision).
        while True:
            tau = prg.next_nonzero()
            try:
                circuit = circuit_queries(qap, tau)
                break
            except ValueError:
                continue
        circuit_z = [circuit.qa, circuit.qb, circuit.qc]
        circuit_h = [circuit.qd]
        if isinstance(fresh_z, WordRows):
            w = element_words(field.p)
            circuit_z = WordRows.from_ints(circuit_z, w)
            circuit_h = WordRows.from_ints(circuit_h, w)
        z_parts += [fresh_z, circuit_z]
        h_parts += [fresh_h, circuit_h]
        qa = z0 + 2 * rho_lin
        repetitions.append(
            ZaatarRepetition(
                lin_z=lin_z,
                lin_h=lin_h,
                idx_q5=lin_z[0].first,
                idx_q8=lin_h[0].first,
                idx_q1=push(qa, z0),
                idx_q2=push(qa + 1, z0),
                idx_q3=push(qa + 2, z0),
                idx_q4=push(h0 + 2 * rho_lin, h0),
                circuit=circuit,
            )
        )
    basis = QueryBasis(
        field,
        (n_prime, h_len),
        (_stack(z_parts), _stack(h_parts)),
        recipes,
    )
    return ZaatarSchedule(qap=qap, params=params, basis=basis, repetitions=repetitions)


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
    if len(answers) != schedule.num_queries:
        raise ValueError(
            f"expected {schedule.num_queries} answers, got {len(answers)}"
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
    answers = [oracle.query(q) for q in schedule.queries()]
    return check_answers(schedule, answers, x, y)
