"""Ginger's linear PCP (the Arora et al. construction, §2.2) — baseline.

The proof is u = (w, w ⊗ w): quadratic in the number of variables,
which is precisely the cost Zaatar's QAP encoding removes.  Per
repetition the verifier runs

* ρ_lin linearity triples against π₁ (length n) and π₂ (length n²);
* a quadratic-correction test: random q_A, q_B ∈ F^n must satisfy
  π₂(q_A ⊗ q_B) = π₁(q_A)·π₁(q_B) — this is what forces the committed
  function to have the outer-product form (z, z ⊗ z);
* the circuit test: with random v ∈ F^{|C|} the degree-2 polynomial
  Q(v, Z) = Σ v_j·Q_j(Z) must vanish, checked as
  π₂(γ₂) + π₁(γ₁) + γ₀ = 0 for the (γ₂, γ₁, γ₀) derived from v.

All high-order queries are self-corrected by linearity queries, as in
the Zaatar protocol.  Inputs and outputs are bound by per-variable
binding rows v'_i·(W_i − x_i) folded into Q: the γ vectors stay
instance-independent (batchable); only the scalar
γ₀ = γ₀_base − Σ v'_i·x_i is per-instance — Figure 3's
"(|x| + |y|)·f" term in the Ginger "Process responses" row.

On real benchmark sizes this prover is astronomically expensive —
the paper itself only *estimates* Ginger at §5 scales via the cost
model — so this implementation is exercised at small sizes by tests
and the crossover benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..constraints import GingerSystem
from ..crypto.prg import FieldPRG
from ..field import PrimeField, outer
from .oracle import LinearOracle
from .soundness import SoundnessParams


def build_ginger_proof(gsys: GingerSystem, w: Sequence[int]) -> list[int]:
    """u = (w, w ⊗ w) over all n variables (w[0] == 1 excluded)."""
    if len(w) != gsys.num_vars + 1:
        raise ValueError("assignment length mismatch")
    tail = list(w[1:])
    return tail + outer(gsys.field, tail, tail)


def proof_length(gsys: GingerSystem) -> int:
    """|u| = n + n² for this system."""
    n = gsys.num_vars
    return n + n * n


@dataclass
class GingerCircuitQuery:
    """Instance-independent circuit-test data for one repetition."""

    gamma1: list[int]          # length n
    gamma2: list[int]          # length n², row-major
    gamma0_base: int
    #: binding coefficients: variable index → v'ᵢ (subtracted with the
    #: instance's x/y values when computing γ₀)
    binding: dict[int, int]


@dataclass
class GingerRepetition:
    lin1: list[tuple[int, int, int]]
    lin2: list[tuple[int, int, int]]
    idx_q5: int                 # π₁ self-correction partner
    idx_q8: int                 # π₂ self-correction partner
    idx_qa: int                 # π₁(q_A + q₅)
    idx_qb: int                 # π₁(q_B + q₅)
    idx_qab: int                # π₂(q_A ⊗ q_B + q₈)
    idx_gamma1: int             # π₁(γ₁ + q₅)
    idx_gamma2: int             # π₂(γ₂ + q₈)
    circuit: GingerCircuitQuery


@dataclass
class GingerSchedule:
    gsys: GingerSystem
    params: SoundnessParams
    queries: list[list[int]]    # full-length (n + n²) vectors
    repetitions: list[GingerRepetition]

    @property
    def num_queries(self) -> int:
        """Total queries in this schedule."""
        return len(self.queries)


def _embed1(gsys: GingerSystem, q: Sequence[int]) -> list[int]:
    n = gsys.num_vars
    return list(q) + [0] * (n * n)


def _embed2(gsys: GingerSystem, q: Sequence[int]) -> list[int]:
    n = gsys.num_vars
    return [0] * n + list(q)


def _circuit_query(gsys: GingerSystem, prg: FieldPRG) -> GingerCircuitQuery:
    """Aggregate all constraints (plus i/o binding rows) under random v."""
    field = gsys.field
    p = field.p
    n = gsys.num_vars
    gamma1 = [0] * n
    gamma2 = [0] * (n * n)
    gamma0 = 0
    for constraint in gsys.constraints:
        v = prg.next_element()
        gamma0 = (gamma0 + v * constraint.constant) % p
        for i, c in constraint.linear.items():
            gamma1[i - 1] = (gamma1[i - 1] + v * c) % p
        for (i, k), c in constraint.quadratic.items():
            flat = (i - 1) * n + (k - 1)
            gamma2[flat] = (gamma2[flat] + v * c) % p
    binding: dict[int, int] = {}
    for var in list(gsys.input_vars) + list(gsys.output_vars):
        v = prg.next_element()
        binding[var] = v
        gamma1[var - 1] = (gamma1[var - 1] + v) % p
    return GingerCircuitQuery(gamma1, gamma2, gamma0, binding)


def generate_schedule(
    gsys: GingerSystem, params: SoundnessParams, prg: FieldPRG
) -> GingerSchedule:
    """Build the per-batch query schedule (linearity + quadratic +
    circuit tests, self-corrected)."""
    field = gsys.field
    n = gsys.num_vars
    nn = n * n
    queries: list[list[int]] = []
    repetitions: list[GingerRepetition] = []

    def push(q: list[int]) -> int:
        queries.append(q)
        return len(queries) - 1

    for _ in range(params.rho):
        lin1: list[tuple[int, int, int]] = []
        lin2: list[tuple[int, int, int]] = []
        idx_q5 = idx_q8 = -1
        first_q5: list[int] = []
        first_q8: list[int] = []
        for it in range(params.rho_lin):
            q5 = prg.next_vector(n)
            q6 = prg.next_vector(n)
            q7 = field.vec_add(q5, q6)
            i5 = push(_embed1(gsys, q5))
            i6 = push(_embed1(gsys, q6))
            i7 = push(_embed1(gsys, q7))
            lin1.append((i5, i6, i7))
            q8 = prg.next_vector(nn)
            q9 = prg.next_vector(nn)
            q10 = field.vec_add(q8, q9)
            i8 = push(_embed2(gsys, q8))
            i9 = push(_embed2(gsys, q9))
            i10 = push(_embed2(gsys, q10))
            lin2.append((i8, i9, i10))
            if it == 0:
                idx_q5, first_q5 = i5, q5
                idx_q8, first_q8 = i8, q8

        q_a = prg.next_vector(n)
        q_b = prg.next_vector(n)
        q_ab = outer(field, q_a, q_b)
        idx_qa = push(_embed1(gsys, field.vec_add(q_a, first_q5)))
        idx_qb = push(_embed1(gsys, field.vec_add(q_b, first_q5)))
        idx_qab = push(_embed2(gsys, field.vec_add(q_ab, first_q8)))

        circuit = _circuit_query(gsys, prg)
        idx_g1 = push(_embed1(gsys, field.vec_add(circuit.gamma1, first_q5)))
        idx_g2 = push(_embed2(gsys, field.vec_add(circuit.gamma2, first_q8)))
        repetitions.append(
            GingerRepetition(
                lin1=lin1,
                lin2=lin2,
                idx_q5=idx_q5,
                idx_q8=idx_q8,
                idx_qa=idx_qa,
                idx_qb=idx_qb,
                idx_qab=idx_qab,
                idx_gamma1=idx_g1,
                idx_gamma2=idx_g2,
                circuit=circuit,
            )
        )
    return GingerSchedule(gsys=gsys, params=params, queries=queries, repetitions=repetitions)


@dataclass(frozen=True)
class GingerCheckResult:
    accepted: bool
    failed_linearity: bool = False
    failed_quadratic: bool = False
    failed_circuit: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


def check_answers(
    schedule: GingerSchedule,
    answers: Sequence[int],
    x: Sequence[int],
    y: Sequence[int],
) -> GingerCheckResult:
    """Run every test for one instance's answers."""
    gsys = schedule.gsys
    p = gsys.field.p
    if len(answers) != len(schedule.queries):
        raise ValueError("answer count mismatch")
    value: dict[int, int] = {}
    for var, v in zip(gsys.input_vars, x):
        value[var] = v % p
    for var, v in zip(gsys.output_vars, y):
        value[var] = v % p
    for rep in schedule.repetitions:
        for triples in (rep.lin1, rep.lin2):
            for i5, i6, i7 in triples:
                if (answers[i5] + answers[i6] - answers[i7]) % p:
                    return GingerCheckResult(False, failed_linearity=True)
        pa = (answers[rep.idx_qa] - answers[rep.idx_q5]) % p
        pb = (answers[rep.idx_qb] - answers[rep.idx_q5]) % p
        pab = (answers[rep.idx_qab] - answers[rep.idx_q8]) % p
        if pa * pb % p != pab:
            return GingerCheckResult(False, failed_quadratic=True)
        gamma0 = rep.circuit.gamma0_base
        for var, v in rep.circuit.binding.items():
            gamma0 = (gamma0 - v * value[var]) % p
        pg1 = (answers[rep.idx_gamma1] - answers[rep.idx_q5]) % p
        pg2 = (answers[rep.idx_gamma2] - answers[rep.idx_q8]) % p
        if (pg2 + pg1 + gamma0) % p:
            return GingerCheckResult(False, failed_circuit=True)
    return GingerCheckResult(True)


def run_pcp(
    gsys: GingerSystem,
    params: SoundnessParams,
    prg: FieldPRG,
    oracle: LinearOracle,
    x: Sequence[int],
    y: Sequence[int],
) -> GingerCheckResult:
    """Generate a schedule, query the oracle, check — one PCP run."""
    schedule = generate_schedule(gsys, params, prg)
    answers = [oracle.query(q) for q in schedule.queries]
    return check_answers(schedule, answers, x, y)
