"""Self-correction ablation (DESIGN.md §6).

Figure 10's divisibility queries are issued as q_a + q₅ etc. and
decoded as π(q₁) − π(q₅).  This matters against adversaries that are
linear *almost* everywhere or that special-case the query they expect:
the randomizer q₅ makes the actual wire value uniformly distributed,
so a lie planted on the raw q_a never gets hit.
"""

import pytest

from repro.crypto import FieldPRG
from repro.pcp import (
    MostlyLinearOracle,
    SoundnessParams,
    TargetedCheatOracle,
    VectorOracle,
    zaatar,
)
from repro.qap import (
    build_proof_vector,
    build_qap,
    circuit_queries,
    divisibility_check,
    instance_scalars,
)

from .query_oracle import embed_h_query, embed_z_query

PARAMS = SoundnessParams(rho_lin=3, rho=2)


@pytest.fixture(scope="module")
def setup(sumsq_program):
    qap = build_qap(sumsq_program.quadratic)
    sol = sumsq_program.solve([9, 9, 9])  # 243 → capped at 100
    proof = build_proof_vector(qap, sol.quadratic_witness)
    return qap, sol, proof


def naive_divisibility_probe(qap, oracle, sol, tau):
    """What a verifier WITHOUT self-correction would do: query the raw
    circuit vectors directly."""
    field = qap.field
    q = circuit_queries(qap, tau)
    scalars = instance_scalars(qap, q, sol.x, sol.y)
    pi_a = oracle.query(embed_z_query(qap, q.qa))
    pi_b = oracle.query(embed_z_query(qap, q.qb))
    pi_c = oracle.query(embed_z_query(qap, q.qc))
    pi_d = oracle.query(embed_h_query(qap, q.qd))
    return divisibility_check(field, q, scalars, pi_a, pi_b, pi_c, pi_d)


class TestTargetedCheat:
    def test_targeted_lie_fools_naive_verifier(self, setup, gold):
        """An oracle for a WRONG output that special-cases the raw q_d
        query can satisfy the naive (un-self-corrected) check."""
        qap, sol, proof = setup
        field = gold
        bad_y = [(sol.y[0] + 1) % field.p]
        tau = 123456789 % field.p
        q = circuit_queries(qap, tau)
        scalars = instance_scalars(qap, q, sol.x, bad_y)
        # compute the h-answer that would make the bad claim pass
        pi_a = field.inner_product(q.qa, proof.z)
        pi_b = field.inner_product(q.qb, proof.z)
        pi_c = field.inner_product(q.qc, proof.z)
        need = (
            ((pi_a + scalars.l_a) * (pi_b + scalars.l_b) - (pi_c + scalars.l_c))
            * field.inv(q.d_tau)
        ) % field.p
        cheat = TargetedCheatOracle(
            field, proof.vector, embed_h_query(qap, q.qd), need
        )

        class BadYSol:
            x, y = sol.x, bad_y

        assert naive_divisibility_probe(qap, cheat, BadYSol, tau)

    def test_full_protocol_defeats_targeted_lie(self, setup, gold):
        """The same adversary against the real Fig-10 protocol: the
        self-corrected query q_d + q₈ never equals the raw q_d, so the
        lie is never triggered and the bad claim is rejected."""
        qap, sol, proof = setup
        field = gold
        bad_y = [(sol.y[0] + 1) % field.p]
        # adversary doctors the raw q_d it anticipates (for some tau it
        # guesses the verifier may use)
        tau_guess = 123456789 % field.p
        q = circuit_queries(qap, tau_guess)
        cheat = TargetedCheatOracle(
            field, proof.vector, embed_h_query(qap, q.qd), answer=42
        )
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"sc"), cheat, sol.x, bad_y
        )
        assert not result.accepted


class TestMostlyLinear:
    def test_mostly_linear_oracle_statistics(self, setup, gold):
        """An oracle corrupt on a δ-fraction of queries is rejected with
        probability ≥ 1 − κ^ρ-ish; over many seeds the rejection rate
        must be overwhelming."""
        qap, sol, proof = setup
        rejected = 0
        trials = 10
        for seed in range(trials):
            oracle = MostlyLinearOracle(
                gold, proof.vector, corrupt_fraction=0.5, seed=seed
            )
            result = zaatar.run_pcp(
                qap, PARAMS, FieldPRG(gold, seed, "ml"), oracle, sol.x, sol.y
            )
            rejected += not result.accepted
        assert rejected >= trials - 1
