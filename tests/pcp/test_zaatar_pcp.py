"""Unit tests for the Figure-10 protocol (Zaatar's linear PCP)."""

import pytest

from repro.crypto import FieldPRG
from repro.pcp import NonLinearOracle, SoundnessParams, VectorOracle, zaatar
from repro.qap import build_proof_vector, build_qap

PARAMS = SoundnessParams(rho_lin=3, rho=2)


@pytest.fixture(scope="module")
def setup(sumsq_program):
    qap = build_qap(sumsq_program.quadratic)
    sol = sumsq_program.solve([2, 3, 4])
    proof = build_proof_vector(qap, sol.quadratic_witness)
    return qap, sol, proof


class TestSchedule:
    def test_query_count_matches_ell_prime(self, setup, gold):
        """ℓ' = 6ρ_lin + 4 queries per repetition (§A.1)."""
        qap, _, _ = setup
        schedule = zaatar.generate_schedule(qap, PARAMS, FieldPRG(gold, b"s"))
        expected = PARAMS.rho * (6 * PARAMS.rho_lin + 4)
        assert schedule.num_queries == expected

    def test_queries_are_full_length(self, setup, gold):
        qap, _, _ = setup
        schedule = zaatar.generate_schedule(qap, PARAMS, FieldPRG(gold, b"s"))
        assert all(len(q) == qap.proof_vector_length for q in schedule.queries())

    def test_deterministic_from_seed(self, setup, gold):
        """V and P must derive identical queries from a shared seed
        (the network-cost optimization of §A.1)."""
        qap, _, _ = setup
        s1 = zaatar.generate_schedule(qap, PARAMS, FieldPRG(gold, b"shared"))
        s2 = zaatar.generate_schedule(qap, PARAMS, FieldPRG(gold, b"shared"))
        assert s1.queries() == s2.queries()

    def test_linearity_triples_sum(self, setup, gold):
        qap, _, _ = setup
        schedule = zaatar.generate_schedule(qap, PARAMS, FieldPRG(gold, b"s"))
        queries = schedule.queries()
        p = gold.p
        for rep in schedule.repetitions:
            for t in rep.lin_z + rep.lin_h:
                q5 = queries[t.first]
                q6 = queries[t.second]
                q7 = queries[t.total]
                assert all((a + b - c) % p == 0 for a, b, c in zip(q5, q6, q7))

    def test_self_correction_structure(self, setup, gold):
        """q1 − q5 must equal the raw circuit query qa."""
        qap, _, _ = setup
        schedule = zaatar.generate_schedule(qap, PARAMS, FieldPRG(gold, b"s"))
        queries = schedule.queries()
        p = gold.p
        rep = schedule.repetitions[0]
        q1 = queries[rep.idx_q1]
        q5 = queries[rep.idx_q5]
        raw = [(a - b) % p for a, b in zip(q1, q5)]
        assert raw[: qap.n_prime] == rep.circuit.qa


class TestCompleteness:
    def test_honest_oracle_accepts(self, setup, gold):
        qap, sol, proof = setup
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"c"), VectorOracle(gold, proof.vector),
            sol.x, sol.y,
        )
        assert result.accepted

    def test_many_seeds(self, setup, gold):
        """Completeness must hold for every random choice (Lemma A.2)."""
        qap, sol, proof = setup
        oracle = VectorOracle(gold, proof.vector)
        for seed in range(5):
            assert zaatar.run_pcp(
                qap, PARAMS, FieldPRG(gold, seed, "many"), oracle, sol.x, sol.y
            ).accepted


class TestSoundness:
    def test_nonlinear_oracle_rejected(self, setup, gold):
        qap, sol, _ = setup
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"n"), NonLinearOracle(gold), sol.x, sol.y
        )
        assert not result.accepted
        assert result.failed_linearity

    def test_wrong_output_rejected(self, setup, gold):
        qap, sol, proof = setup
        bad_y = [(sol.y[0] + 5) % gold.p]
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"w"), VectorOracle(gold, proof.vector),
            sol.x, bad_y,
        )
        assert not result.accepted
        assert result.failed_divisibility

    def test_wrong_witness_rejected(self, setup, gold):
        qap, sol, proof = setup
        bad = list(proof.vector)
        bad[0] = (bad[0] + 1) % gold.p
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"ww"), VectorOracle(gold, bad), sol.x, sol.y
        )
        assert not result.accepted

    def test_wrong_h_rejected(self, setup, gold):
        """A correct z with a doctored h still fails the divisibility test."""
        qap, sol, proof = setup
        bad = list(proof.vector)
        bad[qap.n_prime] = (bad[qap.n_prime] + 1) % gold.p
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"wh"), VectorOracle(gold, bad), sol.x, sol.y
        )
        assert not result.accepted

    def test_zero_oracle_rejected(self, setup, gold):
        """The all-zeros linear function is linear but unsatisfying."""
        qap, sol, _ = setup
        zero = VectorOracle(gold, [0] * qap.proof_vector_length)
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"z"), zero, sol.x, sol.y
        )
        assert not result.accepted


class TestCheckAnswers:
    def test_answer_count_validated(self, setup, gold):
        qap, sol, _ = setup
        schedule = zaatar.generate_schedule(qap, PARAMS, FieldPRG(gold, b"s"))
        with pytest.raises(ValueError):
            zaatar.check_answers(schedule, [0] * (schedule.num_queries - 1), sol.x, sol.y)


class _CollidingTauPRG(FieldPRG):
    """A FieldPRG whose first τ draws are forced onto interpolation
    points.  ``next_nonzero`` is only used for τ in schedule
    generation, so forcing it exercises exactly the collision-retry
    path; all other draws delegate to the genuine stream."""

    def __init__(self, field, seed, forced):
        super().__init__(field, seed)
        self.forced = list(forced)
        self.tau_draws = 0

    def next_nonzero(self):
        self.tau_draws += 1
        if self.forced:
            return self.forced.pop(0)
        return super().next_nonzero()


class TestTauCollisionFallback:
    """τ landing on an interpolation point must be retried, not crash
    the verifier and not corrupt the schedule (§A.1: τ is rejected
    with probability ~ |C|/|F|)."""

    @pytest.mark.parametrize("mode", ["arithmetic", "roots"])
    def test_schedule_survives_forced_collision(self, sumsq_program, gold, mode):
        qap = build_qap(sumsq_program.quadratic, mode=mode)
        # σ contains 1 in both modes (σ_1 = 1 arithmetic, ω⁰ = 1 roots),
        # and arithmetic mode also interpolates through every σ_j = j.
        collisions = [1, 2 % gold.p] if mode == "arithmetic" else [1]
        for tau in collisions:
            assert tau in qap.prover_points
        prg = _CollidingTauPRG(gold, b"collide", collisions)
        schedule = zaatar.generate_schedule(qap, PARAMS, prg)
        # every forced collision burned one draw, then a clean τ was found
        assert prg.tau_draws >= len(collisions) + 1
        for rep in schedule.repetitions:
            assert rep.circuit.tau not in qap.prover_points

    @pytest.mark.parametrize("mode", ["arithmetic", "roots"])
    def test_query_round_accepts_after_collision(self, sumsq_program, gold, mode):
        """The full PCP round on a schedule that hit the fallback still
        accepts an honest proof."""
        qap = build_qap(sumsq_program.quadratic, mode=mode)
        sol = sumsq_program.solve([2, 3, 4])
        proof = build_proof_vector(qap, sol.quadratic_witness)
        prg = _CollidingTauPRG(gold, b"collide-e2e", [1])
        result = zaatar.run_pcp(
            qap, PARAMS, prg, VectorOracle(gold, proof.vector), sol.x, sol.y
        )
        assert result.accepted
        assert prg.forced == []  # the collision really was consumed

    def test_direct_circuit_queries_raise_on_collision(self, sumsq_program, gold):
        """The underlying primitive refuses a colliding τ loudly — the
        retry lives in generate_schedule, not in silence below it."""
        from repro.qap import circuit_queries

        for mode in ("arithmetic", "roots"):
            qap = build_qap(sumsq_program.quadratic, mode=mode)
            with pytest.raises(ValueError, match="collides"):
                circuit_queries(qap, 1)
