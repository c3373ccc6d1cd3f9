"""Unit tests for the linear commitment (Commit + Multidecommit)."""

import pytest

from repro import telemetry
from repro.crypto import (
    CommitmentProver,
    CommitmentVerifier,
    FieldPRG,
    QueryBasis,
    group_for_field,
)
from repro.crypto.commitment import DecommitResponse


def run_commitment_round(verifier, prover, queries):
    """Drive one full Commit + Multidecommit exchange.

    Returns (consistency_ok, pcp_answers).  Callers still have to run
    the PCP checks on the answers; this only establishes that the
    answers came from *some* fixed linear function.
    """
    request = verifier.commit_request()
    commitment = prover.commit(request)
    challenge = verifier.decommit_challenge(queries)
    response = prover.answer(challenge)
    ok = verifier.verify(commitment, response)
    return ok, response.answers[:-1]


@pytest.fixture
def parties(gold, rng):
    group = group_for_field(gold)
    n = 24
    u = [rng.randrange(gold.p) for _ in range(n)]

    def make(seed=b"commit-test"):
        verifier = CommitmentVerifier(gold, group, n, FieldPRG(gold, seed))
        prover = CommitmentProver(gold, group, u)
        return verifier, prover, u, n

    return make


class TestHonestRun:
    def test_accepts_and_returns_answers(self, gold, parties, rng):
        verifier, prover, u, n = parties()
        queries = [[rng.randrange(gold.p) for _ in range(n)] for _ in range(3)]
        ok, answers = run_commitment_round(verifier, prover, QueryBasis.flat(gold, queries))
        assert ok
        assert answers == [gold.inner_product(q, u) for q in queries]

    def test_batch_reuse(self, gold, parties, rng):
        """One commit request + one challenge, many instances verified."""
        verifier, _, u, n = parties()
        group = verifier.group
        request = verifier.commit_request()
        queries = [[rng.randrange(gold.p) for _ in range(n)] for _ in range(2)]
        challenge = verifier.decommit_challenge(QueryBasis.flat(gold, queries))
        for shift in range(3):  # three different proof vectors
            vec = [(v + shift) % gold.p for v in u]
            prover = CommitmentProver(gold, group, vec)
            commitment = prover.commit(request)
            response = prover.answer(challenge)
            assert verifier.verify(commitment, response)

    def test_op_counts(self, gold, parties, rng):
        verifier, prover, u, n = parties()
        queries = [[rng.randrange(gold.p) for _ in range(n)]]
        with telemetry.session() as tracer:
            run_commitment_round(verifier, prover, QueryBasis.flat(gold, queries))
        totals = tracer.total_counters()
        assert totals["crypto.encryptions"] == n       # e per vector entry
        assert totals["crypto.decryptions"] == 1       # d per instance
        nonzero_u = sum(1 for v in u if v)
        assert totals["crypto.ciphertext_ops"] == nonzero_u  # h per entry


class TestCheatingProvers:
    def test_wrong_answer_rejected(self, gold, parties, rng):
        class LyingProver(CommitmentProver):
            def answer(self, challenge):
                response = super().answer(challenge)
                response.answers[0] = (response.answers[0] + 1) % gold.p
                return response

        verifier, _, u, n = parties()
        prover = LyingProver(gold, verifier.group, u)
        queries = [[rng.randrange(gold.p) for _ in range(n)] for _ in range(2)]
        request = verifier.commit_request()
        commitment = prover.commit(request)
        challenge = verifier.decommit_challenge(QueryBasis.flat(gold, queries))
        assert not verifier.verify(commitment, prover.answer(challenge))

    def test_tampered_consistency_answer_rejected(self, gold, parties, rng):
        verifier, prover, u, n = parties()
        queries = [[rng.randrange(gold.p) for _ in range(n)]]
        request = verifier.commit_request()
        commitment = prover.commit(request)
        challenge = verifier.decommit_challenge(QueryBasis.flat(gold, queries))
        response = prover.answer(challenge)
        response.answers[-1] = (response.answers[-1] + 1) % gold.p
        assert not verifier.verify(commitment, response)

    def test_switched_vector_rejected(self, gold, parties, rng):
        """Prover commits to u but answers with a different vector."""
        verifier, prover, u, n = parties()
        queries = [[rng.randrange(gold.p) for _ in range(n)]]
        request = verifier.commit_request()
        commitment = prover.commit(request)
        other = CommitmentProver(gold, verifier.group, [(v + 1) % gold.p for v in u])
        challenge = verifier.decommit_challenge(QueryBasis.flat(gold, queries))
        assert not verifier.verify(commitment, other.answer(challenge))


class TestValidation:
    def test_group_field_mismatch(self, gold, p128):
        from repro.crypto import GROUP_P128_512

        with pytest.raises(ValueError):
            CommitmentVerifier(gold, GROUP_P128_512, 4, FieldPRG(gold, b"x"))

    def test_phase_order_enforced(self, gold, parties):
        verifier, prover, u, n = parties()
        with pytest.raises(RuntimeError):
            verifier.decommit_challenge(QueryBasis.flat(gold, [[0] * n]))
        request = verifier.commit_request()
        commitment = prover.commit(request)
        with pytest.raises(RuntimeError):
            verifier.verify(commitment, DecommitResponse([0]))

    def test_query_length_checked(self, gold, parties):
        verifier, _, _, n = parties()
        verifier.commit_request()
        with pytest.raises(ValueError):
            verifier.decommit_challenge(QueryBasis.flat(gold, [[0] * (n - 1)]))

    def test_query_length_error_names_the_length(self, gold, parties):
        """t is built in one pass over every query, after each query's
        length is checked, so a short last query is named, not hidden
        behind a length mismatch of the whole matrix."""
        verifier, _, _, n = parties()
        verifier.commit_request()
        with pytest.raises(ValueError, match=f"query length {n + 1} != vector length {n}"):
            verifier.decommit_challenge(QueryBasis.flat(gold, [[0] * n, [1] * n, [0] * (n + 1)]))

    def test_commit_length_checked(self, gold, parties):
        verifier, prover, _, _ = parties()
        request = verifier.commit_request()
        request.ciphertexts.pop()
        with pytest.raises(ValueError):
            prover.commit(request)
