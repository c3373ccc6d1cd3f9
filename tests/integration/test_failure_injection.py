"""Failure injection: malformed and corrupted protocol data.

A production verifier faces not just clever adversaries but broken
ones — truncated messages, bit flips in ciphertexts, stale schedules.
Every such condition must surface as a clean rejection or a typed
error, never a silent accept or an unhandled crash deep in the stack.
"""

import pytest

from repro.argument import (
    ArgumentConfig,
    ZaatarArgument,
    decode_ciphertexts,
    decode_elements,
    encode_ciphertexts,
    encode_elements,
)
from repro.crypto import FieldPRG, group_for_field
from repro.crypto.commitment import DecommitResponse
from repro.crypto.elgamal import ElGamalCiphertext
from repro.pcp import SoundnessParams
from repro.pcp import zaatar as zaatar_pcp

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


@pytest.fixture(scope="module")
def argument(sumsq_program):
    return ZaatarArgument(sumsq_program, FAST)


@pytest.fixture(scope="module")
def honest_run(argument):
    setup = argument.verifier_setup()
    _, _, request, challenge = setup
    (record,) = argument.prove_batch([[1, 2, 3]], request, challenge)
    response = DecommitResponse(record.answers)
    return setup, record, record.commitment, response, record.answers


class TestCorruptedCommitment:
    def test_bitflipped_ciphertext_rejected(self, gold, argument, honest_run):
        setup, record, commitment, response, _ = honest_run
        _, verifier, _, _ = setup
        flipped = ElGamalCiphertext(commitment.c1 ^ 1, commitment.c2)
        assert not verifier.verify(flipped, response)

    def test_swapped_components_rejected(self, gold, argument, honest_run):
        setup, record, commitment, response, _ = honest_run
        _, verifier, _, _ = setup
        swapped = ElGamalCiphertext(commitment.c2, commitment.c1)
        assert not verifier.verify(swapped, response)

    def test_identity_ciphertext_rejected(self, gold, argument, honest_run):
        setup, record, commitment, response, _ = honest_run
        _, verifier, _, _ = setup
        assert not verifier.verify(ElGamalCiphertext(1, 1), response)


class TestMalformedAnswers:
    def test_truncated_answers_raise(self, gold, argument, honest_run):
        setup, record, commitment, response, answers = honest_run
        schedule, verifier, _, _ = setup
        with pytest.raises(ValueError):
            verifier.verify(commitment, DecommitResponse(answers[:3]))

    def test_truncated_pcp_answers_raise(self, gold, argument, honest_run):
        setup, record, _, _, answers = honest_run
        schedule = setup[0]
        with pytest.raises(ValueError):
            zaatar_pcp.check_answers(
                schedule,
                answers[: schedule.num_queries - 1],
                record.input_values,
                record.claimed_outputs,
            )

    def test_all_zero_answers_rejected(self, gold, argument, honest_run):
        setup, record, commitment, _, answers = honest_run
        schedule, verifier, _, _ = setup
        zeros = DecommitResponse([0] * len(answers))
        # either the commitment check or the PCP must reject
        commit_ok = verifier.verify(commitment, zeros)
        pcp_ok = zaatar_pcp.check_answers(
            schedule, zeros.answers[:-1], record.input_values, record.claimed_outputs
        ).accepted
        assert not (commit_ok and pcp_ok)


class TestWireCorruption:
    def test_flipped_byte_in_answers_detected(self, gold, argument, honest_run):
        setup, record, commitment, response, answers = honest_run
        schedule, verifier, _, _ = setup
        data = bytearray(encode_elements(gold, response.answers))
        data[5] ^= 0xFF
        try:
            corrupted = decode_elements(gold, bytes(data))
        except ValueError:
            return  # decoder caught it — acceptable outcome
        commit_ok = verifier.verify(commitment, DecommitResponse(corrupted))
        assert not commit_ok

    def test_flipped_byte_in_ciphertext_detected(self, gold, argument, honest_run):
        setup, _, commitment, response, _ = honest_run
        _, verifier, _, _ = setup
        group = argument.config.group(gold)
        data = bytearray(encode_ciphertexts(group, [commitment]))
        data[0] ^= 0x01
        try:
            corrupted = decode_ciphertexts(group, bytes(data))[0]
        except ValueError:
            return
        assert not verifier.verify(corrupted, response)


class TestStaleSchedule:
    def test_answers_from_other_schedule_rejected(self, gold, sumsq_program):
        """Answers computed against one query schedule must not verify
        against a schedule generated from a different seed."""
        from repro.qap import build_proof_vector, build_qap

        qap = build_qap(sumsq_program.quadratic)
        sol = sumsq_program.solve([1, 2, 3])
        proof = build_proof_vector(qap, sol.quadratic_witness)
        params = SoundnessParams(rho_lin=2, rho=1)
        s1 = zaatar_pcp.generate_schedule(qap, params, FieldPRG(gold, b"seed-one", "q"))
        s2 = zaatar_pcp.generate_schedule(qap, params, FieldPRG(gold, b"seed-two", "q"))
        answers_for_s1 = [gold.inner_product(q, proof.vector) for q in s1.queries()]
        assert zaatar_pcp.check_answers(s1, answers_for_s1, sol.x, sol.y).accepted
        assert not zaatar_pcp.check_answers(s2, answers_for_s1, sol.x, sol.y).accepted


class TestInputValidation:
    def test_batch_with_wrong_arity_is_isolated(self, argument):
        # program takes 3 inputs; the bad instance becomes a structured
        # failure instead of aborting the batch
        result = argument.run_batch([[1, 2], [1, 2, 3]])
        bad, good = result.instances
        assert not bad.ok
        assert bad.error_code == "bad-request"
        assert good.ok and good.accepted
        assert result.num_failed == 1
        assert result.failures.by_code == {"bad-request": [0]}
