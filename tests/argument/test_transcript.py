"""Tests for transcript record/replay (deterministic audit)."""

import dataclasses
import json

import pytest

from repro.argument import (
    ArgumentConfig,
    Transcript,
    TranscriptError,
    ZaatarArgument,
    record_batch,
    replay_transcript,
)
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


class TestRecordReplay:
    def test_honest_session_replays_accepted(self, gold, sumsq_program):
        transcript, ok = record_batch(sumsq_program, [[1, 2, 3], [4, 5, 6]], FAST)
        assert ok
        verdicts = replay_transcript(sumsq_program, transcript)
        assert verdicts == [True, True]

    def test_roundtrip_through_json(self, gold, sumsq_program):
        transcript, _ = record_batch(sumsq_program, [[1, 2, 3]], FAST)
        restored = Transcript.from_json(transcript.to_json())
        assert replay_transcript(sumsq_program, restored) == [True]

    def test_cheating_session_replays_rejected(self, gold, sumsq_program):
        """Record a session with a lying prover; the audit must agree
        with the original verdict."""
        transcript, ok = record_batch(sumsq_program, [[1, 2, 3]], FAST)
        assert ok
        # forge the claimed output post hoc
        transcript.instances[0].claimed_outputs[0] = (
            transcript.instances[0].claimed_outputs[0] + 1
        ) % gold.p
        assert replay_transcript(sumsq_program, transcript) == [False]

    def test_tampered_answers_detected_on_replay(self, gold, sumsq_program):
        transcript, _ = record_batch(sumsq_program, [[1, 2, 3]], FAST)
        transcript.instances[0].answers[0] = (
            transcript.instances[0].answers[0] + 1
        ) % gold.p
        assert replay_transcript(sumsq_program, transcript) == [False]

    def test_per_instance_verdicts(self, gold, sumsq_program):
        transcript, _ = record_batch(
            sumsq_program, [[1, 1, 1], [2, 2, 2], [3, 3, 3]], FAST
        )
        transcript.instances[1].claimed_outputs[0] += 1
        assert replay_transcript(sumsq_program, transcript) == [True, False, True]

    def test_seed_binds_the_replay(self, gold, sumsq_program):
        """Replaying under a different seed regenerates different
        verifier randomness: the recorded answers no longer verify."""
        transcript, _ = record_batch(sumsq_program, [[1, 2, 3]], FAST)
        transcript.config = dataclasses.replace(
            transcript.config, seed=b"some-other-seed"
        )
        assert replay_transcript(sumsq_program, transcript) == [False]


class TestValidation:
    def test_bad_json_rejected(self):
        with pytest.raises(TranscriptError):
            Transcript.from_json("{")
        with pytest.raises(TranscriptError):
            Transcript.from_json('{"format": "other"}')
        with pytest.raises(TranscriptError):
            Transcript.from_json(
                '{"format": "repro-transcript-v1", "seed": "zz"}'
            )

    def test_bad_params_rejected(self, sumsq_program):
        transcript, _ = record_batch(sumsq_program, [[1, 2, 3]], FAST)
        data = json.loads(transcript.to_json())
        data["params"]["rho"] = "many"
        with pytest.raises(TranscriptError, match="malformed transcript"):
            Transcript.from_json(json.dumps(data))

    def test_instance_without_commitment_rejected(self, sumsq_program):
        transcript, _ = record_batch(sumsq_program, [[1, 2, 3]], FAST)
        data = json.loads(transcript.to_json())
        del data["instances"][0]["commitment"]
        with pytest.raises(TranscriptError, match="'commitment'"):
            Transcript.from_json(json.dumps(data))

    def test_transcript_is_json_safe_for_large_fields(self, p128):
        from repro.compiler import compile_program

        def build(b):
            x = b.input()
            b.output(x * x + 1)

        prog = compile_program(p128, build)
        transcript, ok = record_batch(prog, [[3]], FAST)
        assert ok
        restored = Transcript.from_json(transcript.to_json())
        assert replay_transcript(prog, restored) == [True]
