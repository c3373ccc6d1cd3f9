"""Tests for batch checkpoint/resume.

The core claim: a killed run, resumed from its checkpoint, produces a
transcript *bit-identical* to an uninterrupted run — every verifier
draw derives from ``config.seed`` and every prover message is a pure
function of (program, seed, inputs).  These tests abort runs with a
checkpoint seam instead of real kills, so they are deterministic and
fast, and they cover the τ-collision regeneration path from PR 2.
"""

import json

import pytest

from repro.argument import (
    ArgumentConfig,
    BatchCheckpoint,
    CheckpointError,
    ZaatarArgument,
    record_batch,
    replay_transcript,
    run_parallel_batch,
    transcript_from_checkpoint,
)
from repro.argument.checkpoint import CHECKPOINT_FILENAME, CHECKPOINT_FORMAT
from repro.crypto import FieldPRG
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
BATCH = [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]]


class _Abort(BaseException):
    """Raised by the seam below; BaseException so nothing classifies it."""


class _AbortingCheckpoint(BatchCheckpoint):
    """Kills the driving run after N durably-written records — the
    deterministic stand-in for `kill -9` of the engine process."""

    def __init__(self, directory, after: int):
        super().__init__(directory)
        self.after = after
        self.written = 0

    def append(self, record):
        if self.written >= self.after:
            raise _Abort()
        super().append(record)
        self.written += 1


class TestCheckpointFile:
    def test_fresh_run_writes_header_and_records(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        assert result.result.all_accepted
        assert result.resumed == 0
        lines = (tmp_path / CHECKPOINT_FILENAME).read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["batch_size"] == len(BATCH)
        records = [json.loads(l) for l in lines[1:]]
        assert sorted(r["index"] for r in records) == [0, 1, 2, 3]
        assert all(r["ok"] and "commitment" in r and "answers" in r for r in records)

    def test_completed_run_resumes_everything(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        first = run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        second = run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        assert second.resumed == len(BATCH)
        assert second.result.all_accepted
        assert [r.output_values for r in second.result.instances] == [
            r.output_values for r in first.result.instances
        ]


class TestResumeBitIdentity:
    def test_aborted_run_resumes_bit_identical(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        seam = _AbortingCheckpoint(tmp_path, after=2)
        with pytest.raises(_Abort):
            run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=seam)

        resumed = run_parallel_batch(
            arg, BATCH, num_workers=1, checkpoint=tmp_path
        )
        assert resumed.resumed == 2
        assert resumed.result.all_accepted

        header, records = BatchCheckpoint(tmp_path).load()
        stitched = transcript_from_checkpoint(header, records)
        reference, all_ok = record_batch(sumsq_program, BATCH, FAST)
        assert all_ok
        assert stitched.to_json() == reference.to_json()
        assert all(replay_transcript(sumsq_program, stitched))

    def test_resume_through_pool_matches_serial(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        seam = _AbortingCheckpoint(tmp_path, after=1)
        with pytest.raises(_Abort):
            run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=seam)
        resumed = run_parallel_batch(
            arg, BATCH, num_workers=2, checkpoint=tmp_path
        )
        assert resumed.resumed == 1
        header, records = BatchCheckpoint(tmp_path).load()
        stitched = transcript_from_checkpoint(header, records)
        reference, _ = record_batch(sumsq_program, BATCH, FAST)
        assert stitched.to_json() == reference.to_json()

    def test_tau_collision_regenerated_across_resume(
        self, sumsq_program, tmp_path, monkeypatch
    ):
        """Resume regenerates the schedule from the seed even when the
        first τ draw collides with an interpolation point (the PR-2
        retry path): both halves of the run, and the uninterrupted
        reference, must walk the identical draw sequence."""

        class _CollidingQueriesPRG(FieldPRG):
            def __init__(self, field, seed, domain=""):
                super().__init__(field, seed, domain)
                # σ_1 = 1 is an interpolation point in arithmetic mode,
                # so forcing the first τ draw onto it hits the retry
                self._forced = [1] if domain == "queries" else []

            def next_nonzero(self):
                if self._forced:
                    return self._forced.pop(0)
                return super().next_nonzero()

        monkeypatch.setattr(
            "repro.argument.protocol.FieldPRG", _CollidingQueriesPRG
        )
        arg = ZaatarArgument(sumsq_program, FAST)
        assert 1 in arg.qap.prover_points  # the collision is real
        seam = _AbortingCheckpoint(tmp_path, after=2)
        with pytest.raises(_Abort):
            run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=seam)
        resumed = run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        assert resumed.resumed == 2
        assert resumed.result.all_accepted
        header, records = BatchCheckpoint(tmp_path).load()
        stitched = transcript_from_checkpoint(header, records)
        reference, all_ok = record_batch(sumsq_program, BATCH, FAST)
        assert all_ok
        assert stitched.to_json() == reference.to_json()


class TestHeaderValidation:
    def test_seed_mismatch_refused(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        other = ZaatarArgument(
            sumsq_program,
            ArgumentConfig(params=FAST.params, seed=b"a-different-run"),
        )
        with pytest.raises(CheckpointError, match="seed mismatch"):
            run_parallel_batch(other, BATCH, num_workers=1, checkpoint=tmp_path)

    def test_batch_mismatch_refused(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        with pytest.raises(CheckpointError, match="batch_digest mismatch"):
            run_parallel_batch(
                arg, [[9, 9, 9]], num_workers=1, checkpoint=tmp_path
            )

    def test_headerless_file_refused(self, sumsq_program, tmp_path):
        (tmp_path / CHECKPOINT_FILENAME).write_text(
            json.dumps({"type": "instance", "index": 0, "ok": False}) + "\n"
        )
        arg = ZaatarArgument(sumsq_program, FAST)
        with pytest.raises(CheckpointError, match="no header"):
            run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)


    def test_v1_checkpoint_refused(self, sumsq_program, tmp_path):
        """A v1 file stored x/y where v2 stores the transcript's own
        instance record; resuming it or transcribing it is refused."""
        arg = ZaatarArgument(sumsq_program, FAST)
        run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        path = tmp_path / CHECKPOINT_FILENAME
        header, *records = [json.loads(line) for line in path.read_text().splitlines()]
        header["format"] = "repro-batch-checkpoint-v1"
        for record in records:
            record["x"] = record.pop("inputs")
            record["y"] = record.pop("outputs")
        path.write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
        with pytest.raises(CheckpointError, match="format mismatch"):
            run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        with pytest.raises(CheckpointError, match="checkpoint-v1"):
            transcript_from_checkpoint(*BatchCheckpoint(tmp_path).load())

    def test_malformed_header_params_refused(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        header, records = BatchCheckpoint(tmp_path).load()
        del header["params"]["rho"]
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            transcript_from_checkpoint(header, records)


class TestCrashTolerance:
    def test_torn_tail_is_dropped(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        path = tmp_path / CHECKPOINT_FILENAME
        lines = path.read_text().splitlines()
        # simulate a kill mid-append: the last record is half-written
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        _, records = BatchCheckpoint(tmp_path).load()
        assert len(records) == len(BATCH) - 1
        resumed = run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        assert resumed.resumed == len(BATCH) - 1  # torn instance re-proved
        assert resumed.result.all_accepted

    def test_midfile_corruption_refused(self, sumsq_program, tmp_path):
        """Satellite regression: torn-tail tolerance must not extend to
        a malformed record *followed by valid ones* — that is data
        corruption, not a crash artifact, and silently dropping it
        would re-prove an instance the file claims is done."""
        arg = ZaatarArgument(sumsq_program, FAST)
        run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=tmp_path)
        path = tmp_path / CHECKPOINT_FILENAME
        lines = path.read_text().splitlines()
        corrupt_at = len(lines) - 2  # a record with valid records after it
        lines[corrupt_at] = lines[corrupt_at][: len(lines[corrupt_at]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=f"corrupt record {corrupt_at}"):
            BatchCheckpoint(tmp_path).load()

    def test_failed_instance_is_recorded_and_restored(self, sumsq_program, tmp_path):
        arg = ZaatarArgument(sumsq_program, FAST)
        batch = [[1, 2], [1, 2, 3]]  # wrong arity at index 0
        first = run_parallel_batch(arg, batch, num_workers=1, checkpoint=tmp_path)
        assert first.result.failures.by_code == {"bad-request": [0]}
        second = run_parallel_batch(arg, batch, num_workers=1, checkpoint=tmp_path)
        assert second.resumed == 2  # the failure resumes too, not re-proved
        assert second.result.failures.by_code == {"bad-request": [0]}
        header, records = BatchCheckpoint(tmp_path).load()
        with pytest.raises(CheckpointError, match="failed"):
            transcript_from_checkpoint(header, records)
