"""Tests for the multiprocess distributed prover."""

import time

import pytest

from repro.argument import (
    ArgumentConfig,
    RetryPolicy,
    TranscriptError,
    WorkerPool,
    ZaatarArgument,
    record_batch,
    run_parallel_batch,
)
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


def _wait_for_stop(conn):
    """A pool target that exits on the ``None`` stop signal or on EOF."""
    try:
        while conn.recv() is not None:
            pass
    except EOFError:
        pass


class TestParallelBatch:
    def test_results_match_serial(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        batch = [[i, i + 1, i + 2] for i in range(6)]
        serial = arg.run_batch(batch)
        parallel = run_parallel_batch(arg, batch, num_workers=3)
        assert parallel.result.all_accepted
        assert [r.output_values for r in parallel.result.instances] == [
            r.output_values for r in serial.instances
        ]

    def test_single_worker_path(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = run_parallel_batch(arg, [[1, 2, 3]], num_workers=1)
        assert result.result.all_accepted
        assert result.num_workers == 1

    def test_wall_clock_recorded(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = run_parallel_batch(arg, [[1, 2, 3], [2, 3, 4]], num_workers=2)
        assert result.wall_seconds > 0

    def test_prover_stats_survive_pickling(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = run_parallel_batch(arg, [[1, 2, 3]], num_workers=2)
        stats = result.result.stats.mean_prover()
        assert stats.e2e > 0


class TestFailureIsolation:
    """A bad instance must not abort the batch or leak telemetry state:
    it becomes a structured ``failed[code]`` outcome and the run span is
    closed."""

    def test_bad_arity_is_structured_failure(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        # wrong input arity -> solve raises inside the fan-out; the
        # engine classifies it instead of letting it escape
        result = run_parallel_batch(arg, [[1, 2]], num_workers=1)
        (instance,) = result.result.instances
        assert not instance.ok
        assert instance.error_code == "bad-request"
        assert instance.attempts == 1  # deterministic failures fail fast

    def test_bad_instance_does_not_poison_batch_multiprocess(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = run_parallel_batch(
            arg, [[1, 2], [1, 2, 3], [2, 3, 4]], num_workers=2
        )
        by_index = {r.index: r for r in result.result.instances}
        assert not by_index[0].ok and by_index[0].error_code == "bad-request"
        assert by_index[1].ok and by_index[1].accepted
        assert by_index[2].ok and by_index[2].accepted
        assert result.result.num_failed == 1

    def test_failure_summary(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        result = run_parallel_batch(arg, [[1, 2], [1, 2, 3]], num_workers=1)
        summary = result.result.failures
        assert summary.total == 1
        assert summary.by_code == {"bad-request": [0]}
        assert "bad-request" in str(summary)

    def test_run_span_closed_on_failure(self, sumsq_program):
        from repro import telemetry

        arg = ZaatarArgument(sumsq_program, FAST)
        tracer = telemetry.enable()
        try:
            result = run_parallel_batch(arg, [[1, 2]], num_workers=1)
            assert result.result.num_failed == 1
            # the span stack is balanced: a fresh span lands at the root,
            # not under a dangling argument.run_parallel_batch
            with telemetry.span("probe"):
                pass
        finally:
            telemetry.disable()
        by_name = {s.name: s for s in tracer.spans}
        assert "argument.run_parallel_batch" in by_name
        assert by_name["probe"].parent_id is None

    def test_subsequent_batch_still_works(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        failed = run_parallel_batch(arg, [[1, 2]], num_workers=1)
        assert failed.result.num_failed == 1
        result = run_parallel_batch(arg, [[1, 2, 3]], num_workers=1)
        assert result.result.all_accepted


class TestRunBatchIsTheEngine:
    """``run_batch`` and ``record_batch`` are the engine's one-worker
    case, so they agree with it outcome for outcome, failures included."""

    BATCH = [[1, 2, 3], [1, 2], [2, 3, 4]]  # wrong arity at index 1

    @staticmethod
    def _outcomes(result):
        return [
            (r.index, r.ok, r.accepted, r.commitment_ok, r.pcp_ok, r.output_values,
             r.error_code, r.error_message, r.attempts, r.record)
            for r in result.instances
        ]

    def test_run_batch_matches_the_one_worker_engine(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        inline = arg.run_batch(self.BATCH)
        engine = run_parallel_batch(
            arg, self.BATCH, num_workers=1, retry=RetryPolicy.none()
        ).result
        assert self._outcomes(inline) == self._outcomes(engine)
        assert [(r.ok, r.accepted) for r in inline.instances] == [
            (True, True), (False, False), (True, True)
        ]
        assert inline.instances[1].error_code == "bad-request"
        assert inline.instances[1].attempts == 1
        assert inline.instances[1].record is None
        assert inline.instances[0].record.claimed_outputs == [14]

    def test_record_batch_names_the_failed_instance(self, sumsq_program):
        with pytest.raises(TranscriptError, match=r"instance 1 failed \[bad-request\]"):
            record_batch(sumsq_program, self.BATCH, FAST)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_refused_before_setup(
        self, sumsq_program, tmp_path, monkeypatch, workers
    ):
        arg = ZaatarArgument(sumsq_program, FAST)

        def no_setup(*args, **kwargs):
            raise AssertionError("the verifier setup ran")

        monkeypatch.setattr(arg, "verifier_setup", no_setup)
        with pytest.raises(ValueError, match=f"at least 1, got {workers}"):
            run_parallel_batch(
                arg, [[1, 2, 3]], num_workers=workers, checkpoint=tmp_path / "ckpt"
            )
        assert not (tmp_path / "ckpt").exists()


class TestWorkerPool:
    def test_workers_exit_when_every_parent_end_closes(self):
        """A parent that dies closes every parent end of the pipes
        without sending ``None``; each worker must then read EOF and
        exit, which it cannot while it or a sibling still holds an
        inherited copy of a parent end."""
        pool = WorkerPool(_wait_for_stop, 2)
        workers = [pool.lease(timeout=5), pool.lease(timeout=5)]
        try:
            for worker in workers:
                worker.conn.close()
            deadline = time.monotonic() + 5
            for worker in workers:
                worker.process.join(timeout=max(deadline - time.monotonic(), 0))
            assert [w.process.exitcode for w in workers] == [0, 0]
        finally:
            for worker in workers:
                worker.process.kill()
                worker.process.join(timeout=5)
