"""Tests for the multiprocess distributed prover."""

from repro.argument import ArgumentConfig, ZaatarArgument, run_parallel_batch
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


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
