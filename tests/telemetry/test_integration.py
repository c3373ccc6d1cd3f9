"""End-to-end telemetry: real argument runs produce the documented trace.

The acceptance bar for the telemetry refactor: stats derived *from the
trace* must match the legacy timer-accumulated stats exactly, and the
span taxonomy must carry the paper's phase names (Figure 5 prover
columns, Figure 7 verifier split) with op counters attached.
"""

import pytest

from repro import telemetry
from repro.argument import (
    ArgumentConfig,
    BatchStats,
    ProverServer,
    ZaatarArgument,
    ZaatarProver,
    verify_remote,
)
from repro.argument.parallel import run_parallel_batch
from repro.argument.stats import ProverStats
from repro.compiler import compile_program
from repro.field import GOLDILOCKS, PrimeField, counting_field
from repro.pcp import SoundnessParams
from repro.telemetry import Trace

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))

PROVER_PHASES = (
    "prover.solve_constraints",
    "prover.construct_u",
    "prover.crypto_ops",
    "prover.answer_queries",
)


@pytest.fixture(scope="module")
def counted_program():
    """The sum-of-squares program compiled over a counting field."""
    from tests.conftest import build_sum_of_squares

    field = counting_field(PrimeField(GOLDILOCKS, check_prime=False))
    return compile_program(field, build_sum_of_squares(), name="sumsq")


class TestTraceShape:
    def test_span_taxonomy_and_counters(self, counted_program):
        """The prover's taxonomy: per-instance solves, one shared
        construct_u, the commitments under prover.instance, then the
        answers, each tagged with its instance."""
        with telemetry.session() as tracer:
            result = ZaatarArgument(counted_program, FAST).run_batch([[1, 2, 3], [4, 5, 6]])
        assert result.all_accepted
        trace = Trace.from_tracer(tracer)

        (batch_span,) = trace.find("prover.batch")
        assert batch_span.attrs["size"] == 2
        batch_names = [s.name for s in trace.subtree(batch_span)]

        solves = trace.find("prover.solve_constraints")
        assert sorted(s.attrs["index"] for s in solves) == [0, 1]
        (construct,) = trace.find("prover.construct_u")
        assert construct.attrs["batch_size"] == 2
        assert construct.attrs["indices"] == [0, 1]
        assert "prover.construct_u" in batch_names

        instances = trace.find("prover.instance")
        assert [s.attrs["index"] for s in instances] == [0, 1]
        for inst in instances:
            names = [s.name for s in trace.subtree(inst)]
            assert names == ["prover.instance", "prover.crypto_ops"]
        # every answer comes after every commitment, outside the instances
        answers = trace.find("prover.answer_queries")
        assert [s.attrs["index"] for s in answers] == [0, 1]
        assert all(s.parent_id == batch_span.span_id for s in answers)
        order = [s.name for s in trace.subtree(batch_span)]
        assert order.index("prover.answer_queries") > max(
            i for i, name in enumerate(order) if name == "prover.crypto_ops"
        )

        assert len(trace.find("verifier.query_setup")) == 1
        assert len(trace.find("verifier.per_instance")) == 2

        totals = trace.total_counters()
        assert totals.get("field.mul", 0) > 0
        assert totals.get("crypto.encryptions", 0) > 0
        assert totals.get("poly.interpolations", 0) > 0

    def test_single_instance_taxonomy(self, counted_program):
        """B = 1 runs the same layout as any batch: one prover.batch
        span holding all four prover phases, each exactly once."""
        with telemetry.session() as tracer:
            result = ZaatarArgument(counted_program, FAST).run_batch([[1, 2, 3]])
        assert result.all_accepted
        trace = Trace.from_tracer(tracer)
        (batch_span,) = trace.find("prover.batch")
        assert batch_span.attrs["size"] == 1
        names = [s.name for s in trace.subtree(batch_span)]
        for phase in PROVER_PHASES:
            assert names.count(phase) == 1, f"{phase} in {names}"
        (solve,) = trace.find("prover.solve_constraints")
        assert solve.attrs["index"] == 0
        (construct,) = trace.find("prover.construct_u")
        assert construct.attrs["indices"] == [0]
        (inst,) = trace.find("prover.instance")
        assert inst.attrs["index"] == 0
        inst_names = {s.name for s in trace.subtree(inst)}
        assert inst_names == {"prover.instance", "prover.crypto_ops"}
        (answer,) = trace.find("prover.answer_queries")
        assert answer.attrs["index"] == 0

    def test_field_counters_attributed_to_prover_phases(self, counted_program):
        with telemetry.session() as tracer:
            ZaatarArgument(counted_program, FAST).run_batch([[1, 2, 3]])
        trace = Trace.from_tracer(tracer)
        answer = trace.find("prover.answer_queries")[0]
        # answering queries is inner products over the proof vector
        sub_counters = {}
        for s in trace.subtree(answer):
            for k, v in s.counters.items():
                sub_counters[k] = sub_counters.get(k, 0) + v
        assert sub_counters.get("field.mul", 0) > 0


def _resumed_inline_run(argument, rows, directory):
    """A 6-instance inline run whose checkpoint already holds instances
    0–2, so the run re-proves 3–5 only."""
    from repro.argument.checkpoint import CHECKPOINT_FILENAME

    run_parallel_batch(argument, rows, num_workers=1, checkpoint=directory)
    path = directory / CHECKPOINT_FILENAME
    header_and_three = path.read_text().splitlines()[:4]
    path.write_text("\n".join(header_and_three) + "\n")
    with telemetry.session() as tracer:
        pr = run_parallel_batch(argument, rows, num_workers=1, checkpoint=directory)
    assert pr.resumed == 3
    return pr.result, tracer, [3, 4, 5]


class _PassThroughSteps(ZaatarProver):
    def commit(self, request, batch, **kwargs):
        return super().commit(request, batch, **kwargs)

    def answer(self, challenge):
        return super().answer(challenge)


class _PassThroughProver(ZaatarArgument):
    prover_type = _PassThroughSteps


class TestStatsEquivalence:
    def test_trace_derived_stats_match_legacy_exactly(self, counted_program, tmp_path):
        """BatchStats.from_trace == the timer-accumulated stats, exactly,
        for every way a batch reaches the prover."""
        from repro.argument.adversary import AdversarialProver

        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        six = rows + [[2, 3, 4], [5, 6, 7], [8, 9, 1]]

        def traced(run, proved):
            with telemetry.session() as tracer:
                result = run()
            return result, tracer, proved

        honest = ZaatarArgument(counted_program, FAST)
        cases = {
            "B=1": lambda: traced(lambda: honest.run_batch(rows[:1]), [0]),
            "B=3": lambda: traced(lambda: honest.run_batch(rows), [0, 1, 2]),
            "resumed inline": lambda: _resumed_inline_run(honest, six, tmp_path),
            "2 workers": lambda: traced(
                lambda: run_parallel_batch(honest, rows, num_workers=2).result,
                [0, 1, 2],
            ),
            "adversary": lambda: traced(
                lambda: AdversarialProver(
                    counted_program, FAST, mutation="wrong-h"
                ).run_batch(rows),
                [0, 1, 2],
            ),
            # a prover that overrides both steps and calls the honest ones
            "override calling super": lambda: traced(
                lambda: _PassThroughProver(counted_program, FAST).run_batch(rows),
                [0, 1, 2],
            ),
        }
        for case, run in cases.items():
            result, tracer, proved = run()
            derived = BatchStats.from_trace(Trace.from_tracer(tracer))
            assert derived.batch_size == len(proved), case
            legacy = [result.stats.prover_per_instance[i] for i in proved]
            for got, want in zip(derived.prover_per_instance, legacy):
                for phase in ProverStats.PHASES:
                    assert getattr(got, phase) == getattr(want, phase), (case, phase)
                assert got.wall == want.wall, case
                assert got.e2e == want.e2e, case
            verifier = result.stats.verifier
            assert derived.verifier.query_setup == verifier.query_setup, case
            assert derived.verifier.per_instance == verifier.per_instance, case

    def test_phase_timer_records_wall_and_cpu(self, counted_program):
        """Satellite (a): both clocks recorded, wall >= 0, keys match."""
        with telemetry.session():
            result = ZaatarArgument(counted_program, FAST).run_batch([[1, 2, 3]])
        stats = result.stats.prover_per_instance[0]
        assert set(stats.wall) == set(stats.PHASES)
        for phase in stats.PHASES:
            assert stats.wall[phase] >= 0
        # wall can't be (meaningfully) below CPU for single-threaded work
        assert stats.wall_e2e >= stats.e2e * 0.5


class TestParallelAdoption:
    def test_worker_spans_adopted_into_parent_trace(self, counted_program):
        """Each forked worker proves a one-row batch; its prover.batch
        subtree comes home under the run span with all four phases."""
        with telemetry.session() as tracer:
            pr = run_parallel_batch(
                ZaatarArgument(counted_program, FAST),
                [[1, 2, 3], [4, 5, 6]],
                num_workers=2,
            )
        assert pr.result.all_accepted
        trace = Trace.from_tracer(tracer)
        run = trace.find("argument.run_parallel_batch")[0]
        batches = trace.find("prover.batch")
        assert len(batches) == 2
        assert len(trace.find("prover.instance")) == 2
        for batch in batches:
            assert batch.parent_id == run.span_id
            assert batch.attrs["size"] == 1
            names = [s.name for s in trace.subtree(batch)]
            for phase in PROVER_PHASES:
                assert phase in names

    def test_inline_worker_records_directly(self, counted_program):
        with telemetry.session() as tracer:
            pr = run_parallel_batch(
                ZaatarArgument(counted_program, FAST), [[1, 2, 3]], num_workers=1
            )
        assert pr.result.all_accepted
        assert len(Trace.from_tracer(tracer).find("prover.instance")) == 1


class TestWireCounters:
    def test_loopback_session_counts_bytes_both_ways(self, counted_program):
        with telemetry.session() as tracer:
            with ProverServer(counted_program, FAST) as server:
                result = verify_remote(
                    counted_program, [[1, 2, 3]], server.address, FAST
                )
        assert result.all_accepted
        totals = Trace.from_tracer(tracer).total_counters()
        # client + server both count: totals are symmetric
        assert totals["net.bytes_sent"] == totals["net.bytes_received"]
        assert totals["net.bytes_sent"] > 0
        assert totals["net.frames_sent"] == totals["net.frames_received"]
        # the server ships its session span back in the answers frame
        # and the client adopts it under wire.verify_remote: one tree
        trace = Trace.from_tracer(tracer)
        session_spans = trace.find("wire.prover_session")
        assert len(session_spans) == 1
        remote = trace.find("wire.verify_remote")[0]
        assert session_spans[0].parent_id == remote.span_id
        assert session_spans[0].trace_id == tracer.trace_id

    def test_server_stats_and_metrics_counters_stay_in_sync(
        self, counted_program
    ):
        """Every server event ticks its registry counter and the trace
        counter of the same name prefixed ``net.`` at one point, so after
        any mix of ok and failed sessions a loopback trace and the
        registry agree exactly."""
        import time

        from repro.argument import ProtocolViolation, RetryPolicy

        other = compile_program(
            counted_program.field, lambda b: b.output(b.input() + 5)
        )
        with ProverServer(counted_program, FAST) as server:
            with telemetry.session() as tracer:
                result = verify_remote(
                    counted_program, [[1, 2, 3]], server.address, FAST
                )
                assert result.all_accepted
                with pytest.raises(ProtocolViolation):
                    verify_remote(
                        other, [[1]], server.address, FAST, retry=RetryPolicy.none()
                    )
                # the ok session retires just after its answers frame
                deadline = time.monotonic() + 5.0
                while (
                    not server.metrics.counter_value("sessions_ok")
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
        totals = tracer.total_counters()
        count = server.metrics.counter_value
        for key in (
            "sessions_started",
            "sessions_ok",
            "session_errors",
            "session_errors.unknown-program",
            "gateway.unknown_program",
        ):
            assert totals[f"net.{key}"] == count(key), key
        assert count("sessions_started") == 2
        assert count("sessions_ok") == 1
        assert count("session_errors") == 1


class TestGatewayTraces:
    def test_sharded_gateway_stitches_worker_spans(self, counted_program):
        """Prover phase spans recorded inside a shard *process* come
        back through the gateway and adopt into the client's trace as
        children of the session span — one tree across three processes."""
        from repro.argument import GatewayServer, ProgramRegistry

        registry = ProgramRegistry()
        registry.register(counted_program, FAST)
        with telemetry.session() as tracer:
            with GatewayServer(registry, shards=1, max_sessions=2) as gw:
                result = verify_remote(
                    counted_program, [[1, 2, 3]], gw.address, FAST
                )
        assert result.all_accepted
        trace = Trace.from_tracer(tracer)
        session_spans = trace.find("wire.prover_session")
        assert len(session_spans) == 1
        remote = trace.find("wire.verify_remote")[0]
        assert session_spans[0].parent_id == remote.span_id
        # the worker-side prover spans crossed both process boundaries
        instance_spans = trace.find("prover.instance")
        assert len(instance_spans) == 1
        assert instance_spans[0].parent_id == session_spans[0].span_id
        answer_spans = trace.find("prover.answer_queries")
        assert len(answer_spans) == 1
