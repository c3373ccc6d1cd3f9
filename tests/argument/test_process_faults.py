"""Tests for process-level fault injection and the crash-surviving pool.

The batch engine's robustness claims (docs/RESILIENCE.md) are only as
strong as the failures they were tested under; ``ProcessFaultPlan``
makes those failures deterministic, and these tests drive the engine
through worker kills, transient task exceptions, stragglers, retry
exhaustion, and the fork-unavailable degradation path.
"""

import logging
import os
import signal
import threading
import time

import pytest

from repro.argument import (
    ArgumentConfig,
    InjectedWorkerFault,
    ProcessFaultPlan,
    ProcessFaultRule,
    RetryPolicy,
    WorkerPool,
    ZaatarArgument,
    run_parallel_batch,
)
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
QUICK_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, seed=0)


@pytest.fixture(scope="module")
def argument(sumsq_program):
    return ZaatarArgument(sumsq_program, FAST)


class TestRuleValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown process fault action"):
            ProcessFaultRule(index=0, action="explode")

    def test_attempt_numbers_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            ProcessFaultRule(index=0, action="raise", attempt=0)

    def test_rule_addressing(self):
        plan = ProcessFaultPlan(
            [ProcessFaultRule(index=2, action="raise", attempt=1)]
        )
        assert plan.rule_for(2, 1) is not None
        assert plan.rule_for(2, 2) is None  # the retry runs clean
        assert plan.rule_for(1, 1) is None


class TestInlineFaults:
    """The single-process engine sees the same fault plan semantics."""

    def test_transient_raise_is_retried(self, argument):
        plan = ProcessFaultPlan([ProcessFaultRule(index=0, action="raise")])
        result = run_parallel_batch(
            argument, [[1, 2, 3]], num_workers=1,
            retry=QUICK_RETRY, process_faults=plan,
        )
        (instance,) = result.result.instances
        assert instance.ok and instance.accepted
        assert instance.attempts == 2  # attempt 1 faulted, attempt 2 clean
        assert result.retries == 1
        assert plan.injected == [(0, 1, "raise")]

    def test_kill_degrades_to_transient_fault_inline(self, argument):
        # no separate process to kill inline: the engine observes the
        # same transient loss and retries
        plan = ProcessFaultPlan([ProcessFaultRule(index=0, action="kill")])
        result = run_parallel_batch(
            argument, [[1, 2, 3]], num_workers=1,
            retry=QUICK_RETRY, process_faults=plan,
        )
        (instance,) = result.result.instances
        assert instance.ok and instance.accepted
        assert instance.attempts == 2

    def test_slow_rule_just_delays(self, argument):
        plan = ProcessFaultPlan(
            [ProcessFaultRule(index=0, action="slow", delay=0.01)]
        )
        result = run_parallel_batch(
            argument, [[1, 2, 3]], num_workers=1, process_faults=plan,
        )
        assert result.result.all_accepted
        assert result.retries == 0

    def test_retries_exhausted_is_structured_failure(self, argument):
        plan = ProcessFaultPlan(
            [
                ProcessFaultRule(index=0, action="raise", attempt=a)
                for a in (1, 2, 3)
            ]
        )
        result = run_parallel_batch(
            argument, [[1, 2, 3], [2, 3, 4]], num_workers=1,
            retry=QUICK_RETRY, process_faults=plan,
        )
        bad, good = result.result.instances
        assert not bad.ok
        assert bad.error_code == "io"  # InjectedWorkerFault carries it
        assert bad.attempts == 3
        assert good.ok and good.accepted
        assert result.result.failures.by_code == {"io": [0]}

    def test_injected_fault_carries_retryable_code(self):
        assert InjectedWorkerFault.code == "io"

    def test_counters(self, argument):
        from repro import telemetry

        plan = ProcessFaultPlan(
            [
                ProcessFaultRule(index=0, action="raise", attempt=1),
                ProcessFaultRule(index=0, action="raise", attempt=2),
                ProcessFaultRule(index=0, action="raise", attempt=3),
            ]
        )
        tracer = telemetry.enable()
        try:
            run_parallel_batch(
                argument, [[1, 2, 3]], num_workers=1,
                retry=QUICK_RETRY, process_faults=plan,
            )
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert totals.get("batch.faults_injected") == 3
        assert totals.get("batch.retries") == 2
        assert totals.get("batch.instances_failed") == 1
        assert totals.get("batch.instances_failed.io") == 1


class TestPoolFaults:
    """Real forked workers, really killed."""

    def test_worker_kill_is_detected_and_retried(self, argument):
        plan = ProcessFaultPlan([ProcessFaultRule(index=1, action="kill")])
        result = run_parallel_batch(
            argument,
            [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]],
            num_workers=2,
            retry=QUICK_RETRY,
            process_faults=plan,
        )
        assert result.result.all_accepted
        assert result.worker_deaths == 1
        assert result.retries >= 1
        by_index = {r.index: r for r in result.result.instances}
        assert by_index[1].attempts == 2

    def test_raise_in_worker_keeps_worker_alive(self, argument):
        plan = ProcessFaultPlan([ProcessFaultRule(index=0, action="raise")])
        result = run_parallel_batch(
            argument, [[1, 2, 3], [2, 3, 4]], num_workers=2,
            retry=QUICK_RETRY, process_faults=plan,
        )
        assert result.result.all_accepted
        assert result.worker_deaths == 0
        assert result.retries == 1


def _echo_worker(conn):
    """A pool target that echoes each task, except ``"big"``: that one
    starts an 8 MiB reply and SIGKILLs this worker 0.2 s into it."""
    while True:
        task = conn.recv()
        if task is None:
            return
        if task == "big":
            threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGKILL)).start()
            conn.send(b"x" * (8 << 20))
        else:
            conn.send(task)


class TestWorkerPool:
    def test_kill_mid_reply_loses_only_that_worker(self):
        """A worker killed with half its reply in its pipe is reported
        dead; its sibling's reply still arrives, and releasing both
        leaves a full pool."""
        pool = WorkerPool(_echo_worker, 2)
        try:
            big, small = pool.lease(timeout=5), pool.lease(timeout=5)
            pool.send(big, "big")
            time.sleep(0.5)  # the reply fills the pipe; the kill lands
            pool.send(small, "small")
            replies = {}
            deadline = time.monotonic() + 5
            while len(replies) < 2 and time.monotonic() < deadline:
                waiting = [w for w in (big, small) if w not in replies]
                for worker, reply in pool.wait(
                    waiting, deadline - time.monotonic()
                ):
                    replies[worker] = reply
            assert replies == {big: None, small: "small"}
            pool.release(big)
            pool.release(small)
            assert pool.alive == 2
        finally:
            pool.close()


class TestForkUnavailable:
    def test_degrades_to_inline_with_warning(self, argument, monkeypatch, caplog):
        from repro.argument import parallel as par

        monkeypatch.setattr(par, "_fork_available", lambda: False)
        with caplog.at_level(logging.WARNING, logger="repro.argument.parallel"):
            result = run_parallel_batch(argument, [[1, 2, 3]], num_workers=4)
        assert result.num_workers == 1
        assert result.result.all_accepted
        assert any("degrading to inline" in r.message for r in caplog.records)


class TestAcceptanceScenario:
    """The ISSUE's headline scenario: a batch of 16 with two injected
    worker kills and one unsatisfiable input completes with 15 ok
    outcomes and one structured failure — and no deadlock."""

    def test_batch_of_16_with_kills_and_bad_input(self, argument):
        inputs = [[i, i + 1, i + 2] for i in range(16)]
        inputs[5] = [1, 2]  # wrong arity: deterministic bad-request
        plan = ProcessFaultPlan(
            [
                ProcessFaultRule(index=3, action="kill"),
                ProcessFaultRule(index=11, action="kill"),
            ]
        )
        result = run_parallel_batch(
            argument, inputs, num_workers=4,
            retry=QUICK_RETRY, process_faults=plan,
        )
        instances = result.result.instances
        assert len(instances) == 16
        ok = [r for r in instances if r.ok]
        assert len(ok) == 15
        assert all(r.accepted for r in ok)
        assert result.result.failures.by_code == {"bad-request": [5]}
        assert result.worker_deaths == 2
        by_index = {r.index: r for r in instances}
        assert by_index[3].attempts == 2
        assert by_index[11].attempts == 2
        assert by_index[5].attempts == 1  # bad-request fails fast
