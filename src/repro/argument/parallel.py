"""Distributed prover: a failure-isolating, resumable batch engine.

The paper's prover "can be distributed over multiple machines, with
each machine computing a subset of a batch" (§5.1) and achieves
near-linear speedup (Figure 6).  Our stand-in distributes across CPU
cores with ``multiprocessing`` (fork start method — compiled programs
hold closures, which fork inherits for free and pickling would not; on
spawn-only platforms the engine degrades to inline execution with a
logged warning).

Robustness (docs/RESILIENCE.md has the full failure model):

* **Failure isolation** — one unprovable input, one solver exception,
  or one dead worker no longer aborts the batch: every instance ends
  in a structured :class:`~repro.argument.protocol.InstanceResult`
  (``ok`` or ``failed[code]``, reusing the network error-code
  vocabulary), and the rest of the batch completes.
* **Worker-crash recovery** — each worker process owns a private task
  queue, so the engine always knows which instance a worker holds; a
  worker that dies mid-task (kill -9) is detected by liveness polling,
  its in-flight instance is reassigned, and the pool is replenished —
  never a deadlock on a joined queue.
* **Retries** — transient failures (worker loss, injected faults, any
  retryable error code) are retried per instance under a seeded
  :class:`~repro.argument.net.RetryPolicy`; deterministic failures
  (``bad-request``: the solver rejects its inputs) fail fast.
* **Checkpoint/resume** — with a
  :class:`~repro.argument.checkpoint.BatchCheckpoint`, finished
  instances are durably recorded as JSONL and a killed run resumes
  without re-proving them, reproducing bit-identical prover messages
  (every verifier draw derives from ``config.seed``).

GPU acceleration is *simulated* (see DESIGN.md): the paper measured
≈20% per-instance latency gain from offloading crypto to GPUs, so the
Fig-6 bench reports a modeled variant in which the measured crypto
phase is scaled by a configurable factor.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .. import telemetry
from .checkpoint import BatchCheckpoint, instance_record, result_from_record
from .faults import ProcessFaultPlan
from .net import RetryPolicy
from .protocol import (
    NON_RETRYABLE_CODES,
    BatchResult,
    BatchStats,
    InstanceResult,
    ZaatarArgument,
    check_instance,
    classify_failure,
)
from .stats import PhaseTimer, ProverStats, VerifierStats

logger = logging.getLogger(__name__)

# Worker state installed before fork; children inherit it via COW.
_WORKER_STATE: dict = {}


def _fork_available() -> bool:
    """Whether this platform can fork (the engine's fan-out mechanism)."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class _ProofPayload:
    """Everything one proved instance sends back to the engine."""

    index: int
    input_values: list[int]
    x: list[int]
    y: list[int]
    output_values: list[int]
    commitment: object
    answers: list[int]
    stat_tuple: tuple
    records: list | None


def _payload(index: int, entry, stats: ProverStats, records=None) -> _ProofPayload:
    """The engine's message for one proved ``prove_batch`` entry."""
    sol, commitment, _, answers = entry
    return _ProofPayload(
        index=index,
        input_values=list(sol.input_values),
        x=sol.x,
        y=sol.y,
        output_values=sol.output_values,
        commitment=commitment,
        answers=list(answers),
        stat_tuple=(
            stats.solve_constraints,
            stats.construct_u,
            stats.crypto_ops,
            stats.answer_queries,
            stats.wall,
        ),
        records=records,
    )


def _prove_payload(index: int, input_values: Sequence[int]) -> _ProofPayload:
    """Prove one instance in a forked worker, as a one-row batch."""
    argument: ZaatarArgument = _WORKER_STATE["argument"]
    # The inherited tracer's spans die with the worker process, so
    # export the records this task produced and let the parent
    # re-insert them (Tracer.adopt).
    tracer = telemetry.current()
    collect = tracer is not None
    mark = tracer.mark() if collect else 0
    stats = ProverStats()
    (entry,) = argument.prove_batch(
        [input_values], _WORKER_STATE["setup"], indices=[index], per_stats=[stats]
    )
    if isinstance(entry, Exception):
        raise entry
    records = tracer.records_since(mark) if collect else None
    return _payload(index, entry, stats, records)


def _worker_main(task_q, result_q) -> None:
    """Worker loop: prove tasks from a private queue until sentinel.

    Every outcome — success or classified failure — is reported as a
    message; nothing escapes as an exception (a raise here would kill
    the worker and turn a per-instance problem into a pool problem).
    """
    plan: ProcessFaultPlan | None = _WORKER_STATE.get("process_faults")
    while True:
        task = task_q.get()
        if task is None:
            return
        index, attempt, input_values = task
        try:
            if plan is not None:
                plan.apply(index, attempt)
            payload = _prove_payload(index, input_values)
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            result_q.put(
                (
                    "err",
                    index,
                    attempt,
                    classify_failure(exc),
                    f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            result_q.put(("ok", index, attempt, payload))


class _InstanceState:
    """Per-instance scheduling state: attempts and retry backoff."""

    __slots__ = ("index", "inputs", "attempts", "ready_at", "_delays")

    def __init__(self, index: int, inputs: list[int], retry: RetryPolicy):
        self.index = index
        self.inputs = inputs
        self.attempts = 0
        self.ready_at = 0.0
        self._delays = retry.delays()

    def next_delay(self) -> float | None:
        """The backoff before the next retry, or None when exhausted."""
        return next(self._delays, None)


class _Worker:
    """One pool member: a forked process plus its private task queue.

    ``target`` defaults to the batch engine's :func:`_worker_main`; the
    session pool below forks workers around its own loop (a closure —
    fine, fork inherits it).
    """

    __slots__ = ("task_q", "result_q", "process", "state")

    def __init__(self, ctx, result_q, target=None):
        self.task_q = ctx.SimpleQueue()
        self.result_q = result_q
        self.process = ctx.Process(
            target=target or _worker_main, args=(self.task_q, result_q), daemon=True
        )
        self.process.start()
        self.state: _InstanceState | None = None


class SessionWorkerPool:
    """Crash-surviving pool of forked workers *leased* for whole sessions.

    The batch engine below fans independent instances out task by task;
    the multi-tenant gateway (:mod:`repro.argument.serve`) instead pins
    one worker to one session across a multi-step exchange — the
    commitment provers built by the ``prove`` step must still be alive
    in the same process for the ``answer`` step.  This pool provides
    that shape on the engine's substrate (fork inheritance for
    unpicklable compiled programs, a private task queue and result
    queue per worker, liveness checks): :meth:`lease` checks a worker
    out for exclusive use, :meth:`release` returns it, and
    :meth:`replace` retires a dead or poisoned worker and forks a
    fresh one so the pool never shrinks.
    """

    def __init__(self, target, size: int, *, ctx=None):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if ctx is None:
            if not _fork_available():
                raise RuntimeError(
                    "SessionWorkerPool needs the fork start method: compiled "
                    "programs hold closures that cannot be pickled for spawn"
                )
            ctx = multiprocessing.get_context("fork")
        self._ctx = ctx
        self._target = target
        self._lock = threading.Lock()
        self._idle: queue_mod.Queue = queue_mod.Queue()
        self._workers: list[_Worker] = []
        for _ in range(size):
            self._spawn()

    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self._ctx.Queue(), target=self._target)
        with self._lock:
            self._workers.append(worker)
        self._idle.put(worker)
        return worker

    @property
    def size(self) -> int:
        """Workers currently in the pool (leased or idle)."""
        with self._lock:
            return len(self._workers)

    @property
    def alive(self) -> int:
        """Workers whose process currently reports alive."""
        with self._lock:
            return sum(1 for w in self._workers if w.process.is_alive())

    def lease(self, timeout: float | None = None) -> _Worker | None:
        """Check out a worker for exclusive use; None on timeout.

        A worker that died while idle is replaced transparently — the
        caller only ever sees a live lease or a timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if deadline is None:
                    worker = self._idle.get()
                else:
                    worker = self._idle.get(
                        timeout=max(deadline - time.monotonic(), 0)
                    )
            except queue_mod.Empty:
                return None
            if worker.process.is_alive():
                return worker
            self.replace(worker)

    def release(self, worker: _Worker) -> None:
        """Return a healthy leased worker to the idle set."""
        self._idle.put(worker)

    def replace(self, worker: _Worker) -> _Worker | None:
        """Retire ``worker`` and fork a replacement into the idle set.

        The retired worker's queues die with it, so a half-written
        result from the old process can never be read as a later
        session's answer.  Idempotent: replacing an already-replaced
        worker is a no-op returning None.
        """
        with self._lock:
            if worker not in self._workers:
                return None
            self._workers.remove(worker)
        if worker.process.is_alive():  # poisoned, not dead: put it down
            worker.process.kill()
        worker.process.join(timeout=1.0)
        worker.result_q.cancel_join_thread()
        worker.result_q.close()
        return self._spawn()

    def close(self) -> None:
        """Sentinel every worker, join, kill stragglers."""
        with self._lock:
            workers = list(self._workers)
            self._workers.clear()
        for worker in workers:
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - dead queue
                pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.result_q.cancel_join_thread()
            worker.result_q.close()


@dataclass
class ParallelBatchResult:
    result: BatchResult
    wall_seconds: float
    num_workers: int
    #: proving attempts beyond the first, summed over instances
    retries: int = 0
    #: workers that died mid-task and were replaced
    worker_deaths: int = 0
    #: instances restored from a checkpoint instead of re-proved
    resumed: int = 0


class _Engine:
    """One batch run: dispatch, monitor, retry, verify, checkpoint."""

    def __init__(
        self,
        argument: ZaatarArgument,
        setup,
        verifier_stats: VerifierStats,
        retry: RetryPolicy,
        checkpoint: BatchCheckpoint | None,
    ):
        self.argument = argument
        self.setup = setup
        self.timer = PhaseTimer(verifier_stats)
        self.retry = retry
        self.checkpoint = checkpoint
        self.outcomes: dict[int, InstanceResult] = {}
        self.retries = 0
        self.worker_deaths = 0
        self.adopted: list = []
        self.last_prove_done: float | None = None

    # -- outcome handling --------------------------------------------------

    def _finish(self, result: InstanceResult, payload: _ProofPayload | None) -> None:
        self.outcomes[result.index] = result
        if self.checkpoint is not None:
            self.checkpoint.append(
                instance_record(
                    result,
                    input_values=payload.input_values if payload else None,
                    commitment=payload.commitment if payload else None,
                    answers=payload.answers if payload else None,
                )
            )

    def handle_success(self, state: _InstanceState, payload: _ProofPayload) -> None:
        """Verify one proved instance; verification errors are isolated
        into the instance's outcome like any other failure."""
        if payload.records:
            self.adopted.append(payload.records)
        try:
            with self.timer.phase("per_instance"):
                commit_ok, pcp_result = check_instance(
                    self.setup, payload.commitment, payload.answers, payload.x, payload.y
                )
        except Exception as exc:  # noqa: BLE001 - isolate bad instances
            self.handle_failure(
                state,
                classify_failure(exc),
                f"verification error: {type(exc).__name__}: {exc}",
                payload=None,
            )
            return
        self._finish(
            InstanceResult(
                accepted=commit_ok and pcp_result.accepted,
                commitment_ok=commit_ok,
                pcp_ok=pcp_result.accepted,
                output_values=payload.output_values,
                prover_stats=ProverStats(*payload.stat_tuple),
                index=state.index,
                attempts=state.attempts,
            ),
            payload,
        )

    def handle_failure(
        self,
        state: _InstanceState,
        code: str,
        message: str,
        *,
        payload: _ProofPayload | None = None,
    ) -> bool:
        """Record or retry one failed attempt.

        Returns True when the instance was requeued for retry (the
        caller puts ``state`` back on the pending queue), False when
        the failure is final and a structured outcome was recorded.
        """
        if code not in NON_RETRYABLE_CODES:
            delay = state.next_delay()
            if delay is not None:
                state.ready_at = time.monotonic() + delay
                self.retries += 1
                telemetry.count("batch.retries")
                return True
        telemetry.count("batch.instances_failed")
        telemetry.count(f"batch.instances_failed.{code}")
        self._finish(
            InstanceResult.failure(
                state.index, code, message, attempts=state.attempts
            ),
            payload,
        )
        return False

    # -- inline execution --------------------------------------------------

    def run_inline(self, states: list[_InstanceState]) -> None:
        """Single-process execution (1 worker, or fork unavailable).

        Each round proves every instance whose retry backoff has
        elapsed as one ``prove_batch`` call; a retryable failure waits
        out its backoff and joins a later round.
        """
        plan: ProcessFaultPlan | None = _WORKER_STATE.get("process_faults")
        pending = list(states)
        while pending:
            wait = min(state.ready_at for state in pending) - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            now = time.monotonic()
            ready = [state for state in pending if state.ready_at <= now]
            pending = [state for state in pending if state.ready_at > now]
            proving: list[_InstanceState] = []
            for state in ready:
                state.attempts += 1
                try:
                    if plan is not None:
                        plan.apply(state.index, state.attempts, inline=True)
                except Exception as exc:  # noqa: BLE001 - isolate, maybe retry
                    self.last_prove_done = time.monotonic()
                    if self.handle_failure(
                        state, classify_failure(exc), f"{type(exc).__name__}: {exc}"
                    ):
                        pending.append(state)
                else:
                    proving.append(state)
            if not proving:
                continue
            per_stats = [ProverStats() for _ in proving]
            entries = self.argument.prove_batch(
                [state.inputs for state in proving],
                self.setup,
                indices=[state.index for state in proving],
                per_stats=per_stats,
            )
            for state, entry, stats in zip(proving, entries, per_stats):
                self.last_prove_done = time.monotonic()
                if not isinstance(entry, Exception):
                    self.handle_success(state, _payload(state.index, entry, stats))
                elif self.handle_failure(
                    state, classify_failure(entry), f"{type(entry).__name__}: {entry}"
                ):
                    pending.append(state)

    # -- multiprocess execution --------------------------------------------

    def run_pool(self, states: list[_InstanceState], num_workers: int) -> None:
        """Fan out over forked workers; survive their deaths."""
        ctx = multiprocessing.get_context("fork")
        result_q = ctx.Queue()
        pending: deque[_InstanceState] = deque(states)
        waiting: list[_InstanceState] = []  # backoff not yet elapsed
        target = {s.index for s in states}
        workers = [
            _Worker(ctx, result_q) for _ in range(min(num_workers, len(states)))
        ]
        try:
            while not target <= self.outcomes.keys():
                now = time.monotonic()
                for state in [s for s in waiting if s.ready_at <= now]:
                    waiting.remove(state)
                    pending.append(state)
                for worker in workers:
                    if worker.state is None and pending:
                        state = pending.popleft()
                        state.attempts += 1
                        worker.state = state
                        worker.task_q.put((state.index, state.attempts, state.inputs))
                for msg in self._drain(result_q, timeout=0.02):
                    self._handle_message(workers, pending, waiting, msg)
                self._reap_dead(ctx, result_q, workers, pending, waiting)
        finally:
            self._shutdown(workers, result_q)

    @staticmethod
    def _drain(result_q, timeout: float) -> list[tuple]:
        """Every queued result message (briefly blocking for the first)."""
        msgs: list[tuple] = []
        try:
            msgs.append(result_q.get(timeout=timeout))
            while True:
                msgs.append(result_q.get_nowait())
        except queue_mod.Empty:
            pass
        return msgs

    def _handle_message(self, workers, pending, waiting, msg) -> None:
        kind, index, attempt, *rest = msg
        worker = next(
            (
                w
                for w in workers
                if w.state is not None
                and w.state.index == index
                and w.state.attempts == attempt
            ),
            None,
        )
        if worker is None:
            return  # late result for an attempt already written off
        state, worker.state = worker.state, None
        self.last_prove_done = time.monotonic()
        if kind == "ok":
            self.handle_success(state, rest[0])
        else:
            code, message = rest
            if self.handle_failure(state, code, message):
                waiting.append(state)

    def _reap_dead(self, ctx, result_q, workers, pending, waiting) -> None:
        """Detect killed workers, reassign their instances, replenish."""
        for worker in [w for w in workers if not w.process.is_alive()]:
            state, worker.state = worker.state, None
            workers.remove(worker)
            if state is not None:
                self.worker_deaths += 1
                telemetry.count("batch.worker_deaths")
                self.last_prove_done = time.monotonic()
                if self.handle_failure(
                    state,
                    "io",
                    f"worker pid {worker.process.pid} died while proving "
                    f"instance {state.index}",
                ):
                    waiting.append(state)
            outstanding = len(pending) + len(waiting) + sum(
                1 for w in workers if w.state is not None
            )
            if outstanding >= len(workers) + 1:
                workers.append(_Worker(ctx, result_q))

    @staticmethod
    def _shutdown(workers, result_q) -> None:
        for worker in workers:
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - dead queue
                pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=1.0)
        result_q.cancel_join_thread()
        result_q.close()


def run_parallel_batch(
    argument: ZaatarArgument,
    batch_inputs: Sequence[Sequence[int]],
    num_workers: int | None = None,
    *,
    retry: RetryPolicy | None = None,
    process_faults: ProcessFaultPlan | None = None,
    checkpoint: BatchCheckpoint | str | Path | None = None,
) -> ParallelBatchResult:
    """Prove a batch with ``num_workers`` processes; verify serially.

    Every instance ends in a structured outcome — a failure (bad input,
    worker crash, retries exhausted) becomes ``failed[code]`` in the
    result instead of an exception aborting the batch.  ``retry``
    governs transient-failure retries (default:
    :class:`~repro.argument.net.RetryPolicy` with 3 attempts);
    ``process_faults`` injects deterministic worker kills / task
    exceptions / stragglers (tests); ``checkpoint`` names a directory
    (or a :class:`~repro.argument.checkpoint.BatchCheckpoint`) where
    finished instances are durably recorded so a killed run resumes
    without re-proving them.

    Returns wall-clock latency of the proving fan-out (the quantity
    Figure 6 reports as speedup versus the single-core configuration).
    """
    if num_workers is None:
        num_workers = max(1, (os.cpu_count() or 2) - 1)
    if num_workers > 1 and not _fork_available():
        logger.warning(
            "fork start method unavailable on this platform; the batch "
            "engine is degrading to inline execution (compiled programs "
            "hold closures that cannot be pickled for spawn workers)"
        )
        num_workers = 1
    if checkpoint is not None and not isinstance(checkpoint, BatchCheckpoint):
        checkpoint = BatchCheckpoint(checkpoint)
    retry = retry or RetryPolicy()
    run_span = telemetry.start_span(
        "argument.run_parallel_batch",
        batch_size=len(batch_inputs),
        workers=num_workers,
    )
    # Everything below runs under the span; a failure must not leave
    # _WORKER_STATE populated (it pins the argument/setup objects for
    # the life of the process) or the run span dangling open (which
    # corrupts every later trace built on this thread's span stack).
    try:
        verifier_stats = VerifierStats()
        setup = argument.verifier_setup(verifier_stats)
        inputs = [list(v) for v in batch_inputs]

        engine = _Engine(argument, setup, verifier_stats, retry, checkpoint)
        resumed = 0
        if checkpoint is not None:
            for index, record in checkpoint.begin(argument, inputs).items():
                if 0 <= index < len(inputs):
                    engine.outcomes[index] = result_from_record(record)
                    resumed += 1
                    telemetry.count("batch.resumed")
        states = [
            _InstanceState(i, vec, retry)
            for i, vec in enumerate(inputs)
            if i not in engine.outcomes
        ]

        _WORKER_STATE["argument"] = argument
        _WORKER_STATE["setup"] = setup
        _WORKER_STATE["process_faults"] = process_faults
        start = time.monotonic()
        try:
            if states:
                if num_workers == 1:
                    engine.run_inline(states)
                else:
                    engine.run_pool(states, num_workers)
        finally:
            _WORKER_STATE.clear()
        wall = (engine.last_prove_done or time.monotonic()) - start

        tracer = telemetry.current()
        if tracer is not None and run_span is not None:
            for records in engine.adopted:
                tracer.adopt(records, parent_id=run_span.span_id)

        results = [engine.outcomes[i] for i in range(len(inputs))]
        batch = BatchStats(batch_size=len(inputs), verifier=verifier_stats)
        batch.prover_per_instance.extend(r.prover_stats for r in results)
        return ParallelBatchResult(
            result=BatchResult(instances=results, stats=batch),
            wall_seconds=wall,
            num_workers=num_workers,
            retries=engine.retries,
            worker_deaths=engine.worker_deaths,
            resumed=resumed,
        )
    finally:
        telemetry.end_span(run_span)
