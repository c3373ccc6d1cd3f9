"""Distributed prover: a failure-isolating, resumable batch engine.

The engine is the only code that proves and verifies an in-process
Zaatar batch: ``ZaatarArgument.run_batch`` is its one-worker case, and
every proved instance comes back as the transcript's
:class:`~repro.argument.transcript.InstanceRecord`.

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
* **Worker-crash recovery** — each worker process owns a private pipe
  that carries its tasks and exactly one reply per task, so the engine
  always knows which instance a worker holds, and a worker killed
  mid-task (kill -9), even mid-reply, garbles nothing but its own
  pipe.  Its death shows on the process sentinel, its in-flight
  instance is reassigned, and a fresh fork replaces it.
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

import functools
import logging
import multiprocessing
import multiprocessing.connection
import os
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
    classify_failure,
)
from .stats import PhaseTimer, ProverStats, VerifierStats
from .transcript import InstanceRecord

logger = logging.getLogger(__name__)


def _fork_available() -> bool:
    """Whether this platform can fork (the engine's fan-out mechanism)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _prove_one(
    argument: ZaatarArgument, request, challenge, index: int, input_values
) -> tuple:
    """Prove one instance in a forked worker, as a one-row batch.

    The reply is ``("ok", record, stats, spans)``.  The inherited
    tracer's spans die with the worker process, so ``spans`` exports
    the records this task produced (None untraced) and the parent
    re-inserts them (Tracer.adopt).
    """
    tracer = telemetry.current()
    mark = tracer.mark() if tracer is not None else 0
    stats = ProverStats()
    (entry,) = argument.prove_batch(
        [input_values], request, challenge, indices=[index], per_stats=[stats]
    )
    if isinstance(entry, Exception):
        raise entry
    spans = tracer.records_since(mark) if tracer is not None else None
    return "ok", entry, stats, spans


def worker_tasks(conn) -> Iterator:
    """A pool worker's tasks, until the ``None`` stop signal or EOF.

    EOF means every parent end of the pipe is closed: the parent is
    gone, so the worker stops as it would on ``None``.
    """
    try:
        while (task := conn.recv()) is not None:
            yield task
    except EOFError:
        return


def _prove_worker(
    argument: ZaatarArgument, request, challenge, plan: ProcessFaultPlan | None, conn
) -> None:
    """Worker loop: prove tasks from the pipe until it stops.

    The worker holds what the prover receives, Enc(r) and the decommit
    challenge, never the verifier's set-up.  Every outcome — success or
    classified failure — goes back as the task's one reply; nothing
    escapes as an exception (a raise here would kill the worker and
    turn a per-instance problem into a pool problem).
    """
    for index, attempt, input_values in worker_tasks(conn):
        try:
            if plan is not None:
                plan.apply(index, attempt)
            reply = _prove_one(argument, request, challenge, index, input_values)
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            reply = ("err", classify_failure(exc), f"{type(exc).__name__}: {exc}")
        conn.send(reply)


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
    """One pool member: a forked process and the parent's end of its pipe."""

    __slots__ = ("process", "conn", "busy")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: a task was sent and its reply has not been read
        self.busy = False

    def exited(self) -> bool:
        """Whether the process has ended (its sentinel fired)."""
        return bool(multiprocessing.connection.wait([self.process.sentinel], 0))


def _run_worker(target: Callable[..., None], inherited: list, conn) -> None:
    """A forked worker's entry: drop the parent's pipe ends, then loop.

    The fork copied the parent's end of this worker's pipe and of every
    live sibling's.  Closing them leaves the parent their only holder,
    so when the parent dies, however it dies, every worker reads EOF
    and exits instead of outliving it with the parent's sockets.
    """
    for parent_end in inherited:
        parent_end.close()
    target(conn)


class WorkerPool:
    """Crash-surviving pool of forked workers, each on a private pipe.

    ``target(conn)`` is the worker loop: it reads tasks from ``conn``
    (:func:`worker_tasks`: until ``None`` or EOF) and sends exactly one
    reply per task from its main thread.  Workers are forked, so
    ``target`` may close over compiled programs, which hold closures
    and cannot be pickled; bind them in with :func:`functools.partial`.
    The batch engine (one task per instance attempt) and the gateway's
    shards (one worker *leased* for a whole session, because the
    commitment provers built in the ``prove`` step must still be alive
    for the ``answer`` step) drive it the same way: :meth:`lease`,
    :meth:`send`, :meth:`wait`, :meth:`release`.

    A pipe has no feeder thread and no lock shared between processes,
    so a worker killed mid-reply garbles only its own pipe, and
    :meth:`release` discards that pipe with the worker.  Death is read
    from the process sentinel or the pipe's EOF, never from
    ``is_alive()``, which can still read True just after the sentinel
    fires.
    """

    def __init__(self, target: Callable[..., None], size: int):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if not _fork_available():
            raise RuntimeError(
                "WorkerPool needs the fork start method: compiled "
                "programs hold closures that cannot be pickled for spawn"
            )
        self._ctx = multiprocessing.get_context("fork")
        self._target = target
        self._lock = threading.Lock()
        self._idle: queue_mod.Queue = queue_mod.Queue()
        self._workers: list[_Worker] = []
        with self._lock:
            for _ in range(size):
                self._spawn()

    def _spawn(self) -> None:
        """Fork one worker into the idle set; call with ``_lock`` held.

        The lock keeps sibling forks out of the window between this
        fork and the parent closing the child's end of the pipe: a
        sibling holding that end would keep the pipe open after this
        worker dies, and reading a half-written reply would never see
        EOF.  The other way round, the child closes the parent ends it
        inherits (:func:`_run_worker`).
        """
        conn, child_conn = self._ctx.Pipe()
        inherited = [conn, *(worker.conn for worker in self._workers)]
        process = self._ctx.Process(
            target=_run_worker,
            args=(self._target, inherited, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, conn)
        self._workers.append(worker)
        self._idle.put(worker)

    @property
    def alive(self) -> int:
        """Workers whose process has not exited."""
        with self._lock:
            return sum(1 for w in self._workers if not w.exited())

    def lease(self, timeout: float | None = None) -> _Worker | None:
        """Check out an idle worker for exclusive use; None on timeout.

        A worker that died while idle is replaced transparently — the
        caller only ever sees a live lease or a timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                worker = self._idle.get(
                    timeout=None
                    if deadline is None
                    else max(deadline - time.monotonic(), 0)
                )
            except queue_mod.Empty:
                return None
            if not worker.exited():
                return worker
            self.release(worker)

    @staticmethod
    def send(worker: _Worker, task) -> None:
        """Send one task down a leased worker's pipe.

        The worker owes a reply from here until :meth:`wait` reads it.
        A send to a dead worker is dropped: :meth:`wait` reports the
        death.
        """
        worker.busy = True
        try:
            worker.conn.send(task)
        except ConnectionError:
            pass

    @staticmethod
    def wait(
        workers: Sequence[_Worker], timeout: float | None = None
    ) -> list[tuple[_Worker, object]]:
        """Block until some of the leased ``workers`` reply or die.

        Returns ``(worker, reply)`` pairs, ``reply`` None for a worker
        that died: its sentinel fired, or its pipe hit EOF, possibly
        mid-reply.  Returns ``[]`` once ``timeout`` seconds pass (None:
        no limit).
        """
        handles = {}
        for worker in workers:
            handles[worker.conn] = handles[worker.process.sentinel] = worker
        ready = set(multiprocessing.connection.wait(list(handles), timeout))
        replies = []
        for worker in workers:
            if worker.process.sentinel in ready:
                replies.append((worker, None))
            elif worker.conn in ready:
                try:
                    reply = worker.conn.recv()
                except (EOFError, ConnectionError):
                    reply = None
                else:
                    worker.busy = False
                replies.append((worker, reply))
        return replies

    def release(self, worker: _Worker) -> None:
        """Return a leased worker: to the idle set if it is alive and
        owes no reply, else kill it and fork a replacement.

        A worker still owing a reply (its caller stopped waiting) or
        one that died would hand the next lease a stale or half-written
        reply; neither is ever reused.  A no-op once :meth:`close` has
        retired the worker.
        """
        if not worker.busy and not worker.exited():
            self._idle.put(worker)
            return
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            worker.process.kill()
            self._spawn()
        worker.process.join(timeout=1.0)
        worker.conn.close()

    def close(self) -> None:
        """Stop every worker: the idle ones exit on the ``None``
        sentinel, the busy ones are killed; stragglers are killed too."""
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            if worker.busy:
                worker.process.kill()
                continue
            try:
                worker.conn.send(None)
            except ConnectionError:
                pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.1))
            worker.process.kill()  # no-op unless the join timed out
            worker.process.join(timeout=1.0)
            worker.conn.close()


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
        process_faults: ProcessFaultPlan | None,
    ):
        self.argument = argument
        self.setup = setup
        self.timer = PhaseTimer(verifier_stats)
        self.retry = retry
        self.checkpoint = checkpoint
        self.process_faults = process_faults
        self.outcomes: dict[int, InstanceResult] = {}
        self.retries = 0
        self.worker_deaths = 0
        self.adopted: list = []
        self.last_prove_done: float | None = None

    # -- outcome handling --------------------------------------------------

    def _finish(self, result: InstanceResult) -> None:
        self.outcomes[result.index] = result
        if self.checkpoint is not None:
            self.checkpoint.append(instance_record(result))

    def handle_success(
        self, state: _InstanceState, record: InstanceRecord, stats: ProverStats
    ) -> None:
        """Verify one proved instance; verification errors are isolated
        into the instance's outcome like any other failure."""
        try:
            with self.timer.phase("per_instance"):
                commit_ok, pcp_result = record.check(self.setup, self.argument.field.p)
        except Exception as exc:  # noqa: BLE001 - isolate bad instances
            self.handle_failure(
                state,
                classify_failure(exc),
                f"verification error: {type(exc).__name__}: {exc}",
            )
            return
        self._finish(
            InstanceResult(
                accepted=commit_ok and pcp_result.accepted,
                commitment_ok=commit_ok,
                pcp_ok=pcp_result.accepted,
                output_values=record.claimed_outputs,
                prover_stats=stats,
                index=state.index,
                attempts=state.attempts,
                record=record,
            )
        )

    def handle_failure(self, state: _InstanceState, code: str, message: str) -> bool:
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
            InstanceResult.failure(state.index, code, message, attempts=state.attempts)
        )
        return False

    # -- inline execution --------------------------------------------------

    def run_inline(self, states: list[_InstanceState]) -> None:
        """Single-process execution (1 worker, or fork unavailable).

        Each round proves every instance whose retry backoff has
        elapsed as one ``prove_batch`` call; a retryable failure waits
        out its backoff and joins a later round.
        """
        plan = self.process_faults
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
                *self.setup[2:],  # Enc(r) and the challenge: all a prover gets
                indices=[state.index for state in proving],
                per_stats=per_stats,
            )
            for state, entry, stats in zip(proving, entries, per_stats):
                self.last_prove_done = time.monotonic()
                if not isinstance(entry, Exception):
                    self.handle_success(state, entry, stats)
                elif self.handle_failure(
                    state, classify_failure(entry), f"{type(entry).__name__}: {entry}"
                ):
                    pending.append(state)

    # -- multiprocess execution --------------------------------------------

    def run_pool(self, states: list[_InstanceState], num_workers: int) -> None:
        """Fan out over forked workers; survive their deaths.

        Each attempt leases an idle worker, sends it the instance, and
        releases it once its reply or its death is in; releasing a dead
        worker forks its replacement.
        """
        pool = WorkerPool(
            functools.partial(  # a worker holds Enc(r) and the challenge only
                _prove_worker, self.argument, *self.setup[2:], self.process_faults
            ),
            min(num_workers, len(states)),
        )
        pending: deque[_InstanceState] = deque(states)
        waiting: list[_InstanceState] = []  # backoff not yet elapsed
        leased: dict[_Worker, _InstanceState] = {}
        try:
            while pending or waiting or leased:
                now = time.monotonic()
                for state in [s for s in waiting if s.ready_at <= now]:
                    waiting.remove(state)
                    pending.append(state)
                while pending and (worker := pool.lease(timeout=0)) is not None:
                    state = pending.popleft()
                    state.attempts += 1
                    pool.send(worker, (state.index, state.attempts, state.inputs))
                    leased[worker] = state
                # with nothing in flight, this sleeps out the next backoff
                backoff = min((s.ready_at for s in waiting), default=None)
                timeout = None if backoff is None else max(backoff - now, 0)
                for worker, reply in pool.wait(list(leased), timeout):
                    state = leased.pop(worker)
                    pool.release(worker)
                    self.last_prove_done = time.monotonic()
                    if reply is None:
                        self.worker_deaths += 1
                        telemetry.count("batch.worker_deaths")
                        code, message = "io", (
                            f"worker pid {worker.process.pid} died while "
                            f"proving instance {state.index}"
                        )
                    elif reply[0] == "ok":
                        _, record, stats, spans = reply
                        if spans:
                            self.adopted.append(spans)
                        self.handle_success(state, record, stats)
                        continue
                    else:
                        _, code, message = reply
                    if self.handle_failure(state, code, message):
                        waiting.append(state)
        finally:
            pool.close()


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
    without re-proving them.  Fewer than one worker raises
    ``ValueError`` before any setup runs.

    Returns wall-clock latency of the proving fan-out (the quantity
    Figure 6 reports as speedup versus the single-core configuration).
    """
    if num_workers is None:
        num_workers = max(1, (os.cpu_count() or 2) - 1)
    if num_workers < 1:
        raise ValueError(f"num_workers must be at least 1, got {num_workers}")
    if num_workers > 1 and not _fork_available():
        logger.warning(
            "fork start method unavailable on this platform; the batch "
            "engine is degrading to inline execution (compiled programs "
            "hold closures that cannot be pickled for spawn workers)"
        )
        num_workers = 1
    if checkpoint is not None and not isinstance(checkpoint, BatchCheckpoint):
        checkpoint = BatchCheckpoint(checkpoint)
    with telemetry.span(
        "argument.run_parallel_batch",
        batch_size=len(batch_inputs),
        workers=num_workers,
    ):
        return run_engine(
            argument,
            batch_inputs,
            num_workers,
            retry or RetryPolicy(),
            checkpoint,
            process_faults,
        )


def run_engine(
    argument: ZaatarArgument,
    batch_inputs: Sequence[Sequence[int]],
    num_workers: int,
    retry: RetryPolicy,
    checkpoint: BatchCheckpoint | None = None,
    process_faults: ProcessFaultPlan | None = None,
) -> ParallelBatchResult:
    """The batch engine, under its caller's span: the verifier setup,
    then proving (in this process with one worker, else on a
    :class:`WorkerPool`), serial verification and checkpointing.

    :func:`run_parallel_batch` validates its arguments and calls this;
    :meth:`ZaatarArgument.run_batch` calls it with one worker, no
    retries and no checkpoint.  Worker spans are adopted under the
    caller's span.
    """
    verifier_stats = VerifierStats()
    setup = argument.verifier_setup(verifier_stats)
    inputs = [list(v) for v in batch_inputs]

    engine = _Engine(argument, setup, verifier_stats, retry, checkpoint, process_faults)
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

    start = time.monotonic()
    if states:
        if num_workers == 1:
            engine.run_inline(states)
        else:
            engine.run_pool(states, num_workers)
    wall = (engine.last_prove_done or time.monotonic()) - start

    tracer = telemetry.current()
    if tracer is not None:
        parent = tracer.current_span()
        for spans in engine.adopted:
            tracer.adopt(spans, parent_id=parent.span_id if parent else None)

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
