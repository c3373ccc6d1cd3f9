"""The prover server: every program in a registry, sharded sessions, admission.

The §5 breakeven economics assume one prover amortizes its fixed costs
over *many* verifiers and *many* outsourced computations at once; the
§5.1 two-party deployment is the one-program case of the same server
(:func:`ProverServer` registers one program and returns a
:class:`GatewayServer`).  It speaks the session protocol that
:func:`~repro.argument.net.verify_remote` drives, in three layers:

* :class:`ProgramRegistry` — the server's program table, keyed by the
  canonical ``program_hash`` from the ``hello`` frame.  Registration
  **pre-warms** each program's proving artifacts (the QAP's
  barycentric weights and the tables the prover's H(t) construction
  multiplies by) so the first session pays
  compile-time costs zero times.  Query schedules are not kept: each
  session's comes from the query key its challenge carries, so it is
  derived in the ``answer`` step, after the session has committed.
* **Session sharding** — one exchange drives every session's frames;
  its ``prove`` and ``answer`` steps (the two steps of one
  :class:`~repro.argument.protocol.ZaatarProver`) run on the handler
  thread with ``shards = 0``, and with ``shards > 0`` on one process
  from a :class:`~repro.argument.parallel.WorkerPool` (the
  crash-surviving fork pool the batch engine also runs on, leased for
  whole sessions because the prover that commits in the ``prove`` step
  must survive into the ``answer`` step).  A worker that dies mid-session
  becomes a structured, retryable ``internal`` error frame for that one
  client; the pool forks a replacement and ``gateway.worker_deaths``
  counts it.  A shard abandoned mid-step (the session budget ran out)
  is replaced too, never handed to the next session.
* **Admission control** — a bounded accept queue in front of
  ``max_sessions`` handler threads, a global admitted-connections
  limit (``max_sessions + accept_queue``), and an optional per-program
  in-flight cap.  Load is shed with the ``busy`` vocabulary plus a
  ``retry_after`` hint (seconds, estimated from the p50 session
  latency and the current backlog) that
  :func:`~repro.argument.net.verify_remote` honors instead of blind
  exponential backoff.  Shutdown answers every queued or late-arriving
  client with a structured ``shutting-down`` frame — never a bare RST.

``benchmarks/bench_serve.py`` measures the resulting throughput
(sessions/sec at N concurrent verifiers × M programs) against a
single-session-at-a-time baseline; docs/NETWORKING.md documents the
knobs and the failure-mode matrix, docs/OBSERVABILITY.md the
``gateway.*`` metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import queue as queue_mod
import random
import socket
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from typing import Iterator

from .. import telemetry
from ..telemetry import metrics as metrics_mod
from ..compiler import CompiledProgram
from ..crypto import FieldPRG
from ..crypto.commitment import CommitRequest, DecommitChallenge
from ..pcp import SoundnessParams
from ..pcp import zaatar as zaatar_pcp
from ..pcp.soundness import RepetitionError
from ..qap import build_qap
from . import framing
from .faults import LinkProfile, ProcessFaultPlan
from .framing import (
    expect,
    hex_list,
    recv_frame,
    require,
    send_frame,
    unhex_ciphertexts,
    unhex_list,
)
from .net import Deadlines, program_hash
from .parallel import WorkerPool, worker_tasks
from .protocol import (
    ArgumentConfig,
    ProtocolViolation,
    ZaatarProver,
    classify_failure,
)

#: cap on the repetition counts a client may request; the paper's
#: production setting is ρ_lin=20, ρ=8 — anything far beyond that is a
#: resource-exhaustion request, not a soundness need
_MAX_RHO = 128
#: server-side budget for the serialized ``trace`` field of the final
#: frame: past this the span records are dropped down to the session
#: root so a chatty trace can never dwarf the protocol payload
_MAX_TRACE_BYTES = 1_000_000
#: how long a sharded session waits for a free shard before it is shed
#: as ``busy``
_LEASE_TIMEOUT = 30.0
#: depth of the accept token bucket that ``accept_rate`` refills
_ACCEPT_BURST = 8

#: deterministic fault-plan "attempt" index for each shard step, so a
#: test can kill a worker precisely between ``prove`` and ``answer``
_FAULT_STEP = {"prove": 1, "answer": 2}

#: how long ``close()`` waits for in-flight sessions to drain
_DRAIN_SECONDS = 10.0


def hello_config(hello: dict) -> ArgumentConfig:
    """The session's config, decoded from its ``hello`` frame.

    Enforces the ``_MAX_RHO`` resource cap before any schedule is
    derived from the parameters.  Repetitions out of range are a
    ``bad-request``, checked before the ``bad-frame`` that every other
    decode error is (``RepetitionError`` is a ``ValueError``).
    """
    try:
        config = ArgumentConfig.decode(hello)
        params = config.params
        in_range = params.rho_lin <= _MAX_RHO and params.rho <= _MAX_RHO
    except RepetitionError:
        in_range = False
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolViolation(f"malformed hello: {exc}", code="bad-frame") from exc
    if not in_range:
        raise ProtocolViolation(
            f"soundness repetitions out of range (max {_MAX_RHO})",
            code="bad-request",
        )
    return config


def _send_error(conn, code: str, message: str, **fields) -> None:
    """Best-effort structured ``error`` frame; the peer may already be gone.

    ``fields`` left at None (a ``retry_after`` with no hint, a refusal
    with no session id) are omitted from the frame.
    """
    frame = {"type": "error", "code": code, "message": message}
    frame.update((key, value) for key, value in fields.items() if value is not None)
    try:
        conn.settimeout(1.0)
        send_frame(conn, frame)
    except OSError:
        pass


def _bound_poke(sock_family, address) -> tuple[socket.socket, tuple, tuple]:
    """A pre-bound socket for waking a server's blocked ``accept()``.

    Returns ``(socket, local_address, connect_target)`` with the socket
    bound but **not yet connected** — the caller records the local
    address first and only then connects, so the accept loop can never
    observe the poke before its address is known (it must tell the poke
    apart from a real client racing the shutdown).
    """
    host = address[0]
    if host in ("0.0.0.0", "::"):
        host = "127.0.0.1" if sock_family == socket.AF_INET else "::1"
    sock = socket.socket(sock_family, socket.SOCK_STREAM)
    sock.bind((host, 0))
    sock.settimeout(1)
    return sock, sock.getsockname(), (host,) + tuple(address[1:])


# -- prover-side session state machine ----------------------------------------


def _budget_check(budget: float | None) -> None:
    """``deadline`` once the session's wall-clock budget has run out.

    ``budget`` is a ``time.monotonic()`` instant, which a forked shard
    reads on the same clock as the gateway.
    """
    if budget is not None and time.monotonic() > budget:
        raise ProtocolViolation(
            "session wall-clock budget exhausted", code="deadline"
        )


def _decode_commit(enc_r) -> CommitRequest:
    """The commit frame's Enc(r), decoded from its hex pairs."""
    return CommitRequest(unhex_ciphertexts(enc_r, what="commit enc_r"))


def _decode_key(spec) -> bytes:
    """The challenge frame's query key K_q: 32 bytes, in hex."""
    try:
        key = bytes.fromhex(spec)
    except (TypeError, ValueError):
        key = b""
    if len(key) != 32:
        raise ProtocolViolation("malformed challenge key", code="bad-frame")
    return key


# -- program registry ---------------------------------------------------------


class RegisteredProgram:
    """One hosted program plus its pre-warmed proving artifacts.

    ``config`` only names the QAP mode :meth:`warm` builds: each
    session proves under the config its ``hello`` carries.
    """

    def __init__(self, program: CompiledProgram, config: ArgumentConfig):
        self.program = program
        self.config = config
        self.hash = program_hash(program)
        self.name = program.name
        self._lock = threading.Lock()
        self._qaps: dict = {}

    def warm(self, qap_mode: str | None = None) -> "RegisteredProgram":
        """Build the QAP and touch every lazily-computed artifact a
        session reads.

        Registration-time warming moves the one-time costs (barycentric
        weights, and in arithmetic mode the H(t) tables with their
        Newton levels) out of the first session's latency — and, when
        the gateway forks shard workers, into memory the children
        inherit copy-on-write.  The subproduct tree is left unbuilt: no
        prover reads it, in either mode.
        """
        qap = self.qap(qap_mode or self.config.qap_mode)
        qap.barycentric_weights
        if qap.mode == "arithmetic":
            qap.h_tables
        return self

    def qap(self, qap_mode: str):
        """The program's QAP for ``qap_mode``, built once and cached."""
        with self._lock:
            qap = self._qaps.get(qap_mode)
        if qap is None:
            try:
                built = build_qap(self.program.quadratic, mode=qap_mode)
            except (ValueError, KeyError) as exc:
                raise ProtocolViolation(
                    f"bad qap_mode {qap_mode!r}: {exc}", code="bad-request"
                ) from exc
            with self._lock:
                qap = self._qaps.setdefault(qap_mode, built)
        return qap


class ProgramRegistry:
    """The server's program table, keyed by canonical program hash."""

    def __init__(self):
        self._lock = threading.Lock()
        self._programs: dict[str, RegisteredProgram] = {}

    def register(
        self,
        program: CompiledProgram,
        config: ArgumentConfig | None = None,
        *,
        warm: bool = True,
    ) -> RegisteredProgram:
        """Host ``program``; pre-warms its artifacts unless ``warm=False``.

        Re-registering the same program replaces its entry (same hash,
        possibly new config).  A program over a field with no commitment
        group raises ``ValueError``: no session could prove it.
        """
        config = config or ArgumentConfig()
        config.group(program.field)
        entry = RegisteredProgram(program, config)
        if warm:
            entry.warm()
        with self._lock:
            self._programs[entry.hash] = entry
        return entry

    def lookup(self, phash) -> RegisteredProgram | None:
        """The entry whose canonical hash is ``phash``, or None."""
        with self._lock:
            return self._programs.get(phash)

    def entries(self) -> list[RegisteredProgram]:
        """Every hosted program (snapshot, registration order)."""
        with self._lock:
            return list(self._programs.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def __iter__(self) -> Iterator[RegisteredProgram]:
        return iter(self.entries())


# -- the prove and answer steps -----------------------------------------------


class _SessionSteps:
    """The two server-side steps of a session, wherever its prover lives.

    :meth:`run` is the one step function: the handler thread calls it
    with ``shards=0``, and with ``shards > 0`` a shard worker calls it
    for the session that leased it.  The :class:`ZaatarProver` that
    commits in ``prove`` is held, with the session's soundness params,
    until ``answer`` finishes it, one session at a time.
    """

    def __init__(self, registry: ProgramRegistry):
        self.registry = registry
        self.session: tuple[ZaatarProver, SoundnessParams] | None = None

    def run(self, kind: str, payload):
        """Run one step; its result is the next frame's payload.

        ``prove`` takes ``(program hash, config, request, batch,
        budget)`` and proves under that config (its QAP mode and
        commitment group); it returns the outputs payload.  ``answer``
        takes the challenge's ``(K_q, t)`` and returns the answers
        payload.
        """
        session, self.session = self.session, None
        if kind == "prove":
            phash, config, request, batch_spec, budget = payload
            entry = self.registry.lookup(phash)
            if entry is None:  # gateway validated; a forked registry re-checks
                raise ProtocolViolation(
                    f"unknown program {str(phash)[:16]}", code="unknown-program"
                )
            qap = entry.qap(config.qap_mode)
            prover = ZaatarProver(entry.program, qap, config)
            outputs = self._prove(prover, request, batch_spec, budget)
            self.session = (prover, config.params)
            return outputs
        if kind == "answer":
            if session is None:
                raise ProtocolViolation(
                    "answer step without a live prove step", code="internal"
                )
            return self._answer(*session, *payload)
        raise ProtocolViolation(f"unknown session step {kind!r}", code="internal")

    @staticmethod
    def _prove(prover, request, batch_spec, budget) -> list[dict]:
        """Commit to the inputs frame's batch, still wire-encoded.  The
        first unprovable instance fails the session at once, before any
        later solve or H(t); the budget is checked between the steps."""
        if not isinstance(batch_spec, list):
            raise ProtocolViolation("inputs 'batch' must be a list", code="bad-frame")
        if not batch_spec:
            raise ProtocolViolation("inputs 'batch' is empty", code="bad-request")
        p = prover.field.p
        batch = [unhex_list(x, what="input vector", p=p) for x in batch_spec]

        def check(index: int, outcome) -> None:
            if isinstance(outcome, Exception):  # coded as the batch engine codes it
                raise ProtocolViolation(
                    f"cannot prove instance {index}: {outcome}",
                    code=classify_failure(outcome),
                ) from outcome
            _budget_check(budget)

        _budget_check(budget)
        outputs = []
        for index, entry in enumerate(prover.commit(request, batch, check=check)):
            check(index, entry)
            y, commitment = entry
            pair = [format(commitment.c1, "x"), format(commitment.c2, "x")]
            outputs.append({"y": hex_list(y), "commitment": pair})
        return outputs

    @staticmethod
    def _answer(prover, params, key: bytes, t: list[int]) -> list[list[str]]:
        """Derive the queries from K_q, now that every commitment is out
        (the ``prover.schedule`` span), and answer them and t."""
        length = prover.qap.proof_vector_length
        if len(t) != length:
            raise ProtocolViolation(
                f"consistency query length {len(t)} != proof vector length {length}",
                code="bad-request",
            )
        with telemetry.span("prover.schedule"):
            prg = FieldPRG.from_key(prover.field, key)
            schedule = zaatar_pcp.generate_schedule(prover.qap, params, prg)
        answers = prover.answer(DecommitChallenge(schedule.basis, t))
        return [hex_list(values) for values in answers]


def _shard_worker_main(
    registry: ProgramRegistry, faults: ProcessFaultPlan | None, conn
) -> None:
    """One shard's loop: each task is one step of the leasing session.

    Tasks are ``(kind, session_id, trace_id, payload)``, a ``prove``
    then its ``answer`` (the gateway's lease keeps sessions from
    interleaving).  With a ``trace_id`` the step records into a tracer
    of that trace and its span records ride back with the reply.  Every
    outcome is the task's one reply — an exception here would kill the
    shard and turn one bad session into a pool problem.  Fork
    inheritance gives each shard the registry (its pre-warmed artifacts)
    for free.
    """
    steps = _SessionSteps(registry)
    for kind, session_id, trace_id, payload in worker_tasks(conn):
        try:
            if faults is not None:
                faults.apply(session_id, _FAULT_STEP.get(kind, 1))
            tracer = telemetry.Tracer(trace_id=trace_id) if trace_id else None
            with telemetry.thread_tracer(tracer) if tracer else nullcontext():
                result = steps.run(kind, payload)
            records = tracer.records_since(0) if tracer else None
            reply = ("ok", result, records)
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            steps.session = None
            reply = ("err", classify_failure(exc), f"{type(exc).__name__}: {exc}")
        conn.send(reply)


# -- churn survival -----------------------------------------------------------


class _SessionParked(Exception):
    """Internal: the session disconnected awaiting-commit and was parked.

    Not an error and not a success — the outcome is deferred until the
    verifier resumes (``sessions_ok``) or the park expires
    (``session_errors.session-expired``), keeping the
    ``started == ok + errors`` ledger exact under churn.
    """


class _ResumeRejected(Exception):
    """Internal: a resume frame was refused (frame already sent/counted)."""


@dataclass
class _SessionContext:
    """What one session carries through the exchange (and into a park).

    Everything needed to continue the protocol on a later connection:
    the resume token, the registry entry and the config the hello
    carried.  A session parks only while it awaits the commit, before
    any prove step, so it carries no prover state.
    """

    token: str
    entry: RegisteredProgram
    config: ArgumentConfig
    session_id: int
    expires_at: float = 0.0


# -- the gateway --------------------------------------------------------------


class GatewayServer:
    """Serves every program in a registry to concurrent verifiers.

    Speaks the session protocol :func:`~repro.argument.net.verify_remote`
    drives: the ``hello``'s program hash is looked up in the registry
    (a miss is the ``unknown-program`` error), busy frames carry a
    ``retry_after`` hint, and shutdown refusals use ``shutting-down``.
    A one-program registry is the §5.1 two-party deployment
    (:func:`ProverServer`).

    Threading model: one listener thread admits connections into a
    bounded queue; ``max_sessions`` handler threads drain it.  Every
    session runs one exchange; with ``shards > 0`` its CPU-heavy
    prove/answer steps run in a leased worker process, and with
    ``shards = 0`` inline on the handler thread.  A reaper thread
    expires parked sessions.  ``process_faults`` (tests) installs a
    deterministic :class:`~repro.argument.faults.ProcessFaultPlan` in
    the shard workers, keyed by (session_id, step).
    """

    def __init__(
        self,
        registry: ProgramRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 8,
        shards: int = 0,
        accept_queue: int = 16,
        per_program_sessions: int | None = None,
        deadlines: Deadlines | None = None,
        resume_timeout: float = 30.0,
        accept_rate: float | None = None,
        link: LinkProfile | None = None,
        trace_sessions: bool = True,
        metrics_seed: int = 0,
        process_faults: ProcessFaultPlan | None = None,
    ):
        if len(registry) == 0:
            raise ValueError("gateway registry has no programs")
        self.registry = registry
        self.max_sessions = max(1, max_sessions)
        self.shards = max(0, shards)
        self.accept_queue = max(0, accept_queue)
        self.per_program_sessions = per_program_sessions
        self.deadlines = deadlines or Deadlines(read=120.0)
        self.resume_timeout = resume_timeout
        self.accept_rate = accept_rate
        self.link = link
        self.trace_sessions = trace_sessions
        self.process_faults = process_faults
        self._sock = socket.create_server(
            (host, port), backlog=max(self.max_sessions + self.accept_queue, 8)
        )
        self.address = self._sock.getsockname()
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._poke_addr: tuple | None = None
        self._accept_q: queue_mod.Queue = queue_mod.Queue()
        self._session_ids = itertools.count(1)
        # guards admission state: _admitted, _per_program, the token bucket
        self._lock = threading.Lock()
        self._admitted = 0  # connections accepted but not yet finished
        self._per_program: Counter = Counter()
        self._pool: WorkerPool | None = None
        # churn survival: parked awaiting-commit sessions by resume
        # token, a reaper that expires them, and a token bucket that
        # paces accepts through a reconnect storm
        self._parked: dict[str, _SessionContext] = {}
        self._parked_lock = threading.Lock()
        self._reaper: threading.Thread | None = None
        self._storm_rng = random.Random(metrics_seed)
        self._bucket_level = float(_ACCEPT_BURST)
        self._bucket_at = time.monotonic()
        # the first program doubles as the headline identity, as in the
        # stats frame, so `repro top` and the exposition's info line name it
        first = registry.entries()[0]
        self.metrics = metrics_mod.MetricsRegistry(
            seed=metrics_seed,
            role="gateway",
            program=first.name,
            program_hash=first.hash[:16],
            field=first.program.field.name,
            backend=getattr(first.program.field.backend, "name", "?"),
            programs=len(registry),
            max_sessions=self.max_sessions,
            shards=self.shards,
            accept_queue=self.accept_queue,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "GatewayServer":
        """Fork the shard pool (if any), start handlers and listener."""
        if self.shards:
            # fork AFTER registration so the children inherit every
            # pre-warmed artifact copy-on-write (compiled programs hold
            # closures and cannot be pickled for spawn)
            self._pool = WorkerPool(
                functools.partial(
                    _shard_worker_main, self.registry, self.process_faults
                ),
                self.shards,
            )
            self.metrics.set_gauge("gateway.shards_alive", self._pool.alive)
        self._handlers = [
            threading.Thread(
                target=self._handler_loop, name=f"gateway-handler-{i}", daemon=True
            )
            for i in range(self.max_sessions)
        ]
        for thread in self._handlers:
            thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True
        )
        self._accept_thread.start()
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="gateway-reaper", daemon=True
        )
        self._reaper.start()
        return self

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting, answer the queued, drain in-flight, tear down.

        Every connection the gateway ever admitted — including those
        still waiting in the accept queue and those queued in the
        kernel backlog — is answered with a structured frame before the
        listener closes; in-flight sessions run to completion (bounded
        by ``_DRAIN_SECONDS``).
        """
        self._stop.set()
        poke = None
        try:
            # record the poke's address before connecting (see
            # net._bound_poke): the accept loop must never mistake a
            # real client for the poke, or refuse the poke as a client
            poke, self._poke_addr, target = _bound_poke(
                self._sock.family, self.address
            )
            poke.connect(target)
        except OSError:
            if poke is not None:
                poke.close()
            poke = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if poke is not None:
            poke.close()
        self._refuse_backlog()
        self._sock.close()
        # handlers see _stop and answer every queued connection with a
        # shutting-down frame, then exit on their sentinel (which the
        # FIFO queue delivers after the stragglers)
        for _ in self._handlers:
            self._accept_q.put(None)
        if drain:
            deadline = time.monotonic() + _DRAIN_SECONDS
            for thread in self._handlers:
                thread.join(timeout=max(deadline - time.monotonic(), 0))
        if self._reaper is not None:
            self._reaper.join(timeout=2)
        # every still-parked session is now unreachable: expire it so
        # the ledger closes (started == ok + errors) and no token leaks
        self._reap_parked(expire_all=True)
        if self._pool is not None:
            self._pool.close()
            self.metrics.set_gauge("gateway.shards_alive", 0)

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _count(self, name: str) -> None:
        """Count one gateway event: registry counter ``name`` and trace
        counter ``net.<name>``.

        The trace counter ticks first, so a reader that sees the
        registry counter move also finds the trace counter.
        """
        telemetry.count(f"net.{name}")
        self.metrics.inc(name)

    @property
    def admitted(self) -> int:
        """Connections admitted and not yet finished (queued + in flight)."""
        with self._lock:
            return self._admitted

    @property
    def pending_resumes(self) -> int:
        """Parked sessions currently awaiting a resume."""
        with self._parked_lock:
            return len(self._parked)

    def leak_check(self) -> dict:
        """Post-drain hygiene snapshot for orchestrators and tests.

        After ``close()`` every field must read empty/full-strength:
        no connection still admitted, no parked resume token, no
        program slot held, and (pre-close) every shard alive.
        """
        with self._lock:
            admitted = self._admitted
            program_slots = {
                k: v for k, v in self._per_program.items() if v
            }
        return {
            "admitted": admitted,
            "pending_resumes": self.pending_resumes,
            "program_slots": program_slots,
            "shards_alive": self._pool.alive if self._pool is not None else None,
        }

    # -- admission ---------------------------------------------------------

    def _accept_loop(self) -> None:
        limit = self.max_sessions + self.accept_queue
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # listener closed
            framing.tune_socket(conn)
            if self._stop.is_set():
                if peer == self._poke_addr:
                    conn.close()
                else:
                    self._refuse_shutdown(conn)
                self._refuse_backlog()
                return
            if self.accept_rate is not None and not self._storm_admit():
                # every client of a killed link reconnects at the same
                # instant; an un-jittered hint would replay the collision
                # one backoff later, so spread it over ~two refill periods
                period = 1.0 / self.accept_rate if self.accept_rate else 1.0
                self._shed(
                    conn,
                    "storm",
                    f"reconnect storm: accepts paced to "
                    f"{self.accept_rate:.1f}/s (burst {_ACCEPT_BURST})",
                    round(period * (0.5 + 1.5 * self._storm_rng.random()), 3),
                )
                continue
            with self._lock:
                admitted = self._admitted
                if admitted < limit:
                    self._admitted += 1
            if admitted >= limit:
                self._shed(
                    conn,
                    "global",
                    f"gateway at capacity ({self.max_sessions} sessions"
                    f" + {self.accept_queue} queued)",
                    self.retry_after_hint(),
                )
                continue
            self._accept_q.put((conn, time.monotonic()))
            self.metrics.set_gauge(
                "gateway.accept_queue_depth", max(admitted + 1 - self.max_sessions, 0)
            )

    def retry_after_hint(self) -> float:
        """Seconds until a shed client plausibly finds a free slot.

        Estimated as (backlog + 1) sessions spread over ``max_sessions``
        lanes at the observed p50 session latency; clamped to a sane
        band so a cold server (no latency samples yet) still hints
        something useful and a pathological one cannot park clients.
        """
        hist = self.metrics.histogram("session_latency_seconds")
        p50 = hist.quantile(0.5) if hist is not None else None
        per_session = p50 if p50 else 0.1
        backlog = self.admitted
        estimate = per_session * (backlog + 1) / self.max_sessions
        return round(min(max(estimate, 0.05), 30.0), 3)

    def _shed(
        self, conn: socket.socket, reason: str, message: str, retry_after: float
    ) -> None:
        """Refuse at admission: busy frame + hint, ``gateway.shed.<reason>``."""
        self._count("sessions_rejected")
        self._count(f"gateway.shed.{reason}")
        with conn:
            _send_error(conn, "busy", message, retry_after=retry_after)

    def _storm_admit(self) -> bool:
        """One token from the accept bucket, refilled at ``accept_rate``/s."""
        now = time.monotonic()
        with self._lock:
            self._bucket_level = min(
                float(_ACCEPT_BURST),
                self._bucket_level + (now - self._bucket_at) * self.accept_rate,
            )
            self._bucket_at = now
            if self._bucket_level >= 1.0:
                self._bucket_level -= 1.0
                return True
        return False

    def _refuse_shutdown(self, conn: socket.socket) -> None:
        """``shutting-down`` frame to a late or queued client.

        The retry hint is jittered so a reconnect herd against a
        restarting prover spreads out instead of stampeding the
        replacement in lockstep.
        """
        self._count("sessions_refused_shutdown")
        with conn:
            _send_error(
                conn,
                "shutting-down",
                "prover is shutting down; retry another endpoint",
                retry_after=round(0.1 + 0.4 * self._storm_rng.random(), 3),
            )

    def _refuse_backlog(self) -> None:
        """Refuse every connection still queued in the kernel backlog."""
        try:
            self._sock.settimeout(0)
        except OSError:
            return
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:  # includes BlockingIOError: backlog empty
                return
            if peer == self._poke_addr:
                conn.close()
            else:
                self._refuse_shutdown(conn)

    @contextmanager
    def _program_slot(self, entry: RegisteredProgram) -> Iterator[None]:
        """Hold one of the program's in-flight slots (busy when full)."""
        limit = self.per_program_sessions
        if limit is None:
            yield
            return
        with self._lock:
            held = self._per_program[entry.hash]
            if held < limit:
                self._per_program[entry.hash] += 1
        if held >= limit:
            self._count("gateway.shed.program")
            raise ProtocolViolation(
                f"program {entry.name!r} at its session limit ({limit})",
                code="busy",
                retry_after=self.retry_after_hint(),
            )
        try:
            yield
        finally:
            with self._lock:
                self._per_program[entry.hash] -= 1

    # -- session handling --------------------------------------------------

    def _handler_loop(self) -> None:
        while True:
            item = self._accept_q.get()
            if item is None:
                return
            conn, queued_at = item
            try:
                if self._stop.is_set():
                    self._refuse_shutdown(conn)
                else:
                    self._session_entry(conn, queued_at)
            finally:
                with self._lock:
                    self._admitted -= 1

    def _session_entry(self, conn: socket.socket, queued_at: float) -> None:
        """Serve one admitted connection, as its first frame says.

        A ``stats`` poll gets its reply and ticks ``stats_requests``
        only.  Any other connection — a session, or the resume of one —
        moves the in-flight gauge and the queue-wait and latency
        histograms once, and the session ledger at most once (a refused
        resume settles nothing).
        """
        picked_up = time.monotonic()
        if self.link is not None:
            conn = self.link.wrap(conn)
        with conn, metrics_mod.use(self.metrics):
            conn.settimeout(self.deadlines.read)
            try:
                first = recv_frame(conn)
            except Exception as exc:  # noqa: BLE001 - a session that failed
                first = exc  # at its first frame; _session answers it
            if isinstance(first, dict) and first["type"] == "stats":
                self._count("stats_requests")
                with suppress(OSError):  # the poller left: still no session
                    send_frame(conn, self._snapshot_frame())
                return
            self.metrics.observe("gateway.queue_wait_seconds", picked_up - queued_at)
            self.metrics.add_gauge("sessions_in_flight", 1)
            try:
                ok = self._session(conn, first, picked_up)
            finally:
                self.metrics.add_gauge("sessions_in_flight", -1)
                self.metrics.observe(
                    "session_latency_seconds", time.monotonic() - picked_up
                )
            if ok:
                # counted after the latency sample, so a stats reader that
                # sees the session as ok also sees its latency
                self._count("sessions_ok")

    def _session(self, conn, first, picked_up: float) -> bool:
        """Serve one session connection; True iff it completed ok.

        ``first`` is the connection's first frame, or the exception that
        reading it raised.  A ``resume`` continues a session whose
        ``hello`` was already counted as started; any other first frame
        starts one here.
        """
        session_id = next(self._session_ids)
        budget = None
        if self.deadlines.session is not None:
            budget = picked_up + self.deadlines.session
        resume = isinstance(first, dict) and first["type"] == "resume"
        if not resume:
            self._count("sessions_started")
        try:
            if isinstance(first, Exception):
                raise first
            if resume:
                self._resume_session(conn, budget, first)
            else:
                self._hello_session(conn, budget, first, session_id)
        except (_SessionParked, _ResumeRejected):
            # parked: the outcome waits for a resume or the reaper;
            # rejected: the refusal frame was already sent and counted
            return False
        except ProtocolViolation as exc:
            self._fail(conn, session_id, exc.code, str(exc), exc.retry_after)
        except TimeoutError as exc:
            # an idle or half-open peer held a handler past the read
            # deadline; reaping it is the deadline error it always was,
            # now also visible in the churn ledger
            self._count("gateway.reaped")
            self._count("gateway.reaped.idle")
            self._fail(conn, session_id, "deadline", f"read deadline exceeded: {exc}")
        except OSError as exc:
            self._fail(conn, session_id, "io", f"transport failure: {exc}")
        except Exception as exc:  # noqa: BLE001 - a bad session must never
            # take the gateway down; report it and keep serving
            self._fail(conn, session_id, "internal", f"{type(exc).__name__}: {exc}")
        else:
            return True
        return False

    def _count_error(self, code: str) -> None:
        self._count("session_errors")
        self._count(f"session_errors.{code}")

    def _fail(
        self,
        conn,
        session_id: int,
        code: str,
        message: str,
        retry_after: float | None = None,
    ) -> None:
        """Count the failure, then send its structured error frame."""
        self._count_error(code)
        _send_error(conn, code, message, session=session_id, retry_after=retry_after)

    def _hello_session(self, conn, budget, first: dict, session_id: int) -> None:
        """Open a session from its ``hello`` frame and run its exchange."""
        hello = expect(first, "hello")
        phash = require(hello, "program")
        entry = self.registry.lookup(phash)
        if entry is None:
            self._count("gateway.unknown_program")
            raise ProtocolViolation(
                f"unknown program {str(phash)[:16]}: not registered with "
                f"this gateway ({len(self.registry)} programs hosted)",
                code="unknown-program",
            )
        self._count(f"gateway.sessions.{entry.name}")
        ctx = _SessionContext(
            token=os.urandom(16).hex(),
            entry=entry,
            config=hello_config(hello),
            session_id=session_id,
        )
        tracer = None
        trace_req = hello.get("trace")
        if self.trace_sessions and isinstance(trace_req, dict):
            tracer = telemetry.Tracer(
                trace_id=str(trace_req.get("trace_id", "") or telemetry.new_trace_id())
            )
        greeting = {"type": "hello-ok", "resume": ctx.token}
        self._exchange(conn, budget, ctx, greeting, tracer)

    def _snapshot_frame(self) -> dict:
        """The reply to a ``stats`` request: server identity plus the
        registry snapshot."""
        entries = self.registry.entries()
        return {
            "type": "stats",
            "server": {
                "role": "gateway",
                # first program doubles as the headline identity so
                # single-program tooling (repro top) renders something
                "program": entries[0].name if entries else "?",
                "program_hash": entries[0].hash if entries else "",
                "address": list(self.address),
                "max_sessions": self.max_sessions,
                "shards": self.shards,
                "accept_queue": self.accept_queue,
                "programs": [
                    {"name": e.name, "program_hash": e.hash} for e in entries
                ],
            },
            "metrics": self.metrics.snapshot(),
        }

    # -- parking and resume ------------------------------------------------

    def _park(self, ctx: _SessionContext) -> None:
        """Park an awaiting-commit session for ``resume_timeout`` seconds."""
        ctx.expires_at = time.monotonic() + self.resume_timeout
        with self._parked_lock:
            self._parked[ctx.token] = ctx
            self.metrics.set_gauge("gateway.pending_resumes", len(self._parked))
        self._count("gateway.parked")

    def _recv_commit(self, conn, ctx: _SessionContext) -> dict:
        """The awaiting-commit read — the only parkable protocol state.

        A disconnect here is provably pre-commit: nothing of the
        exchange has been processed, so the session can continue on a
        later connection without replaying anything.  A read *timeout*
        is not a disconnect — the peer is connected but silent, and
        idling a parked slot for it would reward half-open connections
        — so it propagates to the deadline reaper instead.
        """
        try:
            return expect(recv_frame(conn), "commit")
        except TimeoutError:
            raise
        except ProtocolViolation as exc:
            if exc.code != "io":
                raise
            self._park(ctx)
            raise _SessionParked() from exc
        except OSError as exc:
            self._park(ctx)
            raise _SessionParked() from exc

    def _resume_session(self, conn, budget, first: dict) -> None:
        """Continue a parked session on a fresh connection."""
        token = require(first, "token")
        ctx = None
        if isinstance(token, str) and token:
            with self._parked_lock:
                ctx = self._parked.pop(token, None)
                self.metrics.set_gauge(
                    "gateway.pending_resumes", len(self._parked)
                )
        if ctx is None:
            self._refuse_resume(
                conn,
                "resume-invalid",
                "no parked session for this resume token",
            )
        if ctx.expires_at < time.monotonic():
            # expired but not yet swept: account it exactly as the
            # reaper would, then refuse the reconnect
            self._expire_parked(ctx)
            self._refuse_resume(
                conn,
                "session-expired",
                f"parked session expired after {self.resume_timeout:.1f}s",
            )
        self._count("gateway.resumed")
        greeting = {"type": "resume-ok", "resume": ctx.token}
        self._exchange(conn, budget, ctx, greeting, None)

    def _refuse_resume(self, conn, code: str, message: str) -> None:
        """Reject a resume attempt (counted apart from session errors).

        A rejected resume is not a new failed session — the session it
        tried to continue already settled its ledger entry (or never
        existed), so it gets its own counters instead of ``_fail``.
        """
        self._count("gateway.resume_rejected")
        self._count(f"gateway.resume_rejected.{code}")
        _send_error(conn, code, message)
        raise _ResumeRejected()

    def _expire_parked(self, ctx: _SessionContext) -> None:
        """Close a parked session's ledger entry as ``session-expired``."""
        self._count_error("session-expired")
        self._count("gateway.reaped")
        self._count("gateway.reaped.expired")

    def _reap_parked(self, expire_all: bool = False) -> None:
        now = time.monotonic()
        with self._parked_lock:
            due = [
                token
                for token, ctx in self._parked.items()
                if expire_all or ctx.expires_at < now
            ]
            expired = [self._parked.pop(token) for token in due]
            self.metrics.set_gauge("gateway.pending_resumes", len(self._parked))
        for ctx in expired:
            self._expire_parked(ctx)

    def _reaper_loop(self) -> None:
        interval = max(0.05, min(self.resume_timeout / 4, 1.0))
        while not self._stop.wait(interval):
            self._reap_parked()

    # -- the exchange ------------------------------------------------------

    def _exchange(
        self,
        conn,
        budget: float | None,
        ctx: _SessionContext,
        greeting: dict,
        tracer: telemetry.Tracer | None,
    ) -> None:
        """A session's frames, in one sequence for both proving modes.

        In one of the program's slots: send the greeting, read the
        commit (decoding its Enc(r) as it arrives), the inputs and the
        challenge (K_q and t), and write the outputs and answers.  The
        ``prove`` and ``answer`` steps go to :meth:`_SessionSteps.run`:
        directly with ``shards=0``, else on a shard worker leased before
        the greeting and released on the way out.  A park releases it
        too: nothing of the session reaches the worker before the
        commit, so a resume simply leases again.  A traced session
        records under its own tracer and ships the records in the
        answers frame.
        """
        bind = telemetry.thread_tracer(tracer) if tracer is not None else nullcontext()
        with self._program_slot(ctx.entry), bind:
            span = telemetry.start_span(
                "wire.prover_session", session=ctx.session_id, program=ctx.entry.name
            )
            worker = None
            try:
                if self._pool is None:
                    step = _SessionSteps(self.registry).run
                else:
                    worker = self._lease(budget)
                    step = functools.partial(
                        self._shard_call, worker, ctx.session_id, budget, tracer, span
                    )
                _budget_check(budget)
                send_frame(conn, greeting)
                commit = self._recv_commit(conn, ctx)
                request = _decode_commit(require(commit, "enc_r"))
                batch_spec = require(expect(recv_frame(conn), "inputs"), "batch")
                if isinstance(batch_spec, list):
                    self.metrics.observe("session_batch_size", len(batch_spec))
                prove_payload = (ctx.entry.hash, ctx.config, request, batch_spec, budget)
                outputs = step("prove", prove_payload)
                send_frame(conn, {"type": "outputs", "instances": outputs})
                challenge = expect(recv_frame(conn), "challenge")
                key = _decode_key(require(challenge, "key"))
                t = unhex_list(
                    require(challenge, "t"),
                    what="consistency query",
                    p=ctx.entry.program.field.p,
                )
                _budget_check(budget)
                answers = step("answer", (key, t))
                # every answer step derives its own schedule: a miss
                self._count("gateway.schedule_cache_misses")
            finally:
                if worker is not None:
                    self._pool.release(worker)
                    self.metrics.set_gauge("gateway.shards_alive", self._pool.alive)
                telemetry.end_span(span)
        frame = {"type": "answers", "instances": answers}
        if tracer is not None:
            frame["trace"] = self._bounded_trace(tracer)
        send_frame(conn, frame)

    def _bounded_trace(self, tracer: telemetry.Tracer) -> list[dict]:
        """Span records capped at ``_MAX_TRACE_BYTES`` (root survives)."""
        records = tracer.records_since(0)
        if len(json.dumps(records)) > _MAX_TRACE_BYTES:
            root = records[-1]
            root.setdefault("attrs", {})["trace_truncated"] = len(records) - 1
            records = [root]
        return records

    def _lease(self, budget: float | None):
        """A shard for the session's steps; ``busy`` if none frees in time."""
        timeout = _LEASE_TIMEOUT
        if budget is not None:
            timeout = min(timeout, max(budget - time.monotonic(), 0))
        with self.metrics.time("gateway.lease_wait_seconds"):
            worker = self._pool.lease(timeout=timeout)
        if worker is None:
            self._count("gateway.shed.lease")
            raise ProtocolViolation(
                f"no prover shard free within {timeout:.1f}s",
                code="busy",
                retry_after=self.retry_after_hint(),
            )
        return worker

    def _shard_call(self, worker, session_id, budget, tracer, span, kind, payload):
        """Run one step on the session's leased shard, bounded by the budget.

        A dead worker turns into a structured, *retryable* ``internal``
        error for this client, and a budget that runs out first into
        ``deadline``; either way the lease's release replaces the
        worker instead of reusing it.  The step's span records come
        back with its reply and are adopted under the session span.
        """
        trace_id = tracer.trace_id if tracer is not None else None
        self._pool.send(worker, (kind, session_id, trace_id, payload))
        replies = []
        while not replies:
            _budget_check(budget)
            replies = self._pool.wait(
                [worker], None if budget is None else budget - time.monotonic()
            )
        ((_, reply),) = replies
        if reply is None:
            self._count("gateway.worker_deaths")
            raise ProtocolViolation(
                f"prover shard died during {kind!r} step; "
                f"the session is safe to retry",
                code="internal",
            )
        status, *rest = reply
        if status == "ok":
            result, records = rest
            if records and tracer is not None:
                try:
                    tracer.adopt(
                        records,
                        parent_id=span.span_id if span is not None else None,
                    )
                except (KeyError, TypeError, ValueError):
                    pass  # diagnostic data never fails a session
            return result
        code, message = rest
        raise ProtocolViolation(
            f"shard failed during {kind!r} step: {message}", code=code
        )


# -- single-program serving ---------------------------------------------------


def ProverServer(
    program: CompiledProgram, config: ArgumentConfig | None = None, **kwargs
) -> GatewayServer:
    """Serve one program: a :class:`GatewayServer` over a one-entry registry.

    The §5.1 two-party deployment is the one-program case of the
    gateway, so it gets the gateway's defaults; every keyword goes to
    :class:`GatewayServer` unchanged.
    """
    registry = ProgramRegistry()
    registry.register(program, config)
    return GatewayServer(registry, **kwargs)
