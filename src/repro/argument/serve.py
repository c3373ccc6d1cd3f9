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
  compile-time costs zero times, and keeps a small LRU of seed-derived
  query schedules (repeat verifiers with a stable seed skip schedule
  regeneration entirely).
* **Session sharding** — with ``shards > 0`` the proving work of each
  session is pinned to one process from a
  :class:`~repro.argument.parallel.SessionWorkerPool` (the
  crash-surviving fork pool, leased for whole sessions because the
  commitment provers built in the ``prove`` step must survive into the
  ``answer`` step).  A worker that dies mid-session becomes a
  structured, retryable ``internal`` error frame for that one client;
  the pool forks a replacement and ``gateway.worker_deaths`` counts it.
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
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from .. import telemetry
from ..telemetry import metrics as metrics_mod
from ..compiler import CompiledProgram
from ..crypto import CommitmentProver, FieldPRG
from ..crypto.commitment import CommitRequest, DecommitChallenge
from ..pcp import SoundnessParams
from ..pcp import zaatar as zaatar_pcp
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
from .parallel import SessionWorkerPool
from .protocol import (
    ArgumentConfig,
    ProtocolViolation,
    classify_failure,
    solve_and_build,
)

#: cap on the repetition counts a client may request; the paper's
#: production setting is ρ_lin=20, ρ=8 — anything far beyond that is a
#: resource-exhaustion request, not a soundness need
_MAX_RHO = 128
#: server-side budget for the serialized ``trace`` field of the final
#: frame: past this the span records are dropped down to the session
#: root so a chatty trace can never dwarf the protocol payload
_MAX_TRACE_BYTES = 1_000_000

#: seed-derived query schedules kept per program (LRU); one entry per
#: distinct (qap_mode, params, seed) a verifier population uses
_SCHEDULE_CACHE = 32

#: deterministic fault-plan "attempt" index for each shard step, so a
#: test can kill a worker precisely between ``prove`` and ``answer``
_FAULT_STEP = {"prove": 1, "answer": 2}


def parse_hello_params(hello: dict) -> tuple[SoundnessParams, bytes]:
    """Validate a ``hello`` frame's soundness params and query seed.

    Enforces the ``_MAX_RHO`` resource cap before any schedule is
    derived from the parameters.
    """
    params_spec = require(hello, "params")
    try:
        params = SoundnessParams(
            delta=params_spec["delta"],
            rho_lin=int(params_spec["rho_lin"]),
            rho=int(params_spec["rho"]),
        )
        seed = bytes.fromhex(require(hello, "seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolViolation(
            f"malformed hello parameters: {exc}", code="bad-frame"
        ) from exc
    if not (1 <= params.rho_lin <= _MAX_RHO and 1 <= params.rho <= _MAX_RHO):
        raise ProtocolViolation(
            f"soundness repetitions out of range (max {_MAX_RHO})",
            code="bad-request",
        )
    return params, seed


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


@contextmanager
def _instance_errors(index: int) -> Iterator[None]:
    """Map an instance's input-shaped failure onto ``bad-request``."""
    try:
        yield
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise ProtocolViolation(
            f"cannot prove instance {index}: {exc}", code="bad-request"
        ) from exc


class SessionProver:
    """The prover half of one session, detached from any transport.

    Holds exactly the state a session accumulates between frames — the
    registry's QAP and seed-derived query schedule, and the
    per-instance commitment provers — and exposes the two server-side
    protocol steps: :meth:`prove` (commit + inputs → outputs payload)
    and :meth:`answer` (challenge → answers payload).  All inputs and
    outputs use the wire encoding (hex strings), so the same object
    serves a handler thread or a shard worker on the far side of a
    process boundary.

    Failures raise :class:`ProtocolViolation` with the structured code
    vocabulary; the transport owner turns them into error frames.
    """

    def __init__(self, program: CompiledProgram, config: ArgumentConfig, qap, schedule):
        self.program = program
        self.config = config
        self.field = program.field
        self.qap = qap
        self.schedule = schedule
        self._request: CommitRequest | None = None
        self._provers: list[CommitmentProver] = []

    def commit(self, enc_r) -> None:
        """Decode and hold the commit frame's Enc(r) ciphertexts.

        Decoding happens here, at frame-receipt time, so a malformed
        commit is answered immediately — not after the server has
        waited on an inputs frame the client may never send.
        """
        self._request = CommitRequest(
            unhex_ciphertexts(enc_r, what="commit enc_r")
        )

    def prove(
        self,
        batch_spec,
        *,
        budget_check: Callable[[], None] | None = None,
    ) -> list[dict]:
        """Run every instance of the batch; returns the outputs payload.

        ``batch_spec`` is the inputs frame's batch, still wire-encoded;
        :meth:`commit` must have run first.  The batch takes the
        in-process prover's solve → ``compute_h_batch`` core
        (``solve_and_build``), then each instance commits.  The first
        instance that cannot be proved fails the session with
        ``bad-request`` at once (a failed solve before any later solve
        or H(t)).  ``budget_check`` (if given) runs before each
        instance's solve, before H(t) and before each instance's commit
        so a session wall-clock budget can abort a long batch mid-way.
        """
        request = self._request
        if request is None:
            raise ProtocolViolation("prove before commit", code="internal")
        if not isinstance(batch_spec, list):
            raise ProtocolViolation("inputs 'batch' must be a list", code="bad-frame")
        batch = [
            unhex_list(x, what="input vector", p=self.field.p) for x in batch_spec
        ]
        check = budget_check or (lambda: None)

        def after_solve(index: int, sol) -> None:
            if isinstance(sol, Exception):
                with _instance_errors(index):
                    raise sol
            check()

        check()
        built = solve_and_build(
            self.program, self.qap, batch, after_solve=after_solve
        )
        group = self.config.group(self.field)
        outputs_payload = []
        for index, entry in enumerate(built):
            check()
            with _instance_errors(index):
                if isinstance(entry, Exception):
                    raise entry
                sol, vector = entry
                prover = CommitmentProver(self.field, group, vector)
                with telemetry.span("prover.instance", index=index):
                    with telemetry.span("prover.crypto_ops"):
                        commitment = prover.commit(request)
            self._provers.append(prover)
            outputs_payload.append(
                {
                    "y": hex_list(sol.output_values),
                    "commitment": [format(commitment.c1, "x"), format(commitment.c2, "x")],
                }
            )
        return outputs_payload

    def answer(self, t_spec) -> list[list[str]]:
        """Answer the decommit challenge; returns the answers payload."""
        t = unhex_list(t_spec, what="consistency query", p=self.field.p)
        if len(t) != len(self.schedule.queries[0]):
            raise ProtocolViolation(
                f"consistency query length {len(t)} != proof vector "
                f"length {len(self.schedule.queries[0])}",
                code="bad-request",
            )
        queries = [list(q) for q in self.schedule.queries] + [t]
        challenge = DecommitChallenge(queries)
        answers_payload = []
        with telemetry.span("prover.answer_queries", instances=len(self._provers)):
            for prover in self._provers:
                response = prover.answer(challenge)
                answers_payload.append(hex_list(response.answers))
        return answers_payload


# -- program registry ---------------------------------------------------------


class RegisteredProgram:
    """One hosted program plus its pre-warmed proving artifacts."""

    def __init__(self, program: CompiledProgram, config: ArgumentConfig):
        self.program = program
        self.config = config
        self.hash = program_hash(program)
        self.name = program.name
        self._lock = threading.Lock()
        self._qaps: dict = {}
        self._schedules: OrderedDict = OrderedDict()

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

    def schedule(self, qap_mode: str, params: SoundnessParams, seed: bytes):
        """The seed-derived query schedule, LRU-cached.

        Returns ``(schedule, cache_hit)``.  Safe to share across
        sessions: schedules are pure data, derived deterministically
        from (QAP, params, seed) and only ever read afterwards.
        """
        key = (qap_mode, params.delta, params.rho_lin, params.rho, seed)
        with self._lock:
            if key in self._schedules:
                self._schedules.move_to_end(key)
                return self._schedules[key], True
        qap = self.qap(qap_mode)
        sched = zaatar_pcp.generate_schedule(
            qap, params, FieldPRG(self.program.field, seed, "queries")
        )
        with self._lock:
            self._schedules[key] = sched
            while len(self._schedules) > _SCHEDULE_CACHE:
                self._schedules.popitem(last=False)
        return sched, False

    def session_prover(
        self, params: SoundnessParams, seed: bytes, qap_mode: str
    ) -> tuple[SessionProver, bool]:
        """A fresh per-session prover over the cached QAP + schedule."""
        sched, hit = self.schedule(qap_mode, params, seed)
        prover = SessionProver(self.program, self.config, self.qap(qap_mode), sched)
        return prover, hit


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
        possibly new config).
        """
        entry = RegisteredProgram(program, config or ArgumentConfig())
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


# -- shard workers ------------------------------------------------------------


def _shard_worker_main(
    registry: ProgramRegistry,
    faults: ProcessFaultPlan | None,
    task_q,
    result_q,
) -> None:
    """One shard's loop: whole-session exchanges in two steps.

    Tasks are ``("prove", session_id, payload)`` then
    ``("answer", session_id, payload)``; the :class:`SessionProver`
    built by ``prove`` is held until its ``answer`` arrives (the lease
    discipline in the gateway guarantees no interleaving).  Every
    outcome is a message — an exception here would kill the shard and
    turn one bad session into a pool problem.  Fork inheritance gives
    each shard the registry (and its pre-warmed artifacts) for free.
    """
    session: SessionProver | None = None
    tracer: telemetry.Tracer | None = None
    mark = 0
    while True:
        task = task_q.get()
        if task is None:
            return
        kind, session_id, payload = task
        try:
            if faults is not None:
                faults.apply(session_id, _FAULT_STEP.get(kind, 1))
            if kind == "prove":
                phash, params_tuple, seed_hex, qap_mode, enc_r, batch_spec, trace_id = payload
                entry = registry.lookup(phash)
                if entry is None:  # gateway validated; a shard must re-check
                    raise ProtocolViolation(
                        f"unknown program {str(phash)[:16]}", code="unknown-program"
                    )
                delta, rho_lin, rho = params_tuple
                params = SoundnessParams(delta=delta, rho_lin=rho_lin, rho=rho)
                prover, _ = entry.session_prover(
                    params, bytes.fromhex(seed_hex), qap_mode
                )
                prover.commit(enc_r)
                tracer = telemetry.Tracer(trace_id=trace_id) if trace_id else None
                if tracer is not None:
                    with telemetry.thread_tracer(tracer):
                        out = prover.prove(batch_spec)
                    mark = tracer.mark()
                    records = tracer.records_since(0)
                else:
                    out = prover.prove(batch_spec)
                    records = None
                session = prover
                result_q.put(("ok", session_id, kind, out, records))
            elif kind == "answer":
                if session is None:
                    raise ProtocolViolation(
                        "answer step without a live prove step", code="internal"
                    )
                if tracer is not None:
                    with telemetry.thread_tracer(tracer):
                        out = session.answer(payload)
                    records = tracer.records_since(mark)
                else:
                    out = session.answer(payload)
                    records = None
                session = tracer = None
                result_q.put(("ok", session_id, kind, out, records))
            else:
                raise ProtocolViolation(f"unknown shard task {kind!r}", code="internal")
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            session = tracer = None
            result_q.put(
                (
                    "err",
                    session_id,
                    kind,
                    classify_failure(exc),
                    f"{type(exc).__name__}: {exc}",
                )
            )


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
    the registry entry, the hello's validated parameters, and — on the
    inline path — the already-built :class:`SessionProver` so a resume
    skips schedule regeneration.  ``token`` is None when resume tokens
    are disabled, and such a session is never parked.
    """

    token: str | None
    entry: RegisteredProgram
    params: SoundnessParams
    seed: bytes
    qap_mode: str
    session_id: int
    prover: SessionProver | None = None
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
    bounded queue; ``max_sessions`` handler threads drain it.  With
    ``shards > 0`` the CPU-heavy prove/answer steps run in leased
    worker processes; ``shards = 0`` proves inline on the handler
    thread.  ``process_faults`` (tests) installs a deterministic
    :class:`~repro.argument.faults.ProcessFaultPlan` in the shard
    workers, keyed by (session_id, step).
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
        drain_timeout: float = 10.0,
        lease_timeout: float = 30.0,
        resume_tokens: bool = True,
        resume_timeout: float = 30.0,
        accept_rate: float | None = None,
        accept_burst: int = 8,
        link: LinkProfile | None = None,
        trace_sessions: bool = True,
        max_trace_bytes: int = _MAX_TRACE_BYTES,
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
        self.drain_timeout = drain_timeout
        self.lease_timeout = lease_timeout
        self.resume_tokens = resume_tokens
        self.resume_timeout = resume_timeout
        self.accept_rate = accept_rate
        self.accept_burst = max(1, accept_burst)
        self.link = link
        self.trace_sessions = trace_sessions
        self.max_trace_bytes = max_trace_bytes
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
        self._stats: Counter = Counter()
        self._stats_lock = threading.Lock()
        self._admitted = 0  # connections accepted but not yet finished
        self._per_program: Counter = Counter()
        self._pool: SessionWorkerPool | None = None
        # churn survival: parked awaiting-commit sessions by resume
        # token, a reaper that expires them, and a token bucket that
        # paces accepts through a reconnect storm
        self._parked: dict[str, _SessionContext] = {}
        self._parked_lock = threading.Lock()
        self._reaper: threading.Thread | None = None
        self._storm_rng = random.Random(metrics_seed)
        self._bucket_level = float(self.accept_burst)
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
            self._pool = SessionWorkerPool(
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
        if self.resume_tokens:
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
        by ``drain_timeout``).
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
        self._drain_backlog()
        self._sock.close()
        # handlers see _stop and answer every queued connection with a
        # shutting-down frame, then exit on their sentinel (which the
        # FIFO queue delivers after the stragglers)
        for _ in self._handlers:
            self._accept_q.put(None)
        if drain:
            deadline = time.monotonic() + self.drain_timeout
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

    @property
    def stats(self) -> dict[str, int]:
        """Lifetime session counters (wire ``stats`` frame form)."""
        with self._stats_lock:
            return dict(self._stats)

    def _bump(self, key: str) -> None:
        with self._stats_lock:
            self._stats[key] += 1

    @property
    def admitted(self) -> int:
        """Connections admitted and not yet finished (queued + in flight)."""
        with self._stats_lock:
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
        with self._stats_lock:
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
                self._drain_backlog()
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
                    f"{self.accept_rate:.1f}/s (burst {self.accept_burst})",
                    round(period * (0.5 + 1.5 * self._storm_rng.random()), 3),
                )
                continue
            with self._stats_lock:
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
        self._bump("sessions_rejected")
        telemetry.count("net.sessions_rejected")
        self.metrics.inc("sessions_rejected")
        self.metrics.inc(f"gateway.shed.{reason}")
        with conn:
            _send_error(conn, "busy", message, retry_after=retry_after)

    def _storm_admit(self) -> bool:
        """One token from the accept bucket, refilled at ``accept_rate``/s."""
        now = time.monotonic()
        with self._stats_lock:
            self._bucket_level = min(
                float(self.accept_burst),
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
        self._bump("sessions_refused_shutdown")
        self.metrics.inc("sessions_refused_shutdown")
        telemetry.count("net.sessions_refused_shutdown")
        with conn:
            _send_error(
                conn,
                "shutting-down",
                "prover is shutting down; retry another endpoint",
                retry_after=round(0.1 + 0.4 * self._storm_rng.random(), 3),
            )

    def _drain_backlog(self) -> None:
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
        with self._stats_lock:
            held = self._per_program[entry.hash]
            if held < limit:
                self._per_program[entry.hash] += 1
        if held >= limit:
            self.metrics.inc("gateway.shed.program")
            raise ProtocolViolation(
                f"program {entry.name!r} at its session limit ({limit})",
                code="busy",
                retry_after=self.retry_after_hint(),
            )
        try:
            yield
        finally:
            with self._stats_lock:
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
                with self._stats_lock:
                    self._admitted -= 1

    def _session_entry(self, conn: socket.socket, queued_at: float) -> None:
        session_id = next(self._session_ids)
        started = time.monotonic()
        if self.link is not None:
            conn = self.link.wrap(conn)
        self.metrics.observe("gateway.queue_wait_seconds", started - queued_at)
        self.metrics.add_gauge("sessions_in_flight", 1)
        ok = False
        try:
            with conn, metrics_mod.use(self.metrics):
                ok = self._session(conn, session_id)
        finally:
            self.metrics.add_gauge("sessions_in_flight", -1)
            self.metrics.observe(
                "session_latency_seconds", time.monotonic() - started
            )
        if ok:
            # counted after the latency sample, so a stats reader that
            # sees the session as ok also sees its latency
            self._bump("sessions_ok")
            telemetry.count("net.sessions_ok")
            self.metrics.inc("sessions_ok")

    def _mark_started(self, counted: list) -> None:
        """Count this connection as a started session, exactly once.

        The bump happens after first-frame classification (not at
        accept time) because a ``resume`` connection *continues* a
        session that was already counted — bumping again would break
        ``sessions_started == sessions_ok + session_errors``.  The
        wire-stats counter and the metrics counter still move together,
        so the stats frame and the exposition page cannot disagree.
        """
        if counted[0]:
            return
        counted[0] = True
        self._bump("sessions_started")
        telemetry.count("net.sessions_started")
        self.metrics.inc("sessions_started")

    def _session(self, conn, session_id: int) -> bool:
        """Serve one connection; True iff its session completed ok."""
        conn.settimeout(self.deadlines.read)
        budget = None
        if self.deadlines.session is not None:
            budget = time.monotonic() + self.deadlines.session
        counted = [False]
        try:
            self._run_session(conn, budget, session_id, counted)
        except _SessionParked:
            pass  # outcome deferred until the verifier resumes (or expires)
        except _ResumeRejected:
            pass  # refusal frame already sent and counted
        except ProtocolViolation as exc:
            self._mark_started(counted)
            self._fail(conn, session_id, exc.code, str(exc), exc.retry_after)
        except TimeoutError as exc:
            # an idle or half-open peer held a handler past the read
            # deadline; reaping it is the deadline error it always was,
            # now also visible in the churn ledger
            self._mark_started(counted)
            self.metrics.inc("gateway.reaped")
            self.metrics.inc("gateway.reaped.idle")
            telemetry.count("net.gateway_reaped")
            self._fail(conn, session_id, "deadline", f"read deadline exceeded: {exc}")
        except OSError as exc:
            self._mark_started(counted)
            self._fail(conn, session_id, "io", f"transport failure: {exc}")
        except Exception as exc:  # noqa: BLE001 - a bad session must never
            # take the gateway down; report it and keep serving
            self._mark_started(counted)
            self._fail(conn, session_id, "internal", f"{type(exc).__name__}: {exc}")
        else:
            self._mark_started(counted)
            return True
        return False

    def _count_error(self, code: str) -> None:
        self._bump("session_errors")
        telemetry.count("net.session_errors")
        telemetry.count(f"net.session_errors.{code}")
        self.metrics.inc("session_errors")
        self.metrics.inc(f"session_errors.{code}")

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

    # -- parking and resume ------------------------------------------------

    def _park(self, ctx: _SessionContext) -> None:
        """Park an awaiting-commit session for ``resume_timeout`` seconds."""
        ctx.expires_at = time.monotonic() + self.resume_timeout
        with self._parked_lock:
            self._parked[ctx.token] = ctx
            self.metrics.set_gauge("gateway.pending_resumes", len(self._parked))
        self._bump("sessions_parked")
        self.metrics.inc("gateway.parked")
        telemetry.count("net.gateway_parked")

    def _recv_commit(self, conn, ctx: _SessionContext | None) -> dict:
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
            if exc.code == "io" and ctx is not None and ctx.token is not None:
                self._park(ctx)
                raise _SessionParked() from exc
            raise
        except OSError as exc:
            if ctx is not None and ctx.token is not None:
                self._park(ctx)
                raise _SessionParked() from exc
            raise

    def _resume_session(self, conn, budget, first: dict, session_id: int) -> None:
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
        self._bump("sessions_resumed")
        self.metrics.inc("gateway.resumed")
        telemetry.count("net.gateway_resumed")
        greeting = {"type": "resume-ok", "resume": ctx.token}
        with self._program_slot(ctx.entry):
            answers_payload = self._serve_proofs(
                conn, budget, ctx, greeting, None
            )
        send_frame(conn, {"type": "answers", "instances": answers_payload})

    def _refuse_resume(self, conn, code: str, message: str) -> None:
        """Reject a resume attempt (counted apart from session errors).

        A rejected resume is not a new failed session — the session it
        tried to continue already settled its ledger entry (or never
        existed), so it gets its own counters instead of ``_fail``.
        """
        self._bump("sessions_resume_rejected")
        self.metrics.inc("gateway.resume_rejected")
        self.metrics.inc(f"gateway.resume_rejected.{code}")
        telemetry.count("net.gateway_resume_rejected")
        _send_error(conn, code, message)
        raise _ResumeRejected()

    def _expire_parked(self, ctx: _SessionContext) -> None:
        """Close a parked session's ledger entry as ``session-expired``."""
        self._bump("sessions_reaped")
        self._count_error("session-expired")
        self.metrics.inc("gateway.reaped")
        self.metrics.inc("gateway.reaped.expired")
        telemetry.count("net.gateway_reaped")

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

    @staticmethod
    def _budget_check(budget: float | None) -> None:
        if budget is not None and time.monotonic() > budget:
            raise ProtocolViolation(
                "session wall-clock budget exhausted", code="deadline"
            )

    def _run_session(
        self, conn, budget: float | None, session_id: int, counted: list
    ) -> None:
        first = recv_frame(conn)
        if first.get("type") == "stats":
            self._mark_started(counted)
            self.metrics.inc("stats_requests")
            send_frame(conn, self._stats_frame())
            return
        if first.get("type") == "resume":
            # continues an already-counted session: no started bump
            counted[0] = True
            self._resume_session(conn, budget, first, session_id)
            return
        self._mark_started(counted)
        hello = expect(first, "hello")
        phash = require(hello, "program")
        entry = self.registry.lookup(phash)
        if entry is None:
            self.metrics.inc("gateway.unknown_program")
            raise ProtocolViolation(
                f"unknown program {str(phash)[:16]}: not registered with "
                f"this gateway ({len(self.registry)} programs hosted)",
                code="unknown-program",
            )
        self.metrics.inc(f"gateway.sessions.{entry.name}")
        params, seed = parse_hello_params(hello)
        qap_mode = hello.get("qap_mode", entry.config.qap_mode)
        token = os.urandom(16).hex() if self.resume_tokens else None
        ctx = _SessionContext(
            token=token,
            entry=entry,
            params=params,
            seed=seed,
            qap_mode=qap_mode,
            session_id=session_id,
        )
        greeting = {"type": "hello-ok"}
        if token is not None:
            greeting["resume"] = token

        session_tracer: telemetry.Tracer | None = None
        trace_req = hello.get("trace")
        if self.trace_sessions and isinstance(trace_req, dict):
            session_tracer = telemetry.Tracer(
                trace_id=str(trace_req.get("trace_id", "") or telemetry.new_trace_id())
            )

        with self._program_slot(entry):
            if session_tracer is not None:
                with telemetry.thread_tracer(session_tracer):
                    answers_payload = self._serve_proofs(
                        conn, budget, ctx, greeting, session_tracer
                    )
                frame = {"type": "answers", "instances": answers_payload}
                frame["trace"] = self._bounded_trace(session_tracer)
            else:
                answers_payload = self._serve_proofs(
                    conn, budget, ctx, greeting, None
                )
                frame = {"type": "answers", "instances": answers_payload}
        send_frame(conn, frame)

    def _stats_frame(self) -> dict:
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
                "stats": self.stats,
            },
            "metrics": self.metrics.snapshot(),
        }

    def _bounded_trace(self, tracer: telemetry.Tracer) -> list[dict]:
        """Span records capped at ``max_trace_bytes`` (root survives)."""
        records = tracer.records_since(0)
        if len(json.dumps(records)) > self.max_trace_bytes:
            root = records[-1]
            root.setdefault("attrs", {})["trace_truncated"] = len(records) - 1
            records = [root]
        return records

    # -- the prove/answer exchange ----------------------------------------

    def _serve_proofs(
        self,
        conn,
        budget: float | None,
        ctx: _SessionContext,
        greeting: dict,
        tracer: telemetry.Tracer | None,
    ) -> list:
        span = telemetry.start_span(
            "wire.prover_session", session=ctx.session_id, program=ctx.entry.name
        )
        try:
            if self._pool is not None:
                return self._exchange_sharded(conn, budget, ctx, greeting, tracer, span)
            return self._exchange_inline(conn, budget, ctx, greeting)
        finally:
            telemetry.end_span(span)

    def _exchange_inline(self, conn, budget, ctx: _SessionContext, greeting) -> list:
        """Prove on the handler thread (shards=0)."""
        self._budget_check(budget)
        send_frame(conn, greeting)
        if ctx.prover is None:
            prover, cache_hit = ctx.entry.session_prover(
                ctx.params, ctx.seed, ctx.qap_mode
            )
            self.metrics.inc(
                "gateway.schedule_cache_hits" if cache_hit
                else "gateway.schedule_cache_misses"
            )
            ctx.prover = prover  # survives a park into the resume
        else:
            prover = ctx.prover  # resumed: schedule already derived
        commit = self._recv_commit(conn, ctx)
        prover.commit(require(commit, "enc_r"))
        inputs_msg = expect(recv_frame(conn), "inputs")
        batch_spec = require(inputs_msg, "batch")
        if isinstance(batch_spec, list):
            self.metrics.observe("session_batch_size", len(batch_spec))
        outputs_payload = prover.prove(
            batch_spec,
            budget_check=lambda: self._budget_check(budget),
        )
        send_frame(conn, {"type": "outputs", "instances": outputs_payload})
        challenge_msg = expect(recv_frame(conn), "challenge")
        self._budget_check(budget)
        return prover.answer(require(challenge_msg, "t"))

    def _exchange_sharded(
        self, conn, budget, ctx: _SessionContext, greeting, tracer, span
    ) -> list:
        """Pin the session to a leased shard worker for both steps.

        A disconnect while awaiting the commit parks the session *and
        releases the lease* (the ``finally`` below runs on the way
        out): nothing session-specific has shipped to the worker yet,
        so a resume simply leases again.  Post-commit disconnects also
        release — they fail the session for good.
        """
        entry, params, seed = ctx.entry, ctx.params, ctx.seed
        session_id = ctx.session_id
        lease_timeout = self.lease_timeout
        if budget is not None:
            lease_timeout = min(lease_timeout, max(budget - time.monotonic(), 0))
        with self.metrics.time("gateway.lease_wait_seconds"):
            worker = self._pool.lease(timeout=lease_timeout)
        if worker is None:
            self.metrics.inc("gateway.shed.lease")
            raise ProtocolViolation(
                f"no prover shard free within {lease_timeout:.1f}s",
                code="busy",
                retry_after=self.retry_after_hint(),
            )
        try:
            self._budget_check(budget)
            send_frame(conn, greeting)
            commit = self._recv_commit(conn, ctx)
            # decode-validate at receipt so a malformed commit is
            # answered before we wait on inputs (the shard decodes for
            # real when the whole exchange ships over)
            unhex_ciphertexts(require(commit, "enc_r"), what="commit enc_r")
            inputs_msg = expect(recv_frame(conn), "inputs")
            batch_spec = require(inputs_msg, "batch")
            if isinstance(batch_spec, list):
                self.metrics.observe("session_batch_size", len(batch_spec))
            prove_payload = (
                entry.hash,
                (params.delta, params.rho_lin, params.rho),
                seed.hex(),
                ctx.qap_mode,
                require(commit, "enc_r"),
                batch_spec,
                tracer.trace_id if tracer is not None else None,
            )
            outputs_payload = self._shard_call(
                worker, ("prove", session_id, prove_payload), budget, tracer, span
            )
            send_frame(conn, {"type": "outputs", "instances": outputs_payload})
            challenge_msg = expect(recv_frame(conn), "challenge")
            self._budget_check(budget)
            return self._shard_call(
                worker,
                ("answer", session_id, require(challenge_msg, "t")),
                budget,
                tracer,
                span,
            )
        finally:
            if worker.process.is_alive():
                self._pool.release(worker)
            else:
                self._pool.replace(worker)
            self.metrics.set_gauge("gateway.shards_alive", self._pool.alive)

    def _shard_call(self, worker, task, budget, tracer, span):
        """One task round trip to a leased shard; survives its death.

        A dead worker turns into a structured, *retryable* ``internal``
        error for this client (the replacement fork happens in the
        lease's ``finally``); stale messages from an exchange a prior
        session abandoned on this worker are filtered by (session, step).
        """
        kind, session_id = task[0], task[1]
        worker.task_q.put(task)
        while True:
            try:
                msg = worker.result_q.get(timeout=0.05)
            except queue_mod.Empty:
                if not worker.process.is_alive():
                    self._bump("worker_deaths")
                    self.metrics.inc("gateway.worker_deaths")
                    telemetry.count("net.gateway_worker_deaths")
                    raise ProtocolViolation(
                        f"prover shard died during {kind!r} step; "
                        f"the session is safe to retry",
                        code="internal",
                    ) from None
                self._budget_check(budget)
                continue
            status, msg_sid, msg_kind, *rest = msg
            if msg_sid != session_id or msg_kind != kind:
                continue  # stale result from an abandoned exchange
            if status == "ok":
                payload, records = rest
                if records and tracer is not None:
                    try:
                        tracer.adopt(
                            records,
                            parent_id=span.span_id if span is not None else None,
                        )
                    except (KeyError, TypeError, ValueError):
                        pass  # diagnostic data never fails a session
                return payload
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
