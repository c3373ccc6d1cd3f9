"""Deployment-grid chaos orchestrator (``repro deploy``).

The §5 economics rest on one long-lived prover amortized over many
verifiers — real verifiers, on real networks, that crash and reconnect.
This module stands up that deployment end to end for a grid of
parameter cells and checks, per cell, that the churn machinery keeps
its books:

* one :class:`~repro.argument.GatewayServer` (optionally sharded) and
  ``verifiers`` forked verifier processes, each driving ``sessions``
  full argument sessions;
* an emulated WAN link (:data:`LINK_PROFILES`) wrapped around *both*
  sides of every connection, so latency/jitter/bandwidth/loss ride the
  full round trip;
* seeded churn: per session, a deterministic draw picks ``none`` (run
  to completion), ``drop`` (the commit frame vanishes → the verifier
  reconnects under its gateway resume token), or ``kill`` (the
  verifier process dies mid-handshake → the parked session must expire
  cleanly and the orchestrator respawns the process for the remaining
  sessions);
* per-cell invariants, checked after drain: no leaked sessions or
  leases (:meth:`GatewayServer.leak_check`), the session ledger
  balances (``started == ok + errors``), the park ledger closes
  (``parked == resumed + reaped``), and every session the verifiers
  report complete actually verified.

The consolidated artifact (``benchmarks/out/BENCH_deploy.json``) is
schema-stamped via :func:`repro.benchgate.bench_metadata` so
``repro bench-check`` can diff deploy runs like any other figure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable

from .argument import (
    ArgumentConfig,
    Deadlines,
    FaultPlan,
    FaultRule,
    GatewayServer,
    LinkProfile,
    ProgramRegistry,
    ProtocolViolation,
    RetryPolicy,
    verify_remote,
)
from .argument.framing import recv_frame, send_frame
from .argument.net import hello_frame

#: named WAN shapes for the grid's ``link`` axis (LinkProfile kwargs;
#: the seed is supplied per side at wrap time)
LINK_PROFILES: dict[str, dict[str, Any]] = {
    "lan": {},
    "wan-50ms": {"latency": 0.05, "jitter": 0.005},
    "wan-100ms": {"latency": 0.1, "jitter": 0.01},
    "wan-100ms-lossy": {"latency": 0.1, "jitter": 0.01, "loss": 0.01},
    "dsl-1mbps": {"latency": 0.03, "jitter": 0.005, "bandwidth": 125_000},
}

#: exit code a verifier process dies with when the churn plan says so
KILLED_EXIT = 17


@dataclass(frozen=True)
class DeployCell:
    """One point of the deployment grid."""

    batch: int = 2
    shards: int = 0
    link: str = "lan"
    churn: float = 0.0
    verifiers: int = 2
    sessions: int = 2

    def __post_init__(self):
        if self.link not in LINK_PROFILES:
            raise ValueError(
                f"unknown link profile {self.link!r} "
                f"(choose from {', '.join(sorted(LINK_PROFILES))})"
            )
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn is a probability")

    @property
    def key(self) -> str:
        """Stable identifier naming this cell in results and logs."""
        return (
            f"b{self.batch}_s{self.shards}_{self.link}"
            f"_c{round(self.churn * 100)}_v{self.verifiers}x{self.sessions}"
        )


def grid_cells(
    *,
    batches: list[int],
    shards: list[int],
    links: list[str],
    churns: list[float],
    verifiers: int,
    sessions: int,
) -> list[DeployCell]:
    """The full cartesian grid over the swept axes."""
    return [
        DeployCell(
            batch=b, shards=s, link=l, churn=c,
            verifiers=verifiers, sessions=sessions,
        )
        for b in batches
        for s in shards
        for l in links
        for c in churns
    ]


def churn_plan(cell: DeployCell, seed: int, slot: int) -> list[str]:
    """Seeded per-session decisions for one verifier slot.

    Each decision draws from its own string-seeded RNG so the plan is a
    pure function of ``(seed, cell, slot, session)`` — the orchestrator
    and any replayer agree on it without shared state.
    """
    decisions = []
    for session in range(cell.sessions):
        rng = random.Random(f"deploy:{seed}:{cell.key}:{slot}:{session}")
        if rng.random() < cell.churn:
            decisions.append("kill" if rng.random() < 0.5 else "drop")
        else:
            decisions.append("none")
    return decisions


def _flush(queue, record: dict) -> None:
    """Enqueue and flush (the feeder thread must drain before _exit)."""
    queue.put(record)


def _verifier_main(
    slot: int,
    start: int,
    decisions: list[str],
    address: tuple,
    program,
    config: ArgumentConfig,
    batches: list[list[list[int]]],
    cell_key: str,
    link_kwargs: dict,
    seed: int,
    deadlines: Deadlines,
    queue,
) -> None:
    """One verifier process: drive sessions ``start..`` per the plan.

    Runs in a forked child.  Each session's outcome is enqueued before
    the next starts, so after a ``kill`` the orchestrator can count the
    records and respawn the slot at the right session index.
    """
    link = (
        LinkProfile(**link_kwargs, seed=seed * 1009 + slot)
        if link_kwargs
        else None
    )
    for index in range(start, len(decisions)):
        decision = decisions[index]
        if decision == "kill":
            # die mid-handshake: connect, say hello, vanish.  The
            # gateway parks the session; nobody ever resumes it, so the
            # reaper must expire it and close the ledger.
            try:
                with socket.create_connection(address, timeout=10) as sock:
                    sock.settimeout(10)
                    send_frame(sock, hello_frame(program, config))
                    reply = recv_frame(sock)
                    started = reply.get("type") == "hello-ok"
            except (OSError, ProtocolViolation):
                started = False
            _flush(
                queue,
                {"slot": slot, "session": index, "outcome": "killed",
                 "started": started},
            )
            queue.close()
            queue.join_thread()
            os._exit(KILLED_EXIT)
        plan = (
            FaultPlan([FaultRule(frame=1, action="drop", direction="send")])
            if decision == "drop"
            else None
        )

        def wrapper(sock, _plan=plan, _link=link):
            if _link is not None:
                sock = _link.wrap(sock)
            if _plan is not None:
                sock = _plan.wrap(sock)
            return sock

        record = {"slot": slot, "session": index, "outcome": "ok",
                  "decision": decision}
        try:
            result = verify_remote(
                program,
                batches[index],
                address,
                # a seed of its own per session: a session's challenge
                # hands the prover its seed's query key
                dataclasses.replace(config, seed=hashlib.sha256(
                    f"verifier:{seed}:{cell_key}:{slot}:{index}".encode()
                ).digest()),
                retry=RetryPolicy(
                    max_attempts=4, base_delay=0.3, seed=seed * 31 + slot
                ),
                deadlines=deadlines,
                socket_wrapper=wrapper,
            )
            record["accepted"] = result.all_accepted
            record["attempts"] = result.attempts
            record["resumed"] = result.resumed
        except (ProtocolViolation, OSError) as exc:
            # under a lossy link a session can die non-resumably (e.g.
            # the connection cut after the challenge went out); that is
            # a counted error on both sides, not an invariant breach
            record["outcome"] = "error"
            record["error"] = getattr(exc, "code", None) or type(exc).__name__
        _flush(queue, record)


def run_cell(
    program,
    config: ArgumentConfig,
    cell: DeployCell,
    *,
    seed: int = 0,
    input_generator: Callable[[random.Random], list[int]],
    read_timeout: float = 30.0,
    resume_timeout: float = 3.0,
    log: Callable[[str], None] = lambda _msg: None,
) -> dict:
    """Run one grid cell end to end and return its measured row.

    The gateway is built first (its listener binds in the constructor,
    so the address is known), the verifier processes are forked before
    ``start()`` (they inherit the compiled program copy-on-write and
    never touch the gateway's threads), and the cell tears down through
    the gateway's full drain path so the invariants below are checked
    against a *quiesced* server.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    link_kwargs = LINK_PROFILES[cell.link]
    registry = ProgramRegistry()
    registry.register(program, config)
    gw = GatewayServer(
        registry,
        max_sessions=cell.verifiers + 2,
        shards=cell.shards,
        deadlines=Deadlines(read=read_timeout),
        resume_timeout=resume_timeout,
        link=LinkProfile(**link_kwargs, seed=seed) if link_kwargs else None,
        trace_sessions=False,
        metrics_seed=seed,
    )

    # deterministic inputs per (slot, session, instance)
    plans = {slot: churn_plan(cell, seed, slot) for slot in range(cell.verifiers)}
    batches = {
        slot: [
            [
                input_generator(
                    random.Random(f"inputs:{seed}:{cell.key}:{slot}:{s}:{i}")
                )
                for i in range(cell.batch)
            ]
            for s in range(cell.sessions)
        ]
        for slot in range(cell.verifiers)
    }
    deadlines = Deadlines(connect=10.0, read=read_timeout)
    queue = ctx.Queue()

    def spawn(slot: int, start: int):
        proc = ctx.Process(
            target=_verifier_main,
            args=(slot, start, plans[slot], gw.address, program, config,
                  batches[slot], cell.key, link_kwargs, seed, deadlines,
                  queue),
            daemon=True,
        )
        proc.start()
        return proc

    records: list[dict] = []

    def drain(timeout: float = 0.0) -> None:
        import queue as queue_mod

        while True:
            try:
                records.append(queue.get(timeout=timeout))
            except queue_mod.Empty:
                return

    started_at = time.monotonic()
    procs = {slot: spawn(slot, 0) for slot in range(cell.verifiers)}
    respawns = 0
    with gw:
        done: set[int] = set()
        while len(done) < cell.verifiers:
            drain(timeout=0.1)
            for slot, proc in list(procs.items()):
                if slot in done or proc.is_alive():
                    continue
                proc.join()
                if proc.exitcode == KILLED_EXIT:
                    drain()  # the kill record is flushed before _exit
                    finished = sum(1 for r in records if r["slot"] == slot)
                    respawns += 1
                    log(
                        f"[{cell.key}] slot {slot} died on schedule "
                        f"(session {finished - 1}); respawning at {finished}"
                    )
                    procs[slot] = spawn(slot, finished)
                elif proc.exitcode == 0:
                    done.add(slot)
                else:  # pragma: no cover - a verifier crash is a bug
                    done.add(slot)
                    records.append(
                        {"slot": slot, "session": -1, "outcome": "crashed",
                         "exitcode": proc.exitcode}
                    )
        # every parked kill must expire before the books are audited
        deadline = time.monotonic() + resume_timeout + 5.0
        while gw.pending_resumes and time.monotonic() < deadline:
            time.sleep(0.1)
        # lease hygiene is a *live* property: with every session done,
        # the shard pool must be back at full strength (each park
        # released its lease; each resume leased and released again)
        live_shards = gw.leak_check()["shards_alive"]
    wall = time.monotonic() - started_at
    drain()

    counters = gw.metrics.snapshot()["counters"]
    leak = gw.leak_check()

    total = cell.verifiers * cell.sessions
    by_outcome: dict[str, int] = {}
    error_codes: dict[str, int] = {}
    for rec in records:
        by_outcome[rec["outcome"]] = by_outcome.get(rec["outcome"], 0) + 1
        if rec["outcome"] == "error":
            code = rec.get("error", "unknown")
            error_codes[code] = error_codes.get(code, 0) + 1
    completed = [r for r in records if r["outcome"] == "ok"]
    parked = counters.get("gateway.parked", 0)
    resumed = counters.get("gateway.resumed", 0)
    expired = counters.get("gateway.reaped.expired", 0)

    invariants = {
        # post-drain hygiene: nothing admitted, parked, slotted, or
        # (sharded) short a worker lease
        "no_leaked_sessions": leak["admitted"] == 0
        and leak["pending_resumes"] == 0
        and not leak["program_slots"],
        "no_leaked_leases": live_shards is None
        or live_shards == cell.shards,
        # the churn ledger balances even though sessions parked,
        # resumed, expired, and died mid-flight
        "ledger_balanced": counters.get("sessions_started", 0)
        == counters.get("sessions_ok", 0) + counters.get("session_errors", 0),
        "park_ledger_closed": parked == resumed + expired,
        # every session a verifier reports complete actually verified
        "all_completed_verified": all(r.get("accepted") for r in completed),
        # every verifier session is accounted for exactly once
        "all_sessions_reported": len(records) == total,
    }

    row = {
        "cell": {
            "batch": cell.batch, "shards": cell.shards, "link": cell.link,
            "churn": cell.churn, "verifiers": cell.verifiers,
            "sessions": cell.sessions,
        },
        "wall_seconds": round(wall, 3),
        "sessions_per_second": round(total / wall, 3) if wall > 0 else 0.0,
        "outcomes": by_outcome,
        "client_error_codes": error_codes,
        "gateway": {
            "started": counters.get("sessions_started", 0),
            "ok": counters.get("sessions_ok", 0),
            "errors": counters.get("session_errors", 0),
            "parked": parked,
            "resumed": resumed,
            "expired": expired,
            "reaped_idle": counters.get("gateway.reaped.idle", 0),
        },
        "respawns": respawns,
        "invariants": invariants,
        "invariants_ok": all(invariants.values()),
    }
    return row


def run_grid(
    program,
    config: ArgumentConfig,
    cells: list[DeployCell],
    *,
    seed: int = 0,
    input_generator: Callable[[random.Random], list[int]],
    read_timeout: float = 30.0,
    resume_timeout: float = 3.0,
    log: Callable[[str], None] = lambda _msg: None,
) -> dict:
    """Run every cell and consolidate the grid into one results dict."""
    results: dict[str, Any] = {}
    for cell in cells:
        log(
            f"cell {cell.key}: {cell.verifiers} verifiers x "
            f"{cell.sessions} sessions, batch {cell.batch}, "
            f"link {cell.link}, churn {cell.churn:.0%}, "
            f"shards {cell.shards}"
        )
        row = run_cell(
            program, config, cell,
            seed=seed, input_generator=input_generator,
            read_timeout=read_timeout, resume_timeout=resume_timeout,
            log=log,
        )
        status = "ok" if row["invariants_ok"] else "INVARIANT VIOLATION"
        log(
            f"  -> {row['sessions_per_second']:.2f} sessions/s, "
            f"{row['gateway']['resumed']} resumed, "
            f"{row['gateway']['expired']} expired, {status}"
        )
        results[cell.key] = row
    results["grid_ok"] = all(
        row["invariants_ok"] for row in results.values() if isinstance(row, dict)
    )
    return results
