"""Gateway throughput bench: multi-tenant serving vs single-session serving.

Not a paper figure — this bench guards the gateway's admission layer
(``repro.argument.serve``).  The §5 breakeven economics want one prover
amortized over many verifiers and many programs; a server that runs
one session at a time and sheds the rest forces concurrent verifiers
into busy-shed exponential backoff.  The gateway admits the same load
into a bounded queue (so the prover core never idles while clients
sleep out their backoff), dispatches by program hash, and serves every
session from the registry's pre-warmed artifacts.  Every session draws
its own verifier seed, as a real verifier must.

Scenarios, measured at ``--clients`` concurrent verifiers over
``--programs`` hosted programs for ``--duration`` seconds each:

* ``baseline_single_session`` — the same gateway code with admission
  turned off (``max_sessions=1, accept_queue=0``): one session at a
  time, overflow shed immediately.  Isolates exactly what the
  admission layer buys.
* ``baseline_per_program_servers`` (informational) — one
  single-program ``ProverServer(max_sessions=1, accept_queue=0)`` per
  program; verifiers ride the stock ``RetryPolicy`` through the
  busy-shed storms.
* ``gateway`` — one ``GatewayServer`` hosting every program with
  ``max_sessions == clients`` handler lanes and a bounded accept
  queue; busy frames (if any) carry ``retry_after`` hints the client
  honors.

``--check`` (the CI gate) fails unless the gateway clears
``SERVE_MIN_SPEEDUP``× the baseline's sessions/sec.  The artifact
lands in ``benchmarks/out/BENCH_serve.json``.

Standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py --duration 4 --check
"""

from __future__ import annotations

import argparse
import dataclasses
import secrets
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import BENCH_PARAMS, FIELD, RESULTS, emit_results, print_table

from repro.argument import (
    ArgumentConfig,
    GatewayServer,
    ProgramRegistry,
    ProtocolViolation,
    ProverServer,
    RetryPolicy,
    verify_remote,
)
from repro.compiler import compile_program

#: the acceptance floor: admission queueing + warm registry must buy at
#: least this over single-session-at-a-time serving under the same load
SERVE_MIN_SPEEDUP = 4.0

CONFIG = ArgumentConfig(params=BENCH_PARAMS)


def _session_config() -> ArgumentConfig:
    """CONFIG with a verifier seed of its own: a seed never serves two
    sessions, since a session's challenge hands the prover its query key."""
    return dataclasses.replace(CONFIG, seed=secrets.token_bytes(16))


def _build_dotp(b):
    xs = b.inputs(4)
    b.output(xs[0] * xs[1] + xs[2] * xs[3])


def _build_horner(b):
    x = b.input()
    acc = b.constant(1)
    for _ in range(4):
        acc = acc * x + x
    b.output(acc)


def hosted_programs(count: int):
    """The bench's program fleet (tiny, so session overheads dominate)."""
    builders = [("dotp", _build_dotp), ("horner", _build_horner)]
    programs = []
    for i in range(count):
        name, builder = builders[i % len(builders)]
        programs.append(compile_program(FIELD, builder, name=f"{name}{i}"))
    return programs


def _inputs_for(program) -> list[int]:
    return list(range(3, 3 + program.num_inputs))


class _LoadResult:
    """Per-scenario tallies accumulated across client threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.shed = 0
        self.errors = 0


def _client_loop(result, stop, program, address, seed):
    attempt = 0
    while not stop.is_set():
        attempt += 1
        retry = RetryPolicy(
            max_attempts=12, base_delay=0.05, max_delay=2.0, seed=seed * 1009 + attempt
        )
        start = time.perf_counter()
        try:
            outcome = verify_remote(
                program, [_inputs_for(program)], address, _session_config(), retry=retry
            )
            assert outcome.all_accepted
        except ProtocolViolation as exc:
            with result.lock:
                if exc.code in ("busy", "io", "shutting-down"):
                    result.shed += 1
                else:
                    result.errors += 1
            continue
        elapsed = time.perf_counter() - start
        with result.lock:
            result.latencies.append(elapsed)


def run_load(addresses, programs, clients: int, duration: float) -> dict:
    """Drive ``clients`` concurrent verifiers round-robin over programs.

    ``addresses[i]`` is where program ``i`` is served (the same address
    repeated models the gateway; distinct addresses the per-program
    baseline).  Returns the scenario's result row.
    """
    result = _LoadResult()
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(
                result,
                stop,
                programs[i % len(programs)],
                addresses[i % len(addresses)],
                i,
            ),
            daemon=True,
        )
        for i in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    elapsed = time.perf_counter() - start
    ordered = sorted(result.latencies)

    def quantile(q: float) -> float | None:
        if not ordered:
            return None
        return ordered[min(int(q * len(ordered)), len(ordered) - 1)]

    return {
        "sessions_ok": len(ordered),
        "sheds": result.shed,
        "errors": result.errors,
        "elapsed_seconds": elapsed,
        "sessions_per_second": len(ordered) / elapsed if elapsed else 0.0,
        "latency_p50_seconds": quantile(0.50),
        "latency_p99_seconds": quantile(0.99),
    }


def bench_baseline(programs, clients: int, duration: float) -> dict:
    """The gateway with admission off: one session at a time, no queue."""
    registry = ProgramRegistry()
    for prog in programs:
        registry.register(prog, CONFIG)
    with GatewayServer(registry, max_sessions=1, accept_queue=0) as gateway:
        # prime once so first-session compile noise is out of the window
        verify_remote(
            programs[0], [_inputs_for(programs[0])], gateway.address, _session_config()
        )
        return run_load([gateway.address], programs, clients, duration)


def bench_per_program_servers(programs, clients: int, duration: float) -> dict:
    """One single-session, single-program server per program."""
    servers = [
        ProverServer(prog, CONFIG, max_sessions=1, accept_queue=0).start()
        for prog in programs
    ]
    try:
        for prog, server in zip(programs, servers):
            verify_remote(prog, [_inputs_for(prog)], server.address, _session_config())
        return run_load(
            [server.address for server in servers], programs, clients, duration
        )
    finally:
        for server in servers:
            server.close()


def bench_gateway(programs, clients: int, duration: float) -> dict:
    """One gateway hosting every program, admission-queued."""
    registry = ProgramRegistry()
    for prog in programs:
        registry.register(prog, CONFIG)
    with GatewayServer(
        registry, max_sessions=clients, accept_queue=2 * clients
    ) as gateway:
        verify_remote(
            programs[0], [_inputs_for(programs[0])], gateway.address, _session_config()
        )
        return run_load([gateway.address], programs, clients, duration)


def run_bench(clients: int, num_programs: int, duration: float) -> dict:
    programs = hosted_programs(num_programs)
    baseline = bench_baseline(programs, clients, duration)
    per_program = bench_per_program_servers(programs, clients, duration)
    gateway = bench_gateway(programs, clients, duration)
    speedup = (
        gateway["sessions_per_second"] / baseline["sessions_per_second"]
        if baseline["sessions_per_second"]
        else float("inf")
    )
    summary = {
        "clients": clients,
        "programs": num_programs,
        "duration_seconds": duration,
        "speedup": speedup,
    }
    RESULTS[("serve", "baseline_single_session")] = baseline
    RESULTS[("serve", "baseline_per_program_servers")] = per_program
    RESULTS[("serve", "gateway")] = gateway
    RESULTS[("serve", "summary")] = summary
    return {
        "baseline": baseline,
        "per_program": per_program,
        "gateway": gateway,
        "summary": summary,
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def _report(results: dict) -> None:
    rows = []
    for label in ("baseline", "per_program", "gateway"):
        row = results[label]
        rows.append(
            [
                label,
                _fmt(row["sessions_per_second"]),
                str(row["sessions_ok"]),
                str(row["sheds"]),
                _fmt(row["latency_p50_seconds"]),
                _fmt(row["latency_p99_seconds"]),
            ]
        )
    print_table(
        "gateway vs single-session serving",
        ["scenario", "sessions/s", "ok", "sheds", "p50 s", "p99 s"],
        rows,
    )
    print(f"\nspeedup: {results['summary']['speedup']:.2f}x (floor {SERVE_MIN_SPEEDUP}x)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8, help="concurrent verifiers")
    parser.add_argument("--programs", type=int, default=2, help="hosted programs")
    parser.add_argument(
        "--duration", type=float, default=4.0, help="seconds of load per scenario"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail (exit 1) unless the gateway clears {SERVE_MIN_SPEEDUP}x",
    )
    args = parser.parse_args(argv)
    results = run_bench(args.clients, args.programs, args.duration)
    _report(results)
    path = emit_results("serve")
    print(f"\nresults written to {path}")
    errors = sum(
        results[label]["errors"] for label in ("baseline", "per_program", "gateway")
    )
    if errors:
        print("CHECK FAILED: unexpected session errors under load", file=sys.stderr)
        return 1
    if args.check and results["summary"]["speedup"] < SERVE_MIN_SPEEDUP:
        print(
            f"CHECK FAILED: speedup {results['summary']['speedup']:.2f}x "
            f"< {SERVE_MIN_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
