"""Command-line interface: compile, prove/verify, trace, microbenchmark.

Examples::

    python -m repro compile program.zr --field p128
    python -m repro prove program.zr --inputs 1,2,3 --inputs 4,5,6
    python -m repro trace program.zr --inputs 1,2,3 --out run.trace.jsonl
    python -m repro trace --app matmul --size m=2
    python -m repro trace program.zr --inputs 1,2,3 --remote 127.0.0.1:9410 --json
    python -m repro serve program.zr --max-sessions 16 --metrics-port 9464
    python -m repro top 127.0.0.1:9410 --interval 2
    python -m repro bench-check baseline/BENCH_kernels.json benchmarks/out/BENCH_kernels.json --max-regress 15%
    python -m repro microbench --field goldilocks

``compile`` prints the encoding statistics (the Figure-9 quantities)
and the hybrid chooser's verdict; ``prove`` runs the full batched
argument on the given input vectors and reports outputs, acceptance,
and the prover's Figure-5 cost decomposition; ``trace`` runs the same
argument (plus a loopback network session) under full telemetry and
writes a JSONL trace — see docs/OBSERVABILITY.md for how to read it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import secrets
import sys
import time
from pathlib import Path

from . import telemetry
from .argument import (
    ArgumentConfig,
    Deadlines,
    GatewayServer,
    ProgramRegistry,
    ProtocolViolation,
    ProverServer,
    ZaatarArgument,
    choose_encoding,
    fetch_stats,
    run_parallel_batch,
    verify_remote,
)
from .compiler import compile_source
from .costmodel import run_microbench
from .deploy import LINK_PROFILES
from .field import NAMED_FIELDS, PrimeField, counting_field
from .pcp import PAPER_PARAMS, SoundnessParams


def _field(name: str) -> PrimeField:
    return PrimeField.named(name)


class UsageError(Exception):
    """A command line that cannot run as given (exit 2)."""


class ProgramFileError(UsageError):
    """A program file that cannot be read or compiled (exit 2)."""


def _argument_field(name: str) -> PrimeField:
    """The field ``name``, if the argument runs over it: its commitment
    group must have order |F|."""
    field = _field(name)
    try:
        ArgumentConfig().group(field)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return field


def _load_program(path: str, field: PrimeField, bit_width: int):
    try:
        source = Path(path).read_text()
        return compile_source(field, source, name=Path(path).stem, bit_width=bit_width)
    except OSError as exc:
        raise ProgramFileError(f"cannot read program {path}: {exc.strerror}") from exc
    except ValueError as exc:  # LangSyntaxError, undecodable or output-less source
        raise ProgramFileError(f"cannot compile program {path}: {exc}") from exc


def _fresh_seed(config: ArgumentConfig) -> ArgumentConfig:
    """``config`` with a verifier seed for one wire session alone."""
    return dataclasses.replace(config, seed=secrets.token_bytes(16))


def cmd_compile(args: argparse.Namespace) -> int:
    """``repro compile``: print encoding stats and the hybrid verdict."""
    field = _field(args.field)
    program = _load_program(args.program, field, args.bit_width)
    stats = program.stats()
    print(f"program          : {program.name}")
    print(f"field            : {field.name} ({field.bits} bits)")
    print(f"inputs / outputs : {program.num_inputs} / {program.num_outputs}")
    print(f"|Z_ginger|       : {stats.z_ginger}")
    print(f"|C_ginger|       : {stats.c_ginger}")
    print(f"K / K2           : {stats.k_terms} / {stats.k2_terms}  (K2* = {stats.k2_star})")
    print(f"|Z_zaatar|       : {stats.z_zaatar}")
    print(f"|C_zaatar|       : {stats.c_zaatar}")
    print(f"|u_ginger|       : {stats.u_ginger}")
    print(f"|u_zaatar|       : {stats.u_zaatar}  ({stats.proof_shrink_factor:.1f}x shorter)")
    decision = choose_encoding(program)
    print(f"hybrid chooser   : {decision.system} (advantage {decision.advantage:.1f}x)")
    return 0


def _parse_batch(specs: list[str]) -> list[list[int]] | None:
    """Parse repeated ``--inputs`` vectors; None on malformed input."""
    batch = []
    for spec in specs:
        try:
            batch.append([int(v) for v in spec.replace(" ", "").split(",") if v])
        except ValueError:
            print(f"error: bad input vector {spec!r}", file=sys.stderr)
            return None
    return batch


def _soundness_params(args: argparse.Namespace) -> SoundnessParams | None:
    """``--rho-lin``/``--rho`` as params, or None after printing why not."""
    try:
        return SoundnessParams(rho_lin=args.rho_lin, rho=args.rho)
    except ValueError as exc:  # fewer than one repetition
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_prove(args: argparse.Namespace) -> int:
    """``repro prove``: run the batched argument on input vectors.

    The batch runs on the resilient engine (docs/RESILIENCE.md) with
    ``--workers`` processes: failed instances become structured
    outcomes instead of aborting the batch, and a killed
    ``--checkpoint`` run resumes without re-proving finished instances.
    """
    field = _argument_field(args.field)
    program = _load_program(args.program, field, args.bit_width)
    if not args.inputs:
        print("error: provide at least one --inputs vector", file=sys.stderr)
        return 2
    batch = _parse_batch(args.inputs)
    if batch is None:
        return 2
    params = PAPER_PARAMS if args.paper_soundness else _soundness_params(args)
    if params is None:
        return 2
    config = ArgumentConfig(params=params)
    argument = ZaatarArgument(program, config)
    try:
        engine = run_parallel_batch(
            argument, batch, num_workers=args.workers, checkpoint=args.checkpoint
        )
    except ValueError as exc:  # a refused checkpoint, or fewer than one worker
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = engine.result
    for inputs, instance in zip(batch, result.instances):
        if not instance.ok:
            print(
                f"x={inputs} -> FAILED[{instance.error_code}] "
                f"after {instance.attempts} attempt"
                f"{'s' if instance.attempts > 1 else ''}: {instance.error_message}"
            )
            continue
        status = "ACCEPTED" if instance.accepted else "REJECTED"
        print(f"x={inputs} -> y={instance.output_values}  [{status}]")
    mean = result.stats.mean_prover()
    print(
        f"prover per instance: solve={mean.solve_constraints:.3f}s "
        f"u={mean.construct_u:.3f}s crypto={mean.crypto_ops:.3f}s "
        f"answer={mean.answer_queries:.3f}s e2e={mean.e2e:.3f}s"
    )
    v = result.stats.verifier
    print(f"verifier: setup={v.query_setup:.3f}s per-instance={v.per_instance / max(len(batch), 1):.3f}s")
    print(f"failures: {result.failures}")
    if engine.resumed or engine.retries or engine.worker_deaths:
        print(
            f"engine: {engine.resumed} resumed from checkpoint, "
            f"{engine.retries} retries, {engine.worker_deaths} worker deaths"
        )
    return 0 if result.all_accepted else 1


def _trace_app_registry() -> dict:
    """Benchmark apps addressable from ``repro trace/check/deploy --app``."""
    from .apps import MATMUL, SCENARIO_APPS

    registry = dict(SCENARIO_APPS)
    registry["matmul"] = MATMUL
    return registry


def _parse_sizes(specs: list[str]) -> dict | None:
    """Parse repeated ``--size name=int``; None on malformed input."""
    sizes: dict[str, int] = {}
    for spec in specs:
        key, _, value = spec.partition("=")
        try:
            sizes[key] = int(value)
        except ValueError:
            print(f"error: bad --size {spec!r} (want name=int)", file=sys.stderr)
            return None
    return sizes


def _parse_address(spec: str) -> tuple[str, int] | None:
    """``HOST:PORT`` (or just ``PORT`` for localhost); None if malformed."""
    host, _, port_text = spec.rpartition(":")
    try:
        return (host or "127.0.0.1", int(port_text))
    except ValueError:
        print(f"error: bad address {spec!r} (want HOST:PORT)", file=sys.stderr)
        return None


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run the argument under telemetry, dump a trace.

    The run covers the local batched argument (Figure-5 prover phases,
    verifier setup/per-instance spans, field/crypto/poly counters) and,
    unless ``--no-net``, a loopback prover-server session so bytes on
    the wire are measured too (``net.*`` counters).  With ``--remote
    HOST:PORT`` the local run is skipped and the batch is verified
    against a running prover server instead; the server ships its
    session spans back in the answers frame, so the rendered tree is
    one stitched distributed trace.  ``--json`` emits the whole result
    (spans, counter totals, verdict) as a JSON document on stdout for
    scripted consumers.
    """
    # the counting field is the opt-in field-op instrumentation: the
    # program is compiled against it, so every solve/answer counts
    field = counting_field(_argument_field(args.field))
    if args.app:
        registry = _trace_app_registry()
        if args.app not in registry:
            print(
                f"error: unknown app {args.app!r} "
                f"(choose from {', '.join(sorted(registry))})",
                file=sys.stderr,
            )
            return 2
        app = registry[args.app]
        sizes = _parse_sizes(args.size)
        if sizes is None:
            return 2
        program = app.compile(field, sizes)
        rng = random.Random(args.seed)
        batch = [app.generate_inputs(rng, sizes) for _ in range(args.batch)]
    else:
        if not args.program:
            print("error: provide a program path or --app", file=sys.stderr)
            return 2
        program = _load_program(args.program, field, args.bit_width)
        if not args.inputs:
            print("error: provide at least one --inputs vector", file=sys.stderr)
            return 2
        batch = _parse_batch(args.inputs)
        if batch is None:
            return 2

    remote_addr = None
    if args.remote:
        remote_addr = _parse_address(args.remote)
        if remote_addr is None:
            return 2

    params = _soundness_params(args)
    if params is None:
        return 2
    config = ArgumentConfig(params=params)
    tracer = telemetry.enable()
    try:
        with telemetry.span(
            "trace", program=program.name, field=field.name, batch_size=len(batch)
        ):
            if remote_addr is not None:
                try:
                    net_result = verify_remote(
                        program, batch, remote_addr, _fresh_seed(config)
                    )
                except (ProtocolViolation, OSError) as exc:
                    print(
                        f"error: remote verification against "
                        f"{remote_addr[0]}:{remote_addr[1]} failed: {exc}",
                        file=sys.stderr,
                    )
                    return 1
                accepted = net_result.all_accepted
            else:
                argument = ZaatarArgument(program, config)
                result = argument.run_batch(batch)
                accepted = result.all_accepted
                if args.net:
                    with telemetry.span("wire.loopback"):
                        with ProverServer(program, config) as server:
                            net_result = verify_remote(
                                program, batch, server.address, _fresh_seed(config)
                            )
                        accepted = accepted and net_result.all_accepted
    finally:
        telemetry.disable()

    if args.out:
        out = Path(args.out)
    else:
        # app-compiled program names embed a sizes dict — keep the
        # default filename shell-friendly
        stem = "".join(c if c.isalnum() or c in "-_." else "_" for c in program.name)
        out = Path(f"{stem.strip('_')}.trace.jsonl")
    telemetry.write_jsonl(tracer, out)
    totals = tracer.total_counters()

    if args.json:
        doc = {
            "trace_version": telemetry.TRACE_VERSION,
            "trace_id": tracer.trace_id,
            "program": program.name,
            "field": field.name,
            "backend": field.backend.name,
            "batch_size": len(batch),
            "remote": (
                f"{remote_addr[0]}:{remote_addr[1]}" if remote_addr else None
            ),
            "accepted": accepted,
            "trace_file": str(out),
            "spans": [s.to_record() for s in tracer.spans],
            "counter_totals": totals,
        }
        print(json.dumps(doc, indent=2))
        return 0 if accepted else 1

    print(telemetry.render_tree(tracer))
    print("\ncounter totals:")
    print(telemetry.render_counter_totals(tracer))
    plan_hits = int(totals.get("poly.plan_hits", 0))
    plan_misses = int(totals.get("poly.plan_misses", 0))
    if plan_hits or plan_misses:
        reuse = plan_hits / (plan_hits + plan_misses)
        print(
            f"\nkernel plan cache: {plan_hits} hits / {plan_misses} misses "
            f"({reuse:.0%} reuse; see docs/PERFORMANCE.md)"
        )
    backend_counts = sorted(
        (k, int(v)) for k, v in totals.items() if k.startswith("backend.")
    )
    kernel_stats = (
        ", ".join(f"{k}={v}" for k, v in backend_counts)
        if backend_counts
        else "no vector-kernel calls"
    )
    print(f"field backend: {field.backend.name} ({kernel_stats})")
    verdict = "ACCEPTED" if accepted else "REJECTED"
    print(f"\nbatch of {len(batch)}: {verdict}")
    print(f"trace written to {out} ({len(tracer.spans)} spans)")
    return 0 if accepted else 1


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: differentially test compiled constraint systems.

    Runs the semantics oracle (reference execution over random +
    boundary + adversarial inputs), the unsat-witness prober (seeded
    single-wire mutations must be rejected, with the firing constraint
    localized), and — unless ``--no-mutations`` — the compiler-mutation
    harness, which injects seeded faults into the compiled system and
    requires a 100% kill rate.  ``--app NAME`` checks a built-in
    scenario (``--app all`` sweeps the whole library); a program path
    checks a ``.zr`` file.  The JSON report is byte-deterministic for a
    fixed seed.  Exit 0 iff every checked program passed.
    """
    from .compiler.check import check_app, check_program

    field = _field(args.field)
    sizes = _parse_sizes(args.size)
    if sizes is None:
        return 2

    jobs: list[tuple[str, object]] = []  # (label, callable)
    if args.app:
        registry = _trace_app_registry()
        if args.app == "all":
            apps = {app.name: app for app in registry.values()}
            jobs = [(name, apps[name]) for name in sorted(apps)]
        elif args.app in registry:
            jobs = [(registry[args.app].name, registry[args.app])]
        else:
            print(
                f"error: unknown app {args.app!r} "
                f"(choose from all, {', '.join(sorted(registry))})",
                file=sys.stderr,
            )
            return 2
    else:
        if not args.program:
            print("error: provide a program path or --app", file=sys.stderr)
            return 2
        jobs = [(Path(args.program).stem, None)]

    reports = {}
    tracer = telemetry.enable()
    try:
        for label, app in jobs:
            if app is None:
                program = _load_program(args.program, field, args.bit_width)
                report = check_program(
                    program,
                    seed=args.seed,
                    num_random=args.random,
                    input_bits=args.input_bits,
                    mutations=args.mutations,
                    mutations_per_kind=args.mutations_per_kind,
                )
            else:
                report = check_app(
                    app,
                    field,
                    sizes or None,
                    seed=args.seed,
                    num_random=args.random,
                    mutations=args.mutations,
                    mutations_per_kind=args.mutations_per_kind,
                )
            reports[label] = report
    finally:
        telemetry.disable()
    totals = tracer.total_counters()

    all_passed = all(r.passed for r in reports.values())
    document = {
        "check_version": 1,
        "field": field.name,
        "seed": args.seed,
        "passed": all_passed,
        "programs": {label: r.to_document() for label, r in reports.items()},
        "counter_totals": {
            k: int(v) for k, v in sorted(totals.items()) if k.startswith("check.")
        },
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    if args.json:
        print(text, end="")
        return 0 if all_passed else 1

    for label, report in reports.items():
        o, p, m = report.oracle, report.probes, report.mutations
        line = (
            f"{label}: {'PASS' if report.passed else 'FAIL'}  "
            f"oracle {o['ok']}/{o['cases']} ok"
        )
        if o.get("skipped_domain"):
            line += f" ({o['skipped_domain']} out-of-domain skipped)"
        if p:
            line += (
                f"  probes {p['killed']}/{p['wires_probed']} killed"
                f" ({len(p['survivors'])} benign free wires)"
            )
        if m.get("ran"):
            line += f"  mutations {m['killed']}/{m['catalog']} killed"
        print(line)
        for failure in o.get("failures", []):
            print(f"  oracle failure: {failure}")
        if p and p.get("output_survivors"):
            print(f"  SOUNDNESS: free output wires {p['output_survivors']}")
        if m.get("ran"):
            for entry in m["results"]:
                if not entry["killed"]:
                    print(f"  SURVIVED: {entry['mutation']}")
    if args.out:
        print(f"report written to {args.out}")
    print(
        f"check: {'OK' if all_passed else 'FAILED'} "
        f"({sum(1 for r in reports.values() if r.passed)}/{len(reports)} programs, "
        f"{document['counter_totals'].get('check.inputs', 0)} oracle inputs, "
        f"{document['counter_totals'].get('check.mutations_killed', 0)} mutations killed)"
    )
    return 0 if all_passed else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the prover server over one or more programs.

    The program (plus every ``--registry`` program, repeatable) is
    registered and pre-warmed in a ``GatewayServer``; sessions are
    dispatched by the ``hello`` frame's program hash, ``--shards``
    pins proving to crash-surviving worker processes (0: inline), and
    admission control (``--accept-queue``, ``--per-program-sessions``)
    sheds overload with ``busy`` frames carrying retry hints.  Serves
    until interrupted (or for ``--duration`` seconds);
    ``--metrics-port`` additionally serves the live metrics registry
    over HTTP as a Prometheus-style plaintext page (``/json`` for the
    snapshot form that ``repro top`` renders).
    """
    field = _argument_field(args.field)
    registry = ProgramRegistry()
    for path in [args.program, *args.registry]:
        registry.register(_load_program(path, field, args.bit_width), ArgumentConfig())
    server = GatewayServer(
        registry,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        shards=args.shards,
        accept_queue=args.accept_queue,
        per_program_sessions=args.per_program_sessions,
        deadlines=Deadlines(read=args.read_timeout, session=args.session_budget),
        accept_rate=args.accept_rate,
        resume_timeout=args.resume_timeout,
    )
    server.start()
    exporter = None
    try:
        host, port = server.address
        count = len(registry)
        print(
            f"gateway on {host}:{port} serving {count} program{'s' * (count != 1)} "
            f"(max {args.max_sessions} sessions + {args.accept_queue} queued, "
            f"{args.shards} shard workers, read deadline {args.read_timeout:g}s"
            + (f", session budget {args.session_budget:g}s)" if args.session_budget else ")")
        )
        for entry in registry:
            print(f"  {entry.name}  hash {entry.hash[:16]}…")
        if args.metrics_port is not None:
            exporter = telemetry.start_http_exporter(
                server.metrics, host=args.host, port=args.metrics_port
            )
            mhost, mport = exporter.server_address[:2]
            print(f"metrics on http://{mhost}:{mport}/ (plaintext; /json for snapshot)")
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive foreground loop
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover
        print("\nshutting down (draining in-flight sessions)...")
    finally:
        if exporter is not None:
            exporter.shutdown()
        server.close()
        count = server.metrics.counter_value
        line = (
            f"sessions: {count('sessions_ok')} ok, "
            f"{count('session_errors')} failed, "
            f"{count('sessions_rejected')} rejected at capacity"
        )
        if count("gateway.worker_deaths"):
            line += f", {count('gateway.worker_deaths')} shard deaths"
        if count("sessions_refused_shutdown"):
            line += f", {count('sessions_refused_shutdown')} refused at shutdown"
        print(line)
    return 0


def _fmt_duration(seconds) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _render_top(doc: dict) -> str:
    """One screenful of a prover server's stats snapshot."""
    server = doc.get("server") or {}
    metrics = doc.get("metrics") or {}
    info = metrics.get("info") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    hists = metrics.get("histograms") or {}
    address = server.get("address") or ["?", "?"]
    lines = [
        f"repro top — {server.get('program', '?')} "
        f"@ {address[0]}:{address[1]} "
        f"(hash {str(server.get('program_hash', ''))[:16]}…)",
        f"uptime {metrics.get('uptime_seconds', 0.0):.0f}s   "
        f"backend {info.get('backend', '?')}   field {info.get('field', '?')}   "
        f"capacity {server.get('max_sessions', '?')} sessions",
        "",
        "sessions   started {:.0f}   ok {:.0f}   errors {:.0f}   "
        "rejected {:.0f}   in-flight {:.0f}".format(
            counters.get("sessions_started", 0),
            counters.get("sessions_ok", 0),
            counters.get("session_errors", 0),
            counters.get("sessions_rejected", 0),
            gauges.get("sessions_in_flight", 0),
        ),
    ]
    for name, label in (
        ("session_latency_seconds", "latency"),
        ("gateway.queue_wait_seconds", "queue wait"),
    ):
        hist = hists.get(name)
        if hist:
            exact = "exact" if hist.get("exact") else "sampled"
            lines.append(
                f"{label:10s} n={hist['count']}  "
                f"p50={_fmt_duration(hist.get('p50'))}  "
                f"p90={_fmt_duration(hist.get('p90'))}  "
                f"p99={_fmt_duration(hist.get('p99'))}  "
                f"max={_fmt_duration(hist.get('max'))}  ({exact})"
            )
    batch_hist = hists.get("session_batch_size")
    if batch_hist:
        lines.append(
            f"batch size n={batch_hist['count']}  "
            f"p50={batch_hist.get('p50'):g}  max={batch_hist.get('max'):g}"
        )
    error_codes = sorted(
        (key.split(".", 1)[1], value)
        for key, value in counters.items()
        if key.startswith("session_errors.")
    )
    if error_codes:
        lines.append(
            "errors by code   "
            + "   ".join(f"{code}={value:.0f}" for code, value in error_codes)
        )
    shards = gauges.get("gateway.shards_alive")
    if shards is not None:
        lines.append(f"shards alive {shards:.0f}")
    backend_counts = sorted(
        (key, value) for key, value in counters.items() if key.startswith("backend.")
    )
    if backend_counts:
        lines.append("")
        lines.append("vector-kernel throughput (lifetime):")
        for key, value in backend_counts:
            lines.append(f"  {key:32s} {value:>16,.0f}")
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: live one-screen view of a prover server.

    Polls the server's read-only ``{"type": "stats"}`` wire request
    every ``--interval`` seconds and redraws; ``--once`` prints a
    single snapshot and exits (the scripted/CI form).
    """
    address = _parse_address(args.server)
    if address is None:
        return 2
    refreshes = 1 if args.once else args.count
    drawn = 0
    try:
        while True:
            try:
                doc = fetch_stats(
                    address,
                    connect_timeout=args.timeout,
                    read_timeout=args.timeout,
                )
            except (ProtocolViolation, OSError) as exc:
                print(
                    f"error: cannot poll {address[0]}:{address[1]}: {exc}",
                    file=sys.stderr,
                )
                return 1
            if not args.once:
                print("\x1b[2J\x1b[H", end="")
            print(_render_top(doc))
            drawn += 1
            if refreshes is not None and drawn >= refreshes:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def cmd_bench_check(args: argparse.Namespace) -> int:
    """``repro bench-check``: gate a bench artifact against a baseline.

    Exit 0 when every directional metric stayed within tolerance,
    1 on a regression (or a metric silently vanishing), 2 on usage
    errors.  See ``repro.benchgate`` for the direction heuristics.
    """
    from .benchgate import check_files, parse_tolerance

    try:
        tolerance = parse_tolerance(args.max_regress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        comparison = check_files(args.baseline, args.current, tolerance)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in comparison.notes:
        print(f"note: {note}")
    print(
        f"compared {comparison.compared} directional metrics at "
        f"tolerance {tolerance:.0%} "
        f"({comparison.skipped_directionless} structural values skipped)"
    )
    for regression in comparison.improvements:
        print(f"improved: {regression.describe()}")
    for path in comparison.missing:
        print(f"MISSING: {'.'.join(path)} (in baseline, absent from current)")
    for regression in comparison.regressions:
        print(f"REGRESSION: {regression.describe()}")
    if comparison.ok:
        print("bench-check: OK")
        return 0
    print("bench-check: FAILED", file=sys.stderr)
    return 1


def cmd_deploy(args: argparse.Namespace) -> int:
    """``repro deploy``: run the deployment-grid chaos orchestrator.

    One gateway + ``--verifiers`` forked verifier processes per grid
    cell, swept over the repeatable ``--batch``/``--shards``/
    ``--link``/``--churn`` axes.  Churn is seeded and deterministic:
    per session the plan picks none / drop-the-commit (exercises the
    resume-token path) / kill-the-verifier (the parked session must
    expire and the slot is respawned).  Every cell is audited against
    the churn invariants (no leaked sessions or leases, balanced
    ledgers, every completed session verified); the consolidated
    artifact lands in ``--out``/BENCH_deploy.json for
    ``repro bench-check``.  With ``--check``, exits 1 unless every
    cell's invariants hold.
    """
    from .benchgate import bench_metadata
    from .deploy import grid_cells, run_grid

    field = _argument_field(args.field)
    registry = _trace_app_registry()
    if args.app not in registry:
        print(
            f"error: unknown app {args.app!r} "
            f"(choose from {', '.join(sorted(registry))})",
            file=sys.stderr,
        )
        return 2
    app = registry[args.app]
    program = app.compile(field)
    config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
    cells = grid_cells(
        batches=args.batch or [2],
        shards=args.shards if args.shards is not None else [0],
        links=args.link or ["lan"],
        churns=args.churn or [0.0],
        verifiers=args.verifiers,
        sessions=args.sessions,
    )
    print(
        f"deploy grid: {len(cells)} cells over app {app.name!r} "
        f"({args.verifiers} verifiers x {args.sessions} sessions each)"
    )
    results = run_grid(
        program,
        config,
        cells,
        seed=args.seed,
        input_generator=lambda rng: app.generate_inputs(rng),
        read_timeout=args.read_timeout,
        resume_timeout=args.resume_timeout,
        log=print,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_deploy.json"
    document = {
        "figure": "deploy",
        "meta": bench_metadata(backend=field.backend.name),
        "results": results,
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")
    if not results["grid_ok"]:
        print("deploy: INVARIANT VIOLATION", file=sys.stderr)
        return 1 if args.check else 0
    print("deploy: all cell invariants hold")
    return 0


def cmd_microbench(args: argparse.Namespace) -> int:
    """``repro microbench``: measure the Figure-3 cost parameters."""
    field = _field(args.field)
    mb = run_microbench(field, reps=args.reps, crypto_reps=args.crypto_reps)
    print(f"field: {field.name} ({field.bits} bits)")
    for key, value in mb.as_row().items():
        unit, scale = ("us", 1e6) if value >= 1e-6 else ("ns", 1e9)
        print(f"  {key:7s}: {value * scale:10.2f} {unit}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zaatar verified computation (EuroSys 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default="goldilocks",
        choices=sorted(NAMED_FIELDS),
        help="prime field (default: goldilocks; the paper used p128/p220)",
    )

    p_compile = sub.add_parser(
        "compile", parents=[common], help="compile a program, print encoding stats"
    )
    p_compile.add_argument("program", help="path to a .zr source file")
    p_compile.add_argument("--bit-width", type=int, default=32)
    p_compile.set_defaults(fn=cmd_compile)

    p_prove = sub.add_parser(
        "prove", parents=[common], help="run the batched argument on input vectors"
    )
    p_prove.add_argument("program")
    p_prove.add_argument("--bit-width", type=int, default=32)
    p_prove.add_argument(
        "--inputs",
        action="append",
        default=[],
        help="comma-separated input vector; repeat for a batch",
    )
    p_prove.add_argument("--rho-lin", type=int, default=3)
    p_prove.add_argument("--rho", type=int, default=2)
    p_prove.add_argument(
        "--paper-soundness",
        action="store_true",
        help="use the paper's production parameters (rho_lin=20, rho=8; slow)",
    )
    p_prove.add_argument(
        "--workers",
        type=int,
        default=1,
        help="prover worker processes for the batch engine (1: prove in "
        "this process; at least 1)",
    )
    p_prove.add_argument(
        "--checkpoint",
        metavar="DIR",
        help="persist per-instance progress to DIR and resume a killed "
        "run without re-proving finished instances",
    )
    p_prove.set_defaults(fn=cmd_prove)

    p_trace = sub.add_parser(
        "trace",
        parents=[common],
        help="run the argument under telemetry and write a JSONL trace",
    )
    p_trace.add_argument("program", nargs="?", help="path to a .zr source file")
    p_trace.add_argument("--bit-width", type=int, default=32)
    p_trace.add_argument(
        "--inputs",
        action="append",
        default=[],
        help="comma-separated input vector; repeat for a batch",
    )
    p_trace.add_argument(
        "--app",
        help="run a built-in benchmark app instead of a .zr file (e.g. matmul)",
    )
    p_trace.add_argument(
        "--size",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="app size parameter; repeat (e.g. --size m=2)",
    )
    p_trace.add_argument("--batch", type=int, default=1, help="app batch size")
    p_trace.add_argument("--seed", type=int, default=0, help="app input RNG seed")
    p_trace.add_argument("--rho-lin", type=int, default=2)
    p_trace.add_argument("--rho", type=int, default=1)
    p_trace.add_argument(
        "--no-net",
        dest="net",
        action="store_false",
        help="skip the loopback network session (no net.* counters)",
    )
    p_trace.add_argument("--out", help="trace path (default: <program>.trace.jsonl)")
    p_trace.add_argument(
        "--remote",
        metavar="HOST:PORT",
        help="verify against a running prover server instead of running "
        "locally; the rendered tree stitches the server's session spans in",
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="emit the run (spans, counters, verdict) as JSON on stdout",
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_check = sub.add_parser(
        "check",
        parents=[common],
        help="differentially test compiled constraint systems "
        "(semantics oracle + unsat probes + mutation-kill gate)",
    )
    p_check.add_argument("program", nargs="?", help="path to a .zr source file")
    p_check.add_argument("--bit-width", type=int, default=32)
    p_check.add_argument(
        "--app",
        help="check a built-in scenario app instead of a .zr file "
        "('all' sweeps the whole scenario library)",
    )
    p_check.add_argument(
        "--size",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="app size parameter; repeat (e.g. --size m=2)",
    )
    p_check.add_argument("--seed", type=int, default=0, help="checker RNG seed")
    p_check.add_argument(
        "--random", type=int, default=6, metavar="N", help="random oracle inputs"
    )
    p_check.add_argument(
        "--input-bits",
        type=int,
        default=8,
        help="input magnitude for .zr programs without a generator (default 8)",
    )
    p_check.add_argument(
        "--no-mutations",
        dest="mutations",
        action="store_false",
        help="skip the compiler-mutation harness (oracle + probes only)",
    )
    p_check.add_argument(
        "--mutations-per-kind",
        type=int,
        default=3,
        metavar="N",
        help="seeded faults per mutation kind (default 3)",
    )
    p_check.add_argument("--out", help="also write the JSON report here")
    p_check.add_argument(
        "--json",
        action="store_true",
        help="emit the byte-deterministic JSON report on stdout",
    )
    p_check.set_defaults(fn=cmd_check)

    p_serve = sub.add_parser(
        "serve",
        parents=[common],
        help="run a prover server for one or more compiled programs",
    )
    p_serve.add_argument("program", help="path to a .zr source file")
    p_serve.add_argument("--bit-width", type=int, default=32)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="concurrent session cap; extra clients wait in the accept queue",
    )
    p_serve.add_argument(
        "--read-timeout",
        type=float,
        default=120.0,
        help="per-recv deadline in seconds (how long a client may go silent)",
    )
    p_serve.add_argument(
        "--session-budget",
        type=float,
        default=None,
        help="wall-clock budget per session in seconds (default: unbounded)",
    )
    p_serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then exit (default: until interrupted)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve live metrics over HTTP on this port (0 picks one)",
    )
    p_serve.add_argument(
        "--registry",
        action="append",
        default=[],
        metavar="PROGRAM.zr",
        help="host this additional program too (repeatable; sessions are "
        "dispatched by program hash)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="pin each session's proving to one of N crash-surviving "
        "worker processes (0 proves on the session thread)",
    )
    p_serve.add_argument(
        "--accept-queue",
        type=int,
        default=16,
        metavar="N",
        help="admitted connections may wait in a queue this deep; past it "
        "clients are shed with busy + retry_after",
    )
    p_serve.add_argument(
        "--per-program-sessions",
        type=int,
        default=None,
        metavar="N",
        help="cap concurrent sessions per hosted program "
        "(default: no per-program cap)",
    )
    p_serve.add_argument(
        "--accept-rate",
        type=float,
        default=None,
        metavar="PER_SEC",
        help="token-bucket accept pacing against reconnect "
        "storms; excess connects get busy + jittered retry_after "
        "(default: off)",
    )
    p_serve.add_argument(
        "--resume-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a disconnected pre-commit session "
        "may park awaiting a resume before it is reaped (default: 30)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_deploy = sub.add_parser(
        "deploy",
        parents=[common],
        help="deployment-grid chaos run: gateway + N verifier processes "
        "under seeded churn and WAN link emulation",
    )
    p_deploy.add_argument(
        "--app",
        default="pam_clustering",
        help="benchmark app to serve (see 'repro trace --app'; default pam_clustering)",
    )
    p_deploy.add_argument(
        "--verifiers", type=int, default=4, help="verifier processes per cell"
    )
    p_deploy.add_argument(
        "--sessions", type=int, default=3, help="sessions each verifier drives"
    )
    p_deploy.add_argument(
        "--batch",
        action="append",
        type=int,
        metavar="N",
        help="batch-size axis (repeatable; default 2)",
    )
    p_deploy.add_argument(
        "--shards",
        action="append",
        type=int,
        default=None,
        metavar="N",
        help="shard-count axis (repeatable; default 0 = inline proving)",
    )
    p_deploy.add_argument(
        "--link",
        action="append",
        choices=sorted(LINK_PROFILES),
        metavar="PROFILE",
        help="link-profile axis (repeatable; lan, wan-50ms, wan-100ms, "
        "wan-100ms-lossy, dsl-1mbps; default lan)",
    )
    p_deploy.add_argument(
        "--churn",
        action="append",
        type=float,
        metavar="P",
        help="churn-probability axis (repeatable; default 0.0)",
    )
    p_deploy.add_argument("--seed", type=int, default=0)
    p_deploy.add_argument(
        "--read-timeout",
        type=float,
        default=30.0,
        help="per-recv deadline on both sides (default: 30)",
    )
    p_deploy.add_argument(
        "--resume-timeout",
        type=float,
        default=3.0,
        help="gateway park window before an abandoned session is reaped",
    )
    p_deploy.add_argument(
        "--out",
        default="benchmarks/out",
        help="artifact directory (default: benchmarks/out)",
    )
    p_deploy.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every cell's churn invariants hold",
    )
    p_deploy.set_defaults(fn=cmd_deploy)

    p_top = sub.add_parser(
        "top", help="live one-screen stats view of a running prover server"
    )
    p_top.add_argument("server", metavar="HOST:PORT", help="prover server address")
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    p_top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    p_top.add_argument(
        "--count",
        type=int,
        default=None,
        help="exit after this many refreshes (default: until interrupted)",
    )
    p_top.add_argument(
        "--timeout", type=float, default=5.0, help="per-poll socket timeout"
    )
    p_top.set_defaults(fn=cmd_top)

    p_bench = sub.add_parser(
        "bench-check",
        help="compare two BENCH_*.json artifacts, fail on perf regressions",
    )
    p_bench.add_argument("baseline", help="baseline BENCH_*.json")
    p_bench.add_argument("current", help="current BENCH_*.json")
    p_bench.add_argument(
        "--max-regress",
        default="15%",
        help="worst tolerated relative move in a metric's worse direction "
        "('15%%' or '0.15'; default 15%%)",
    )
    p_bench.set_defaults(fn=cmd_bench_check)

    p_mb = sub.add_parser(
        "microbench", parents=[common], help="measure the Figure-3 cost parameters"
    )
    p_mb.add_argument("--reps", type=int, default=1000)
    p_mb.add_argument("--crypto-reps", type=int, default=20)
    p_mb.set_defaults(fn=cmd_microbench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
