"""The gateway workload: one-instance remote sessions against a forked server.

A ``GatewayServer`` in one forked child hosts two tiny programs (the
dot-product and Horner shapes) and proves inline (``shards=0``).  Two
verifier connections from this process — never more than the host has
cores — run a closed loop of one-instance ``verify_remote`` sessions and
alternate between the programs.  The programs are tiny so that the
fixed per-session costs dominate: connect, hello and registry dispatch,
frame codec, admission queue; the in-process workloads bypass all of
them.

Every session draws a fresh verifier seed, as a real verifier must, so
the gateway's seed-keyed schedule cache never hits.

Servers are forked only while this process runs no other thread: a
slice's client threads are joined before the next set-up repetition
forks its server.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import threading
import time
from contextlib import nullcontext

from repro import telemetry
from repro.argument import (
    ArgumentConfig,
    GatewayServer,
    ProgramRegistry,
    ProtocolViolation,
    RetryPolicy,
    fetch_stats,
    verify_remote,
)
from repro.compiler import compile_program
from repro.field import PrimeField
from repro.field.params import GOLDILOCKS
from repro.pcp import SoundnessParams
from repro.poly.plan import clear_plan_caches

from layers import QAP_SPANS, SERVER_SPANS, counter_metrics, span_seconds
from speed import HostSpeed
from workloads import (
    PER_LAYER_UNITS,
    SLICE_SECONDS,
    BenchmarkError,
    Run,
    peak_rss_mb,
    verifier_seed,
    warm_qap,
)

#: the soundness settings the gateway sessions run at
CONFIG = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))

#: verifier connections: two, or fewer on a host with fewer cores
MAX_CONNECTIONS = 2

#: a slice lasts at least this long, so that it completes a session
MIN_SLICE_SECONDS = 0.1


def _build_dotp(b):
    xs = b.inputs(4)
    b.output(xs[0] * xs[1] + xs[2] * xs[3])


def _build_horner(b):
    x = b.input()
    acc = b.constant(1)
    for _ in range(4):
        acc = acc * x + x
    b.output(acc)


def _dotp(xs: list[int], p: int) -> int:
    return (xs[0] * xs[1] + xs[2] * xs[3]) % p


def _horner(xs: list[int], p: int) -> int:
    acc = 1
    for _ in range(4):
        acc = (acc * xs[0] + xs[0]) % p
    return acc


#: hosted program name → (build function, closed-form output)
PROGRAMS = {"dotp": (_build_dotp, _dotp), "horner": (_build_horner, _horner)}


def hosted_programs() -> list:
    """The hosted programs, compiled (both parties compile them)."""
    field = PrimeField(GOLDILOCKS, check_prime=False)
    return [
        (name, compile_program(field, build, name=name))
        for name, (build, _) in PROGRAMS.items()
    ]


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def _serve(conn, connections: int) -> None:
    """Child process: host the programs until the parent says stop."""
    clear_plan_caches()
    start = time.perf_counter()
    programs = hosted_programs()
    compiled = time.perf_counter()
    registry = ProgramRegistry()
    for _, program in programs:
        warm_qap(registry.register(program, CONFIG).qap(CONFIG.qap_mode))
    built = time.perf_counter()
    server = GatewayServer(
        registry, max_sessions=connections, accept_queue=2 * connections
    ).start()
    stopped = False
    try:
        conn.send(
            {
                "address": server.address,
                "compile_s": compiled - start,
                "build_s": built - compiled,
            }
        )
        while not stopped:
            message = conn.recv()
            if message == "cpu":
                conn.send(_cpu_seconds())
            stopped = message == "stop"
    except (EOFError, OSError):
        pass  # the parent is gone: shut down
    finally:
        server.close()
    if stopped:
        conn.send({"peak_rss_mb": peak_rss_mb()})
    conn.close()


class ServerChild:
    """One forked gateway process and the pipe that controls it."""

    def __init__(self, connections: int):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_serve, args=(child_conn, connections), daemon=True
        )
        self._process.start()
        child_conn.close()

    def _recv(self, timeout: float):
        try:
            if self._conn.poll(timeout):
                return self._conn.recv()
        except EOFError:
            pass
        raise BenchmarkError("the gateway server process stopped answering")

    def wait_ready(self, timeout: float = 60.0) -> dict:
        """Block until the server listens; its address and set-up times."""
        return self._recv(timeout)

    def cpu(self) -> float:
        """CPU seconds the server process has used so far."""
        self._conn.send("cpu")
        return self._recv(30.0)

    def stop(self) -> dict:
        """Shut the server down and reap the process; its final report."""
        report: dict = {}
        try:
            self._conn.send("stop")
            report = self._recv(60.0)
        except (OSError, EOFError, BenchmarkError):
            pass
        finally:
            self._conn.close()
            self._process.join(timeout=30.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join(timeout=10.0)
        return report


class InFlight:
    """Concurrent sessions now, and the most there ever were."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = 0
        self.peak = 0

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def __exit__(self, *exc):
        with self._lock:
            self.now -= 1


class _Client:
    """One verifier connection's closed loop; its inputs outlive slices."""

    def __init__(self, slot: int, seed: int):
        self.slot = slot
        self.rng = random.Random(f"{seed}:gateway:{slot}")
        self.sessions = 0
        self.samples = Run(batch_size=1)
        self.error: BaseException | None = None


class GatewayWorkload:
    """Closed-loop ``verify_remote`` sessions against a forked gateway."""

    batch_size = 1
    layers = frozenset(PER_LAYER_UNITS)

    def __init__(self, seed: int):
        self.seed = seed
        self.connections = min(MAX_CONNECTIONS, os.cpu_count() or 1)
        self.clients = [_Client(slot, seed) for slot in range(self.connections)]
        self.in_flight = InFlight()
        self.server: ServerChild | None = None
        self.programs: list = []
        self.address = None

    def setup(self, keep: bool) -> dict[str, float]:
        """Fork and start a server; the client compiles the programs meanwhile."""
        start = time.perf_counter()
        server = ServerChild(self.connections)
        try:
            programs = hosted_programs()
            ready = server.wait_ready()
        except BaseException:
            server.stop()
            raise
        seconds = time.perf_counter() - start
        if keep:
            self.server, self.programs = server, programs
            self.address = tuple(ready["address"])
        else:
            server.stop()
        return {
            "setup_s": seconds,
            "compiler.compile_s": ready["compile_s"],
            "qap.build_s": ready["build_s"],
        }

    def run_slice(
        self, run: Run, budget: float, clock, speed: HostSpeed
    ) -> tuple[int, float]:
        """Every connection loops sessions for one slice.

        Returns the sessions verified and the slice's seconds at the
        reference speed.
        """
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(client, stop, clock),
                name=f"perfbench-verifier-{client.slot}",
            )
            for client in self.clients
        ]
        with speed.unit() as unit:
            cpu_before = self.server.cpu()
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            time.sleep(max(min(SLICE_SECONDS, budget), MIN_SLICE_SECONDS))
            stop.set()
            for thread in threads:
                thread.join(timeout=120.0)
            wall = time.perf_counter() - start
            cpu = self.server.cpu() - cpu_before
        if any(thread.is_alive() for thread in threads):
            raise BenchmarkError("a verifier connection did not finish its session")
        verified = attempted = 0
        for client in self.clients:
            if client.error is not None:
                raise BenchmarkError(f"verifier loop crashed: {client.error!r}")
            samples, client.samples = client.samples, Run(batch_size=1)
            verified += samples.attempted - samples.failed
            attempted += samples.attempted
            run.absorb(samples, unit.factor)
        if attempted:
            run.prover_cpu.append(cpu / attempted * unit.factor)
        return verified, wall * unit.factor

    def _client_loop(self, client: _Client, stop: threading.Event, clock) -> None:
        try:
            while not stop.is_set():
                self._session(client, clock)
        except Exception as exc:  # noqa: BLE001 - re-raised by run_slice
            client.error = exc

    def _session(self, client: _Client, clock) -> None:
        index = client.sessions
        client.sessions += 1
        name, program = self.programs[(client.slot + index) % len(self.programs)]
        inputs = [client.rng.randrange(1 << 16) for _ in range(program.num_inputs)]
        config = dataclasses.replace(
            CONFIG, seed=verifier_seed(self.seed, "gateway", client.slot, index)
        )
        traced = clock is not None and index % 2 == 1
        tracer = telemetry.Tracer() if traced else None
        samples = client.samples
        samples.attempted += 1
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            with self.in_flight, clock.batch() if traced else nullcontext() as acc, (
                telemetry.thread_tracer(tracer) if traced else nullcontext()
            ):
                outcome = verify_remote(
                    program, [inputs], self.address, config, retry=RetryPolicy.none()
                )
        except (ProtocolViolation, OSError):
            samples.failed += 1
            return
        wall = time.perf_counter() - start
        cpu = time.thread_time() - cpu_start
        expected = [PROGRAMS[name][1](inputs, program.field.p)]
        if not (outcome.all_accepted and outcome.instances[0].output_values == expected):
            samples.failed += 1
            return
        samples.verifier_cpu.append(cpu)
        if traced:
            samples.traced_batch_s.append(wall)
            self._record_layers(samples, wall, acc, tracer, outcome)
        else:
            samples.batch_s.append(wall)

    @staticmethod
    def _record_layers(samples: Run, wall: float, acc: dict, tracer, outcome) -> None:
        spans = tracer.spans
        for name, seconds in acc.items():
            samples.layer(name, seconds)
        for name, span_name in {**SERVER_SPANS, **QAP_SPANS}.items():
            samples.layer(name, span_seconds(spans, span_name))
        for name, value in counter_metrics(tracer.total_counters(), 1).items():
            samples.layer(name, value)
        client_setup = span_seconds(spans, "verifier.query_setup")
        samples.layer("net.client_setup_s", client_setup)
        samples.layer("net.bytes_per_session", outcome.bytes_sent + outcome.bytes_received)
        samples.layer("net.attempts_per_session", outcome.attempts)
        # what no span covers: connect, hello and dispatch, frame codec,
        # admission — the fixed per-session costs
        covered = (
            (client_setup or 0.0)
            + (span_seconds(spans, "wire.prover_session") or 0.0)
            + (span_seconds(spans, "verifier.per_instance") or 0.0)
        )
        samples.layer("unattributed_share", 1.0 - covered / wall)

    def _record_server_stats(self, run: Run) -> None:
        metrics = fetch_stats(self.address)["metrics"]
        histograms = metrics["histograms"]
        counters = metrics["counters"]
        run.layer("serve.session_s_p50", histograms["session_latency_seconds"]["p50"])
        run.layer("serve.queue_wait_s_p50", histograms["gateway.queue_wait_seconds"]["p50"])
        shed = sum(v for k, v in counters.items() if k.startswith("gateway.shed."))
        started = counters.get("sessions_started", 0)
        run.layer("serve.shed_ratio", shed / (started + shed) if started + shed else 0.0)
        hits = counters.get("gateway.schedule_cache_hits", 0)
        misses = counters.get("gateway.schedule_cache_misses", 0)
        run.layer(
            "serve.schedule_cache_hit_ratio",
            hits / (hits + misses) if hits + misses else None,
        )

    def finish(self, run: Run, trace: bool) -> None:
        """Read the server's own metrics (traced run), then stop it."""
        report: dict = {}
        if self.server is not None:
            try:
                if trace:
                    self._record_server_stats(run)
            finally:
                report = self.server.stop()
        run.peak_rss_mb = peak_rss_mb() + report.get("peak_rss_mb", 0.0)
