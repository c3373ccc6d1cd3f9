"""The benchmark's workloads, the run protocol they share, and its metrics.

One run is set-up followed by a timed window, measured in slices:

* set-up builds everything a batch needs (compile, QAP build with its
  lazy artifacts touched, and for the gateway the server start) and is
  timed as ``setup_s``;
* the window runs closed-loop batches (a gateway session is one
  batch) in slices of about :data:`SLICE_SECONDS`; after every slice
  the whole set-up is repeated once more, timed, and thrown away, so
  the ``setup_s`` samples are spread over the run instead of bunched
  at its start.  Set-up repetitions are not part of the window.

The host this benchmark was tuned on changes speed in phases of
seconds to minutes, and process CPU time rises and falls with wall
time.  So every time-valued sample is scaled to a reference host speed
(``speed.py``), and every reported figure is a median over many
samples that span the run: batch times over batches, throughput over
slices, CPU per instance over batches (in-process) or sessions and
slices (gateway), and set-up time over its repetitions.

Every batch is checked: it must verify, and its outputs must equal the
application's plain-Python reference.  Failed, rejected and wrong
instances all count as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.apps import LCS
from repro.argument import ArgumentConfig, ZaatarArgument
from repro.field import PrimeField
from repro.field.params import GOLDILOCKS, P128
from repro.poly.plan import clear_plan_caches

from layers import QAP_SPANS, LayerClock, counter_metrics, span_seconds
from speed import HostSpeed

#: a slice of the window ends at the first batch boundary past this
SLICE_SECONDS = 2.0

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10

#: the paper's LCS app at the size every in-process workload runs
LCS_SIZES = {"m": 4, "alphabet_bits": 3}

#: end-to-end metrics and their units, in the order they are reported
END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s_p50": "s",
    "instances_per_s": "1/s",
    "verifier_cpu_s_per_instance": "s",
    "prover_cpu_s_per_instance": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics and their units; a layer that does not run on a
#: workload reports 0 there (see ``Workload.layers``)
PER_LAYER_UNITS = {
    "compiler.compile_s": "s",
    "qap.build_s": "s",
    "compiler.solve_s": "s",
    "qap.construct_u_s": "s",
    "qap.interpolate_s": "s",
    "qap.multiply_s": "s",
    "qap.divide_s": "s",
    "crypto.enc_r_s": "s",
    "crypto.fold_s": "s",
    "crypto.answer_s": "s",
    "pcp.schedule_s": "s",
    "pcp.check_s": "s",
    "crypto.exponentiations_per_instance": "count",
    "crypto.encryptions_per_batch": "count",
    "poly.ntt_points_per_instance": "count",
    "field.backend_calls_per_instance": "count",
    "poly.plan_hit_ratio": "ratio",
    "net.client_setup_s": "s",
    "net.bytes_per_session": "bytes",
    "net.attempts_per_session": "count",
    "serve.session_s_p50": "s",
    "serve.queue_wait_s_p50": "s",
    "serve.shed_ratio": "ratio",
    "serve.schedule_cache_hit_ratio": "ratio",
    "telemetry.overhead": "ratio",
    "unattributed_share": "ratio",
}

#: layers every workload runs (the protocol itself, whatever the transport)
PROTOCOL_LAYERS = frozenset(
    name for name in PER_LAYER_UNITS if not name.startswith(("net.", "serve."))
)


class BenchmarkError(RuntimeError):
    """The run could not produce a complete, checked result."""


def verifier_seed(seed: int, *path) -> bytes:
    """A fresh verifier seed (``ArgumentConfig.seed``) per batch or session.

    Derived from the workload seed, so a run is reproducible, but never
    reused within a run: reusing it would reuse the verifier's secrets
    (r, α, t) across batches.
    """
    label = ":".join(str(part) for part in (seed, *path))
    return hashlib.sha256(label.encode()).digest()[:16]


def warm_qap(qap) -> None:
    """Touch every lazily built QAP artifact a batch would otherwise build."""
    qap.subproduct_tree
    qap.divisor_poly
    qap.barycentric_weights
    qap.divisor_inverse_series()


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values, q: float) -> float | None:
    """The q-quantile, or None unless ``TAIL_SAMPLES`` samples lie beyond it."""
    values = sorted(values)
    if round(len(values) * (1.0 - q), 6) < TAIL_SAMPLES:
        return None
    return values[min(int(q * len(values)), len(values) - 1)]


@dataclass
class Run:
    """Everything one run samples (times in seconds)."""

    batch_size: int
    setup_s: list[float] = field(default_factory=list)
    #: untraced batch wall times
    batch_s: list[float] = field(default_factory=list)
    #: traced batch wall times (trace mode only)
    traced_batch_s: list[float] = field(default_factory=list)
    #: (instances verified, wall seconds) per slice of the window
    slices: list[tuple[int, float]] = field(default_factory=list)
    verifier_cpu: list[float] = field(default_factory=list)
    prover_cpu: list[float] = field(default_factory=list)
    #: per-layer samples: layer metric → one value per traced batch
    #: (per set-up repetition for the set-up layers)
    layers: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: reference-speed factor of every unit of work (see ``speed.py``)
    speed_factors: list[float] = field(default_factory=list)

    def layer(self, name: str, value: float | None) -> None:
        """Record one sample of a layer metric (None: layer not seen)."""
        if value is not None:
            self.layers.setdefault(name, []).append(value)

    def absorb(self, other: "Run", factor: float) -> None:
        """Add the samples of one unit of work, times scaled by ``factor``.

        ``factor`` brings the unit's seconds to the reference host speed
        (see ``speed.py``); counts and ratios are kept as they are.
        """
        for name in ("batch_s", "traced_batch_s", "verifier_cpu", "prover_cpu"):
            getattr(self, name).extend(v * factor for v in getattr(other, name))
        for name, values in other.layers.items():
            scale = factor if PER_LAYER_UNITS.get(name) == "s" else 1.0
            self.layers.setdefault(name, []).extend(v * scale for v in values)
        self.attempted += other.attempted
        self.failed += other.failed

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics, by name."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "batch_s_p50": statistics.median(self.batch_s),
            "instances_per_s": statistics.median(n / wall for n, wall in self.slices),
            "verifier_cpu_s_per_instance": statistics.median(self.verifier_cpu),
            "prover_cpu_s_per_instance": statistics.median(self.prover_cpu),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def summary(self) -> dict:
        """End-to-end metrics plus the ones the result line cannot carry.

        ``error_rate`` is failed / attempted (it is 0 on a healthy run,
        so it cannot serve as a relative-bound metric), and
        ``batch_s_p90`` appears only where the run holds at least
        ``TAIL_SAMPLES`` samples beyond it.
        """
        out = self.end_to_end()
        out["error_rate"] = self.failed / self.attempted if self.attempted else 1.0
        p90 = tail_percentile(self.batch_s, 0.9)
        if p90 is not None:
            out["batch_s_p90"] = p90
        if self.speed_factors:
            out["speed_factor_p50"] = statistics.median(self.speed_factors)
        out["samples"] = {
            "batches": len(self.batch_s),
            "traced_batches": len(self.traced_batch_s),
            "slices": len(self.slices),
            "setups": len(self.setup_s),
        }
        return out

    def per_layer(self, expected: frozenset) -> dict[str, float]:
        """Per-layer metrics; raises if a layer that ran left no sample."""
        missing = sorted(name for name in expected if name not in self.layers)
        if missing:
            raise BenchmarkError(f"traced run is missing layer metrics: {missing}")
        return {
            name: statistics.median(self.layers[name]) if name in expected else 0.0
            for name in PER_LAYER_UNITS
        }


class InProcessWorkload:
    """LCS batches proved and verified in this process, back to back."""

    def __init__(self, name: str, field_params, batch_size: int, seed: int):
        self.name = name
        self.field_params = field_params
        self.batch_size = batch_size
        self.seed = seed
        self.rng = random.Random(f"{seed}:{name}:inputs")
        self.config = ArgumentConfig()
        self.argument: ZaatarArgument | None = None
        self.batches = 0
        self.layers = PROTOCOL_LAYERS

    def setup(self, keep: bool) -> dict[str, float]:
        """Compile, build and warm the QAP from cold plan caches."""
        clear_plan_caches()
        start = time.perf_counter()
        program = LCS.compile(PrimeField(self.field_params, check_prime=False), LCS_SIZES)
        compiled = time.perf_counter()
        argument = ZaatarArgument(program, self.config)
        warm_qap(argument.qap)
        done = time.perf_counter()
        if keep:
            self.argument = argument
        return {
            "setup_s": done - start,
            "compiler.compile_s": compiled - start,
            "qap.build_s": done - compiled,
        }

    def run_slice(
        self, run: Run, budget: float, clock: LayerClock | None, speed: HostSpeed
    ) -> tuple[int, float]:
        """Batches until the slice or the window budget is spent.

        Returns the instances verified and the batches' seconds at the
        reference speed.
        """
        start = time.perf_counter()
        instances = 0
        seconds = 0.0
        while True:
            samples = Run(batch_size=self.batch_size)
            with speed.unit() as unit:
                begun = time.perf_counter()
                instances += self._batch(samples, clock if self.batches % 2 else None)
                elapsed = time.perf_counter() - begun
            seconds += elapsed * unit.factor
            run.absorb(samples, unit.factor)
            self.batches += 1
            if time.perf_counter() - start >= min(SLICE_SECONDS, budget):
                return instances, seconds

    def _batch(self, samples: Run, clock: LayerClock | None) -> int:
        inputs = [LCS.generate_inputs(self.rng, LCS_SIZES) for _ in range(self.batch_size)]
        argument = self.argument
        argument.config = dataclasses.replace(
            self.config, seed=verifier_seed(self.seed, self.name, self.batches)
        )
        if clock is None:
            start = time.perf_counter()
            result = argument.run_batch(inputs)
            wall = time.perf_counter() - start
            samples.batch_s.append(wall)
        else:
            with clock.batch() as acc, telemetry.thread_tracer(telemetry.Tracer()) as tracer:
                start = time.perf_counter()
                result = argument.run_batch(inputs)
                wall = time.perf_counter() - start
            samples.traced_batch_s.append(wall)
            self._record_layers(samples, wall, acc, tracer)
        good = sum(
            1
            for outcome, x in zip(result.instances, inputs)
            if outcome.ok and outcome.accepted
            and outcome.output_values == LCS.reference(x, LCS_SIZES)
        )
        samples.attempted += len(inputs)
        samples.failed += len(inputs) - good
        stats = result.stats
        samples.verifier_cpu.append(stats.verifier.total / self.batch_size)
        samples.prover_cpu.append(
            sum(s.e2e for s in stats.prover_per_instance) / self.batch_size
        )
        return good

    def _record_layers(self, samples: Run, wall: float, acc: dict, tracer) -> None:
        for name, seconds in acc.items():
            samples.layer(name, seconds)
        for name, span_name in QAP_SPANS.items():
            samples.layer(name, span_seconds(tracer.spans, span_name))
        for name, value in counter_metrics(tracer.total_counters(), self.batch_size).items():
            samples.layer(name, value)
        samples.layer("unattributed_share", 1.0 - sum(acc.values()) / wall)

    def finish(self, run: Run, trace: bool) -> None:
        """Record what is only known at the end of the run."""
        run.peak_rss_mb = peak_rss_mb()


def _gateway(seed: int):
    from gateway import GatewayWorkload

    return GatewayWorkload(seed)


#: workload name → factory(seed)
WORKLOADS = {
    "p128-b8": lambda seed: InProcessWorkload("p128-b8", P128, 8, seed),
    "goldilocks-b1": lambda seed: InProcessWorkload("goldilocks-b1", GOLDILOCKS, 1, seed),
    "gateway": _gateway,
}


@dataclass
class Report:
    """What one run prints: a summary line and the result line."""

    summary: dict
    result: dict


def measure(workload, seconds: float, trace: bool) -> Run:
    """Set up, then run slices until ``seconds`` of window have passed.

    The window also runs on until it holds an untraced batch and, in a
    traced run, a traced one, so that every metric has a sample.
    """
    run = Run(batch_size=workload.batch_size)
    speed = HostSpeed()
    clock = LayerClock() if trace else None

    def setup(keep: bool) -> None:
        with speed.unit() as unit:
            times = workload.setup(keep)
        run.setup_s.append(times.pop("setup_s") * unit.factor)
        for name, value in times.items():
            run.layer(name, value * unit.factor)

    with clock.installed() if clock else contextlib.nullcontext():
        setup(keep=True)
        try:
            window = 0.0
            while window < seconds or not run.batch_s or (trace and not run.traced_batch_s):
                start = time.perf_counter()
                run.slices.append(
                    workload.run_slice(run, max(seconds - window, 0.0), clock, speed)
                )
                window += time.perf_counter() - start
                setup(keep=False)
        finally:
            workload.finish(run, trace)
    run.speed_factors = speed.factors
    return run


def run_workload(name: str, *, seed: int, seconds: float, trace: bool) -> Report:
    """Measure one workload and build its summary and result lines."""
    workload = WORKLOADS[name](seed)
    run = measure(workload, seconds, trace)
    summary = {"workload": name, "seed": seed, "trace": trace, **run.summary()}
    if trace:
        run.layer(
            "telemetry.overhead",
            statistics.median(run.traced_batch_s) / statistics.median(run.batch_s),
        )
        values = run.per_layer(workload.layers)
        units = PER_LAYER_UNITS
    else:
        values = run.end_to_end()
        units = END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    return Report(summary=summary, result=result)
