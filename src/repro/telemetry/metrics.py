"""Live metrics: counters, gauges, and exact-quantile histograms.

Spans (``telemetry.core``) answer *where did one run's time go*; this
module answers *what is the service doing right now* — the
fleet-observability side of the §5 evaluation once the prover runs as
a long-lived :class:`~repro.argument.serve.GatewayServer`.  A
:class:`MetricsRegistry` holds three instrument kinds:

* **counters** — monotonically increasing totals (sessions started,
  errors by code, backend elements processed);
* **gauges** — last-written values (sessions in flight, live workers);
* **histograms** — fixed-memory quantile sketches over observations
  (session latency, queue wait), via deterministic reservoir sampling:
  quantiles are *exact* while the observation count stays within the
  reservoir capacity (the common case for session-grained series), and
  an unbiased uniform sample beyond it, reproducible under the seed.

Like tracing, metrics are **off by default** and the disabled hooks
are designed to cost one thread-local read and a ``None`` check (the
zero-overhead guard in ``tests/telemetry/test_overhead.py`` pins the
dispatch-path delta).  A registry is bound either per thread
(:func:`use` — how the prover server scopes a registry to its session
threads) or process-wide (:func:`install`).

Exposition: ``registry.render_text()`` emits a Prometheus-style
plaintext page, served by :func:`start_http_exporter` (the ``repro
serve --metrics-port`` endpoint); ``registry.snapshot()`` is the JSON
form the ``{"type": "stats"}`` wire request and ``repro top`` consume.
See docs/OBSERVABILITY.md for the metric catalog.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from typing import Any, Iterator
from contextlib import contextmanager

#: quantiles included in snapshots and the plaintext exposition
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)

#: default reservoir capacity; quantiles are exact up to this many
#: observations per histogram
DEFAULT_RESERVOIR = 1024


class QuantileHistogram:
    """Fixed-memory quantile sketch via deterministic reservoir sampling.

    Keeps at most ``capacity`` observations.  Until the total
    observation count exceeds the capacity, every observation is
    retained, so :meth:`quantile` is **exact**; past that point the
    reservoir is a uniform sample (algorithm R) drawn with a PRNG
    seeded from ``seed``, so two runs observing the same series report
    identical quantiles.  ``count``/``sum``/``min``/``max`` are always
    exact regardless of capacity.
    """

    __slots__ = ("capacity", "count", "sum", "min", "max", "_values", "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._values: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        """Record one observation (reservoir-sampled past capacity)."""
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._values) < self.capacity:
            self._values.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                self._values[j] = value

    @property
    def exact(self) -> bool:
        """True while every observation is still retained."""
        return self.count <= self.capacity

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile over the retained observations.

        None when nothing has been observed.  With ``exact`` True this
        is the exact q-quantile of everything ever observed.  ``q`` is
        clamped into [0, 1] (dashboards routinely probe q=0/q=1 and
        float arithmetic can land a hair outside), and the endpoints
        are pinned: q=0 is the minimum retained value, q=1 the maximum.
        """
        if not self._values:
            return None
        q = min(1.0, max(0.0, float(q)))
        ordered = sorted(self._values)
        if q == 0.0:
            return ordered[0]
        if q == 1.0:
            return ordered[-1]
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> dict[str, Any]:
        """The snapshot form: count/sum/min/max plus standard quantiles."""
        out: dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "exact": self.exact,
        }
        for q in SNAPSHOT_QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out


class MetricsRegistry:
    """A named set of counters, gauges, and histograms (thread-safe).

    ``seed`` makes every histogram's reservoir deterministic: each one
    draws its own PRNG seed from ``(seed, name)``, so registries built
    the same way and fed the same series snapshot identically.
    ``info`` holds static labels (program name, backend, …) that ride
    along in snapshots and the exposition page.
    """

    def __init__(self, *, seed: int = 0, **info: Any):
        self._lock = threading.Lock()
        self._seed = seed
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, QuantileHistogram] = {}
        self.info: dict[str, Any] = dict(info)
        self.created_unix = time.time()

    # -- instruments -------------------------------------------------------

    def inc(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: int | float) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = value

    def add_gauge(self, name: str, delta: int | float) -> None:
        """Adjust gauge ``name`` by ``delta`` (created at 0)."""
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0) + delta

    def observe(self, name: str, value: float, capacity: int = DEFAULT_RESERVOIR) -> None:
        """Record ``value`` into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                # per-histogram seed derived from (registry seed, name)
                # so determinism survives creation-order differences
                hseed = (self._seed * 1_000_003 + hash(name)) & 0x7FFFFFFF
                hist = self._histograms[name] = QuantileHistogram(capacity, seed=hseed)
            hist.observe(value)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Observe the block's wall-clock seconds into histogram ``name``.

        The gateway times its admission and worker-exchange stages this
        way; the duration is recorded even when the block raises (a
        failed session's latency is still latency).
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def counter_value(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        """Current value of gauge ``name`` (None if never set)."""
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> QuantileHistogram | None:
        """The live histogram object for ``name`` (None if unused)."""
        with self._lock:
            return self._histograms.get(name)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The JSON form: info + uptime + every instrument's state."""
        with self._lock:
            return {
                "info": dict(self.info),
                "uptime_seconds": time.time() - self.created_unix,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.summary()
                    for name, hist in self._histograms.items()
                },
            }

    def render_text(self) -> str:
        """Prometheus-style plaintext exposition of the registry.

        Metric names keep their dotted form with dots mapped to
        underscores; histograms expand to ``_count``/``_sum`` plus one
        ``{quantile="..."}`` sample per standard quantile.
        """
        snap = self.snapshot()
        lines: list[str] = []
        if snap["info"]:
            labels = ",".join(
                f'{_metric_name(k)}="{v}"' for k, v in sorted(snap["info"].items())
            )
            lines.append(f"repro_server_info{{{labels}}} 1")
        lines.append(f"repro_uptime_seconds {snap['uptime_seconds']:.3f}")
        for name, value in sorted(snap["counters"].items()):
            lines.append(f"{_metric_name(name)}_total {_num(value)}")
        for name, value in sorted(snap["gauges"].items()):
            lines.append(f"{_metric_name(name)} {_num(value)}")
        for name, summary in sorted(snap["histograms"].items()):
            base = _metric_name(name)
            lines.append(f"{base}_count {summary['count']}")
            lines.append(f"{base}_sum {_num(summary['sum'])}")
            for q in SNAPSHOT_QUANTILES:
                value = summary.get(f"p{int(q * 100)}")
                if value is not None:
                    lines.append(f'{base}{{quantile="{q}"}} {_num(value)}')
        return "\n".join(lines) + "\n"


def _metric_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _num(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.9g}"
    return str(int(value))


# -- hook binding --------------------------------------------------------------

_registry: MetricsRegistry | None = None
_thread_ctx = threading.local()


def active() -> MetricsRegistry | None:
    """This thread's registry (thread binding first, then global)."""
    registry = getattr(_thread_ctx, "registry", None)
    return registry if registry is not None else _registry


def install(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or with None, remove) the process-wide registry."""
    global _registry
    _registry = registry
    return registry


@contextmanager
def use(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Bind ``registry`` as THIS thread's registry for the block.

    How the prover server scopes its registry to session threads: hooks
    fired while the session runs (including the field-backend
    throughput ticks during proving) land in the server's registry
    without disturbing any other server in the process.
    """
    prev = getattr(_thread_ctx, "registry", None)
    _thread_ctx.registry = registry
    try:
        yield registry
    finally:
        _thread_ctx.registry = prev


def inc(name: str, n: int | float = 1) -> None:
    """Counter hook; free no-op when no registry is bound."""
    registry = active()
    if registry is not None:
        registry.inc(name, n)


def observe(name: str, value: float) -> None:
    """Histogram hook; free no-op when no registry is bound."""
    registry = active()
    if registry is not None:
        registry.observe(name, value)


def set_gauge(name: str, value: int | float) -> None:
    """Gauge hook; free no-op when no registry is bound."""
    registry = active()
    if registry is not None:
        registry.set_gauge(name, value)


# -- plaintext HTTP exposition --------------------------------------------------


def start_http_exporter(
    registry: MetricsRegistry, host: str = "127.0.0.1", port: int = 0
):
    """Serve ``registry.render_text()`` over HTTP on a daemon thread.

    Returns the ``ThreadingHTTPServer``; its bound address is
    ``server.server_address`` (pass port 0 to pick a free one) and
    ``server.shutdown()`` stops it.  ``GET /`` (any path) answers the
    plaintext page; ``GET /json`` answers the snapshot as JSON.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/").endswith("json"):
                body = json.dumps(registry.snapshot(), sort_keys=True).encode()
                content_type = "application/json"
            else:
                body = registry.render_text().encode()
                content_type = "text/plain; version=0.0.4"
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # noqa: D102 - silence request logs
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="metrics-exporter", daemon=True
    )
    thread.start()
    return server
