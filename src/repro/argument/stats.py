"""Cost instrumentation for the argument system.

``ProverStats`` mirrors the columns of Figure 5 exactly: "solve
constraints", "construct u", "crypto ops.", "answer queries", and the
end-to-end total; ``VerifierStats`` splits setup (amortizable over the
batch) from per-instance work, which is what the breakeven-batch-size
computation (§2.2, Fig 7) needs.

Since the telemetry refactor these classes are *views over spans*:
``PhaseTimer.phase`` opens a ``repro.telemetry`` span named
``<component>.<phase>`` (e.g. ``prover.solve_constraints``) and the
stats numbers are that span's clocks.  The public fields keep their
historical meaning — CPU seconds per phase — and every phase's
wall-clock seconds are recorded alongside in the ``wall`` mapping, so
network waits and subprocess work no longer vanish from totals.  A
finished trace can be folded back into stats with the ``from_spans`` /
``from_trace`` constructors; with telemetry enabled both paths yield
identical numbers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable

from .. import telemetry

#: span-name prefixes for the two components of the argument
PROVER_PREFIX = "prover"
VERIFIER_PREFIX = "verifier"


def _span_fields(span) -> tuple[str, float, float]:
    """(name, cpu_seconds, wall_seconds) from a Span or a JSONL record."""
    if isinstance(span, dict):
        return span["name"], span.get("cpu_s", 0.0), span.get("wall_s", 0.0)
    return span.name, span.cpu_seconds, span.wall_seconds


@dataclass
class ProverStats:
    """Per-instance prover CPU seconds, by phase (Figure 5 columns).

    ``wall`` carries the matching wall-clock seconds per phase, keyed
    by the same attribute names.
    """

    solve_constraints: float = 0.0
    construct_u: float = 0.0
    crypto_ops: float = 0.0
    answer_queries: float = 0.0
    wall: dict[str, float] = field(default_factory=dict)

    #: the Figure-5 phase order; also the span suffixes under "prover."
    PHASES = ("solve_constraints", "construct_u", "crypto_ops", "answer_queries")

    @property
    def e2e(self) -> float:
        """End-to-end prover seconds (the Figure-5 last column)."""
        return (
            self.solve_constraints
            + self.construct_u
            + self.crypto_ops
            + self.answer_queries
        )

    @property
    def wall_e2e(self) -> float:
        """End-to-end prover wall-clock seconds."""
        return sum(self.wall.values())

    def merge(self, other: "ProverStats") -> None:
        """Accumulate another instance's stats into this one."""
        self.solve_constraints += other.solve_constraints
        self.construct_u += other.construct_u
        self.crypto_ops += other.crypto_ops
        self.answer_queries += other.answer_queries
        for key, value in other.wall.items():
            self.wall[key] = self.wall.get(key, 0.0) + value

    def scaled(self, factor: float) -> "ProverStats":
        """A copy with every phase multiplied by ``factor``."""
        return ProverStats(
            solve_constraints=self.solve_constraints * factor,
            construct_u=self.construct_u * factor,
            crypto_ops=self.crypto_ops * factor,
            answer_queries=self.answer_queries * factor,
            wall={k: v * factor for k, v in self.wall.items()},
        )

    @classmethod
    def from_spans(cls, spans: Iterable) -> "ProverStats":
        """Fold ``prover.<phase>`` spans (or records) into phase stats."""
        stats = cls()
        prefix = PROVER_PREFIX + "."
        for span in spans:
            name, cpu, wall = _span_fields(span)
            if not name.startswith(prefix):
                continue
            phase = name[len(prefix):]
            if phase in cls.PHASES:
                setattr(stats, phase, getattr(stats, phase) + cpu)
                stats.wall[phase] = stats.wall.get(phase, 0.0) + wall
        return stats


@dataclass
class VerifierStats:
    """Verifier CPU seconds: batch-amortizable setup vs per-instance."""

    query_setup: float = 0.0        # schedule generation + Enc(r) + challenge
    per_instance: float = 0.0       # decrypt + consistency + PCP checks
    wall: dict[str, float] = field(default_factory=dict)

    PHASES = ("query_setup", "per_instance")

    @property
    def total(self) -> float:
        """Setup plus per-instance seconds."""
        return self.query_setup + self.per_instance

    @classmethod
    def from_spans(cls, spans: Iterable) -> "VerifierStats":
        """Fold ``verifier.<phase>`` spans (or records) into stats."""
        stats = cls()
        prefix = VERIFIER_PREFIX + "."
        for span in spans:
            name, cpu, wall = _span_fields(span)
            if not name.startswith(prefix):
                continue
            phase = name[len(prefix):]
            if phase in cls.PHASES:
                setattr(stats, phase, getattr(stats, phase) + cpu)
                stats.wall[phase] = stats.wall.get(phase, 0.0) + wall
        return stats


@dataclass
class BatchStats:
    """Everything measured while running one batch."""

    batch_size: int = 0
    prover_per_instance: list[ProverStats] = field(default_factory=list)
    verifier: VerifierStats = field(default_factory=VerifierStats)
    local_seconds_per_instance: float = 0.0

    def mean_prover(self) -> ProverStats:
        """Average per-instance prover stats across the batch."""
        if not self.prover_per_instance:
            return ProverStats()
        acc = ProverStats()
        for s in self.prover_per_instance:
            acc.merge(s)
        return acc.scaled(1 / len(self.prover_per_instance))

    @classmethod
    def from_trace(cls, trace) -> "BatchStats":
        """Rebuild batch stats from a trace (``telemetry.Trace``).

        ``ZaatarProver``'s two steps leave three kinds of prover span,
        at every batch size:

        - a ``prover.instance`` span per committed instance (attr
          ``index``), whose subtree is that instance's stats (its
          ``prover.crypto_ops``, or everything a cheating prover timed
          inside it);
        - ``prover.solve_constraints`` and ``prover.answer_queries``
          spans outside any instance subtree, carrying ``index``;
        - one ``prover.construct_u`` span per batch outside any
          instance subtree, carrying the batch's ``indices`` — its
          clocks are split evenly across them, exactly the ``cpu/B`` /
          ``wall/B`` shares the live protocol adds, so trace-derived
          stats match the accumulated ones.

        The result lists one entry per instance index found, in index
        order (a resumed batch yields only the re-proved instances).
        """
        by_index: dict[int, ProverStats] = {}
        claimed: set[int] = set()
        for span in trace.find("prover.instance"):
            subtree = trace.subtree(span)
            claimed.update(s.span_id for s in subtree)
            idx = span.attrs.get("index", len(by_index))
            by_index.setdefault(idx, ProverStats()).merge(
                ProverStats.from_spans(subtree)
            )

        def add(idx: int, phase: str, cpu: float, wall: float) -> None:
            stats = by_index.setdefault(idx, ProverStats())
            setattr(stats, phase, getattr(stats, phase) + cpu)
            stats.wall[phase] = stats.wall.get(phase, 0.0) + wall

        for phase in ("solve_constraints", "answer_queries"):
            for span in trace.find(f"{PROVER_PREFIX}.{phase}"):
                idx = span.attrs.get("index")
                if span.span_id not in claimed and idx is not None:
                    add(idx, phase, span.cpu_seconds, span.wall_seconds)
        for span in trace.find("prover.construct_u"):
            indices = span.attrs.get("indices")
            if span.span_id in claimed or not indices:
                continue
            cpu_share = span.cpu_seconds / len(indices)
            wall_share = span.wall_seconds / len(indices)
            for idx in indices:
                add(idx, "construct_u", cpu_share, wall_share)
        per_instance = [by_index[idx] for idx in sorted(by_index)]
        return cls(
            batch_size=len(per_instance),
            prover_per_instance=per_instance,
            verifier=VerifierStats.from_spans(trace.spans),
        )


class PhaseTimer:
    """Times named phases into a stats object — wall *and* CPU clocks.

    Each phase also opens a telemetry span ``<component>.<attr>`` when
    tracing is enabled; the span's clocks are then used verbatim, so
    stats derived later from the trace agree exactly with the numbers
    accumulated here.
    """

    def __init__(self, stats, component: str | None = None):
        self.stats = stats
        if component is None:
            component = (
                PROVER_PREFIX if isinstance(stats, ProverStats) else VERIFIER_PREFIX
            )
        self.component = component

    @contextmanager
    def phase(self, attr: str, **span_attrs):
        """Time a block; add CPU seconds to ``attr`` and wall to ``wall``.

        Extra keyword arguments become span attributes (e.g.
        ``index=i`` on batched per-instance phases), which
        ``BatchStats.from_trace`` uses to re-attribute spans that do
        not sit inside a ``prover.instance`` subtree.
        """
        span = telemetry.start_span(f"{self.component}.{attr}", **span_attrs)
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        try:
            yield
        finally:
            cpu = time.process_time() - start_cpu
            wall = time.perf_counter() - start_wall
            if span is not None and telemetry.enabled():
                telemetry.end_span(span)
                # prefer the span's clocks so trace-derived stats match
                cpu, wall = span.cpu_seconds, span.wall_seconds
            setattr(self.stats, attr, getattr(self.stats, attr) + cpu)
            wall_map = getattr(self.stats, "wall", None)
            if wall_map is not None:
                wall_map[attr] = wall_map.get(attr, 0.0) + wall
