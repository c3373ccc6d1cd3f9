"""Hierarchical tracing core: spans, counters, and the global tracer.

The paper's whole evaluation (§5, Figures 4-9) is cost accounting —
prover phase breakdowns, verifier setup-vs-per-instance splits, bytes
on the wire.  This module is the measurement substrate those numbers
come from: a tree of **spans** (each recording wall-clock *and*
process-CPU seconds) with **counters** attached to whichever span was
innermost when the counted event happened.

Telemetry is *disabled by default* and the disabled path is designed
to cost nothing on hot loops: :func:`count` is a single global read
and ``None`` check, and ``PrimeField`` itself is never instrumented
(see ``repro.field.counting`` for the opt-in wrapper).  Enable a trace
with :func:`enable`/:func:`disable` or the :func:`session` context
manager; protocol code then creates spans through :func:`span`,
:func:`start_span`/:func:`end_span`, or the :func:`traced` decorator.

Thread model: each thread has its own active-span stack (spans formed
on the prover-server thread become their own roots of the trace
forest), while the finished-span list and the id counter are shared
under a lock.  Forked worker processes (``argument.parallel``) export
their span records and the parent re-inserts them with
:meth:`Tracer.adopt`.

Distributed traces: every :class:`Tracer` carries a ``trace_id`` that
is stamped onto each span it starts, and a thread may *override* the
installed tracer with :func:`thread_tracer` — that is how a
prover-server session records its spans into a private per-session
tracer (created with the client's propagated ``trace_id``) without
touching whatever global trace the server process may be running.
Span records exported by :meth:`Tracer.records_since` carry an
``origin`` key identifying the exporting tracer+process, which makes
:meth:`Tracer.adopt` idempotent: re-adopting the same records (a
retried worker result, a replayed session trace) inserts nothing
twice.
"""

from __future__ import annotations

import functools
import os
import secrets
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, not seed-derived)."""
    return secrets.token_hex(8)


class Span:
    """One timed region: name, parent link, two clocks, counters."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "attrs",
        "counters",
        "wall_seconds",
        "cpu_seconds",
        "_t0_wall",
        "_t0_cpu",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any] | None = None,
        trace_id: str | None = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attrs = attrs or {}
        self.counters: dict[str, int | float] = {}
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._t0_wall = 0.0
        self._t0_cpu = 0.0

    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to this span's counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def to_record(self) -> dict[str, Any]:
        """The JSONL representation (see docs/OBSERVABILITY.md)."""
        record: dict[str, Any] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "wall_s": self.wall_seconds,
            "cpu_s": self.cpu_seconds,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.counters:
            record["counters"] = dict(self.counters)
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Span":
        """Rebuild a span from its JSONL record.

        Unknown keys are ignored — records written by a newer schema
        (or stamped with transport metadata like ``origin``) must stay
        readable, so only the fields this version knows are consumed.
        """
        span = cls(
            record["name"],
            record["id"],
            record.get("parent"),
            dict(record.get("attrs") or {}),
            trace_id=record.get("trace_id"),
        )
        span.wall_seconds = record.get("wall_s", 0.0)
        span.cpu_seconds = record.get("cpu_s", 0.0)
        span.counters = dict(record.get("counters") or {})
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"wall={self.wall_seconds:.6f}s, cpu={self.cpu_seconds:.6f}s)"
        )


class Tracer:
    """Collects finished spans; owns the per-thread active-span stacks."""

    def __init__(self, trace_id: str | None = None):
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        #: the distributed-trace id every span of this tracer carries;
        #: propagated over the wire so a remote session's spans stitch
        #: into the same logical trace
        self.trace_id = trace_id or new_trace_id()
        #: private identity of THIS tracer object (never propagated);
        #: combined with the pid it keys adoption idempotence — forked
        #: workers share the uid but differ in pid
        self._uid = secrets.token_hex(4)
        #: (origin, original span id) -> locally assigned id, for every
        #: record ever adopted; makes re-adoption a no-op
        self._adopted_ids: dict[tuple[str, int], int] = {}
        #: finished spans, in completion (post-) order
        self.spans: list[Span] = []
        #: counts that arrived while no span was active on the thread
        self.orphan_counters: dict[str, int | float] = {}

    # -- span lifecycle -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span as a child of this thread's innermost span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(name, span_id, parent_id, attrs, trace_id=self.trace_id)
        stack.append(span)
        span._t0_wall = time.perf_counter()
        span._t0_cpu = time.process_time()
        return span

    def end(self, span: Span) -> Span:
        """Close a span, fixing both clocks, and record it."""
        cpu = time.process_time() - span._t0_cpu
        wall = time.perf_counter() - span._t0_wall
        span.cpu_seconds = cpu
        span.wall_seconds = wall
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is span:
                break
        with self._lock:
            self.spans.append(span)
        return span

    def current_span(self) -> Span | None:
        """This thread's innermost active span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- counters ------------------------------------------------------------

    def count(self, name: str, n: int | float = 1) -> None:
        """Attribute ``n`` to the innermost active span of this thread."""
        span = self.current_span()
        if span is not None:
            span.count(name, n)
        else:
            with self._lock:
                self.orphan_counters[name] = self.orphan_counters.get(name, 0) + n

    def total_counters(self) -> dict[str, int | float]:
        """Every counter summed over all finished spans (plus orphans)."""
        totals: dict[str, int | float] = dict(self.orphan_counters)
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- queries -------------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    # -- fork support (argument.parallel) -------------------------------------

    def mark(self) -> int:
        """A position in the finished-span list, for ``records_since``."""
        with self._lock:
            return len(self.spans)

    def origin(self) -> str:
        """Identity of this tracer *in this process* (uid:pid).

        Stamped onto exported records so :meth:`adopt` can recognise a
        record set it has seen before.  Forked workers inherit the uid
        but run under their own pid, so two workers exporting spans
        with colliding ids never dedupe against each other.
        """
        return f"{self._uid}:{os.getpid()}"

    def records_since(self, mark: int) -> list[dict[str, Any]]:
        """JSONL records of every span finished after ``mark``.

        Each record carries an ``origin`` key (this tracer's identity
        in this process) so the adopting side can deduplicate.
        """
        origin = self.origin()
        with self._lock:
            records = [s.to_record() for s in self.spans[mark:]]
        for record in records:
            record["origin"] = origin
        return records

    def adopt(
        self, records: list[dict[str, Any]], parent_id: int | None = None
    ) -> list[Span]:
        """Re-insert span records exported by another tracer/process.

        Exported ids collide with local ones (and across forked
        workers, which each inherit the id counter at fork time), so
        adopted spans get fresh ids; parent links *inside* the record
        set are remapped, and links to spans that are not part of it
        are redirected to ``parent_id`` (the local span the remote work
        ran under).

        Adoption is idempotent per record: a record whose
        ``(origin, id)`` was adopted before is skipped — but still
        contributes its previously assigned local id to the remapping,
        so a later adopt of its children links them correctly.  Records
        without an ``origin`` (hand-built) are never deduplicated.
        Returns only the spans actually inserted by this call.
        """
        with self._lock:
            mapping: dict[int, int] = {}
            fresh: list[dict[str, Any]] = []
            for record in records:
                origin = record.get("origin")
                key = (origin, record["id"]) if origin is not None else None
                if key is not None and key in self._adopted_ids:
                    mapping[record["id"]] = self._adopted_ids[key]
                    continue
                mapping[record["id"]] = self._next_id
                if key is not None:
                    self._adopted_ids[key] = self._next_id
                self._next_id += 1
                fresh.append(record)
            adopted = []
            for record in fresh:
                span = Span.from_record(record)
                span.span_id = mapping[record["id"]]
                old_parent = record.get("parent")
                if old_parent in mapping:
                    span.parent_id = mapping[old_parent]
                else:
                    span.parent_id = parent_id
                self.spans.append(span)
                adopted.append(span)
            return adopted


# -- module-level API ----------------------------------------------------------

_tracer: Tracer | None = None
_install_lock = threading.Lock()
# per-thread tracer override (prover-server session tracing); checked
# before the global tracer by every entry point below
_thread_ctx = threading.local()


def enabled() -> bool:
    """True while a tracer is installed (globally or on this thread)."""
    return current() is not None


def current() -> Tracer | None:
    """This thread's tracer: the thread override if one is bound
    (:func:`thread_tracer`), else the globally installed tracer, else
    None when telemetry is off."""
    tracer = getattr(_thread_ctx, "tracer", None)
    return tracer if tracer is not None else _tracer


@contextmanager
def thread_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Bind ``tracer`` as THIS thread's tracer for the block.

    Spans and counters fired on this thread land in ``tracer`` instead
    of the globally installed one (other threads are unaffected) —
    this is how a prover-server session records into a private
    per-session tracer whose records ship back to the client.
    Overrides nest; the previous binding is restored on exit.
    """
    prev = getattr(_thread_ctx, "tracer", None)
    _thread_ctx.tracer = tracer
    try:
        yield tracer
    finally:
        _thread_ctx.tracer = prev


def enable() -> Tracer:
    """Install a fresh tracer (replacing any previous one)."""
    global _tracer
    with _install_lock:
        _tracer = Tracer()
        return _tracer


def disable() -> Tracer | None:
    """Uninstall and return the tracer (None if already off)."""
    global _tracer
    with _install_lock:
        tracer, _tracer = _tracer, None
        return tracer


@contextmanager
def session() -> Iterator[Tracer]:
    """Enable telemetry for a block; disables (and yields) the tracer."""
    global _tracer
    tracer = enable()
    try:
        yield tracer
    finally:
        with _install_lock:
            if _tracer is tracer:
                _tracer = None


def count(name: str, n: int | float = 1) -> None:
    """Attribute ``n`` to the current span; free no-op when disabled."""
    tracer = current()
    if tracer is not None:
        tracer.count(name, n)


def start_span(name: str, **attrs: Any) -> Span | None:
    """Open a span (None when disabled); pair with :func:`end_span`."""
    tracer = current()
    return tracer.start(name, **attrs) if tracer is not None else None


def end_span(span: Span | None) -> None:
    """Close a span opened by :func:`start_span`."""
    tracer = current()
    if tracer is not None and span is not None:
        tracer.end(span)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Context manager form; yields the span (None when disabled)."""
    tracer = current()
    if tracer is None:
        yield None
        return
    sp = tracer.start(name, **attrs)
    try:
        yield sp
    finally:
        tracer.end(sp)


def traced(name: str | None = None) -> Callable:
    """Decorator: wrap every call of the function in a span."""

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = current()
            if tracer is None:
                return fn(*args, **kwargs)
            sp = tracer.start(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sp)

        return wrapper

    return decorate
