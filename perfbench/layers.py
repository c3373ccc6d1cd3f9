"""Per-layer timing for the traced run, from outside the program.

The traced run times calls into each layer's public functions by
wrapping them here, in the benchmark, rather than by adding spans under
``src/``.  Where an existing ``repro.telemetry`` span or counter already
covers a layer (the QAP's interpolate/multiply/divide steps, the
server-side prover phases that a gateway session ships back in its
stitched trace, the crypto and kernel counters), the traced run reads
that instead.

A wrapper costs one thread-local lookup when no batch on its thread is
being traced, so installing the wrappers for the whole traced run leaves
its untraced batches unaffected.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.argument import protocol
from repro.compiler import CompiledProgram
from repro.crypto import CommitmentProver, CommitmentVerifier
from repro.pcp import zaatar as zaatar_pcp

#: (layer metric, owner, attribute): the public calls the traced run
#: times.  ``protocol.compute_h_batch`` / ``protocol.build_proof_vector``
#: are the names ``ZaatarArgument`` calls them by; none of these calls
#: another one, so their times never overlap.
TIMED_CALLS = (
    ("compiler.solve_s", CompiledProgram, "solve"),
    ("qap.construct_u_s", protocol, "compute_h_batch"),
    ("qap.construct_u_s", protocol, "build_proof_vector"),
    ("crypto.enc_r_s", CommitmentVerifier, "commit_request"),
    ("crypto.fold_s", CommitmentProver, "commit"),
    ("crypto.answer_s", CommitmentProver, "answer"),
    ("pcp.schedule_s", zaatar_pcp, "generate_schedule"),
    ("pcp.check_s", CommitmentVerifier, "verify"),
    ("pcp.check_s", zaatar_pcp, "check_answers"),
)

#: layer metrics read from the QAP prover's existing spans
QAP_SPANS = {
    "qap.interpolate_s": "qap.interpolate",
    "qap.multiply_s": "qap.multiply",
    "qap.divide_s": "qap.divide",
}

#: layer metrics read from the prover phase spans a gateway session
#: returns in its stitched trace (the server runs in another process,
#: out of the wrappers' reach)
SERVER_SPANS = {
    "compiler.solve_s": "prover.solve_constraints",
    "qap.construct_u_s": "prover.construct_u",
    "crypto.fold_s": "prover.crypto_ops",
    "crypto.answer_s": "prover.answer_queries",
}


class LayerClock:
    """Wall seconds spent in :data:`TIMED_CALLS`, per traced batch.

    ``with clock.installed():`` swaps the wrappers in for a block;
    ``with clock.batch() as acc:`` makes the calls the current thread
    makes inside it add their seconds to ``acc`` (layer → seconds; a
    layer that was never called has no key).
    """

    def __init__(self):
        self._local = threading.local()

    def _wrap(self, layer: str, fn):
        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            acc = getattr(local, "acc", None)
            if acc is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[layer] = acc.get(layer, 0.0) + time.perf_counter() - start

        return timed

    @contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        """Wrap every timed call for the block, then restore the originals."""
        originals = []
        try:
            for layer, owner, name in TIMED_CALLS:
                fn = getattr(owner, name)
                originals.append((owner, name, fn))
                setattr(owner, name, self._wrap(layer, fn))
            yield self
        finally:
            for owner, name, fn in reversed(originals):
                setattr(owner, name, fn)

    @contextmanager
    def batch(self) -> Iterator[dict[str, float]]:
        """Attribute this thread's timed calls to a fresh accumulator."""
        acc: dict[str, float] = {}
        self._local.acc = acc
        try:
            yield acc
        finally:
            self._local.acc = None


def span_seconds(spans, name: str) -> float | None:
    """Summed wall seconds of the spans called ``name`` (None if none)."""
    walls = [s.wall_seconds for s in spans if s.name == name]
    return sum(walls) if walls else None


def counter_metrics(totals: dict, instances: int) -> dict[str, float]:
    """The per-layer counts of one traced batch, from its trace totals."""
    hits = totals.get("poly.plan_hits", 0)
    misses = totals.get("poly.plan_misses", 0)
    backend_calls = sum(
        value
        for key, value in totals.items()
        if key.startswith("backend.") and key.endswith((".calls", ".batch_calls"))
    )
    return {
        "crypto.exponentiations_per_instance": totals.get("crypto.exponentiations", 0)
        / instances,
        "crypto.encryptions_per_batch": float(totals.get("crypto.encryptions", 0)),
        "poly.ntt_points_per_instance": totals.get("poly.ntt_points", 0) / instances,
        "field.backend_calls_per_instance": backend_calls / instances,
        "poly.plan_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }

