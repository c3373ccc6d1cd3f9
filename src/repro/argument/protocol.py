"""The batched efficient argument: commitment ∘ linear PCP (§2.2, §A.1).

``ZaatarArgument`` drives a full batch end to end, exactly as Figure 2
(with Zaatar's shaded replacements):

1.  Both parties compile Ψ to constraints (done ahead of time —
    ``CompiledProgram``).
2.  V generates the PCP query schedule once (amortized over the batch)
    and the commitment material once (Enc(r) and the consistency
    challenge).
3.  Per instance: P solves the constraints (executes Ψ), builds the
    proof vector u = (z, h), commits, answers every query; V checks
    the commitment consistency and all PCP tests.

``GingerArgument`` is the same composition over Ginger's PCP and
(z, z⊗z) proof — the executable baseline (only usable at small sizes;
the paper itself falls back to the cost model at benchmark scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable, Sequence

from .. import telemetry
from ..compiler import CompiledProgram
from ..crypto import (
    CommitmentProver,
    CommitmentVerifier,
    FieldPRG,
    SchnorrGroup,
    group_for_field,
)
from ..crypto.commitment import DecommitResponse
from ..pcp import SoundnessParams, TEST_PARAMS
from ..pcp import ginger as ginger_pcp
from ..pcp import zaatar as zaatar_pcp
from ..pcp.ginger import build_ginger_proof
# ``build_proof_vector`` is re-exported: perfbench times H(t) through
# this module's ``compute_h_batch`` and ``build_proof_vector`` names
from ..qap import QAPInstance, build_proof_vector, build_qap  # noqa: F401
from ..qap.prover import compute_h_batch
from .stats import BatchStats, PhaseTimer, ProverStats, VerifierStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .transcript import InstanceRecord

#: Structured ``error``-frame codes a client must *not* retry: the
#: failure is a property of the request itself, so resending the same
#: session can never succeed (everything else — ``busy``, ``bad-frame``,
#: ``deadline``, ``io``, ``shutting-down``, ``internal`` — is presumed
#: transient: another attempt may land on a healthy worker, a quieter
#: server, or a replacement process behind the same address).  The two
#: resume codes are terminal too: a rejected resume means the parked
#: session is gone, and the commit material it guarded must not be
#: replayed against a fresh session.
NON_RETRYABLE_CODES = frozenset(
    {"unknown-program", "bad-request", "session-expired", "resume-invalid"}
)

#: The full structured error-code vocabulary (docs/NETWORKING.md).  The
#: batch engine reuses it for per-instance outcomes so a failure means
#: the same thing whether it crossed a socket or a process boundary.
FAILURE_CODES = frozenset(
    {
        "unknown-program",
        "bad-request",
        "bad-frame",
        "busy",
        "deadline",
        "io",
        "violation",
        "shutting-down",
        "session-expired",
        "resume-invalid",
        "internal",
    }
)


def classify_failure(exc: BaseException) -> str:
    """Map an exception from proving/verifying one instance to a code.

    Exceptions that already carry a ``code`` attribute from the
    vocabulary (``ProtocolViolation``, injected worker faults) keep it;
    input-shaped failures (the solver rejecting its inputs — wrong
    arity, unsatisfiable constraints, malformed values) are
    ``bad-request`` and therefore not retryable; anything else is
    ``internal``.
    """
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code in FAILURE_CODES:
        return code
    if isinstance(exc, (ValueError, TypeError, KeyError, IndexError, ArithmeticError)):
        return "bad-request"
    return "internal"


def record_instance_failure(
    index: int, exc: BaseException, *, attempts: int = 1
) -> "InstanceResult":
    """Classify one instance's failure, count it, build the outcome."""
    code = classify_failure(exc)
    telemetry.count("batch.instances_failed")
    telemetry.count(f"batch.instances_failed.{code}")
    return InstanceResult.failure(
        index, code, f"{type(exc).__name__}: {exc}", attempts=attempts
    )


class ProtocolViolation(RuntimeError):
    """The peer sent something outside the expected protocol flow.

    ``code`` mirrors the structured ``error``-frame vocabulary (see
    docs/NETWORKING.md): the server attaches it to the error frame it
    sends before dropping a session, and the client uses it to decide
    whether a failed attempt is safe and useful to retry.

    ``retry_after`` carries the server's load-shedding hint (seconds)
    when the error frame included one — the gateway's ``busy`` frames
    estimate how long the accept queue needs to clear, and
    ``verify_remote`` sleeps that long instead of its own blind
    backoff.
    """

    def __init__(
        self, message: str, *, code: str = "violation", retry_after: float | None = None
    ):
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        """False when a retry of the same session is guaranteed futile."""
        return self.code not in NON_RETRYABLE_CODES


@dataclass
class ArgumentConfig:
    """Protocol knobs shared by both systems."""

    params: SoundnessParams = dataclass_field(default_factory=lambda: TEST_PARAMS)
    qap_mode: str = "arithmetic"
    paper_scale_crypto: bool = False
    seed: bytes = b"zaatar-argument"
    #: skip the ElGamal layer entirely (PCP-only runs for benches that
    #: study the proof encoding in isolation)
    use_commitment: bool = True

    def group(self, field) -> SchnorrGroup:
        """The commitment group matching this config and field."""
        return group_for_field(field, paper_scale=self.paper_scale_crypto)


@dataclass
class InstanceResult:
    """One instance's outcome: the verdict, or the coded failure.

    A proved instance of an in-process batch also carries its
    ``record`` (inputs, claimed outputs, commitment, answers): the
    same :class:`~repro.argument.transcript.InstanceRecord` that
    transcripts store and checkpoints write.
    """

    accepted: bool
    commitment_ok: bool
    pcp_ok: bool
    output_values: list[int]
    prover_stats: ProverStats
    #: position in the batch (-1: unknown, e.g. legacy constructors)
    index: int = -1
    #: False when the instance never produced a verifiable proof — the
    #: prover raised, its worker died, or retries were exhausted.  An
    #: ``ok`` instance may still be rejected (accepted=False) on a
    #: failed commitment/PCP check; a not-``ok`` one was never checked.
    ok: bool = True
    #: structured failure code from FAILURE_CODES when not ``ok``
    error_code: str | None = None
    error_message: str = ""
    #: proving attempts consumed (1 = no retries)
    attempts: int = 1
    #: what the prover sent for this instance (None when not ``ok``,
    #: and on results built outside the batch engine)
    record: "InstanceRecord | None" = None

    @classmethod
    def failure(
        cls, index: int, code: str, message: str, *, attempts: int = 1
    ) -> "InstanceResult":
        """A structured failed outcome (no proof was produced)."""
        return cls(
            accepted=False,
            commitment_ok=False,
            pcp_ok=False,
            output_values=[],
            prover_stats=ProverStats(),
            index=index,
            ok=False,
            error_code=code,
            error_message=message,
            attempts=attempts,
        )


@dataclass
class FailureSummary:
    """Per-code failure counts + indices for one batch (diagnosable
    partial batches — the CLI prints this verbatim)."""

    total: int
    by_code: dict[str, list[int]]

    @property
    def counts(self) -> dict[str, int]:
        """Failure count per error code."""
        return {code: len(indices) for code, indices in self.by_code.items()}

    def __str__(self) -> str:
        if not self.total:
            return "no failures"
        parts = [
            f"{code}: {len(indices)} (instance{'s' if len(indices) > 1 else ''} "
            f"{', '.join(map(str, indices))})"
            for code, indices in sorted(self.by_code.items())
        ]
        return f"{self.total} failed — " + "; ".join(parts)


@dataclass
class BatchResult:
    instances: list[InstanceResult]
    stats: BatchStats

    @property
    def all_accepted(self) -> bool:
        """True iff every instance in the batch verified."""
        return all(r.accepted for r in self.instances)

    @property
    def num_failed(self) -> int:
        """Instances that never produced a verifiable proof."""
        return sum(1 for r in self.instances if not r.ok)

    @property
    def failures(self) -> FailureSummary:
        """Structured summary of the not-``ok`` instances, by code."""
        by_code: dict[str, list[int]] = {}
        for i, r in enumerate(self.instances):
            if not r.ok:
                index = r.index if r.index >= 0 else i
                by_code.setdefault(r.error_code or "internal", []).append(index)
        return FailureSummary(total=self.num_failed, by_code=by_code)


def solve_and_build(
    program: CompiledProgram,
    qap: QAPInstance,
    batch_inputs: Sequence[Sequence[int]],
    *,
    indices: Sequence[int] | None = None,
    per_stats: Sequence[ProverStats] | None = None,
    after_solve: Callable[[int, object], None] | None = None,
) -> list:
    """Solve every input, then build each live instance's proof vector
    u = (z, h) with one ``compute_h_batch`` call for the whole batch.

    Returns one entry per input: ``(sol, u)``, or the exception its
    solve or its division raised (failure isolation).  ``indices``
    name the inputs in spans (default 0..B−1); ``per_stats`` receive
    their phase clocks.  ``after_solve(position, sol_or_exception)``
    runs after each solve, outside the isolation, so it can abort the
    whole call before the next solve and before H(t) (the gateway's
    fail-fast and session budget).

    Spans: one ``prover.solve_constraints`` per input (attr ``index``),
    then one shared ``prover.construct_u`` (attrs ``batch_size`` and
    ``indices``) whose clocks are split evenly across the batch — the
    shares ``BatchStats.from_trace`` rebuilds from the span.
    """
    batch = len(batch_inputs)
    if not batch:
        return []
    indices = list(range(batch)) if indices is None else list(indices)
    if per_stats is None:
        per_stats = [ProverStats() for _ in range(batch)]
    results: list = []
    for position, (values, index, stats) in enumerate(
        zip(batch_inputs, indices, per_stats)
    ):
        try:
            with PhaseTimer(stats).phase("solve_constraints", index=index):
                results.append(program.solve(values, check=False))
        except Exception as exc:  # noqa: BLE001 - isolate bad instances
            results.append(exc)
        if after_solve is not None:
            after_solve(position, results[-1])
    live = [i for i, sol in enumerate(results) if not isinstance(sol, Exception)]
    shared = ProverStats()
    with PhaseTimer(shared).phase("construct_u", batch_size=batch, indices=indices):
        h_rows = compute_h_batch(qap, [results[i].quadratic_witness for i in live])
    for i, h in zip(live, h_rows):
        sol = results[i]
        z = list(sol.quadratic_witness[1 : qap.n_prime + 1])
        results[i] = h if isinstance(h, Exception) else (sol, z + h)
    cpu_share = shared.construct_u / batch
    wall_share = shared.wall["construct_u"] / batch
    for stats in per_stats:
        stats.construct_u += cpu_share
        stats.wall["construct_u"] = stats.wall.get("construct_u", 0.0) + wall_share
    return results


def _commit_and_answer(
    field, config: ArgumentConfig, vector, queries, request, challenge, timer: PhaseTimer
):
    """One proof vector's commitment round: commit to u under Enc(r),
    then answer every query plus the consistency query t.

    Without the commitment layer the PCP queries are answered directly.
    Returns ``(commitment, response, answers)``.
    """
    if not config.use_commitment:
        with timer.phase("answer_queries"):
            return None, None, [field.inner_product(q, vector) for q in queries]
    prover = CommitmentProver(field, config.group(field), vector)
    with timer.phase("crypto_ops"):
        commitment = prover.commit(request)
    with timer.phase("answer_queries"):
        response = prover.answer(challenge)
    return commitment, response, response.answers


def check_instance(setup, commitment, answers: Sequence[int], x, y):
    """One instance's verifier checks: the commitment consistency test,
    then every PCP test (Fig. 10) on the answers it vouches for.

    ``setup`` is :meth:`ZaatarArgument.verifier_setup`'s tuple; with the
    commitment layer off, the answers go straight to the PCP tests.
    Returns ``(commitment_ok, pcp_result)``.  Malformed answers raise
    ``ValueError`` or ``IndexError``; each caller maps that onto its own
    error.
    """
    schedule, commitment_verifier, _, _ = setup
    if commitment_verifier is None:
        return True, zaatar_pcp.check_answers(schedule, answers, x, y)
    commit_ok = commitment_verifier.verify(commitment, DecommitResponse(list(answers)))
    return commit_ok, zaatar_pcp.check_answers(schedule, answers[:-1], x, y)


class ZaatarArgument:
    """One compiled program + config, runnable on batches of inputs."""

    def __init__(self, program: CompiledProgram, config: ArgumentConfig | None = None):
        self.program = program
        self.config = config or ArgumentConfig()
        self.field = program.field
        self.qap: QAPInstance = build_qap(program.quadratic, mode=self.config.qap_mode)

    # -- verifier setup (amortized) ---------------------------------------------

    def verifier_setup(self, stats: VerifierStats | None = None):
        """Generate the query schedule + commitment material for a batch."""
        cfg = self.config
        timer = PhaseTimer(stats) if stats is not None else None
        prg = FieldPRG(self.field, cfg.seed, "queries")

        def _generate():
            schedule = zaatar_pcp.generate_schedule(self.qap, cfg.params, prg)
            commitment_verifier = None
            request = None
            challenge = None
            if cfg.use_commitment:
                commitment_verifier = CommitmentVerifier(
                    self.field,
                    cfg.group(self.field),
                    len(schedule.queries[0]),
                    FieldPRG(self.field, cfg.seed, "commitment"),
                )
                request = commitment_verifier.commit_request()
                challenge = commitment_verifier.decommit_challenge(schedule.queries)
            return schedule, commitment_verifier, request, challenge

        if timer is None:
            return _generate()
        with timer.phase("query_setup"):
            return _generate()

    # -- prover ------------------------------------------------------------------

    def prove_instance(self, input_values: Sequence[int], setup, stats: ProverStats):
        """Prove one instance: a one-row batch, and the override hook.

        Subclasses that misbehave on purpose (the adversary harness,
        the cheating provers in ``examples/`` and the tests) override
        this; :meth:`prove_batch` then sends every instance through the
        override.  An override may call this to get the honest
        ``(sol, commitment, response, answers)`` and tamper with it.
        """
        (entry,) = self._prove_rows([input_values], setup, [0], [stats])
        if isinstance(entry, Exception):
            raise entry
        return entry

    def prove_batch(
        self,
        batch_inputs: Sequence[Sequence[int]],
        setup,
        *,
        indices: Sequence[int] | None = None,
        per_stats: Sequence[ProverStats] | None = None,
    ):
        """The Zaatar prover, at every batch size (B = 1 included).

        Solves each input, builds h for every live instance with one
        ``compute_h_batch`` call (one NTT plan and, on big moduli, one
        CRT convolution for the whole batch), then commits and answers
        per instance.  An instance's messages do not depend on its
        batchmates: a batch of B gives the same bytes as B batches of 1.

        Returns one entry per input: the ``(sol, commitment, response,
        answers)`` tuple, or the exception that instance raised
        (failure isolation — batchmates are unaffected).  ``indices``
        name the inputs in spans (default 0..B−1); ``per_stats``
        receive each instance's phase clocks.

        Span layout: a ``prover.batch`` span (attr ``size``) wraps one
        ``prover.solve_constraints`` per input (attr ``index``), one
        shared ``prover.construct_u`` (attrs ``batch_size`` and
        ``indices``; its clocks are split evenly across the batch),
        then one ``prover.instance`` per live instance (attr ``index``)
        around its ``prover.crypto_ops`` and ``prover.answer_queries``.
        When a subclass overrides :meth:`prove_instance`, each input
        instead gets one ``prover.instance`` span around the override.
        """
        batch = len(batch_inputs)
        indices = list(range(batch)) if indices is None else list(indices)
        if per_stats is None:
            per_stats = [ProverStats() for _ in range(batch)]
        with telemetry.span("prover.batch", size=batch):
            if type(self).prove_instance is ZaatarArgument.prove_instance:
                return self._prove_rows(batch_inputs, setup, indices, per_stats)
            results: list = []
            for values, index, stats in zip(batch_inputs, indices, per_stats):
                try:
                    with telemetry.span("prover.instance", index=index):
                        results.append(self.prove_instance(values, setup, stats))
                except Exception as exc:  # noqa: BLE001 - isolate bad instances
                    results.append(exc)
            return results

    def _prove_rows(self, batch_inputs, setup, indices, per_stats) -> list:
        """The honest prover: solve, one H(t) pass, commit and answer."""
        schedule, _, request, challenge = setup
        results = solve_and_build(
            self.program, self.qap, batch_inputs, indices=indices, per_stats=per_stats
        )
        for i, entry in enumerate(results):
            if isinstance(entry, Exception):
                continue
            sol, vector = entry
            try:
                with telemetry.span("prover.instance", index=indices[i]):
                    results[i] = (sol,) + _commit_and_answer(
                        self.field,
                        self.config,
                        vector,
                        schedule.queries,
                        request,
                        challenge,
                        PhaseTimer(per_stats[i]),
                    )
            except Exception as exc:  # noqa: BLE001 - isolate bad instances
                results[i] = exc
        return results

    # -- full batch ------------------------------------------------------------------

    def run_batch(self, batch_inputs: Sequence[Sequence[int]]) -> BatchResult:
        """Prove and verify a whole batch (queries generated once).

        This is the batch engine's one-worker case
        (:func:`~repro.argument.parallel.run_parallel_batch` in this
        process, with no retries and no checkpoint): every instance
        ends in a structured outcome, a failure included.
        """
        # local: both modules import this one
        from .net import RetryPolicy
        from .parallel import run_engine

        with telemetry.span(
            "argument.run_batch", system="zaatar", batch_size=len(batch_inputs)
        ):
            return run_engine(self, batch_inputs, 1, RetryPolicy.none()).result


class GingerArgument:
    """The baseline composition: Ginger PCP + the same commitment."""

    def __init__(self, program: CompiledProgram, config: ArgumentConfig | None = None):
        self.program = program
        self.config = config or ArgumentConfig()
        self.field = program.field

    def run_batch(self, batch_inputs: Sequence[Sequence[int]]) -> BatchResult:
        """Prove and verify a batch under the Ginger baseline."""
        with telemetry.span(
            "argument.run_batch", system="ginger", batch_size=len(batch_inputs)
        ):
            return self._run_batch(batch_inputs)

    def _run_batch(self, batch_inputs: Sequence[Sequence[int]]) -> BatchResult:
        cfg = self.config
        gsys = self.program.ginger
        verifier_stats = VerifierStats()
        timer = PhaseTimer(verifier_stats)
        with timer.phase("query_setup"):
            prg = FieldPRG(self.field, cfg.seed, "ginger-queries")
            schedule = ginger_pcp.generate_schedule(gsys, cfg.params, prg)
            commitment_verifier = None
            request = challenge = None
            if cfg.use_commitment:
                commitment_verifier = CommitmentVerifier(
                    self.field,
                    cfg.group(self.field),
                    len(schedule.queries[0]),
                    FieldPRG(self.field, cfg.seed, "ginger-commitment"),
                )
                request = commitment_verifier.commit_request()
                challenge = commitment_verifier.decommit_challenge(schedule.queries)

        results: list[InstanceResult] = []
        batch = BatchStats(batch_size=len(batch_inputs), verifier=verifier_stats)
        for index, input_values in enumerate(batch_inputs):
            prover_stats = ProverStats()
            ptimer = PhaseTimer(prover_stats)
            try:
                with telemetry.span("prover.instance", index=index):
                    with ptimer.phase("solve_constraints"):
                        sol = self.program.solve(input_values, check=False)
                    with ptimer.phase("construct_u"):
                        vector = build_ginger_proof(gsys, sol.ginger_witness)
                    commitment, response, answers = _commit_and_answer(
                        self.field,
                        cfg,
                        vector,
                        schedule.queries,
                        request,
                        challenge,
                        ptimer,
                    )
                with timer.phase("per_instance"):
                    if cfg.use_commitment:
                        commit_ok = commitment_verifier.verify(commitment, response)
                        pcp_answers = answers[:-1]
                    else:
                        commit_ok = True
                        pcp_answers = answers
                    pcp_result = ginger_pcp.check_answers(
                        schedule, pcp_answers, sol.input_values, sol.output_values
                    )
            except Exception as exc:  # noqa: BLE001 - isolate bad instances
                results.append(record_instance_failure(index, exc))
            else:
                results.append(
                    InstanceResult(
                        accepted=commit_ok and pcp_result.accepted,
                        commitment_ok=commit_ok,
                        pcp_ok=pcp_result.accepted,
                        output_values=sol.output_values,
                        prover_stats=prover_stats,
                        index=index,
                    )
                )
            batch.prover_per_instance.append(prover_stats)
        return BatchResult(instances=results, stats=batch)
