"""The batched efficient argument: commitment ∘ linear PCP (§2.2, §A.1).

``ZaatarArgument`` drives a full batch end to end, exactly as Figure 2
(with Zaatar's shaded replacements):

1.  Both parties compile Ψ to constraints (done ahead of time —
    ``CompiledProgram``).
2.  V generates the PCP query schedule once (amortized over the batch)
    and the commitment material once (Enc(r) and the consistency
    challenge).
3.  P (:class:`ZaatarProver`) solves the constraints (executes Ψ),
    builds each proof vector u = (z, h) and commits to it under Enc(r);
    only then does it get the challenge, and it answers every query.
    V checks the commitment consistency and all PCP tests per instance.

``GingerArgument`` is the same composition over Ginger's PCP and
(z, z⊗z) proof — the executable baseline (only usable at small sizes;
the paper itself falls back to the cost model at benchmark scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
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
from ..crypto.commitment import (
    CommitRequest,
    DecommitChallenge,
    DecommitResponse,
    QueryBasis,
)
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


@dataclass(frozen=True)
class ArgumentConfig:
    """The protocol configuration: soundness parameters, QAP mode,
    commitment group and the verifier's seed.

    :meth:`encode` and :meth:`decode` are its one JSON codec:
    transcripts and checkpoint headers carry it with the seed, and a
    ``hello`` frame without it (the seed never reaches a prover).
    """

    params: SoundnessParams = dataclass_field(default_factory=lambda: TEST_PARAMS)
    qap_mode: str = "arithmetic"
    paper_scale_crypto: bool = False
    seed: bytes = b"zaatar-argument"

    def group(self, field) -> SchnorrGroup:
        """The commitment group matching this config and field.

        Raises ``ValueError`` naming the field when it has no group of
        order |F|: the argument always commits, so it cannot run there.
        """
        try:
            return group_for_field(field, paper_scale=self.paper_scale_crypto)
        except KeyError:
            raise ValueError(
                f"field {field.name} has no commitment group, so no argument runs over it"
            ) from None

    def encode(self, *, seed: bool = False) -> dict:
        """``{"seed": hex (when asked), "params": {"delta", "rho_lin",
        "rho"}, "qap_mode", "paper_scale_crypto"}``."""
        p = self.params
        return {
            **({"seed": self.seed.hex()} if seed else {}),
            "params": {"delta": p.delta, "rho_lin": p.rho_lin, "rho": p.rho},
            "qap_mode": self.qap_mode,
            "paper_scale_crypto": self.paper_scale_crypto,
        }

    @classmethod
    def decode(cls, spec, *, seed: bool = False) -> "ArgumentConfig":
        """Inverse of :meth:`encode`; without ``seed`` the config's seed
        is empty, as a prover's is.

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` on
        malformed input (``RepetitionError``, a ``ValueError``, when a
        count is below 1); each caller maps them onto its own error.
        """
        params = spec["params"]
        qap_mode, paper_scale = spec["qap_mode"], spec["paper_scale_crypto"]
        if not isinstance(qap_mode, str):
            raise TypeError(f"qap_mode must be a string, got {qap_mode!r}")
        if not isinstance(paper_scale, bool):
            raise TypeError(f"paper_scale_crypto must be a bool, got {paper_scale!r}")
        return cls(
            params=SoundnessParams(
                delta=float(params["delta"]),
                rho_lin=int(params["rho_lin"]),
                rho=int(params["rho"]),
            ),
            qap_mode=qap_mode,
            paper_scale_crypto=paper_scale,
            seed=bytes.fromhex(spec["seed"]) if seed else b"",
        )


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


class ZaatarProver:
    """The Zaatar prover: the wire's two steps, fed only what the wire carries.

    :meth:`commit` takes Enc(r) and the inputs and returns each claimed
    output and commitment to u = (z, h); then :meth:`answer` takes the
    challenge (the queries and t).  Of its config it keeps only the
    commitment group, so nothing it holds yields the queries before the
    challenge, nor ever the commitment's key, r or α's.  Every Zaatar
    proof runs it; a cheater overrides a step, or :meth:`build` for u.

    Spans (attr ``index``): ``prover.solve_constraints`` per input, one
    ``prover.construct_u`` (attrs ``batch_size``, ``indices``; clocks
    split evenly), ``prover.instance`` around each ``prover.crypto_ops``,
    then ``prover.answer_queries`` per instance.
    """

    def __init__(
        self, program: CompiledProgram, qap: QAPInstance, config: ArgumentConfig
    ):
        self.program = program
        self.qap = qap
        self.field = program.field
        self.group = config.group(self.field)
        #: (index, phase clocks, u) of each committed instance, in batch order
        self.committed: list[tuple[int, ProverStats, list[int]]] = []

    def commit(
        self,
        request: CommitRequest,
        batch: Sequence[Sequence[int]],
        *,
        indices: Sequence[int] | None = None,
        per_stats: Sequence[ProverStats] | None = None,
        check: Callable[[int, object], None] | None = None,
    ) -> list:
        """Step one: per input ``(y, commitment)`` or the exception its
        solve, H(t) or fold raised.

        ``indices`` name the inputs in spans (default 0..B−1) and
        ``per_stats`` get their clocks.  ``check(position, outcome)``
        runs after each solve and before each fold; raising aborts the
        step (the gateway's fail-fast and session budget).
        """
        indices = list(range(len(batch))) if indices is None else list(indices)
        per_stats = per_stats or [ProverStats() for _ in batch]
        results = self.build(batch, indices, per_stats, check)
        self.committed = []
        for position, (index, stats) in enumerate(zip(indices, per_stats)):
            if check is not None:
                check(position, results[position])
            if isinstance(results[position], Exception):
                continue
            sol, u = results[position]
            try:
                with telemetry.span("prover.instance", index=index):
                    with PhaseTimer(stats).phase("crypto_ops"):
                        prover = CommitmentProver(self.field, self.group, u)
                        commitment = prover.commit(request)
            except Exception as exc:  # noqa: BLE001 - isolate bad instances
                results[position] = exc
                continue
            self.committed.append((index, stats, u))
            results[position] = (sol.output_values, commitment)
        return results

    def build(self, batch, indices, per_stats, check=None) -> list:
        """``(sol, u)`` or the exception per input: every solve, then
        every live h from one ``compute_h_batch`` call."""
        results: list = []
        for position, (values, index, stats) in enumerate(
            zip(batch, indices, per_stats)
        ):
            try:
                with PhaseTimer(stats).phase("solve_constraints", index=index):
                    results.append(self.program.solve(values, check=False))
            except Exception as exc:  # noqa: BLE001 - isolate bad instances
                results.append(exc)
            if check is not None:
                check(position, results[-1])
        if not results:
            return results
        live = [i for i, sol in enumerate(results) if not isinstance(sol, Exception)]
        shared = ProverStats()
        with PhaseTimer(shared).phase(
            "construct_u", batch_size=len(results), indices=list(indices)
        ):
            h_rows = compute_h_batch(
                self.qap, [results[i].quadratic_witness for i in live]
            )
        for i, h in zip(live, h_rows):
            z = results[i].quadratic_witness[1 : self.qap.n_prime + 1]
            results[i] = h if isinstance(h, Exception) else (results[i], z + h)
        for stats in per_stats:
            stats.construct_u += shared.construct_u / len(results)
            stats.wall["construct_u"] = stats.wall.get("construct_u", 0.0) + (
                shared.wall["construct_u"] / len(results)
            )
        return results

    def answer(self, challenge: DecommitChallenge) -> list[list[int]]:
        """Step two: π(q) for every query of ``challenge`` (π(t) last), per
        committed instance in batch order, each from one product of the
        base rows per half of u; raises before any commit."""
        if not self.committed:
            raise ProtocolViolation("answer before commit: no instance is committed")
        answers = []
        for index, stats, u in self.committed:
            with PhaseTimer(stats).phase("answer_queries", index=index):
                prover = CommitmentProver(self.field, self.group, u)
                answers.append(prover.answer(challenge).answers)
        return answers


def check_instance(setup, commitment, answers: Sequence[int], x, y):
    """One instance's verifier checks: the commitment consistency test,
    then every PCP test (Fig. 10) on the answers it vouches for.

    ``setup`` is :meth:`ZaatarArgument.verifier_setup`'s tuple.
    Returns ``(commitment_ok, pcp_result)``.  Malformed answers raise
    ``ValueError`` or ``IndexError``; each caller maps that onto its own
    error.
    """
    schedule, commitment_verifier, _, _ = setup
    commit_ok = commitment_verifier.verify(commitment, DecommitResponse(list(answers)))
    return commit_ok, zaatar_pcp.check_answers(schedule, answers[:-1], x, y)


class ZaatarArgument:
    """One compiled program + config, runnable on batches of inputs."""

    #: what proves each batch: called as ``prover_type(program, qap,
    #: config)``.  The override hook: a cheating prover (the adversary
    #: harness, ``examples/``, the tests) is a :class:`ZaatarProver`
    #: subclass named here.
    prover_type: Callable[..., ZaatarProver] = ZaatarProver

    def __init__(self, program: CompiledProgram, config: ArgumentConfig | None = None):
        self.program = program
        self.config = config or ArgumentConfig()
        self.field = program.field
        self.config.group(self.field)  # a field with no commitment group fails here
        self.qap: QAPInstance = build_qap(program.quadratic, mode=self.config.qap_mode)

    # -- verifier setup (amortized) ---------------------------------------------

    def verifier_setup(self, stats: VerifierStats | None = None):
        """``(schedule, commitment verifier, Enc(r), challenge)`` for a
        batch.  Only the commitment verifier holds the key, r and the
        α's."""
        cfg = self.config
        timer = PhaseTimer(stats) if stats is not None else None
        prg = FieldPRG(self.field, cfg.seed, "queries")

        def _generate():
            schedule = zaatar_pcp.generate_schedule(self.qap, cfg.params, prg)
            commitment_verifier = CommitmentVerifier(
                self.field,
                cfg.group(self.field),
                self.qap.proof_vector_length,
                FieldPRG(self.field, cfg.seed, "commitment"),
            )
            request = commitment_verifier.commit_request()
            challenge = commitment_verifier.decommit_challenge(schedule.basis)
            return schedule, commitment_verifier, request, challenge

        if timer is None:
            return _generate()
        with timer.phase("query_setup"):
            return _generate()

    # -- prover ------------------------------------------------------------------

    def prover(self) -> ZaatarProver:
        """A fresh :attr:`prover_type` for one batch, built from a copy of
        the config without the seed: the seed stays with the verifier."""
        return self.prover_type(self.program, self.qap, replace(self.config, seed=b""))

    def prove_batch(
        self,
        batch_inputs: Sequence[Sequence[int]],
        request: CommitRequest,
        challenge: DecommitChallenge,
        *,
        indices: Sequence[int] | None = None,
        per_stats: Sequence[ProverStats] | None = None,
    ) -> list:
        """One :meth:`prover`'s two steps under a ``prover.batch`` span
        (attr ``size``): commit to every input, then answer ``challenge``.

        Returns per input its
        :class:`~repro.argument.transcript.InstanceRecord`, or the
        exception it raised (a step that raises fails all it ran).  An
        instance's messages do not depend on its batchmates.
        ``indices`` and ``per_stats`` go to :meth:`ZaatarProver.commit`.
        """
        from .transcript import InstanceRecord  # local: it imports this module

        with telemetry.span("prover.batch", size=len(batch_inputs)):
            try:
                prover = self.prover()
                entries = prover.commit(
                    request, batch_inputs, indices=indices, per_stats=per_stats
                )
            except Exception as exc:  # noqa: BLE001 - a failed step fails its batch
                return [exc] * len(batch_inputs)
            live = [i for i, e in enumerate(entries) if not isinstance(e, Exception)]
            try:
                answers = prover.answer(challenge) if live else []
            except Exception as exc:  # noqa: BLE001 - fails every committed instance
                answers = [exc] * len(live)
            for i, reply in zip(live, answers):
                y, commitment = entries[i]
                x = [v % self.field.p for v in batch_inputs[i]]
                entries[i] = (
                    reply
                    if isinstance(reply, Exception)
                    else InstanceRecord(x, list(y), commitment, list(reply))
                )
            return entries

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
        self.config.group(self.field)  # a field with no commitment group fails here

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
            # Ginger's queries are flat: each is its own full-length base row
            basis = QueryBasis.flat(self.field, schedule.queries)
            group = cfg.group(self.field)
            commitment_verifier = CommitmentVerifier(
                self.field,
                group,
                ginger_pcp.proof_length(gsys),
                FieldPRG(self.field, cfg.seed, "ginger-commitment"),
            )
            request = commitment_verifier.commit_request()
            challenge = commitment_verifier.decommit_challenge(basis)

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
                    prover = CommitmentProver(self.field, group, vector)
                    with ptimer.phase("crypto_ops"):
                        commitment = prover.commit(request)
                    with ptimer.phase("answer_queries"):
                        response = prover.answer(challenge)
                with timer.phase("per_instance"):
                    commit_ok = commitment_verifier.verify(commitment, response)
                    pcp_result = ginger_pcp.check_answers(
                        schedule,
                        response.answers[:-1],
                        sol.input_values,
                        sol.output_values,
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
