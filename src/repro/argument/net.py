"""Two-party deployment over TCP: the verifier client.

The paper's experiments "connect the verifier and the prover to a
local network" (§5.1).  This module is the verifier's half of that
deployment: a client that drives the batched protocol over
length-prefixed JSON frames (:mod:`repro.argument.framing`) against a
prover server (:mod:`repro.argument.serve`).  The transport uses the
§A.1 seed optimization — the verifier ships the 32-byte query key K_q
and the consistency query t; the prover regenerates the PCP schedule
from K_q locally.

Message flow per session (verifier is the client and drives):

    C→S  hello      program hash, the config without its seed
    S→C  hello-ok   (or error: unknown program / hash mismatch)
    C→S  commit     Enc(r), componentwise
    C→S  inputs     the batch's input vectors
    S→C  outputs    per instance: y and the commitment e_i
    C→S  challenge  the query key K_q and the consistency query t
    S→C  answers    per instance: answers to every query + t
    C    verdicts   commitment consistency + all Fig-10 checks

Soundness note: a prover that knew τ before it commits could fit its h
to it, and one that knew the α's could move its answers and correct
π(t).  So K_q = SHA-256(seed ‖ 0 ‖ "queries"), which yields the
queries and nothing else, first crosses the wire in the challenge,
after every commitment (§A.1's seed replaces the queries *in the
decommit message*); the rest of the seed never leaves the verifier.

Robustness (docs/NETWORKING.md has the full failure-mode matrix):
``verify_remote`` separates the connect timeout from the read deadline
(a prover grinding through a large batch must not be killed by the
handshake timeout) and retries connect/transient failures under a
``RetryPolicy`` — but only until the ``commit`` frame is on the wire:
the commitment material (r, α, t) is drawn once per call, so replaying
a commit-then-query exchange would let a malicious prover answer
adaptively.  Post-commit failures raise immediately, unless a server
resume token proves the commit was never processed.
"""

from __future__ import annotations

import hashlib
import json
import random
import secrets
import socket
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .. import telemetry
from ..compiler import CompiledProgram
from ..constraints import quadratic_to_json
from ..crypto import query_key
from . import framing
from .framing import (
    expect,
    hex_list,
    recv_frame,
    require,
    send_frame,
    unhex_ciphertexts,
    unhex_list,
)
from .protocol import (
    ArgumentConfig,
    InstanceResult,
    ProtocolViolation,
    ProverStats,
    ZaatarArgument,
    check_instance,
)

#: client-side ceiling on a peer-supplied ``trace`` payload; anything
#: larger is a protocol violation, not a trace worth keeping
_MAX_CLIENT_TRACE_BYTES = 4_000_000


# -- deadlines and retry ------------------------------------------------------


@dataclass(frozen=True)
class Deadlines:
    """Transport deadlines, all in seconds.

    ``connect`` bounds connection establishment only; ``read`` is the
    per-``recv`` deadline (how long a peer may go silent mid-session);
    ``session`` is the server-side wall-clock budget for one whole
    session (None: unbounded).  Keeping connect and read separate is
    what lets a verifier wait minutes for a large batch's proofs
    without tolerating a minutes-long TCP handshake.
    """

    connect: float = 10.0
    read: float = 600.0
    session: float | None = None


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts total tries (1 = no retry).  Sleeps between
    attempts grow from ``base_delay`` by ``multiplier`` up to
    ``max_delay``, each stretched by up to ``jitter``× of itself using
    a PRNG seeded with ``seed`` (so tests are reproducible; pass a
    varying seed in production fleets to avoid thundering herds).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int | None = 0

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries."""
        return cls(max_attempts=1)

    def delays(self) -> Iterator[float]:
        """Yield the sleep before each retry (max_attempts - 1 values)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(max(self.max_attempts - 1, 0)):
            yield min(delay * (1.0 + self.jitter * rng.random()), self.max_delay)
            delay = min(delay * self.multiplier, self.max_delay)


def program_hash(program: CompiledProgram) -> str:
    """Hash of the canonical quadratic system — what both parties must share."""
    return hashlib.sha256(quadratic_to_json(program.quadratic).encode()).hexdigest()


# -- verifier client ---------------------------------------------------------------


@dataclass
class NetworkBatchResult:
    instances: list[InstanceResult]
    bytes_sent: int
    bytes_received: int
    #: connection attempts this session took (1 = no retries)
    attempts: int = 1
    #: reconnect attempts that presented a gateway resume token instead
    #: of a fresh hello (0 = the session never needed to resume)
    resumed: int = 0

    @property
    def all_accepted(self) -> bool:
        """True iff every instance verified."""
        return all(r.accepted for r in self.instances)


@dataclass
class _ResumeState:
    """Cross-attempt resume bookkeeping for one ``verify_remote`` call.

    ``token`` is the gateway-issued resume token from the last
    ``hello-ok``/``resume-ok``; ``use_resume`` arms the next connection
    attempt to open with a ``resume`` frame instead of a fresh
    ``hello``; ``challenge_sent`` marks the hard floor past which no
    disconnect is ever resumable (the consistency query t may have
    reached the prover); ``cause`` is the failure that armed resuming.
    """

    token: str | None = None
    use_resume: bool = False
    challenge_sent: bool = False
    cause: BaseException | None = None

    def final(self, exc: ProtocolViolation) -> ProtocolViolation:
        """``exc`` as the call's final error, chained to what armed resuming.

        A refused resume (``resume-invalid``: no parked session) says
        nothing about why the session needed one; the chained error
        keeps the refusal's code but names the original failure in its
        message and carries it as ``__cause__``.
        """
        if self.cause is None:
            return exc
        chained = ProtocolViolation(
            f"{exc} (resuming after: {self.cause})",
            code=exc.code,
            retry_after=exc.retry_after,
        )
        chained.__cause__ = self.cause
        return chained


class _CountingSocket:
    """Socket wrapper tallying traffic in both directions."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self.received += len(data)
        return data

    def close(self) -> None:
        self._sock.close()


def verify_remote(
    program: CompiledProgram,
    batch_inputs: list[list[int]],
    address: tuple[str, int],
    config: ArgumentConfig | None = None,
    *,
    retry: RetryPolicy | None = None,
    deadlines: Deadlines | None = None,
    socket_wrapper: Callable | None = None,
    collect_trace: bool | None = None,
) -> NetworkBatchResult:
    """Drive a full batched session against a remote prover server.

    ``deadlines.connect`` bounds connection establishment only; once
    connected, the socket switches to the (much longer)
    ``deadlines.read`` so a prover grinding through a big batch is not
    killed spuriously.  Connect and transient failures are retried
    under ``retry`` — but only while the ``commit`` frame has not been
    sent: the commitment material is drawn once per call, and a
    commit-then-query exchange must never be replayed (a prover that
    saw the consistency query t once could answer adaptively on a
    rerun).  Any post-commit failure raises ``ProtocolViolation``.

    With no ``config`` the call draws a fresh verifier seed: one
    session's challenge hands the prover its seed's K_q, so a seed must
    never serve two.  Pin ``config.seed`` only for reproducible runs.

    ``socket_wrapper`` (e.g. ``FaultPlan.wrap`` from
    ``repro.argument.faults``) wraps each new connection — the
    fault-injection hook.

    ``collect_trace`` controls cross-process trace stitching: the
    ``hello`` frame carries ``{trace_id, parent_span}`` and the
    server's per-session span records come back in the final frame,
    adopted under this call's ``wire.verify_remote`` span so ``repro
    trace --remote`` renders one tree across both processes.  The
    default (None) turns it on exactly when telemetry is enabled
    here.  A returned ``trace`` payload larger than
    ``_MAX_CLIENT_TRACE_BYTES`` (or structurally malformed) is rejected
    as ``ProtocolViolation[bad-frame]``.
    """
    config = config or ArgumentConfig(seed=secrets.token_bytes(16))
    retry = retry or RetryPolicy()
    deadlines = deadlines or Deadlines()
    with telemetry.span("verifier.query_setup"):
        setup = ZaatarArgument(program, config).verifier_setup()

    delays = retry.delays()
    attempts = 0
    resumes = 0
    total_sent = total_received = 0
    session = _ResumeState()
    while True:
        attempts += 1
        committed = [False]
        sock = None
        try:
            raw = socket.create_connection(address, timeout=deadlines.connect)
            framing.tune_socket(raw)
            raw.settimeout(deadlines.read)
            if socket_wrapper is not None:
                raw = socket_wrapper(raw)
            sock = _CountingSocket(raw)
            with telemetry.span(
                "wire.verify_remote", batch_size=len(batch_inputs), attempt=attempts
            ) as remote_span:
                results = _drive_session(
                    program,
                    batch_inputs,
                    config,
                    setup,
                    sock,
                    committed,
                    remote_span=remote_span,
                    collect_trace=collect_trace,
                    resume=session,
                )
            return NetworkBatchResult(
                instances=results,
                bytes_sent=total_sent + sock.sent,
                bytes_received=total_received + sock.received,
                attempts=attempts,
                resumed=resumes,
            )
        except (ProtocolViolation, OSError) as exc:
            # a gateway-issued resume token makes an *io-flavored*
            # post-commit disconnect recoverable: the gateway parks a
            # session only while it is still awaiting the commit frame,
            # so a successful resume proves no commit was ever
            # processed and re-sending the identical commit is not a
            # replay.  Anything past the challenge send stays final —
            # the prover may have seen t.
            resumable = (
                session.token is not None
                and not session.challenge_sent
                and (
                    not isinstance(exc, ProtocolViolation)
                    or exc.code == "io"
                )
            )
            if committed[0] and not resumable:
                # the commit-then-query order must never be replayed
                if isinstance(exc, ProtocolViolation):
                    raise
                raise ProtocolViolation(
                    f"connection lost after commit (not retryable): {exc}",
                    code="io",
                ) from exc
            if isinstance(exc, ProtocolViolation) and not exc.retryable:
                raise session.final(exc)
            delay = next(delays, None)
            if delay is None:
                # policy exhausted: surface the last failure, uniformly
                # as a ProtocolViolation
                if isinstance(exc, ProtocolViolation):
                    raise session.final(exc)
                raise ProtocolViolation(
                    f"retries exhausted after {attempts} attempts: {exc}",
                    code="io",
                ) from exc
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                # server-supplied load-shedding hint (the gateway's
                # busy frames estimate when a slot frees up): trust it
                # over the blind exponential backoff, capped by the
                # policy so a hostile server cannot park the client
                delay = min(float(hint), retry.max_delay)
            if resumable:
                # once armed, the session only ever reconnects by
                # resume: the commit is on the wire somewhere, and a
                # fresh hello would draw the gateway into a second
                # exchange against the same (r, α, t)
                session.use_resume = True
                if session.cause is None:
                    session.cause = exc
                resumes += 1
                telemetry.count("net.client_resumes")
            telemetry.count("net.client_retries")
            time.sleep(delay)
        finally:
            if sock is not None:
                total_sent += sock.sent
                total_received += sock.received
                sock.close()


def hello_frame(program: CompiledProgram, config: ArgumentConfig) -> dict:
    """The ``hello`` frame that opens a session of ``program``.

    Names the program by its canonical hash and carries ``config``
    (soundness parameters, QAP mode and ``paper_scale_crypto``), never
    its seed.  The flag picks the commitment group only on p128;
    Goldilocks and p220 have one group each, whatever the flag says.
    """
    return {"type": "hello", "program": program_hash(program), **config.encode()}


def _drive_session(
    program: CompiledProgram,
    batch_inputs: Sequence[Sequence[int]],
    config: ArgumentConfig,
    setup,
    sock,
    committed: list[bool],
    remote_span=None,
    collect_trace: bool | None = None,
    resume: _ResumeState | None = None,
) -> list[InstanceResult]:
    """One connection's worth of the client protocol (no retry logic)."""
    _, _, request, challenge = setup
    field = program.field
    tracer = telemetry.current()
    if collect_trace is None:
        collect_trace = tracer is not None
    if resume is not None and resume.use_resume and resume.token is not None:
        # reconnect into the parked gateway session: the same exchange
        # continues, so commit and inputs are re-sent into a session
        # that provably never processed them
        send_frame(sock, {"type": "resume", "token": resume.token})
        reply = expect(recv_frame(sock), "resume-ok")
    else:
        hello = hello_frame(program, config)
        if collect_trace and tracer is not None:
            hello["trace"] = {
                "trace_id": tracer.trace_id,
                "parent_span": remote_span.span_id if remote_span is not None else None,
            }
        send_frame(sock, hello)
        reply = expect(recv_frame(sock), "hello-ok")
    if resume is not None:
        token = reply.get("resume")
        if isinstance(token, str) and token:
            resume.token = token
    # point of no return: once any part of the commit frame may be on
    # the wire, a replay would reuse (r, α, t) against a prover that
    # might have seen them — never retry past here (a resume token
    # relaxes this to resume-only reconnects; see verify_remote)
    committed[0] = True
    send_frame(
        sock,
        {
            "type": "commit",
            "enc_r": [
                [format(ct.c1, "x"), format(ct.c2, "x")]
                for ct in request.ciphertexts
            ],
        },
    )
    send_frame(
        sock,
        {"type": "inputs", "batch": [hex_list(x) for x in batch_inputs]},
    )
    outputs = require(expect(recv_frame(sock), "outputs"), "instances")
    if not isinstance(outputs, list) or len(outputs) != len(batch_inputs):
        raise ProtocolViolation("instance count mismatch in outputs")
    # every commitment is in, so the prover may now learn the queries
    # (their key K_q) and t.  Past this send it may have seen both, so
    # no disconnect — resume token or not — is ever recoverable again.
    if resume is not None:
        resume.challenge_sent = True
    key = query_key(config.seed).hex()
    t = hex_list(challenge.t)
    send_frame(sock, {"type": "challenge", "key": key, "t": t})
    answers_frame = expect(recv_frame(sock), "answers")
    answers_msg = require(answers_frame, "instances")
    if not isinstance(answers_msg, list) or len(answers_msg) != len(batch_inputs):
        raise ProtocolViolation("instance count mismatch in answers")
    _adopt_session_trace(answers_frame.get("trace"), tracer, remote_span)

    results: list[InstanceResult] = []
    verify_span = telemetry.start_span(
        "verifier.per_instance", instances=len(batch_inputs)
    )
    try:
        for input_values, out_entry, answer_hex in zip(
            batch_inputs, outputs, answers_msg
        ):
            y = unhex_list(require(out_entry, "y"), what="outputs y", p=field.p)
            commitment = unhex_ciphertexts(
                [require(out_entry, "commitment")], what="instance commitment"
            )[0]
            answers = unhex_list(answer_hex, what="answers", p=field.p)
            x = [v % field.p for v in input_values]
            try:
                commit_ok, pcp = check_instance(setup, commitment, answers, x, y)
            except (ValueError, IndexError) as exc:
                raise ProtocolViolation(
                    f"malformed answers: {exc}", code="bad-frame"
                ) from exc
            results.append(
                InstanceResult(
                    accepted=commit_ok and pcp.accepted,
                    commitment_ok=commit_ok,
                    pcp_ok=pcp.accepted,
                    output_values=y,
                    prover_stats=ProverStats(),
                )
            )
    finally:
        telemetry.end_span(verify_span)
    return results


def _adopt_session_trace(trace_payload, tracer, remote_span) -> None:
    """Stitch server-returned span records under the client's span.

    The payload is peer-supplied: structurally malformed or oversized
    trace data is a ``bad-frame`` violation, never a crash — a server
    must not be able to smuggle an unbounded blob past the protocol
    checks inside an optional diagnostic field.
    """
    if trace_payload is None:
        return
    if not isinstance(trace_payload, list):
        raise ProtocolViolation(
            "answers 'trace' must be a list of span records", code="bad-frame"
        )
    if len(json.dumps(trace_payload)) > _MAX_CLIENT_TRACE_BYTES:
        raise ProtocolViolation(
            f"oversized trace payload ({len(trace_payload)} spans over "
            f"{_MAX_CLIENT_TRACE_BYTES}-byte limit)",
            code="bad-frame",
        )
    if tracer is None:
        return
    parent_id = remote_span.span_id if remote_span is not None else None
    try:
        tracer.adopt(trace_payload, parent_id=parent_id)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolViolation(
            f"malformed trace payload: {exc}", code="bad-frame"
        ) from exc


def fetch_stats(
    address: tuple[str, int],
    *,
    connect_timeout: float = 5.0,
    read_timeout: float = 10.0,
) -> dict:
    """One ``{"type": "stats"}`` round trip against a prover server.

    Returns the server's reply payload: ``server`` (program identity,
    address, capacity, lifetime session counts) and ``metrics`` (the
    registry snapshot — counters, gauges, histogram summaries with
    p50/p90/p99).  This is the poll ``repro top`` renders.
    """
    sock = socket.create_connection(address, timeout=connect_timeout)
    try:
        framing.tune_socket(sock)
        sock.settimeout(read_timeout)
        send_frame(sock, {"type": "stats"})
        return expect(recv_frame(sock), "stats")
    finally:
        sock.close()
