"""Session transcripts: record a batch, replay it deterministically.

Zaatar is *not* publicly verifiable — §6: "GGPR provides public
verifiability (anyone can check a purported proof) while Zaatar does
not" — because checking requires the verifier's secret randomness
(the ElGamal key, r, and the α's).  What the protocol does support is
**deterministic replay**: every piece of verifier randomness derives
from ``ArgumentConfig.seed``, so an auditor holding that seed and the
recorded prover messages can regenerate the verifier's entire state
and re-run every check bit-for-bit.  That is the right primitive for
dispute resolution and for regression-testing deployed provers.

A transcript stores the config (:meth:`ArgumentConfig.encode` with the
seed), the claimed inputs/outputs, and the prover's messages
(commitment + answers) per instance — everything as JSON-safe hex
strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..compiler import CompiledProgram
from ..crypto.elgamal import ElGamalCiphertext
from .framing import hex_list
from .protocol import ArgumentConfig, ZaatarArgument, check_instance

TRANSCRIPT_FORMAT = "repro-transcript-v1"


class TranscriptError(ValueError):
    """Malformed transcript data."""


def _unhex(values) -> list[int]:
    return [int(v, 16) for v in values]


@dataclass
class InstanceRecord:
    """One proved instance: its inputs, its claimed outputs and the
    prover's messages (the commitment to u and the query answers).

    Transcripts store one per instance, the batch engine carries one on
    every proved :class:`~repro.argument.protocol.InstanceResult`, and
    checkpoints write it with :meth:`to_json`.
    """

    input_values: list[int]
    claimed_outputs: list[int]
    commitment: ElGamalCiphertext
    answers: list[int]

    def to_json(self) -> dict:
        """The JSON-safe form: every value a hex string."""
        return {
            "inputs": hex_list(self.input_values),
            "outputs": hex_list(self.claimed_outputs),
            "commitment": hex_list([self.commitment.c1, self.commitment.c2]),
            "answers": hex_list(self.answers),
        }

    @classmethod
    def from_json(cls, record: dict) -> "InstanceRecord":
        """Inverse of :meth:`to_json`; raises ``KeyError``, ``TypeError``
        or ``ValueError`` on malformed input."""
        return cls(
            input_values=_unhex(record["inputs"]),
            claimed_outputs=_unhex(record["outputs"]),
            commitment=ElGamalCiphertext(*_unhex(record["commitment"])),
            answers=_unhex(record["answers"]),
        )

    def check(self, setup, p: int):
        """:func:`~repro.argument.protocol.check_instance` on this
        record's claim, its inputs and outputs reduced mod ``p``."""
        x = [v % p for v in self.input_values]
        y = [v % p for v in self.claimed_outputs]
        return check_instance(setup, self.commitment, self.answers, x, y)


@dataclass
class Transcript:
    config: ArgumentConfig
    instances: list[InstanceRecord]

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize (hex-encoded values; JSON-number-safe)."""
        return json.dumps(
            {
                "format": TRANSCRIPT_FORMAT,
                **self.config.encode(seed=True),
                "instances": [rec.to_json() for rec in self.instances],
            }
        )

    @classmethod
    def from_json(cls, data: str) -> "Transcript":
        try:
            payload = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TranscriptError(f"not JSON: {exc}") from exc
        if payload.get("format") != TRANSCRIPT_FORMAT:
            raise TranscriptError(f"unexpected format {payload.get('format')!r}")
        try:
            return cls(
                config=ArgumentConfig.decode(payload, seed=True),
                instances=[InstanceRecord.from_json(rec) for rec in payload["instances"]],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TranscriptError(f"malformed transcript: {exc}") from exc


def record_batch(
    program: CompiledProgram,
    batch_inputs: list[list[int]],
    config: ArgumentConfig | None = None,
) -> tuple[Transcript, bool]:
    """Run a batch with :meth:`ZaatarArgument.run_batch` and capture
    everything needed for replay: each proved instance's record.

    Returns (transcript, all_accepted).  The transcript is recorded
    regardless of acceptance — rejected sessions are exactly the ones
    worth auditing.  An instance that failed to produce a proof is a
    recording failure, not an auditable rejection: it raises
    :class:`TranscriptError` naming the instance and its code.
    """
    config = config or ArgumentConfig()
    result = ZaatarArgument(program, config).run_batch(batch_inputs)
    for instance in result.instances:
        if not instance.ok:
            raise TranscriptError(
                f"instance {instance.index} failed [{instance.error_code}]: "
                f"{instance.error_message}"
            )
    transcript = Transcript(
        config=config, instances=[instance.record for instance in result.instances]
    )
    return transcript, result.all_accepted


def replay_transcript(program: CompiledProgram, transcript: Transcript) -> list[bool]:
    """Regenerate the verifier from the transcript's seed and re-check
    every instance against the recorded prover messages.

    Returns the per-instance verdicts.  The auditor never runs the
    prover: outputs come from the transcript's claims, and the x/y used
    by the PCP checks are recomputed from the recorded inputs/outputs
    in canonical order.
    """
    setup = ZaatarArgument(program, transcript.config).verifier_setup()
    verdicts: list[bool] = []
    for rec in transcript.instances:
        commit_ok, pcp = rec.check(setup, program.field.p)
        verdicts.append(commit_ok and pcp.accepted)
    return verdicts
