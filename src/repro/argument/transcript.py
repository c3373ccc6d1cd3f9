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

A transcript stores: the config (seed, soundness parameters, QAP mode),
the claimed inputs/outputs, and the prover's messages (commitment +
answers) per instance — everything as JSON-safe hex strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..compiler import CompiledProgram
from ..crypto.elgamal import ElGamalCiphertext
from ..pcp import SoundnessParams
from .protocol import ArgumentConfig, ZaatarArgument, check_instance

TRANSCRIPT_FORMAT = "repro-transcript-v1"


class TranscriptError(ValueError):
    """Malformed transcript data."""


@dataclass
class InstanceRecord:
    input_values: list[int]
    claimed_outputs: list[int]
    commitment: ElGamalCiphertext
    answers: list[int]


@dataclass
class Transcript:
    seed: bytes
    params: SoundnessParams
    qap_mode: str
    paper_scale_crypto: bool
    instances: list[InstanceRecord]

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize (hex-encoded values; JSON-number-safe)."""
        return json.dumps(
            {
                "format": TRANSCRIPT_FORMAT,
                "seed": self.seed.hex(),
                "params": {
                    "delta": self.params.delta,
                    "rho_lin": self.params.rho_lin,
                    "rho": self.params.rho,
                },
                "qap_mode": self.qap_mode,
                "paper_scale_crypto": self.paper_scale_crypto,
                "instances": [
                    {
                        "inputs": [format(v, "x") for v in rec.input_values],
                        "outputs": [format(v, "x") for v in rec.claimed_outputs],
                        "commitment": [
                            format(rec.commitment.c1, "x"),
                            format(rec.commitment.c2, "x"),
                        ],
                        "answers": [format(v, "x") for v in rec.answers],
                    }
                    for rec in self.instances
                ],
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
            params = SoundnessParams(
                delta=payload["params"]["delta"],
                rho_lin=payload["params"]["rho_lin"],
                rho=payload["params"]["rho"],
            )
            instances = [
                InstanceRecord(
                    input_values=[int(v, 16) for v in rec["inputs"]],
                    claimed_outputs=[int(v, 16) for v in rec["outputs"]],
                    commitment=ElGamalCiphertext(
                        int(rec["commitment"][0], 16), int(rec["commitment"][1], 16)
                    ),
                    answers=[int(v, 16) for v in rec["answers"]],
                )
                for rec in payload["instances"]
            ]
            return cls(
                seed=bytes.fromhex(payload["seed"]),
                params=params,
                qap_mode=payload["qap_mode"],
                paper_scale_crypto=payload["paper_scale_crypto"],
                instances=instances,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TranscriptError(f"malformed transcript: {exc}") from exc


def record_batch(
    program: CompiledProgram,
    batch_inputs: list[list[int]],
    config: ArgumentConfig | None = None,
) -> tuple[Transcript, bool]:
    """Run a batch and capture everything needed for replay.

    Returns (transcript, all_accepted).  The transcript is recorded
    regardless of acceptance — rejected sessions are exactly the ones
    worth auditing.
    """
    config = config or ArgumentConfig()
    if not config.use_commitment:
        raise ValueError("transcripts require the commitment layer")
    argument = ZaatarArgument(program, config)
    setup = argument.verifier_setup()
    records: list[InstanceRecord] = []
    all_ok = True
    for entry in argument.prove_batch(batch_inputs, setup):
        if isinstance(entry, Exception):
            # a prover error is a recording failure, not an auditable
            # rejection
            raise entry
        sol, commitment, response, answers = entry
        records.append(
            InstanceRecord(
                input_values=list(sol.input_values),
                claimed_outputs=list(sol.output_values),
                commitment=commitment,
                answers=list(response.answers),
            )
        )
        commit_ok, pcp = check_instance(setup, commitment, answers, sol.x, sol.y)
        all_ok = all_ok and commit_ok and pcp.accepted
    transcript = Transcript(
        seed=config.seed,
        params=config.params,
        qap_mode=config.qap_mode,
        paper_scale_crypto=config.paper_scale_crypto,
        instances=records,
    )
    return transcript, all_ok


def replay_transcript(program: CompiledProgram, transcript: Transcript) -> list[bool]:
    """Regenerate the verifier from the transcript's seed and re-check
    every instance against the recorded prover messages.

    Returns the per-instance verdicts.  The auditor never runs the
    prover: outputs come from the transcript's claims, and the x/y used
    by the PCP checks are recomputed from the recorded inputs/outputs
    in canonical order.
    """
    config = ArgumentConfig(
        params=transcript.params,
        qap_mode=transcript.qap_mode,
        paper_scale_crypto=transcript.paper_scale_crypto,
        seed=transcript.seed,
    )
    setup = ZaatarArgument(program, config).verifier_setup()
    p = program.field.p
    verdicts: list[bool] = []
    for rec in transcript.instances:
        x = [v % p for v in rec.input_values]
        y = [v % p for v in rec.claimed_outputs]
        commit_ok, pcp = check_instance(setup, rec.commitment, rec.answers, x, y)
        verdicts.append(commit_ok and pcp.accepted)
    return verdicts
