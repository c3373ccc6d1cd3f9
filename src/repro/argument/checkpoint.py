"""Batch checkpoints: persist per-instance progress, resume a killed run.

A long batch run loses everything when the driving process dies unless
completed instances are durably recorded.  ``BatchCheckpoint`` appends
one JSONL record per *finished* instance (ok or failed) to
``<dir>/batch.ckpt.jsonl`` behind a header that pins everything the
run's determinism depends on: the program hash, the argument's config
(:meth:`~repro.argument.protocol.ArgumentConfig.encode` with the
verifier seed, from which all query/commitment randomness derives),
and a digest of the batch inputs.  Resuming validates the
header — a checkpoint from a different program, seed, or batch is
refused loudly — then replays the recorded outcomes and proves only the
missing instances.

An ok instance's record is the transcript's own
:class:`~repro.argument.transcript.InstanceRecord` (inputs, claimed
outputs, commitment, answers, written with its ``to_json``) beside the
verdict and the prover's phase clocks.  Because every verifier draw is
a pure function of ``config.seed`` and every prover message is a pure
function of (program, seed, inputs), a resumed run reproduces
*bit-identical* prover messages for the remaining instances;
``transcript_from_checkpoint`` reads the records back into the same
:class:`~repro.argument.transcript.Transcript` an uninterrupted run
records (tested in ``tests/argument/test_checkpoint.py``).

Records are flushed and fsync'd individually, so a kill -9 of the
engine loses at most the instance in flight; a torn trailing line from
a mid-write crash is ignored on load.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .protocol import ArgumentConfig, InstanceResult, ZaatarArgument
from .stats import ProverStats
from .transcript import InstanceRecord, Transcript

#: changes whenever a record's keys do (v2: the transcript's instance
#: record replaced v1's ``x``/``y``); ``begin`` refuses any other format
CHECKPOINT_FORMAT = "repro-batch-checkpoint-v2"
CHECKPOINT_FILENAME = "batch.ckpt.jsonl"


class CheckpointError(ValueError):
    """Missing, malformed, or incompatible checkpoint data."""


def batch_digest(field, batch_inputs) -> str:
    """Digest of the (canonicalized) batch inputs — resume must present
    the same batch the checkpoint was started with."""
    canon = [[field.reduce(v) for v in vec] for vec in batch_inputs]
    blob = json.dumps([[format(v, "x") for v in vec] for vec in canon])
    return hashlib.sha256(blob.encode()).hexdigest()


class BatchCheckpoint:
    """Append-only JSONL progress for one batch run, in a directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / CHECKPOINT_FILENAME

    # -- lifecycle ---------------------------------------------------------

    def begin(self, argument: ZaatarArgument, batch_inputs) -> dict[int, dict]:
        """Open the checkpoint for this run.

        A fresh directory gets a header written; an existing checkpoint
        is validated against the run (program hash, config with its
        seed, batch digest) and its completed instance records are
        returned, keyed by batch index.  Incompatible
        checkpoints raise :class:`CheckpointError` rather than silently
        mixing two runs' proofs.
        """
        from .net import program_hash  # local: avoid import cycle

        header = {
            "type": "header",
            "format": CHECKPOINT_FORMAT,
            "program": program_hash(argument.program),
            **argument.config.encode(seed=True),
            "batch_digest": batch_digest(argument.field, batch_inputs),
            "batch_size": len(batch_inputs),
        }
        if not self.path.exists():
            with self.path.open("w") as fh:
                fh.write(json.dumps(header) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            return {}
        existing, records = self.load()
        if existing is None:
            raise CheckpointError(f"{self.path}: no header record")
        for key, want in header.items():
            if existing.get(key) != want:
                raise CheckpointError(
                    f"{self.path}: checkpoint {key} mismatch "
                    f"(checkpoint {existing.get(key)!r}, run {want!r})"
                )
        return records

    def load(self) -> tuple[dict | None, dict[int, dict]]:
        """(header, {index: record}) from disk; a torn *tail* line is
        dropped (the crash the checkpoint exists to survive), but a
        malformed record with valid records after it is corruption —
        the writer never produces that shape — and raises
        :class:`CheckpointError` naming the record index."""
        if not self.path.exists():
            return None, {}
        header: dict | None = None
        records: dict[int, dict] = {}
        with self.path.open() as fh:
            lines = fh.read().splitlines()
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()), default=-1
        )
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == last_content:
                    break  # torn tail from a mid-write crash
                raise CheckpointError(
                    f"{self.path}: corrupt record {lineno} "
                    f"(followed by valid records): {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise CheckpointError(f"{self.path}: non-object record")
            if payload.get("type") == "header":
                header = payload
            elif payload.get("type") == "instance":
                try:
                    records[int(payload["index"])] = payload
                except (KeyError, TypeError, ValueError) as exc:
                    raise CheckpointError(
                        f"{self.path}: malformed instance record: {exc}"
                    ) from exc
        return header, records

    def append(self, record: dict) -> None:
        """Durably append one finished-instance record."""
        with self.path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


# -- record <-> result bridging ------------------------------------------------


def instance_record(result: InstanceResult) -> dict:
    """Serialize one finished instance; an ok one with its
    :class:`~repro.argument.transcript.InstanceRecord`, which is what
    makes resumed transcripts possible."""
    record: dict = {
        "type": "instance",
        "index": result.index,
        "ok": result.ok,
        "attempts": result.attempts,
    }
    if not result.ok:
        record["code"] = result.error_code
        record["message"] = result.error_message
        return record
    record.update(
        {
            "accepted": result.accepted,
            "commitment_ok": result.commitment_ok,
            "pcp_ok": result.pcp_ok,
            "stats": {
                phase: getattr(result.prover_stats, phase)
                for phase in ProverStats.PHASES
            },
            "wall": dict(result.prover_stats.wall),
            **result.record.to_json(),
        }
    )
    return record


def result_from_record(record: dict) -> InstanceResult:
    """Rebuild the structured outcome a recorded instance produced."""
    try:
        index = int(record["index"])
        attempts = int(record.get("attempts", 1))
        if not record.get("ok", False):
            return InstanceResult.failure(
                index,
                record.get("code") or "internal",
                record.get("message", ""),
                attempts=attempts,
            )
        stats = ProverStats(
            **{phase: record["stats"][phase] for phase in ProverStats.PHASES},
            wall=dict(record.get("wall", {})),
        )
        proved = InstanceRecord.from_json(record)
        return InstanceResult(
            accepted=bool(record["accepted"]),
            commitment_ok=bool(record["commitment_ok"]),
            pcp_ok=bool(record["pcp_ok"]),
            output_values=proved.claimed_outputs,
            prover_stats=stats,
            index=index,
            attempts=attempts,
            record=proved,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed instance record: {exc}") from exc


def transcript_from_checkpoint(
    header: dict, records: dict[int, dict]
) -> Transcript:
    """A completed checkpoint as a replayable session transcript.

    Every instance must be present and ``ok``.  The records are read
    back with the transcript's own instance codec, so the result is
    byte-identical to the transcript
    :func:`~repro.argument.transcript.record_batch` records for an
    uninterrupted run with the same config.
    """
    if header is None:
        raise CheckpointError("checkpoint has no header")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint format {header.get('format')!r}, want {CHECKPOINT_FORMAT!r}"
        )
    size = int(header.get("batch_size", 0))
    instances: list[InstanceRecord] = []
    for index in range(size):
        record = records.get(index)
        if record is None:
            raise CheckpointError(f"instance {index} not in checkpoint")
        if not record.get("ok"):
            raise CheckpointError(
                f"instance {index} failed ({record.get('code')}); "
                "no prover messages to transcribe"
            )
        try:
            instances.append(InstanceRecord.from_json(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"instance {index} lacks transcript material: {exc}"
            ) from exc
    try:
        return Transcript(ArgumentConfig.decode(header, seed=True), instances)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc}") from exc
