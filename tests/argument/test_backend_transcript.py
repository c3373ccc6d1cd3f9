"""End-to-end backend parity: whole argument runs, byte for byte.

The kernel-level parity suite proves each vector op agrees across
backends; this module proves the *composition* does — a full
``record_batch`` argument run and a checkpointed batch run must
produce byte-identical transcript JSON and checkpoint files whether
the field dispatches to the scalar or the numpy kernels.  Every
verifier draw derives from ``config.seed`` and every prover message is
a pure function of (program, seed, inputs), so any divergence here
means a backend computed a different field element somewhere.
"""

from __future__ import annotations

import json

import pytest

from repro.argument import (
    ArgumentConfig,
    ZaatarArgument,
    record_batch,
    replay_transcript,
    run_parallel_batch,
    transcript_from_checkpoint,
)
from repro.argument.checkpoint import CHECKPOINT_FILENAME
from repro.compiler import compile_program
from repro.crypto import FieldPRG
from repro.field import GOLDILOCKS, HAVE_NUMPY, NAMED_FIELDS, PrimeField
from repro.pcp import SoundnessParams, zaatar
from repro.qap import build_qap
from repro.qap.prover import compute_h_batch

from ..conftest import build_sum_of_squares

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy absent: numpy backend degrades to scalar"
)

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
BATCH = [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]]


def _program(backend: str):
    field = PrimeField(GOLDILOCKS, check_prime=False, backend=backend)
    return compile_program(field, build_sum_of_squares(), name="sumsq")


def test_record_batch_transcripts_byte_identical():
    scalar_tr, scalar_ok = record_batch(_program("scalar"), BATCH, FAST)
    numpy_tr, numpy_ok = record_batch(_program("numpy"), BATCH, FAST)
    assert scalar_ok and numpy_ok
    assert scalar_tr.to_json() == numpy_tr.to_json()


def test_transcripts_cross_replay():
    """A transcript recorded under one backend replays under the other."""
    scalar_tr, _ = record_batch(_program("scalar"), BATCH, FAST)
    assert replay_transcript(_program("numpy"), scalar_tr) == [True] * len(BATCH)
    numpy_tr, _ = record_batch(_program("numpy"), BATCH, FAST)
    assert replay_transcript(_program("scalar"), numpy_tr) == [True] * len(BATCH)


def _named_program(name: str, backend: str):
    field = PrimeField(NAMED_FIELDS[name], check_prime=False, backend=backend)
    return compile_program(field, build_sum_of_squares(), name="sumsq")


def _recorded_instances(program, batch):
    """The per-instance records (inputs, outputs, commitment, answers)
    of an accepted ``record_batch`` transcript."""
    transcript, ok = record_batch(program, batch, FAST)
    assert ok
    return json.loads(transcript.to_json())["instances"]


@pytest.mark.parametrize("name", ["goldilocks", "p128", "p220"])
def test_batched_prover_transcripts_byte_identical(name):
    """An input's commitment and answers do not depend on its batch:
    proved alone (B = 1) or at position i of a batch of 3 (stacked
    kernels, CRT planes on the big moduli), on either backend, it
    records the same transcript bytes."""
    batch = BATCH[:3]
    alone = [
        _recorded_instances(_named_program(name, "scalar"), [values])[0]
        for values in batch
    ]
    for backend in ("scalar", "numpy"):
        together = _recorded_instances(_named_program(name, backend), batch)
        assert together == alone, (name, backend)


def test_batched_prover_answers_identical_p192():
    """p192 has no commitment group, so no argument runs over it;
    compare its raw PCP answers instead: each input's u = (z, h), with h
    from ``compute_h_batch`` alone and inside a batch of 3, answered by
    the schedule's base rows."""
    batch = BATCH[:3]

    def answers(backend, rows):
        program = _named_program("p192", backend)
        qap = build_qap(program.quadratic)
        prg = FieldPRG(program.field, FAST.seed, "queries")
        basis = zaatar.generate_schedule(qap, FAST.params, prg).basis
        witnesses = [program.solve(values).quadratic_witness for values in rows]
        return [
            basis.answer(w[1 : qap.n_prime + 1] + h)
            for w, h in zip(witnesses, compute_h_batch(qap, witnesses))
        ]

    alone = [answers("scalar", [values])[0] for values in batch]
    for backend in ("scalar", "numpy"):
        assert answers(backend, batch) == alone, backend


def test_checkpoint_files_byte_identical(tmp_path):
    """Checkpoint files agree across backends, and their transcript
    projection agrees byte for byte.

    Checkpoint records deliberately carry per-phase wall-clock timings
    (``stats``/``wall``) which differ between *any* two runs, backend
    or not; every protocol field — header, inputs/outputs, commitments,
    answers, verdicts — must be identical, as must the JSON of
    ``transcript_from_checkpoint`` (the PR-4 digest machinery's
    deterministic view of the file).
    """
    lines = {}
    transcripts = {}
    for backend in ("scalar", "numpy"):
        directory = tmp_path / backend
        directory.mkdir()
        arg = ZaatarArgument(_program(backend), FAST)
        result = run_parallel_batch(arg, BATCH, num_workers=1, checkpoint=directory)
        assert result.result.all_accepted
        raw = (directory / CHECKPOINT_FILENAME).read_text().splitlines()
        stripped = []
        for line in raw:
            record = json.loads(line)
            record.pop("stats", None)
            record.pop("wall", None)
            stripped.append(json.dumps(record, sort_keys=True))
        lines[backend] = stripped
        header, records = json.loads(raw[0]), {
            json.loads(l)["index"]: json.loads(l) for l in raw[1:]
        }
        transcripts[backend] = transcript_from_checkpoint(header, records).to_json()
    assert lines["scalar"] == lines["numpy"]
    assert transcripts["scalar"] == transcripts["numpy"]
