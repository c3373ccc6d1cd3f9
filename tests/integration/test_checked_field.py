"""The whole protocol runs under the checked field.

``CheckedPrimeField`` raises on any non-canonical element operand of
any op in the field-op table, including ``mul_lazy`` and ``pow``.
Compiling and proving a paper app against it, alone and in a batch,
certifies that no protocol path feeds the field a non-canonical value.
The transcript must also equal the plain field's byte for byte: the
checks observe, they never change a result.
"""

import random

import pytest

from repro.apps import LCS
from repro.argument import ArgumentConfig
from repro.argument.transcript import record_batch
from repro.field import GOLDILOCKS, P128, PrimeField, checked_field
from repro.poly.plan import clear_plan_caches

SIZES = {"m": 4, "alphabet_bits": 3}


@pytest.mark.parametrize("batch_size", [1, 2], ids=lambda b: f"b{b}")
@pytest.mark.parametrize("params", [GOLDILOCKS, P128], ids=lambda p: p.name)
def test_lcs_batch_under_checked_field(params, batch_size):
    rng = random.Random(f"checked:{params.name}")
    batch = [LCS.generate_inputs(rng, SIZES) for _ in range(batch_size)]
    config = ArgumentConfig(seed=b"checked-field")
    transcripts = []
    for make in (lambda f: f, checked_field):
        # cold plan caches, so the checked run builds (and checks) its
        # own twiddles, weights and trees instead of reusing the plain
        # run's
        clear_plan_caches()
        field = make(PrimeField(params, check_prime=False))
        transcript, ok = record_batch(LCS.compile(field, SIZES), batch, config)
        assert ok
        transcripts.append(transcript.to_json())
    assert transcripts[0] == transcripts[1]
