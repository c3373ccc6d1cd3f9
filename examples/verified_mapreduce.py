#!/usr/bin/env python3
"""Verified map phase — the paper's MapReduce motivation (§1, §7).

"Large-scale simulations in scientific computing often have repeated
structure, as does the map phase of MapReduce computations" — the same
mapper Ψ runs over many input shards, which is *exactly* Zaatar's
batching requirement: compile Ψ once, generate queries once, verify
every shard against them.

The mapper here is a word-frequency-style histogrammer: each shard is
a vector of small tokens and the mapper emits per-bucket counts plus
the shard's max-frequency bucket.  A reduce phase (summing histograms)
runs locally at the verifier — it is linear-time in the mapper
outputs, which the verifier already touches (§5.4).

Run:  python examples/verified_mapreduce.py
"""

import random

from repro.argument import ArgumentConfig, ZaatarArgument, transport_costs
from repro.compiler import Builder, compile_program, is_equal, less_than, select
from repro.field import PrimeField
from repro.pcp import SoundnessParams

SHARD_LEN = 12
BUCKETS = 4
NUM_SHARDS = 5


def build_mapper(b: Builder) -> None:
    """counts[k] = |{i : shard[i] == k}|, then argmax bucket."""
    shard = b.inputs(SHARD_LEN)
    counts = [b.constant(0) for _ in range(BUCKETS)]
    for token in shard:
        for k in range(BUCKETS):
            counts[k] = counts[k] + is_equal(b, token, k)
    counts = [b.define(c) for c in counts]
    best_k = b.constant(0)
    best_c = counts[0]
    for k in range(1, BUCKETS):
        bigger = less_than(b, best_c, counts[k], bit_width=8)
        best_c = select(b, bigger, counts[k], best_c)
        best_k = select(b, bigger, k, best_k)
    for c in counts:
        b.output(c)
    b.output(best_k)


def main() -> None:
    field = PrimeField.named("goldilocks")
    mapper = compile_program(field, build_mapper, name="histogram-mapper")
    print(
        f"mapper compiled once: {mapper.quadratic.num_constraints} constraints, "
        f"proof vector {mapper.quadratic.proof_vector_length()} entries"
    )

    rng = random.Random(99)
    shards = [
        [rng.randrange(BUCKETS) for _ in range(SHARD_LEN)] for _ in range(NUM_SHARDS)
    ]

    config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
    argument = ZaatarArgument(mapper, config)
    result = argument.run_batch(shards)
    assert result.all_accepted

    print(f"\nmap phase: {NUM_SHARDS} shards verified in one batch")
    totals = [0] * BUCKETS
    for idx, instance in enumerate(result.instances):
        *counts, best = instance.output_values
        for k in range(BUCKETS):
            totals[k] += counts[k]
        print(f"  shard {idx}: counts={counts} hottest bucket={best}  [verified]")

    # the reduce phase is local: linear in already-verified outputs
    print(f"\nreduce (local): total histogram = {totals}")
    expected = [sum(s.count(k) for s in shards) for k in range(BUCKETS)]
    assert totals == expected

    # network accounting for the whole job, seed-optimized transport
    tally, ok = transport_costs(
        ZaatarArgument(mapper, config), shards, mode="seeded"
    )
    assert ok
    print(
        f"network: {tally.verifier_to_prover:,} B to the cloud, "
        f"{tally.prover_to_verifier:,} B back "
        f"(queries derived from a {tally.components['query key']}-byte key)"
    )


if __name__ == "__main__":
    main()
