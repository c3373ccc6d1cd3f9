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

The map phase runs as one session against a prover server (here on
loopback), and the demo reports the bytes that crossed the socket.

Run:  python examples/verified_mapreduce.py
"""

import random

from repro import telemetry
from repro.argument import ArgumentConfig, ProverServer, verify_remote
from repro.argument.framing import HEADER
from repro.compiler import Builder, compile_program, is_equal, less_than, select
from repro.crypto import query_key
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

    # the cloud proves Ψ on every shard; the verifier drives one session,
    # traced for its frame bytes (no span records ride in the answers)
    config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
    with telemetry.session() as tracer:
        with ProverServer(mapper, config) as cloud:
            result = verify_remote(
                mapper, shards, cloud.address, config, collect_trace=False
            )
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

    # the whole job's traffic: the queries derive from the key K_q,
    # which travels with the consistency query t in the challenge frame
    challenge = tracer.total_counters()["net.bytes_sent.challenge"] + HEADER.size
    print(
        f"network: {result.bytes_sent:,} B to the cloud, "
        f"{result.bytes_received:,} B back (queries derived from a "
        f"{len(query_key(config.seed))}-byte key, sent with t in a "
        f"{challenge:,}-byte challenge)"
    )


if __name__ == "__main__":
    main()
