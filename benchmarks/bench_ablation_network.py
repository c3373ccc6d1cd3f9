"""Ablation: network costs, full queries vs the §A.1 seed optimization.

"The network costs are (a) a full query sent from V to P, and (b) a
random seed from which V and P derive the PCP queries pseudorandomly."
This bench runs one seeded session of a real benchmark computation
against a loopback prover server and reports the bytes that crossed
the socket, frame by frame: length-prefixed JSON frames whose field
elements and ciphertext components are hex strings.  The full
transport is the same session with its challenge replaced by one that
carries every query vector; that frame is sized as ``send_frame``
would write it and never sent, because no endpoint accepts it.  The
gap is then projected to the paper's production soundness parameters,
where ρ·ℓ' = 992 query vectors of length |u| would otherwise ship.
"""

import json
import random

from repro import telemetry
from repro.apps import ALL_APPS
from repro.argument import ArgumentConfig, ProverServer, ZaatarArgument, verify_remote
from repro.argument.framing import HEADER, hex_list
from repro.crypto import query_key
from repro.pcp import PAPER_PARAMS

from _harness import BENCH_PARAMS, compiled, print_table, sizes_key

APP = "longest_common_subsequence"
SIZES = {"m": 6}
#: the frames each party sends in one session, in protocol order
UP = ("hello", "commit", "inputs", "challenge")
DOWN = ("hello-ok", "outputs", "answers")


def frame_bytes(payload: dict) -> int:
    """What ``send_frame`` writes for ``payload``: header plus JSON."""
    return HEADER.size + len(json.dumps(payload).encode())


def test_network_costs(benchmark):
    def run():
        app = ALL_APPS[APP]
        prog = compiled(APP, sizes_key(SIZES))
        rng = random.Random(31)
        batch = [app.generate_inputs(rng, SIZES) for _ in range(2)]
        config = ArgumentConfig(params=BENCH_PARAMS, seed=b"network-ablation")
        with telemetry.session() as tracer:
            with ProverServer(prog, config) as server:
                result = verify_remote(
                    prog, batch, server.address, config, collect_trace=False
                )
        # read after close(): the server's session span keeps its
        # counters until it ends
        return prog, config, result, tracer.total_counters()

    prog, config, result, counters = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.all_accepted and result.attempts == 1
    # one frame of each type: the per-type counters hold JSON bytes,
    # the header is HEADER.size more
    assert counters["net.frames_sent"] == len(UP) + len(DOWN)
    frames = {
        kind: counters[f"net.bytes_sent.{kind}"] + HEADER.size for kind in UP + DOWN
    }
    assert sum(frames[kind] for kind in UP) == result.bytes_sent
    assert sum(frames[kind] for kind in DOWN) == result.bytes_received

    # the full transport: the same challenge with every query in place
    # of the key K_q.  The pinned seed re-derives the session's setup.
    schedule, _, _, challenge = ZaatarArgument(prog, config).verifier_setup()
    t = hex_list(challenge.t)
    seeded = frames["challenge"]
    key = {"type": "challenge", "key": query_key(config.seed).hex(), "t": t}
    assert frame_bytes(key) == seeded
    queries = [hex_list(q) for q in schedule.queries()]
    full = frame_bytes({"type": "challenge", "queries": queries, "t": t})

    print_table(
        f"Ablation: frames of one seeded session ({APP}, batch of 2, "
        "bench soundness params)",
        ["frame", "direction", "bytes"],
        [[kind, "V->P", f"{frames[kind]:,} B"] for kind in UP]
        + [[kind, "P->V", f"{frames[kind]:,} B"] for kind in DOWN],
    )
    print_table(
        "Ablation: transport bytes",
        ["mode", "V->P", "P->V", "challenge frame"],
        [
            [
                "full",
                f"{result.bytes_sent - seeded + full:,} B",
                f"{result.bytes_received:,} B",
                f"{full:,} B ({len(queries)} queries + t)",
            ],
            [
                "seeded",
                f"{result.bytes_sent:,} B",
                f"{result.bytes_received:,} B",
                f"{seeded:,} B (K_q + t)",
            ],
        ],
    )

    # projection at production parameters: each query adds what it adds
    # to this session's full challenge (a query is nonzero on z or on h
    # alone, and the two are near equal in length here, so the paper's
    # mix of z and h queries costs the same per query); the seeded
    # challenge does not grow
    per_query = (full - seeded) / len(queries)
    paper_queries = PAPER_PARAMS.total_zaatar_queries()
    paper_full = seeded + paper_queries * per_query
    print(
        f"\nprojection at paper params (rho_lin=20, rho=8): the full challenge "
        f"carries {paper_queries} queries at {per_query:,.0f} B each, "
        f"{paper_full / 1e6:.1f} MB vs the seeded {seeded / 1e3:.1f} KB "
        f"({paper_full / seeded:.0f}x)"
    )
    assert 5 * seeded < full
    assert paper_full / seeded > 100
