"""Ablation: σ-point placement (DESIGN.md §6).

The paper places the interpolation points at the arithmetic
progression 1..|C| so the *verifier's* barycentric weights are cheap
(§A.3).  Modern QAP systems instead put the σ at a multiplicative
subgroup, which turns the *prover's* interpolation into inverse NTTs.
This bench runs the prover's H-pipeline under both placements and
reports the trade-off.
"""

import time

import pytest

from repro.qap import build_qap, compute_h

from _harness import FIELD, compiled, fmt_seconds, print_table, sizes_key

SIZES = {"m": 12}
APP = "longest_common_subsequence"


@pytest.fixture(scope="module")
def witness():
    import random

    from repro.apps import ALL_APPS

    prog = compiled(APP, sizes_key(SIZES))
    app = ALL_APPS[APP]
    inputs = app.generate_inputs(random.Random(5), SIZES)
    return prog, prog.solve(inputs).quadratic_witness


@pytest.mark.parametrize("mode", ["arithmetic", "roots"])
def test_compute_h_by_mode(benchmark, witness, mode):
    prog, w = witness
    qap = build_qap(prog.quadratic, mode=mode)
    if mode == "arithmetic":  # warm the per-QAP structures a batch reuses
        _ = qap.h_tables
    benchmark.pedantic(compute_h, args=(qap, w), rounds=3, iterations=1)


def test_sigma_placement_comparison(benchmark, witness):
    prog, w = witness

    def run():
        out = {}
        for mode in ("arithmetic", "roots"):
            qap = build_qap(prog.quadratic, mode=mode)
            if mode == "arithmetic":
                _ = qap.h_tables  # precompute (batch-amortized)
            start = time.process_time()
            h = compute_h(qap, w)
            out[mode] = (time.process_time() - start, len(h))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [mode, fmt_seconds(t), str(h_len)]
        for mode, (t, h_len) in results.items()
    ]
    print_table(
        "Ablation: prover H-pipeline by sigma placement (|C|=%d)"
        % compiled(APP, sizes_key(SIZES)).quadratic.num_constraints,
        ["sigma mode", "compute_h time", "|h|"],
        rows,
    )
    # The NTT path must beat Newton interpolation at this size.
    assert results["roots"][0] < results["arithmetic"][0]
