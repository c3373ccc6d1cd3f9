#!/usr/bin/env python3
"""Verified all-pairs shortest paths — the paper's benchmark (c).

Scenario: a network operator outsources routing-table computation
(Floyd-Warshall over a link-cost matrix) to a cloud provider and wants
the returned distance matrix *proved* correct.  Cloud bugs or
misconfigurations that silently corrupt a routing table are exactly
the failure class verified computation removes.

The demo runs a batch of topologies (batching is the regime where the
verifier wins, §2.2), prints the verified distance matrix, then shows
a tampered result being rejected.

Run:  python examples/verified_shortest_paths.py
"""

import random

from repro.apps import FLOYD_WARSHALL
from repro.apps.floyd_warshall import _infinity
from repro.argument import ArgumentConfig, ZaatarArgument, ZaatarProver
from repro.field import PrimeField
from repro.pcp import SoundnessParams

SIZES = {"m": 4, "weight_bits": 6}
M = SIZES["m"]


def print_matrix(label: str, flat: list[int], inf: int) -> None:
    print(label)
    for i in range(M):
        row = flat[i * M : (i + 1) * M]
        print("   ", "  ".join("inf" if v >= inf else f"{v:3d}" for v in row))


def main() -> None:
    field = PrimeField.named("goldilocks")
    program = FLOYD_WARSHALL.compile(field, SIZES)
    inf = _infinity(M, SIZES["weight_bits"])
    print(
        f"Floyd-Warshall over {M} nodes compiled to "
        f"{program.quadratic.num_constraints} quadratic-form constraints"
    )

    rng = random.Random(2026)
    batch = [FLOYD_WARSHALL.generate_inputs(rng, SIZES) for _ in range(3)]

    config = ArgumentConfig(params=SoundnessParams(rho_lin=3, rho=2))
    result = ZaatarArgument(program, config).run_batch(batch)
    assert result.all_accepted

    print(f"\nverified {len(batch)} topologies; first one:")
    print_matrix("  link costs:", batch[0], inf)
    print_matrix("  verified distances:", result.instances[0].output_values, inf)

    # A provider that corrupts one distance entry gets caught.
    class CorruptingProver(ZaatarProver):
        def commit(self, request, batch, **kwargs):
            committed = super().commit(request, batch, **kwargs)
            for y, _ in committed:
                y[1] = (y[1] + 1) % field.p               # corrupt one route
            return committed

    class TamperingProver(ZaatarArgument):
        prover_type = CorruptingProver

    bad = TamperingProver(program, config).run_batch(batch[:1])
    verdict = "REJECTED" if not bad.all_accepted else "accepted (BUG!)"
    print(f"\ntampered distance matrix: {verdict}")
    assert not bad.all_accepted


if __name__ == "__main__":
    main()
