#!/usr/bin/env python3
"""Two-party deployment: a prover server and a verifier client on TCP.

The paper's testbed "connect[s] the verifier and the prover to a local
network" (§5.1).  This demo runs the prover as a server (here in a
background thread; in production, another machine), has the verifier
drive a batched session over the socket, and reports the traffic —
with the §A.1 seed optimization, the verifier uploads Enc(r), its
inputs, and a challenge of the 32-byte query key plus the consistency
query; the full PCP query schedule never crosses the wire.

Run:  python examples/remote_prover.py
"""

from repro.argument import ArgumentConfig, ProverServer, verify_remote
from repro.compiler import compile_source
from repro.field import PrimeField
from repro.pcp import SoundnessParams

SOURCE = """
input portfolio[5]
input prices[5]
output value
output top_holding
var acc
acc = 0
top_holding = 0
for i in 0..5 {
    acc = acc + portfolio[i] * prices[i]
    top_holding = max(top_holding, portfolio[i] * prices[i])
}
value = acc
"""


def main() -> None:
    field = PrimeField.named("goldilocks")
    program = compile_source(field, SOURCE, name="portfolio-valuation", bit_width=24)
    config = ArgumentConfig(params=SoundnessParams(rho_lin=3, rho=2))

    # In production the server runs on the cloud machine; both sides
    # hold the (public) compiled program.
    with ProverServer(program, config) as server:
        host, port = server.address
        print(f"prover serving {program.name} on {host}:{port}")

        batch = [
            [10, 5, 0, 2, 8, 120, 300, 75, 410, 95],
            [1, 1, 1, 1, 1, 100, 100, 100, 100, 100],
        ]
        result = verify_remote(program, batch, server.address, config)

        print(f"\nverified {len(batch)} instances over TCP:")
        for inputs, instance in zip(batch, result.instances):
            status = "ACCEPTED" if instance.accepted else "REJECTED"
            value, top = instance.output_values
            print(f"  value={value:>6}  top holding={top:>5}  [{status}]")
        assert result.all_accepted

        print(
            f"\ntraffic: {result.bytes_sent:,} B uploaded "
            f"(Enc(r) + inputs + one consistency query; PCP queries derive "
            f"from the query key sent with it), {result.bytes_received:,} B "
            f"downloaded"
        )


if __name__ == "__main__":
    main()
