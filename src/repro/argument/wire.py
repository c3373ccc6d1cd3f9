"""Wire format and network-cost accounting (§A.1, "network costs").

"The network costs are (a) a full query sent from V to P, and (b) a
random seed from which V and P derive the PCP queries pseudorandomly."
This module implements both transports over a byte-level wire format:

* ``full`` — every query vector ships explicitly (the naive baseline);
* ``seeded`` — V ships only the 32-byte query key K_q; P regenerates
  the entire query schedule with ``generate_schedule`` (which is
  deterministic in the key), and the only vectors that must travel are
  Enc(r) and the consistency query t (they depend on V's secret
  randomness).  K_q and t ship together, after P has committed.

Field elements are fixed-width little-endian; ciphertexts are two
group elements at the group modulus width.  ``NetworkTally`` records
V→P and P→V bytes so the transport ablation can compare the modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

from ..crypto.elgamal import ElGamalCiphertext
from ..crypto.groups import SchnorrGroup
from ..field import PrimeField


class WireFormatError(ValueError):
    """Bytes on the wire do not decode to valid field/group elements.

    A ``ValueError`` subclass so existing callers keep working; the
    network layer maps it onto its structured ``bad-frame`` error path.
    """


def element_width(field: PrimeField) -> int:
    """Bytes per field element on the wire."""
    return (field.p.bit_length() + 7) // 8


def encode_elements(field: PrimeField, values: Sequence[int]) -> bytes:
    """Fixed-width little-endian encoding of a field-element vector."""
    width = element_width(field)
    return b"".join(v.to_bytes(width, "little") for v in values)


def decode_elements(field: PrimeField, data: bytes) -> list[int]:
    """Inverse of ``encode_elements``; validates range and framing."""
    width = element_width(field)
    if len(data) % width:
        raise WireFormatError(f"byte length {len(data)} not a multiple of {width}")
    out = []
    for offset in range(0, len(data), width):
        v = int.from_bytes(data[offset : offset + width], "little")
        if v >= field.p:
            raise WireFormatError("encoded value out of field range")
        out.append(v)
    return out


def group_element_width(group: SchnorrGroup) -> int:
    """Bytes per group element on the wire."""
    return (group.modulus.bit_length() + 7) // 8


def encode_ciphertexts(
    group: SchnorrGroup, ciphertexts: Sequence[ElGamalCiphertext]
) -> bytes:
    """Fixed-width encoding of ElGamal ciphertext pairs."""
    width = group_element_width(group)
    parts = []
    for ct in ciphertexts:
        parts.append(ct.c1.to_bytes(width, "little"))
        parts.append(ct.c2.to_bytes(width, "little"))
    return b"".join(parts)


def decode_ciphertexts(group: SchnorrGroup, data: bytes) -> list[ElGamalCiphertext]:
    """Inverse of ``encode_ciphertexts``; validates range and framing."""
    width = group_element_width(group)
    chunk = 2 * width
    if len(data) % chunk:
        raise WireFormatError("byte length does not tile into ciphertexts")
    out = []
    for offset in range(0, len(data), chunk):
        c1 = int.from_bytes(data[offset : offset + width], "little")
        c2 = int.from_bytes(data[offset + width : offset + chunk], "little")
        if c1 >= group.modulus or c2 >= group.modulus:
            raise WireFormatError("encoded group element out of range")
        out.append(ElGamalCiphertext(c1, c2))
    return out


@dataclass
class NetworkTally:
    """Bytes on the wire, per direction, with labeled components."""

    verifier_to_prover: int = 0
    prover_to_verifier: int = 0
    components: dict = dataclass_field(default_factory=dict)

    def send_v_to_p(self, label: str, nbytes: int) -> None:
        """Record verifier→prover bytes under a component label."""
        self.verifier_to_prover += nbytes
        self.components[label] = self.components.get(label, 0) + nbytes

    def send_p_to_v(self, label: str, nbytes: int) -> None:
        """Record prover→verifier bytes under a component label."""
        self.prover_to_verifier += nbytes
        self.components[label] = self.components.get(label, 0) + nbytes

    @property
    def total(self) -> int:
        """Bytes in both directions."""
        return self.verifier_to_prover + self.prover_to_verifier


def transport_costs(
    argument,
    batch_inputs: Sequence[Sequence[int]],
    *,
    mode: str = "seeded",
) -> tuple["NetworkTally", bool]:
    """Run a batch through an explicit byte-level transport.

    Everything that crosses between the two parties is serialized and
    tallied; the verifier's decision is computed from the *decoded*
    bytes, so the roundtrip is honest.  Returns (tally, all_accepted).
    """
    from ..crypto import FieldPRG, query_key
    from ..crypto.commitment import DecommitChallenge
    from ..pcp import zaatar as zaatar_pcp
    from .protocol import check_instance

    if mode not in ("full", "seeded"):
        raise ValueError(f"unknown transport mode {mode!r}")
    field = argument.field
    cfg = argument.config
    tally = NetworkTally()

    setup = argument.verifier_setup()
    schedule, _, request, challenge = setup

    # --- V → P, commit: Enc(r) once per batch, then the inputs -----------
    group = cfg.group(field)
    tally.send_v_to_p("Enc(r)", len(encode_ciphertexts(group, request.ciphertexts)))
    prover = argument.prover()
    committed = prover.commit(request, batch_inputs)
    commitment_bytes = []
    for input_values, entry in zip(batch_inputs, committed):
        if isinstance(entry, Exception):
            raise entry
        tally.send_v_to_p("inputs x", len(encode_elements(field, list(input_values))))
        tally.send_p_to_v("outputs y", len(encode_elements(field, entry[0])))
        commitment_bytes.append(encode_ciphertexts(group, [entry[1]]))
        tally.send_p_to_v("commitment e", len(commitment_bytes[-1]))

    # --- V → P, decommit: the queries and t, once per batch ---------------
    t = challenge.t
    if mode == "full":
        for q in [*schedule.queries(), t]:
            tally.send_v_to_p("queries", len(encode_elements(field, q)))
        received = challenge
    else:
        # the key regenerates every PCP query; only the consistency
        # query t (a function of V's secret r and α) must travel with it
        key = query_key(cfg.seed)
        tally.send_v_to_p("query key", len(key))
        tally.send_v_to_p("consistency query t", len(encode_elements(field, t)))
        prover_schedule = zaatar_pcp.generate_schedule(
            argument.qap, cfg.params, FieldPRG.from_key(field, key)
        )
        # prover-side rederivation must agree with the verifier's schedule
        assert prover_schedule.basis.same_rows(schedule.basis)
        received = DecommitChallenge(prover_schedule.basis, t)

    # --- P → V, per instance: the answers; V decodes and checks ------------
    all_ok = True
    for input_values, (y, _), e_bytes, answers in zip(
        batch_inputs, committed, commitment_bytes, prover.answer(received)
    ):
        answer_bytes = encode_elements(field, answers)
        tally.send_p_to_v("answers", len(answer_bytes))
        commit_ok, pcp = check_instance(
            setup,
            decode_ciphertexts(group, e_bytes)[0],
            decode_elements(field, answer_bytes),
            [v % field.p for v in input_values],
            y,
        )
        all_ok = all_ok and commit_ok and pcp.accepted
    return tally, all_ok
