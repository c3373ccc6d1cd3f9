"""Tests for the wire format and the seeded-transport optimization (§A.1)."""

import pytest

from repro.argument import (
    ArgumentConfig,
    ZaatarArgument,
    decode_ciphertexts,
    decode_elements,
    encode_ciphertexts,
    encode_elements,
    transport_costs,
)
from repro.crypto import ElGamalKeypair, FieldPRG, group_for_field
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


class TestElementCodec:
    def test_roundtrip(self, gold, rng):
        values = [rng.randrange(gold.p) for _ in range(40)]
        assert decode_elements(gold, encode_elements(gold, values)) == values

    def test_fixed_width(self, gold):
        data = encode_elements(gold, [0, 1, gold.p - 1])
        assert len(data) == 3 * 8  # 64-bit field → 8 bytes per element

    def test_p128_width(self, p128):
        assert len(encode_elements(p128, [1])) == 16

    def test_bad_length_rejected(self, gold):
        with pytest.raises(ValueError):
            decode_elements(gold, b"\x00" * 9)

    def test_out_of_range_rejected(self, gold):
        data = gold.p.to_bytes(8, "little")
        with pytest.raises(ValueError):
            decode_elements(gold, data)

    def test_empty(self, gold):
        assert decode_elements(gold, b"") == []


class TestCiphertextCodec:
    def test_roundtrip(self, gold):
        group = group_for_field(gold)
        prg = FieldPRG(gold, b"codec")
        keypair = ElGamalKeypair.generate(group, prg)
        cts = keypair.encrypt_vector([1, 2, 3], prg)
        data = encode_ciphertexts(group, cts)
        assert decode_ciphertexts(group, data) == cts

    def test_width(self, gold):
        group = group_for_field(gold)  # 512-bit modulus
        prg = FieldPRG(gold, b"codec")
        keypair = ElGamalKeypair.generate(group, prg)
        ct = keypair.encrypt_vector([5], prg)[0]
        assert len(encode_ciphertexts(group, [ct])) == 2 * 64

    def test_bad_length_rejected(self, gold):
        group = group_for_field(gold)
        with pytest.raises(ValueError):
            decode_ciphertexts(group, b"\x00" * 65)


class TestTransport:
    def test_seeded_mode_verifies(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        tally, ok = transport_costs(arg, [[1, 2, 3], [4, 5, 6]], mode="seeded")
        assert ok
        assert tally.verifier_to_prover > 0 and tally.prover_to_verifier > 0

    def test_full_mode_verifies(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        tally, ok = transport_costs(arg, [[1, 2, 3]], mode="full")
        assert ok

    def test_seeded_much_cheaper_than_full(self, sumsq_program):
        """§A.1's optimization: the query key replaces all PCP queries.

        Enc(r) ships in both modes (it depends on V's secret r), so the
        comparison is on the query traffic itself: all explicit queries
        vs the query key + the single consistency query t.
        """
        arg_full = ZaatarArgument(sumsq_program, FAST)
        full, _ = transport_costs(arg_full, [[1, 2, 3]], mode="full")
        arg_seeded = ZaatarArgument(sumsq_program, FAST)
        seeded, _ = transport_costs(arg_seeded, [[1, 2, 3]], mode="seeded")
        seeded_queries = (
            seeded.components["query key"] + seeded.components["consistency query t"]
        )
        assert seeded_queries < full.components["queries"] / 5
        assert seeded.verifier_to_prover < full.verifier_to_prover
        # prover→verifier traffic is identical (answers + commitment)
        assert seeded.prover_to_verifier == full.prover_to_verifier

    def test_components_labeled(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        tally, _ = transport_costs(arg, [[1, 2, 3]], mode="seeded")
        assert "query key" in tally.components
        assert "seed" not in tally.components
        assert "consistency query t" in tally.components
        assert "Enc(r)" in tally.components
        assert tally.components["query key"] == 32

    def test_unknown_mode_rejected(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        with pytest.raises(ValueError):
            transport_costs(arg, [[1, 2, 3]], mode="quantum")

    def test_total_is_sum(self, sumsq_program):
        arg = ZaatarArgument(sumsq_program, FAST)
        tally, _ = transport_costs(arg, [[1, 2, 3]], mode="seeded")
        assert tally.total == tally.verifier_to_prover + tally.prover_to_verifier
