"""The §A.2 soundness arithmetic, including the paper's exact numbers."""

import pytest

from repro.argument import ArgumentConfig
from repro.pcp import PAPER_PARAMS, SoundnessParams, delta_star, kappa_bound


class TestDeltaStar:
    def test_is_root(self):
        d = delta_star()
        assert abs(6 * d * d - 3 * d + 2 / 9) < 1e-12

    def test_is_lesser_root(self):
        assert 0 < delta_star() < 0.25


class TestPaperNumbers:
    def test_kappa_value(self):
        """δ = 0.0294, ρ_lin = 20 ⇒ κ = 0.177 suffices (§A.2)."""
        assert PAPER_PARAMS.kappa <= 0.177
        assert PAPER_PARAMS.kappa > 0.17

    def test_pcp_error_bound(self):
        """ρ = 8 ⇒ κ^ρ < 9.6·10⁻⁷ (§A.2)."""
        assert PAPER_PARAMS.pcp_error < 9.6e-7

    def test_query_counts(self):
        """ℓ = 3ρ_lin + 2 and ℓ' = 6ρ_lin + 4 (Figure 3 legend)."""
        assert PAPER_PARAMS.ginger_high_order_queries_per_repetition() == 62
        assert PAPER_PARAMS.zaatar_queries_per_repetition() == 124
        assert PAPER_PARAMS.total_zaatar_queries() == 8 * 124

    def test_soundness_error_below_one_in_a_million(self):
        """§2.2/§3: 'the soundness error is less than one part in a
        million' for |F| = 2¹⁹²."""
        assert PAPER_PARAMS.argument_error(2**192) < 1e-6

    def test_commitment_error_formula(self):
        err = PAPER_PARAMS.commitment_error(2**192, num_queries=992)
        assert err == pytest.approx(9 * 992 * (2**192) ** (-1 / 3))


class TestKappaBound:
    def test_valid_delta_range_enforced(self):
        with pytest.raises(ValueError):
            kappa_bound(0.0, 20, 100, 2**128)
        with pytest.raises(ValueError):
            kappa_bound(0.2, 20, 100, 2**128)

    def test_two_branches(self):
        # tiny rho_lin → linearity branch dominates
        loose = kappa_bound(0.0294, 1, 10, 2**128)
        tight = kappa_bound(0.0294, 50, 10, 2**128)
        assert loose > tight
        # huge constraint count vs tiny field → correction branch shows up
        big = kappa_bound(0.0294, 50, 2**100, 2**128)
        assert big > tight

    def test_more_repetitions_help(self):
        weak = SoundnessParams(rho=2)
        strong = SoundnessParams(rho=10)
        assert strong.pcp_error < weak.pcp_error


class TestRepetitions:
    @pytest.mark.parametrize("field, value", [("rho", 0), ("rho_lin", 0), ("rho", -3)])
    def test_fewer_than_one_repetition_rejected(self, field, value):
        """ρ = 0 runs no PCP repetition and ρ_lin = 0 no linearity test,
        so the params refuse them when built, naming the field."""
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
            SoundnessParams(**{field: value})

    def test_decoded_zero_repetitions_rejected(self):
        config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1), seed=b"\x01")
        spec = config.encode(seed=True)
        spec["params"]["rho"] = 0
        with pytest.raises(ValueError, match="rho must be at least 1"):
            ArgumentConfig.decode(spec, seed=True)


#: the rest of an encoded config, around the params under test
_MODES = {"qap_mode": "arithmetic", "paper_scale_crypto": False}


class TestCodec:
    """The params travel as JSON inside :meth:`ArgumentConfig.encode`."""

    def test_roundtrip(self):
        params = SoundnessParams(delta=0.03, rho_lin=5, rho=3)
        config = ArgumentConfig(params=params, seed=b"\x00\xfe")
        spec = config.encode(seed=True)
        assert spec == {
            "seed": "00fe",
            "params": {"delta": 0.03, "rho_lin": 5, "rho": 3},
            **_MODES,
        }
        assert ArgumentConfig.decode(spec, seed=True) == config

    @pytest.mark.parametrize(
        "spec",
        [
            {"seed": "00", **_MODES},
            {"seed": "zz", "params": {"delta": 0.03, "rho_lin": 5, "rho": 3}, **_MODES},
            {"seed": "00", "params": {"delta": 0.03, "rho_lin": "x", "rho": 3}, **_MODES},
            {"seed": "00", "params": {"delta": [1], "rho_lin": 5, "rho": 3}, **_MODES},
            {"seed": "00", "params": ["delta"], **_MODES},
            ["seed"],
        ],
    )
    def test_malformed_raises_what_callers_map(self, spec):
        with pytest.raises((KeyError, TypeError, ValueError)):
            ArgumentConfig.decode(spec, seed=True)
