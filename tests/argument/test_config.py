"""Tests for ArgumentConfig knobs."""

import pytest

from repro.argument import ArgumentConfig, ZaatarArgument
from repro.pcp import SoundnessParams, TEST_PARAMS


class TestDefaults:
    def test_default_params(self):
        cfg = ArgumentConfig()
        assert cfg.params == TEST_PARAMS
        assert cfg.qap_mode == "arithmetic"

    def test_group_selection(self, gold, p128):
        cfg = ArgumentConfig()
        assert cfg.group(gold).order == gold.p
        assert cfg.group(p128).order == p128.p
        # paper-scale picks the 1024-bit modulus for p128
        paper = ArgumentConfig(paper_scale_crypto=True)
        assert paper.group(p128).bits == 1024


class TestSeedSeparation:
    def test_different_seeds_different_schedules(self, sumsq_program):
        a = ZaatarArgument(
            sumsq_program,
            ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1), seed=b"a"),
        )
        b = ZaatarArgument(
            sumsq_program,
            ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1), seed=b"b"),
        )
        sched_a = a.verifier_setup()[0]
        sched_b = b.verifier_setup()[0]
        assert sched_a.queries() != sched_b.queries()

    def test_same_seed_same_schedule(self, sumsq_program):
        cfg = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1), seed=b"x")
        s1 = ZaatarArgument(sumsq_program, cfg).verifier_setup()[0]
        s2 = ZaatarArgument(sumsq_program, cfg).verifier_setup()[0]
        assert s1.queries() == s2.queries()

    def test_both_seeds_verify(self, sumsq_program):
        for seed in (b"alpha", b"beta"):
            cfg = ArgumentConfig(
                params=SoundnessParams(rho_lin=2, rho=1), seed=seed
            )
            assert ZaatarArgument(sumsq_program, cfg).run_batch([[1, 2, 3]]).all_accepted


class TestQapModes:
    @pytest.mark.parametrize("mode", ["arithmetic", "roots"])
    def test_modes_verify(self, sumsq_program, mode):
        cfg = ArgumentConfig(
            params=SoundnessParams(rho_lin=2, rho=1), qap_mode=mode
        )
        result = ZaatarArgument(sumsq_program, cfg).run_batch([[2, 3, 4]])
        assert result.all_accepted
        assert result.instances[0].output_values == [29]
