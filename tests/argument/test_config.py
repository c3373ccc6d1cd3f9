"""Tests for ArgumentConfig knobs."""

import socket

import pytest

from repro.argument import (
    ArgumentConfig,
    GingerArgument,
    ProgramRegistry,
    ZaatarArgument,
    verify_remote,
)
from repro.compiler import compile_program
from repro.field import PrimeField
from repro.pcp import SoundnessParams, TEST_PARAMS

from ..conftest import build_sum_of_squares


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


class TestFieldWithoutGroup:
    """p192 has no commitment group of its order, and the argument always
    commits: every entry point refuses it with one ``ValueError`` that
    names the field, before any work or connection."""

    NO_GROUP = "field p192 has no commitment group"

    @pytest.fixture(scope="class")
    def p192_program(self):
        return compile_program(
            PrimeField.named("p192"), build_sum_of_squares(), name="sumsq"
        )

    def test_config_group(self, p192_program):
        for cfg in (ArgumentConfig(), ArgumentConfig(paper_scale_crypto=True)):
            with pytest.raises(ValueError, match=self.NO_GROUP):
                cfg.group(p192_program.field)

    @pytest.mark.parametrize("system", [ZaatarArgument, GingerArgument])
    def test_argument_construction(self, p192_program, system):
        with pytest.raises(ValueError, match=self.NO_GROUP):
            system(p192_program, ArgumentConfig())

    def test_registration(self, p192_program):
        registry = ProgramRegistry()
        with pytest.raises(ValueError, match=self.NO_GROUP):
            registry.register(p192_program)
        assert len(registry) == 0

    def test_verify_remote_before_connecting(self, p192_program):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.setblocking(False)
            with pytest.raises(ValueError, match=self.NO_GROUP):
                verify_remote(p192_program, [[1, 2, 3]], listener.getsockname())
            with pytest.raises(BlockingIOError):
                listener.accept()  # nothing connected
