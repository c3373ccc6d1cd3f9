"""Edge cases: tiny systems, padding, and degenerate shapes in the QAP."""

import pytest

from repro.compiler import compile_program
from repro.constraints import LinearCombination, QuadraticSystem, split_assignment
from repro.crypto import FieldPRG
from repro.pcp import SoundnessParams, VectorOracle, zaatar
from repro.qap import build_proof_vector, build_qap

PARAMS = SoundnessParams(rho_lin=2, rho=1)


def single_constraint_system(gold):
    """x · x = y: one constraint, one input, one output, no unbound vars...
    so add an intermediate to keep |Z| ≥ 1."""

    def build(b):
        x = b.input()
        t = b.define_fresh(x * x)
        b.output(t + 0)

    return compile_program(gold, build, name="square")


class TestTinySystems:
    def test_single_multiplication(self, gold):
        prog = single_constraint_system(gold)
        sol = prog.solve([7])
        assert sol.output_values == [49]
        for mode in ("arithmetic", "roots"):
            qap = build_qap(prog.quadratic, mode=mode)
            proof = build_proof_vector(qap, sol.quadratic_witness)
            oracle = VectorOracle(gold, proof.vector)
            result = zaatar.run_pcp(
                qap, PARAMS, FieldPRG(gold, mode, "tiny"), oracle, sol.x, sol.y
            )
            assert result.accepted, mode

    def test_roots_mode_pads_to_power_of_two(self, gold):
        prog = single_constraint_system(gold)
        qap = build_qap(prog.quadratic, mode="roots")
        assert qap.m >= prog.quadratic.num_constraints
        assert qap.m & (qap.m - 1) == 0

    def test_zero_input_program(self, gold):
        """A program with no inputs at all (pure constant computation)."""

        def build(b):
            t = b.define_fresh(b.constant(6) * 7)
            b.output(t)

        prog = compile_program(gold, build)
        sol = prog.solve([])
        assert sol.output_values == [42]
        qap = build_qap(prog.quadratic)
        proof = build_proof_vector(qap, sol.quadratic_witness)
        result = zaatar.run_pcp(
            qap, PARAMS, FieldPRG(gold, b"noinput"), VectorOracle(gold, proof.vector),
            sol.x, sol.y,
        )
        assert result.accepted

    def test_many_outputs_few_constraints(self, gold):
        def build(b):
            x = b.input()
            t = b.define_fresh(x + 1)
            for k in range(5):
                b.output(t + k)

        prog = compile_program(gold, build)
        sol = prog.solve([10])
        assert sol.output_values == [11, 12, 13, 14, 15]


class TestWitnessZeroes:
    def test_all_zero_witness_instance(self, gold, sumsq_program):
        """Inputs of 0 produce z entries that are mostly 0 — the sparse
        commitment path (skipping zero weights) must still verify."""
        from repro.argument import ArgumentConfig, ZaatarArgument

        result = ZaatarArgument(
            sumsq_program, ArgumentConfig(params=PARAMS)
        ).run_batch([[0, 0, 0]])
        assert result.all_accepted
        assert result.instances[0].output_values == [0]


class TestConstraintShapes:
    def test_constraint_with_constant_sides(self, gold):
        """pA and pB both constant: 2 · 3 = W1."""
        system = QuadraticSystem(field=gold, num_vars=1, input_vars=[], output_vars=[1])
        system.add(
            LinearCombination.constant(2),
            LinearCombination.constant(3),
            LinearCombination.variable(1),
        )
        # make it canonical-compatible: one bound output, zero unbound
        canon, perm = system.canonicalize()
        assert canon.is_satisfied([1, 6])
        assert not canon.is_satisfied([1, 7])

    def test_duplicate_variable_across_sides(self, gold):
        """(W1 + W2)·(W1 − W2) = W3  → W1² − W2² = W3."""
        system = QuadraticSystem(field=gold, num_vars=3, input_vars=[1], output_vars=[3])
        system.add(
            LinearCombination({1: 1, 2: 1}),
            LinearCombination({1: 1, 2: gold.p - 1}),
            LinearCombination.variable(3),
        )
        # W1=5, W2=2 → 25 − 4 = 21
        assert system.is_satisfied([1, 5, 2, 21])
        assert not system.is_satisfied([1, 5, 2, 20])
