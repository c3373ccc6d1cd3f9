"""Tests for constraint-system JSON serialization."""

import json

import pytest

from repro.constraints import (
    SerializationError,
    ginger_from_json,
    ginger_to_json,
    quadratic_from_json,
    quadratic_to_json,
)


class TestQuadraticRoundtrip:
    def test_roundtrip_preserves_semantics(self, gold, sumsq_program):
        system = sumsq_program.quadratic
        restored = quadratic_from_json(quadratic_to_json(system))
        assert restored.field == system.field
        assert restored.num_vars == system.num_vars
        assert restored.input_vars == system.input_vars
        assert restored.output_vars == system.output_vars
        assert restored.num_constraints == system.num_constraints
        # semantic equality: same satisfying assignment works
        sol = sumsq_program.solve([1, 2, 3])
        assert restored.is_satisfied(sol.quadratic_witness)
        bad = list(sol.quadratic_witness)
        bad[1] = (bad[1] + 1) % gold.p
        assert not restored.is_satisfied(bad)

    def test_restored_system_builds_working_qap(self, gold, sumsq_program):
        """A verifier can go straight from JSON to queries."""
        from repro.qap import (
            build_proof_vector,
            build_qap,
            circuit_queries,
            divisibility_check,
            instance_scalars,
        )

        restored = quadratic_from_json(quadratic_to_json(sumsq_program.quadratic))
        qap = build_qap(restored)
        sol = sumsq_program.solve([4, 0, 2])
        proof = build_proof_vector(qap, sol.quadratic_witness)
        q = circuit_queries(qap, 987654321 % gold.p)
        scalars = instance_scalars(qap, q, sol.x, sol.y)
        assert divisibility_check(
            gold,
            q,
            scalars,
            gold.inner_product(q.qa, proof.z),
            gold.inner_product(q.qb, proof.z),
            gold.inner_product(q.qc, proof.z),
            gold.inner_product(q.qd, proof.h),
        )

    def test_large_coefficients_survive(self, p128):
        from repro.constraints import LinearCombination, QuadraticSystem

        system = QuadraticSystem(field=p128, num_vars=2, input_vars=[1], output_vars=[2])
        big = p128.p - 12345
        system.add(
            LinearCombination({1: big}),
            LinearCombination({0: 1}),
            LinearCombination({2: 1}),
        )
        restored = quadratic_from_json(quadratic_to_json(system))
        assert restored.constraints[0].a.terms[1] == big


class TestGingerRoundtrip:
    def test_roundtrip(self, gold, sumsq_program):
        system = sumsq_program.ginger
        restored = ginger_from_json(ginger_to_json(system))
        sol = sumsq_program.solve([1, 2, 3])
        assert restored.is_satisfied(sol.ginger_witness)
        assert restored.additive_terms_K() == system.additive_terms_K()
        assert (
            restored.distinct_degree2_terms_K2()
            == system.distinct_degree2_terms_K2()
        )


class TestValidation:
    def test_wrong_format_rejected(self, sumsq_program):
        data = quadratic_to_json(sumsq_program.quadratic)
        with pytest.raises(SerializationError):
            ginger_from_json(data)
        with pytest.raises(SerializationError):
            quadratic_from_json(ginger_to_json(sumsq_program.ginger))

    def test_not_json_rejected(self):
        with pytest.raises(SerializationError):
            quadratic_from_json("not json {")

    def test_out_of_range_variable_rejected(self, sumsq_program):
        payload = json.loads(quadratic_to_json(sumsq_program.quadratic))
        payload["constraints"][0][0]["99999"] = "1"
        with pytest.raises(SerializationError):
            quadratic_from_json(json.dumps(payload))

    def test_duplicate_io_rejected(self, sumsq_program):
        payload = json.loads(quadratic_to_json(sumsq_program.quadratic))
        payload["output_vars"] = payload["input_vars"][:1]
        with pytest.raises(SerializationError):
            quadratic_from_json(json.dumps(payload))

    def test_bad_quadratic_key_rejected(self, sumsq_program):
        payload = json.loads(ginger_to_json(sumsq_program.ginger))
        payload["constraints"][0]["quadratic"] = {"nope": "1"}
        with pytest.raises(SerializationError):
            ginger_from_json(json.dumps(payload))

    def test_composite_field_rejected(self, sumsq_program):
        payload = json.loads(quadratic_to_json(sumsq_program.quadratic))
        payload["field"] = format(91, "x")
        with pytest.raises(ValueError):
            quadratic_from_json(json.dumps(payload))
