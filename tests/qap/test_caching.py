"""Batch-amortized QAP structures: caches are shared, not rebuilt."""

import math

import pytest

from repro.field import HAVE_NUMPY, NAMED_FIELDS, PrimeField
from repro.poly import poly_from_roots
from repro.qap import build_qap, compute_h

from .test_qap import power_chain


class TestCachedStructures:
    def test_subproduct_tree_cached(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.subproduct_tree is qap.subproduct_tree

    def test_divisor_poly_cached(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.divisor_poly is qap.divisor_poly

    def test_barycentric_weights_cached(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.barycentric_weights is qap.barycentric_weights

    def test_h_tables_cached(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.h_tables is qap.h_tables

    @pytest.mark.parametrize("name", ["goldilocks", "p192"])
    def test_h_tables_match_their_definitions(self, name):
        """Each QAP's tables come from its own modulus and size (the
        product operands are checked on their plain rows)."""
        field = PrimeField(NAMED_FIELDS[name], check_prime=False)
        qap = build_qap(power_chain(field, 5))
        tables, p, n = qap.h_tables, field.p, qap.h_length
        fact = [math.factorial(k) % p for k in range(n)]
        (kernel,) = tables.kernel.rows
        (differences,) = tables.differences.rows
        assert [l * kernel[l - 1] % p for l in range(1, 2 * n)] == [1] * (2 * n - 1)
        assert [x * f % p for x, f in zip(tables.point, fact)] == [n + k for k in range(n)]
        assert [x * f % p for x, f in zip(tables.scale, fact)] == [
            (n + k) * math.factorial(n + k) // math.factorial(k) % p for k in range(n)
        ]
        assert [x * f % p for x, f in zip(differences, fact)] == [
            (-1) ** k % p for k in range(n)
        ]
        # levels[d][b] = ∏ (t − x) over the left block's points x = n + j,
        # j ∈ [2b·2^d, (2b+1)·2^d), for the ⌈n/2^(d+1)⌉ pairs of level d
        assert len(tables.levels) == (n - 1).bit_length()
        for d, level in enumerate(tables.levels):
            width = 1 << d
            assert len(level.rows) == -(-n // (2 * width))
            for b, node in enumerate(level.rows):
                roots = [n + j for j in range(2 * b * width, (2 * b + 1) * width)]
                assert node == poly_from_roots(field, roots)
        assert tables.weights == qap.barycentric_weights

    def test_one_qap_serves_many_instances(self, sumsq_program):
        """The same QAP instance proves every batch member (the shared
        structure behind §2.2 batching)."""
        qap = build_qap(sumsq_program.quadratic)
        for inputs in ([1, 2, 3], [4, 5, 6], [7, 8, 9]):
            sol = sumsq_program.solve(inputs)
            h = compute_h(qap, sol.quadratic_witness)
            assert len(h) == qap.h_length

    def test_prover_points_match_tree(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.subproduct_tree.points == qap.prover_points
        assert qap.prover_points[0] == 0  # σ₀ pinning point
        assert qap.prover_points[1:] == qap.sigma


def _operands(tables):
    return [tables.kernel, tables.differences, *tables.levels]


def _cached_arrays(operand) -> list:
    """Every numpy array an operand keeps for the transform routes."""
    arrays = []
    for form in operand.forms.values():
        for arr in getattr(form, "arrays", [form]):
            if hasattr(arr, "flags"):
                arrays.append(arr)
    return arrays


class TestFixedOperands:
    """H(t)'s fixed operands are transformed by the first product that
    needs each, then kept, read-only, for every later batch."""

    def test_tables_transform_nothing(self, sumsq_program):
        """``h_tables`` stays cheap to build (and to warm at gateway
        registration): no operand is transformed until a product needs it."""
        qap = build_qap(sumsq_program.quadratic)
        assert all(not op.forms for op in _operands(qap.h_tables))

    def test_tiny_programs_never_transform(self, sumsq_program):
        """A program whose products all go row by row pays nothing."""
        qap = build_qap(sumsq_program.quadratic)
        for inputs in ([1, 2, 3], [4, 5, 6]):
            compute_h(qap, sumsq_program.solve(inputs).quadratic_witness)
        assert all(not op.forms for op in _operands(qap.h_tables))

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent: no cached arrays")
    @pytest.mark.parametrize("name", ["goldilocks", "p128"])
    def test_cached_arrays_read_only_and_unchanged(self, name):
        """The butterflies run in place, so every kept array must refuse
        writes, and two batches later its bytes are what the first
        batch built."""
        import random

        from repro.apps import ALL_APPS
        from repro.qap.prover import compute_h_batch

        field = PrimeField(NAMED_FIELDS[name], check_prime=False, backend="numpy")
        app = ALL_APPS["longest_common_subsequence"]
        prog = app.compile(field, {"m": 4})
        qap = build_qap(prog.quadratic)
        rng = random.Random(3)
        witnesses = [
            prog.solve(app.generate_inputs(rng, {"m": 4})).quadratic_witness
            for _ in range(3)
        ]
        first = compute_h_batch(qap, witnesses)
        operands = _operands(qap.h_tables)
        snapshot = [[arr.tobytes() for arr in _cached_arrays(op)] for op in operands]
        assert sum(map(len, snapshot)) >= 3  # kernel, differences, a level
        for op in operands:
            for arr in _cached_arrays(op):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[..., 0] = 1
        assert compute_h_batch(qap, witnesses) == first
        assert compute_h_batch(qap, witnesses[:1]) == first[:1]
        assert [[arr.tobytes() for arr in _cached_arrays(op)] for op in operands] == snapshot


class TestPaperScaleCompiles:
    def test_bisection_paper_sizes_compile(self, gold):
        """The paper's bisection configuration (m=256, L=8) is
        compile-feasible even in pure Python — witness the K₂ ≈ m²/2
        dense-form blowup the evaluation discusses.  (num_bits scaled
        to 4 so comparison widths fit the 64-bit test field; the
        paper's 32-bit inputs need its 220-bit field.)"""
        import random

        from repro.apps import BISECTION

        sizes = {"m": 256, "L": 8, "num_bits": 4}
        prog = BISECTION.compile(gold, sizes)
        stats = prog.stats()
        assert stats.k2_terms >= 256 * 257 // 2
        # and it solves correctly at that size
        inputs = BISECTION.generate_inputs(random.Random(0), sizes)
        expected = BISECTION.reference(inputs, sizes)
        assert prog.solve(inputs).output_values == expected

    def test_bisection_width_guard(self, gold):
        """Parameters whose comparisons exceed the field raise a clear
        error instead of wrapping silently (the paper's reason for the
        220-bit field, §5.1, surfaced as a compile-time check)."""
        from repro.apps import BISECTION

        with pytest.raises(ValueError, match="220 bits"):
            BISECTION.compile(gold, {"m": 256, "L": 8, "num_bits": 32})

    def test_bisection_paper_field_takes_paper_bits(self):
        """With the paper's 220-bit field, 32-bit numerators compile."""
        from repro.apps import BISECTION
        from repro.field import P220, PrimeField

        field = PrimeField(P220, check_prime=False)
        prog = BISECTION.compile(field, {"m": 16, "L": 8, "num_bits": 32})
        assert prog.quadratic.num_constraints > 0


class TestDivisorInverseCache:
    """The Newton inverse of the (reversed) divisor polynomial is a
    batch-level artifact, built once per QAP.  The prover no longer
    divides (it builds H from evaluations), so ``compute_h`` neither
    builds nor reads it; the division oracle in ``h_oracle`` does."""

    @pytest.fixture()
    def big_qap(self, gold):
        """A QAP over the Newton cutoff, where ``poly_div_exact`` would
        divide through the cached series (small systems use schoolbook)."""
        import random

        from repro.apps import MATMUL
        from repro.poly.divide import _NEWTON_CUTOFF

        prog = MATMUL.compile(gold, {"m": 4})
        qap = build_qap(prog.quadratic)
        assert qap.m >= _NEWTON_CUTOFF
        rng = random.Random(7)
        inputs = MATMUL.generate_inputs(rng, {"m": 4})
        return prog, qap, inputs

    def test_series_cached_and_correct(self, big_qap, gold):
        from repro.poly import poly_mul, trim
        from repro.poly.divide import _series_inverse

        _, qap, _ = big_qap
        inv = qap.divisor_inverse_series()
        assert qap.divisor_inverse_series() is inv
        assert len(inv) == qap.h_length
        fresh = _series_inverse(
            gold, list(reversed(qap.divisor_poly)), qap.h_length
        )
        assert trim(list(inv)) == trim(fresh)
        # rev(D) · inv ≡ 1 (mod t^h_length)
        prod = poly_mul(gold, list(reversed(qap.divisor_poly)), inv)
        assert trim(prod[: qap.h_length]) == [1]

    def test_compute_h_bit_identical_to_uncached(self, big_qap):
        """The per-QAP caches must change nothing — same h, instance
        after instance, as a fresh uncached QAP."""
        prog, qap, inputs = big_qap
        w = prog.solve(inputs).quadratic_witness
        h_first = compute_h(qap, w)  # builds the QAP's caches
        h_again = compute_h(qap, w)  # uses them
        assert h_again == h_first
        fresh_qap = build_qap(prog.quadratic)
        assert compute_h(fresh_qap, w) == h_first

    def test_plan_hits_after_first_instance(self, big_qap, monkeypatch):
        """The first instance builds the per-QAP H tables, Newton levels
        included; the second builds nothing, so it does exactly the work
        of every later instance."""
        from repro import telemetry
        from repro.qap import qap as qap_module

        real_levels = qap_module.newton_levels
        level_builds = []

        def counted_levels(*args):
            level_builds.append(args)
            return real_levels(*args)

        monkeypatch.setattr(qap_module, "newton_levels", counted_levels)
        prog, _, inputs = big_qap
        qap = build_qap(prog.quadratic)  # fresh: nothing warm
        w = prog.solve(inputs).quadratic_witness
        work, builds, built = [], [], []
        tracer = telemetry.enable()
        try:
            for _ in range(3):
                before = dict(tracer.total_counters())
                with telemetry.span("instance"):
                    compute_h(qap, w)
                after = tracer.total_counters()
                work.append(
                    {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
                )
                builds.append(len(level_builds))
                built.append(set(vars(qap)))
        finally:
            telemetry.disable()
        first, second, third = work
        n = qap.h_length
        assert builds == [1, 1, 1] and level_builds == [(qap.field, n, n)]
        assert "h_tables" in built[0] and built[0] == built[1] == built[2]
        assert len(qap.h_tables.levels) == (n - 1).bit_length()
        assert "subproduct_tree" not in built[2]  # the prover never reads it
        assert first != second  # the table build's own work
        assert second == third
        assert second.get("poly.plan_misses", 0) == 0

    def test_small_systems_skip_series_path(self, sumsq_program):
        """The prover never populates the divisor-inverse cache."""
        from repro.poly.divide import _NEWTON_CUTOFF

        qap = build_qap(sumsq_program.quadratic)
        assert qap.m < _NEWTON_CUTOFF
        sol = sumsq_program.solve([1, 2, 3])
        compute_h(qap, sol.quadratic_witness)
        assert qap._divisor_inverse is None
