"""Backend selection, degradation, and counting semantics.

The parity suite (tests/property/test_backend_parity.py) proves the
kernels compute identical values; this module covers the dispatch
machinery around them: how a backend is chosen (argument > env var >
auto), how a numpy request degrades when numpy is absent, how twin
fields (checked/counting) inherit the base field's backend, and that
``CountingField`` reports identical ``field.*`` op counts under every
backend (the Figure 5 tables must not depend on kernel choice).
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.field import (
    BACKEND_ENV_VAR,
    GOLDILOCKS,
    HAVE_NUMPY,
    P128,
    NumpyBackend,
    PrimeField,
    ScalarBackend,
    checked_field,
    counting_field,
    resolve_backend,
)
from repro.field import backend as backend_module
from repro.field.ops import ELEM, OPS, OTHER, ROWS, VEC
from repro.poly import get_ntt_plan
from repro.poly.ntt import intt, ntt


def _gold(**kwargs) -> PrimeField:
    return PrimeField(GOLDILOCKS, check_prime=False, **kwargs)


class TestSelection:
    def test_explicit_scalar(self):
        assert isinstance(_gold(backend="scalar").backend, ScalarBackend)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent")
    def test_explicit_numpy(self):
        assert isinstance(_gold(backend="numpy").backend, NumpyBackend)

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        expected = NumpyBackend if HAVE_NUMPY else ScalarBackend
        assert isinstance(_gold().backend, expected)

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
        assert isinstance(_gold().backend, ScalarBackend)

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
        expected = NumpyBackend if HAVE_NUMPY else ScalarBackend
        assert isinstance(_gold(backend="auto").backend, expected)

    def test_backend_instance_passes_through(self):
        shared = _gold(backend="scalar").backend
        assert _gold(backend=shared).backend is shared

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown field backend"):
            _gold(backend="cuda")

    def test_backends_cached_per_modulus(self):
        assert _gold(backend="scalar").backend is _gold(backend="scalar").backend


class TestDegradation:
    def test_numpy_request_degrades_with_warning(self, monkeypatch):
        monkeypatch.setattr(backend_module, "HAVE_NUMPY", False)
        monkeypatch.setattr(backend_module, "_warned_missing_numpy", False)
        with pytest.warns(RuntimeWarning, match="degrading to the scalar backend"):
            backend = resolve_backend("numpy", GOLDILOCKS.modulus)
        assert isinstance(backend, ScalarBackend)

    def test_warning_fires_once(self, monkeypatch):
        import warnings

        monkeypatch.setattr(backend_module, "HAVE_NUMPY", False)
        monkeypatch.setattr(backend_module, "_warned_missing_numpy", False)
        with pytest.warns(RuntimeWarning):
            resolve_backend("numpy", GOLDILOCKS.modulus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_backend("numpy", GOLDILOCKS.modulus)

    def test_auto_without_numpy_is_silent(self, monkeypatch):
        import warnings

        monkeypatch.setattr(backend_module, "HAVE_NUMPY", False)
        monkeypatch.setattr(backend_module, "_warned_missing_numpy", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = resolve_backend("auto", GOLDILOCKS.modulus)
        assert isinstance(backend, ScalarBackend)


class TestTwins:
    def test_checked_field_inherits_backend(self):
        base = _gold(backend="scalar")
        assert checked_field(base).backend is base.backend

    def test_counting_field_inherits_backend(self):
        base = _gold(backend="scalar")
        assert counting_field(base).backend is base.backend

    def test_checked_field_still_rejects_noncanonical_vectors(self):
        """One bad entry in any vector or row operand of any table op
        raises before the op runs (operands that are not field elements,
        such as plans and flags, are never inspected)."""
        chk = checked_field(_gold())
        good = list(range(64))
        bad = [-1] + good[1:]
        fill = {ELEM: 1, VEC: good, ROWS: [good, good], OTHER: None}
        probed = set()
        for op in OPS:
            for i, kind in enumerate(op.operands):
                if kind not in (VEC, ROWS):
                    continue
                args = [fill[k] for k in op.operands]
                args[i] = bad if kind == VEC else [good, bad]
                with pytest.raises(ValueError, match="non-canonical"):
                    getattr(chk, op.name)(*args)
                probed.add(op.name)
        assert {"inner_product", "transform", "mat_transform", "mat_polymul"} <= probed
        # operands passed by keyword are checked too
        with pytest.raises(ValueError, match="non-canonical"):
            chk.mat_transform(None, rows=[good, bad])


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent")
class TestNumpyDispatch:
    def test_small_vectors_delegate_to_scalar(self):
        field = _gold(backend="numpy")
        n = NumpyBackend.MIN_VECTOR - 1
        a, b = list(range(n)), list(range(n, 2 * n))
        tracer = telemetry.enable()
        try:
            with telemetry.span("t"):
                field.vec_add(a, b)
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert totals.get("backend.scalar.calls") == 1
        assert "backend.numpy.calls" not in totals

    def test_large_vectors_hit_numpy_kernel(self):
        field = _gold(backend="numpy")
        n = NumpyBackend.MIN_VECTOR
        a = list(range(n))
        tracer = telemetry.enable()
        try:
            with telemetry.span("t"):
                field.vec_add(a, a)
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert totals.get("backend.numpy.calls") == 1
        assert totals.get("backend.numpy.elements") == n

    def test_results_are_plain_ints(self):
        field = _gold(backend="numpy")
        a = list(range(NumpyBackend.MIN_VECTOR))
        b = list(range(1, NumpyBackend.MIN_BATCH_INV + 1))
        c = b[: NumpyBackend.MIN_INNER_PRODUCT]
        tracer = telemetry.enable()
        try:
            with telemetry.span("t"):
                values = (
                    field.vec_add(a, a)
                    + [field.inner_product(c, c)]
                    + field.batch_inv(b)
                    + field.vec_lincomb(c, [3], [c])
                )
        finally:
            telemetry.disable()
        # every op above reached the uint64 kernel
        assert tracer.total_counters().get("backend.numpy.calls") == 4
        for value in values:
            assert type(value) is int

    def test_uint64_cutoffs_count_every_row(self):
        """A Goldilocks transform stack reaches the uint64 kernel from
        ``MIN_NTT_U64`` points over all its rows, whatever each row's
        length, and ``mat_vec`` from ``MIN_MAT_VEC`` elements; below,
        the scalar kernels run."""
        field = _gold(backend="numpy")
        half = NumpyBackend.MIN_NTT_U64 // 2
        plan = get_ntt_plan(field, half)
        row = [(7 * j + 1) % field.p for j in range(half)]
        width = NumpyBackend.MIN_MAT_VEC // 8
        rows = [[(i + j) % field.p for j in range(width)] for i in range(8)]
        cases = [
            (lambda: field.transform(plan, list(row)), "scalar"),
            (lambda: field.mat_transform(plan, [row]), "scalar"),
            (lambda: field.mat_transform(plan, [row, row]), "numpy"),
            (lambda: field.mat_vec(rows[:7], rows[0]), "scalar"),
            (lambda: field.mat_vec(rows, rows[0]), "numpy"),
        ]
        for run, backend in cases:
            tracer = telemetry.enable()
            try:
                with telemetry.span("t"):
                    run()
            finally:
                telemetry.disable()
            totals = tracer.total_counters()
            ran = {key.split(".")[1] for key in totals if key.startswith("backend.")}
            assert ran == {backend}

    def test_mat_kernels_tick_batch_counters(self):
        field = _gold(backend="numpy")
        rows = [[(i * j + 1) % field.p for j in range(64)] for i in range(4)]
        tracer = telemetry.enable()
        try:
            with telemetry.span("t"):
                field.mat_add(rows, rows)
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert totals.get("backend.numpy.batch_calls") == 1
        assert totals.get("backend.numpy.batch_rows") == 4
        assert totals.get("backend.numpy.elements") == 256

    def test_scratch_publish_is_single_build_under_threads(self):
        """Satellite regression: concurrent first-touch of one plan's
        cached twiddle scratch must publish exactly one dict (setdefault
        discipline) — racing threads used to overwrite each other's
        arrays mid-transform."""
        import threading

        from repro.poly import get_ntt_plan

        field = _gold(backend="numpy")
        kernel = field.backend.kernel
        plan = get_ntt_plan(field, 256)
        plan.np_scratch.pop("u64", None)  # force a fresh first touch
        n_threads = 16
        results: list = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def work(slot: int) -> None:
            barrier.wait()
            results[slot] = kernel._scratch(plan)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)
        assert plan.np_scratch["u64"] is results[0]


def _counting_workload(backend_name: str) -> dict[str, float]:
    """A fixed batch-shaped workload; returns its field.* counter totals."""
    field = counting_field(_gold(backend=backend_name))
    n = 64
    a = [(i * 17 + 3) % field.p for i in range(n)]
    b = [(i * 29 + 7) % field.p for i in range(1, n + 1)]
    tracer = telemetry.enable()
    try:
        with telemetry.span("workload"):
            field.vec_add(a, b)
            field.vec_scale(5, a)
            field.vec_lincomb(a, [5], [b])
            field.hadamard(a, b)
            field.inner_product(a, b)
            field.batch_inv(b)
            intt(field, ntt(field, a))
    finally:
        telemetry.disable()
    return {
        k: v for k, v in tracer.total_counters().items() if k.startswith("field.")
    }


def _counting_mat_workload(backend_name: str) -> dict[str, float]:
    """The 2-D ops the batched prover runs, on a 4 × 64 matrix."""
    field = counting_field(_gold(backend=backend_name))
    n = 64
    rows_a = [[(i * 17 + j * 5 + 3) % field.p for i in range(n)] for j in range(4)]
    rows_b = [[(i * 29 + j * 3 + 7) % field.p for i in range(n)] for j in range(4)]
    plan = get_ntt_plan(field, n)
    tracer = telemetry.enable()
    try:
        with telemetry.span("workload"):
            field.mat_add(rows_a, rows_b)
            field.mat_sub(rows_a, rows_b)
            field.mat_hadamard(rows_a, rows_b)
            field.mat_transform(plan, field.mat_transform(plan, rows_a), invert=True)
    finally:
        telemetry.disable()
    return {
        k: v for k, v in tracer.total_counters().items() if k.startswith("field.")
    }


class TestCountingBackendIndependence:
    """CountingField counts per element by the canonical algorithm, so the
    Figure 5 op tables are identical no matter which kernels execute."""

    # n=64 workload above: adds = 64*2 (add/lincomb)
    #   + 64 (inner) + 64*6*2 (two transforms, n·log2 n each) = 960
    # muls = 64*3 (scale/lincomb/hadamard) + 64 (inner) + 3*64 (batch_inv)
    #   + 32*6*2 (transform butterflies) + 64 (fused n⁻¹) = 896
    EXPECTED = {"field.add": 960.0, "field.mul": 896.0, "field.inv": 1.0}

    # 4 × 64 matrix workload: adds = 256*2 (mat_add/mat_sub)
    #   + 4*64*6*2 (two stacked transforms) = 3584
    # muls = 256 (mat_hadamard) + 4*32*6*2 (butterflies) + 4*64 (n⁻¹) = 2048
    EXPECTED_MAT = {"field.add": 3584.0, "field.mul": 2048.0}

    def test_scalar_counts_match_closed_form(self):
        assert _counting_workload("scalar") == self.EXPECTED

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent")
    def test_counts_identical_across_backends(self):
        assert _counting_workload("scalar") == _counting_workload("numpy")

    def test_scalar_mat_counts_match_closed_form(self):
        assert _counting_mat_workload("scalar") == self.EXPECTED_MAT

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent")
    def test_mat_counts_identical_across_backends(self):
        assert _counting_mat_workload("numpy") == self.EXPECTED_MAT

    @pytest.mark.parametrize("backend_name", ["scalar", "numpy"])
    def test_mat_polymul_declines_under_counting(self, backend_name):
        """The CRT product has no canonical cost, so counted runs must
        take the transform route: the counting twin returns None even
        where the plain field has the fast path (p128 on numpy)."""
        base = PrimeField(P128, check_prime=False, backend=backend_name)
        rows = [[1, 2, 3], [4, 5, 6]]
        tracer = telemetry.enable()
        try:
            with telemetry.span("workload"):
                assert counting_field(base).mat_polymul(rows, rows) is None
        finally:
            telemetry.disable()
        assert not any(k.startswith("field.") for k in tracer.total_counters())
        if backend_name == "numpy" and HAVE_NUMPY:
            assert base.mat_polymul(rows, rows) is not None
