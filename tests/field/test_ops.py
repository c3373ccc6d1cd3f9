"""The field-op table is complete, and both twins derive from it exactly.

``CheckedPrimeField`` and ``CountingField`` get their overrides from
``repro.field.ops.OPS``.  An arithmetic method added to ``PrimeField``
without a row would run unchecked and uncounted on the twins, so these
tests fail until the row exists.
"""

import inspect

import pytest

from repro.field import (
    GOLDILOCKS,
    CheckedPrimeField,
    CountingField,
    PrimeField,
    checked_field,
)
from repro.field.ops import OPS, parameters

#: public PrimeField methods that are not field arithmetic
NON_ARITHMETIC = {
    "named",
    "bits",
    "reduce",
    "from_signed",
    "to_signed",
    "two_adic_generator",
    "root_of_unity",
}


def _public_methods(cls) -> set[str]:
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and (
            inspect.isfunction(member)
            or isinstance(member, (classmethod, staticmethod, property))
        )
    }


def test_every_arithmetic_method_has_a_row():
    rows = [op.name for op in OPS]
    assert len(rows) == len(set(rows)), "duplicate table rows"
    assert _public_methods(PrimeField) - NON_ARITHMETIC == set(rows)


def test_rows_match_signatures():
    """Operand kinds cover every parameter, and a size-dependent cost
    takes the method's own parameters (keyword calls bind by name)."""
    for op in OPS:
        names = parameters(getattr(PrimeField, op.name))
        assert len(op.operands) == len(names), op.name
        if callable(op.cost):
            assert list(inspect.signature(op.cost).parameters) == names, op.name


@pytest.mark.parametrize("twin", [CheckedPrimeField, CountingField])
def test_twins_override_exactly_the_table(twin):
    assert _public_methods(twin) == {op.name for op in OPS}
    for op in OPS:
        assert getattr(twin, op.name) is not getattr(PrimeField, op.name)
        assert getattr(twin, op.name).__doc__ == getattr(PrimeField, op.name).__doc__


def test_checked_twin_skips_operands_that_are_not_elements():
    """An exponent is not a field element, so it may exceed p."""
    base = PrimeField(GOLDILOCKS, check_prime=False)
    checked = checked_field(base)
    assert checked.pow(3, base.p + 5) == base.pow(3, base.p + 5)


def test_lincomb_is_charged_per_row_and_column():
    """t = r + Σ αᵢ·qᵢ costs what μ one-row multiply-adds of length n
    cost: μ·n ``field.mul`` and μ·n ``field.add``, on either backend."""
    from repro import telemetry
    from repro.field import HAVE_NUMPY, counting_field

    mu, n = 56, 666
    for backend in ("scalar", "numpy") if HAVE_NUMPY else ("scalar",):
        field = counting_field(PrimeField(GOLDILOCKS, check_prime=False, backend=backend))
        rows = [[(i * n + j) % field.p for j in range(n)] for i in range(mu)]
        tracer = telemetry.enable()
        try:
            with telemetry.span("t"):
                t = field.vec_lincomb(list(range(n)), list(range(1, mu + 1)), rows)
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert totals["field.mul"] == mu * n and totals["field.add"] == mu * n
        assert t == PrimeField(GOLDILOCKS, check_prime=False).vec_lincomb(
            list(range(n)), list(range(1, mu + 1)), rows
        )


def test_checked_lincomb_rejects_a_noncanonical_coefficient_or_row():
    checked = checked_field(PrimeField(GOLDILOCKS, check_prime=False))
    p = checked.p
    a, row = [1, 2], [3, 4]
    assert checked.vec_lincomb(a, [p - 1], [row]) == [(1 - 3) % p, (2 - 4) % p]
    for coeffs, rows in (([p], [row]), ([-1], [row]), ([1], [[3, p]]), ([1, 1], [row, [-4, 0]])):
        with pytest.raises(ValueError, match="non-canonical"):
            checked.vec_lincomb(a, coeffs, rows)
    with pytest.raises(ValueError, match="non-canonical"):
        checked.vec_lincomb([p, 0], [1], [row])
