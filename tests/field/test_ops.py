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
