"""Opt-in field-operation counting for telemetry.

``PrimeField`` itself stays uninstrumented so the protocol hot loops
pay zero overhead when nobody is measuring (the zero-overhead guard
test enforces this).  When a run *should* count field work — the
``repro trace`` subcommand, the benchmark harness — it compiles the
program against a :class:`CountingField`, whose arithmetic reports
``field.*`` counters to the innermost active telemetry span.  What each
op charges is its row's cost in the op table (``repro.field.ops``).

Counter names (see docs/OBSERVABILITY.md):

======================  ====================================================
``field.mul``           multiplications (the cost-model parameter ``f``),
                        including each product inside an inner product
``field.add``           additions/subtractions/negations
``field.div``           divisions (``f_div``); each costs one inversion
``field.inv``           modular inversions (including batch_inv's single one)
``field.pow``           modular exponentiations
======================  ====================================================
"""

from __future__ import annotations

from .. import telemetry
from .ops import FieldOp, derive
from .prime_field import PrimeField, twin


def _counted(op: FieldOp, base):
    """``base`` preceded by charging the row's cost to telemetry."""
    cost = op.cost
    if cost is None:

        def method(self, *args, **kwargs):
            return None

    elif callable(cost):

        def method(self, *args, **kwargs):
            for name, amount in cost(*args, **kwargs).items():
                telemetry.count(name, amount)
            return base(self, *args, **kwargs)

    else:
        charges = tuple(cost.items())

        def method(self, *args, **kwargs):
            for name, amount in charges:
                telemetry.count(name, amount)
            return base(self, *args, **kwargs)

    return method


@derive(_counted)
class CountingField(PrimeField):
    """A ``PrimeField`` whose operations report telemetry counters.

    Equality and hashing are inherited (by modulus), so a counting
    field interoperates with caches and cross-checks against the plain
    field it wraps.
    """

    __slots__ = ()


def counting_field(base: PrimeField) -> CountingField:
    """A counting twin of ``base`` (same modulus, name, NTT structure)."""
    return twin(CountingField, base)
