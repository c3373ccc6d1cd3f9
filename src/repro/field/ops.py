"""The field-op table: every ``PrimeField`` arithmetic op, declared once.

The paper prices Zaatar in field operations (§5.1's ``f``, ``f_lazy``
and ``f_div``), and the Figure 5 op counts come from charging each op
its canonical cost.  This table is where that accounting lives.  Each
row names one arithmetic method of :class:`~repro.field.PrimeField`
and gives

* the kind of each of its parameters: a field element (:data:`ELEM`),
  a vector of them (:data:`VEC`), a list of rows (:data:`ROWS`), or
  something that is not a field element (:data:`OTHER`: an exponent,
  an NTT plan, a direction flag); and
* the ``field.*`` counters one call charges.  The charge follows the
  canonical algorithm, never what a backend happens to execute, so the
  op tables are identical under every backend.  Fixed charges are a
  mapping; size-dependent ones a function of the call's arguments,
  with the method's parameter names.  ``None`` marks an optional fast
  path with no canonical cost: its callers accept a ``None`` result,
  and the counting twin declines it so counted runs take the route it
  replaces.

``PrimeField`` itself is hand-written: it is the hot path and carries
no instrumentation.  Its twins derive every override from this table
through :func:`derive` — ``CheckedPrimeField`` checks each row's
element operands, ``CountingField`` charges each row's cost — so an op
cannot skip checking or counting.  ``tests/field/test_ops.py`` checks
that every public arithmetic method of ``PrimeField`` has a row.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Mapping

#: one field element
ELEM = "elem"
#: a sequence of field elements
VEC = "vec"
#: a sequence of rows, each a sequence of field elements
ROWS = "rows"
#: not a field element (an exponent, an NTT plan, a flag)
OTHER = "other"


@dataclass(frozen=True)
class FieldOp:
    """One row of the table (see the module docs)."""

    name: str
    operands: tuple[str, ...]
    cost: Mapping[str, int] | Callable[..., Mapping[str, int]] | None


def _elems(rows) -> int:
    return sum(len(row) for row in rows)


def _transform_cost(plan, invert: bool, batch: int) -> dict[str, int]:
    """``batch`` size-n radix-2 NTTs: (n/2)·log₂n muls and n·log₂n adds
    each, plus n muls for the inverse's fused n⁻¹ scaling."""
    n = plan.n
    levels = n.bit_length() - 1
    return {
        "field.mul": batch * ((n >> 1) * levels + (n if invert else 0)),
        "field.add": batch * n * levels,
    }


OPS: tuple[FieldOp, ...] = (
    FieldOp("add", (ELEM, ELEM), {"field.add": 1}),
    FieldOp("sub", (ELEM, ELEM), {"field.add": 1}),
    FieldOp("neg", (ELEM,), {"field.add": 1}),
    FieldOp("mul", (ELEM, ELEM), {"field.mul": 1}),
    FieldOp("mul_lazy", (ELEM, ELEM), {"field.mul": 1}),
    FieldOp("pow", (ELEM, OTHER), {"field.pow": 1}),
    FieldOp("inv", (ELEM,), {"field.inv": 1}),
    FieldOp("div", (ELEM, ELEM), {"field.div": 1}),
    # 1-D ops: charged per element
    FieldOp(
        "inner_product",
        (VEC, VEC),
        lambda a, b: {"field.mul": len(a), "field.add": len(a)},
    ),
    # Montgomery's trick: 3n muls and one real inversion
    FieldOp(
        "batch_inv",
        (VEC,),
        lambda values: {"field.mul": 3 * len(values), "field.inv": 1},
    ),
    FieldOp("vec_add", (VEC, VEC), lambda a, b: {"field.add": len(a)}),
    FieldOp("vec_scale", (ELEM, VEC), lambda c, a: {"field.mul": len(a)}),
    # a + Σ cᵢ·rowsᵢ: one multiply-add per row and column
    FieldOp(
        "vec_lincomb",
        (VEC, VEC, ROWS),
        lambda a, coeffs, rows: {
            "field.mul": len(rows) * len(a),
            "field.add": len(rows) * len(a),
        },
    ),
    FieldOp("hadamard", (VEC, VEC), lambda a, b: {"field.mul": len(a)}),
    # one inner product per row
    FieldOp(
        "mat_vec",
        (ROWS, VEC),
        lambda rows, v: {
            "field.mul": len(rows) * len(v),
            "field.add": len(rows) * len(v),
        },
    ),
    FieldOp(
        "transform",
        (OTHER, VEC, OTHER),
        lambda plan, values, invert=False: _transform_cost(plan, invert, 1),
    ),
    # 2-D ops: B stacked rows cost B × the 1-D op, whether a backend
    # runs them as one array program or row by row
    FieldOp("mat_add", (ROWS, ROWS), lambda a, b: {"field.add": _elems(a)}),
    FieldOp("mat_sub", (ROWS, ROWS), lambda a, b: {"field.add": _elems(a)}),
    FieldOp("mat_hadamard", (ROWS, ROWS), lambda a, b: {"field.mul": _elems(a)}),
    FieldOp(
        "mat_transform",
        (OTHER, ROWS, OTHER),
        lambda plan, rows, invert=False: _transform_cost(plan, invert, len(rows)),
    ),
    # the fast products' residue-plane, fused-transform and object-array
    # op mixes have no canonical field.* cost
    FieldOp("mat_polymul", (ROWS, ROWS, OTHER, OTHER), None),
    FieldOp("mat_schoolbook", (ROWS, ROWS), None),
)


def parameters(method) -> list[str]:
    """A method's parameter names after ``self``."""
    return list(inspect.signature(method).parameters)[1:]


def derive(wrap: Callable[[FieldOp, Callable], Callable]):
    """Class decorator: override every table op with ``wrap(op, base)``.

    ``base`` is the decorated class's parent implementation, which the
    override calls through to.  The override keeps its name and docs.
    """

    def decorate(cls: type) -> type:
        for op in OPS:
            base = getattr(cls.__base__, op.name)
            method = wrap(op, base)
            method.__name__ = op.name
            method.__qualname__ = f"{cls.__name__}.{op.name}"
            method.__doc__ = base.__doc__
            setattr(cls, op.name, method)
        return cls

    return decorate
