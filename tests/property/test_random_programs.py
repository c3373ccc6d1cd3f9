"""Whole-pipeline property test: random programs, compiled and verified.

Hypothesis generates random straight-line programs over a small
instruction set (arithmetic, comparisons, selects, equality tests),
executes them in plain Python as the ground truth, compiles them, and
checks: (a) witness solving matches the interpreter, (b) the honest
QAP proof passes the divisibility check, (c) the §4 transform and the
Figure-9 identities hold.  This is the compiler's strongest safety
net — every gadget interacts with every other here.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler import (
    check_program,
    compile_program,
    is_equal,
    less_than,
    maximum,
    minimum,
    select,
)
from repro.constraints import split_assignment
from repro.field import GOLDILOCKS, PrimeField
from repro.qap import (
    build_proof_vector,
    build_qap,
    circuit_queries,
    divisibility_check,
    instance_scalars,
)

FIELD = PrimeField(GOLDILOCKS, check_prime=False)
WIDTH = 12
BOUND = 1 << (WIDTH - 2)

#: each op: (name, arity); values stay within [0, BOUND) via mod
OPS = ["add", "sub", "mul", "min", "max", "lt", "eq", "select"]


@st.composite
def programs(draw):
    num_inputs = draw(st.integers(min_value=1, max_value=4))
    num_steps = draw(st.integers(min_value=1, max_value=8))
    steps = []
    for idx in range(num_steps):
        op = draw(st.sampled_from(OPS))
        pool = num_inputs + idx  # earlier values usable
        a = draw(st.integers(min_value=0, max_value=pool - 1))
        b = draw(st.integers(min_value=0, max_value=pool - 1))
        c = draw(st.integers(min_value=0, max_value=pool - 1))
        steps.append((op, a, b, c))
    inputs = [
        draw(st.integers(min_value=0, max_value=BOUND - 1))
        for _ in range(num_inputs)
    ]
    return num_inputs, steps, inputs


def interpret(steps, inputs):
    """Ground-truth executor with the same wrap-around semantics."""
    values = list(inputs)
    for op, a, b, c in steps:
        x, y, z = values[a], values[b], values[c]
        if op == "add":
            out = (x + y) % BOUND
        elif op == "sub":
            out = (x - y) % BOUND
        elif op == "mul":
            out = (x * y) % BOUND
        elif op == "min":
            out = min(x, y)
        elif op == "max":
            out = max(x, y)
        elif op == "lt":
            out = int(x < y)
        elif op == "eq":
            out = int(x == y)
        elif op == "select":
            out = y if x % 2 else z  # condition from x's parity
        else:  # pragma: no cover
            raise AssertionError(op)
        values.append(out)
    return values[-1]


def build_from(num_inputs, steps):
    def build(b):
        wires = b.inputs(num_inputs)
        from repro.compiler import to_bits

        def wrap(w):
            """Reduce mod BOUND via decomposition (keeps ranges bounded)."""
            bits = to_bits(b, w, 2 * WIDTH)
            acc = b.constant(0)
            for i in range(WIDTH - 2):
                acc = acc + bits[i] * (1 << i)
            return b.define(acc)

        values = list(wires)
        for op, ai, bi, ci in steps:
            x, y, z = values[ai], values[bi], values[ci]
            if op == "add":
                out = wrap(x + y)
            elif op == "sub":
                out = wrap(x - y + BOUND)  # shift into non-negative range
            elif op == "mul":
                out = wrap(x * y)
            elif op == "min":
                out = minimum(b, x, y, bit_width=WIDTH)
            elif op == "max":
                out = maximum(b, x, y, bit_width=WIDTH)
            elif op == "lt":
                out = less_than(b, x, y, bit_width=WIDTH)
            elif op == "eq":
                out = is_equal(b, x, y)
            elif op == "select":
                from repro.compiler import to_bits as tb

                parity = tb(b, x, WIDTH)[0]
                out = select(b, parity, y, z)
            values.append(b.define(out) if not isinstance(out, int) else b.constant(out))
        b.output(values[-1])

    return build


@settings(max_examples=25, deadline=None)
@given(programs())
def test_random_program_pipeline(data):
    num_inputs, steps, inputs = data
    prog = compile_program(FIELD, build_from(num_inputs, steps))
    sol = prog.solve(inputs)  # check=True verifies both systems
    expected = interpret(steps, inputs)
    assert sol.output_values == [expected], (steps, inputs)

    # honest QAP proof passes the divisibility check at a random-ish τ
    qap = build_qap(prog.quadratic)
    proof = build_proof_vector(qap, sol.quadratic_witness)
    tau = (hash((tuple(inputs), len(steps))) % (FIELD.p - qap.m - 2)) + qap.m + 1
    queries = circuit_queries(qap, tau)
    z, x, y = split_assignment(prog.quadratic, sol.quadratic_witness)
    scalars = instance_scalars(qap, queries, x, y)
    assert divisibility_check(
        FIELD,
        queries,
        scalars,
        FIELD.inner_product(queries.qa, proof.z),
        FIELD.inner_product(queries.qb, proof.z),
        FIELD.inner_product(queries.qc, proof.z),
        FIELD.inner_product(queries.qd, proof.h),
    )

    # Figure-9 identities
    stats = prog.stats()
    assert stats.z_zaatar == stats.z_ginger + stats.k2_terms
    assert stats.c_zaatar == stats.c_ginger + stats.k2_terms


@settings(max_examples=10, deadline=None)
@given(programs())
def test_random_program_survives_differential_check(data):
    """Every random program runs through the full differential checker:
    semantics oracle against the interpreter, unsat-witness probes on
    the honest witness (no free output wires), and one seeded compiler
    mutation of each kind — all must be killed."""
    num_inputs, steps, inputs = data
    prog = compile_program(FIELD, build_from(num_inputs, steps))
    report = check_program(
        prog,
        reference=lambda v: [interpret(steps, v)],
        input_generator=lambda rng: [
            rng.randrange(BOUND) for _ in range(num_inputs)
        ],
        seed=17,
        num_random=3,
        mutations_per_kind=1,
    )
    assert report.oracle["failed"] == 0, report.oracle["failures"]
    assert report.probes["output_survivors"] == [], report.probes
    assert report.mutations["kill_rate"] == 1.0, report.mutations["results"]
    assert report.passed


@settings(max_examples=15, deadline=None)
@given(programs(), st.integers(min_value=1, max_value=10**6))
def test_random_program_rejects_wrong_output(data, delta):
    num_inputs, steps, inputs = data
    prog = compile_program(FIELD, build_from(num_inputs, steps))
    sol = prog.solve(inputs)
    qap = build_qap(prog.quadratic)
    proof = build_proof_vector(qap, sol.quadratic_witness)
    bad_y = [(sol.y[0] + delta) % FIELD.p]
    if bad_y == sol.y:
        return
    tau = (delta * 7919) % (FIELD.p - qap.m - 2) + qap.m + 1
    queries = circuit_queries(qap, tau)
    scalars = instance_scalars(qap, queries, sol.x, bad_y)
    assert not divisibility_check(
        FIELD,
        queries,
        scalars,
        FIELD.inner_product(queries.qa, proof.z),
        FIELD.inner_product(queries.qb, proof.z),
        FIELD.inner_product(queries.qc, proof.z),
        FIELD.inner_product(queries.qd, proof.h),
    )
