"""Kernel-plan microbench: cached NTT/division/interpolation vs cold.

Not a paper figure — this bench guards the kernel-plan layer added in
docs/PERFORMANCE.md: precomputed NTT plans, the batch-amortized divisor
inverse, and subproduct-tree reuse must (a) stay bit-identical to the
from-scratch reference kernels and (b) never be slower than them.  The
``--check`` flag turns (a) and (b) into hard failures, which is what
the CI ``kernel-bench`` job runs; the JSON artifact lands in
``benchmarks/out/BENCH_kernels.json``.

It also sweeps the field-arithmetic backends (``repro.field.backend``):
scalar vs numpy on NTT round-trips, elementwise products, inner
products and batch inversions over the 64-bit field, at
``BACKEND_SMALL_SIZES``, ``BACKEND_CROSSOVER_SIZES`` and sizes
bracketing ``--size``, alternating the two backends.  Under ``--check``
the backends must agree bit-for-bit and the numpy NTT must beat scalar
at sizes >= 2^12; the sweep lands in
``benchmarks/out/BENCH_backends.json``.

It exercises the batch-axis prover path on the 128-bit modulus
(``benchmarks/out/BENCH_batch.json``): the batched roots-mode H(t)
pipeline must stay bit-identical to the per-row route, and the CRT
residue-plane product must beat the object-dtype stacked-NTT route it
replaces by ``BATCH_MIN_SPEEDUP`` on the fixed gate shape, the two
routes alternating, best of at least ``BATCH_MIN_REPS`` each.  Its
arithmetic-mode row times ``compute_h_batch`` (H built from
evaluations) against the paper's route — interpolate three times,
multiply, divide — kept as the test oracle
(``tests/qap/h_oracle.py``), on LCS m=4 over p128 at B =
``H_GATE_BATCH``.  Under ``--check`` every row must be identical and
the pipeline must beat the oracle by ``H_MIN_SPEEDUP``.  Its Newton row
times the pipeline's interpolation step alone at the same shape:
``mat_interpolate_newton`` against the route it replaced, per-row
``SubproductTree.interpolate`` plus a Taylor shift
(``h_oracle.TreeShiftInterpolator``).  Under ``--check`` the rows must
be identical and Newton must win by ``NEWTON_MIN_SPEEDUP``.  Its
fixed-operand rows time H(t)'s extension step (the stacked 3B rows by
the kernel 1/l, middle columns kept) at p128 B = 8 and Goldilocks
B = 1: the product against a pre-transformed ``FixedOperand`` against
the two-operand product it replaced.  Under ``--check`` the rows must
be identical and the fixed operand must win by ``FIXED_MIN_SPEEDUP``.

Its commitment section times the verifier's Enc(r) at
n ∈ ``COMMIT_SIZES`` on the 512-bit groups: the per-element ``pow``
oracle (``tests/crypto/pow_oracle.py``) against
``ElGamalKeypair.encrypt_vector`` (two generator-table reads per
element, using the secret key).  Under ``--check`` the ciphertexts
must be equal and the kernel must beat the oracle by
``COMMIT_MIN_SPEEDUP`` at n = ``COMMIT_GATE_N``.  Its fold section
times the prover's fold ∏ Enc(r_i)^{u_i} on each of ``FOLD_GROUPS``,
with dense weights at n ∈ ``FOLD_SIZES`` and with real proof vectors:
LCS m = 4 on every group, and on ``FOLD_CROSSOVER_GROUP`` each of
``FOLD_APP_VECTORS``, built as the figure benches build them.  It
times ``repro.crypto.multiexp``'s Bos–Coster and Pippenger routes,
alternating, and the ``pow`` oracle up to ``FOLD_ORACLE_MAX_N``.
Under ``--check`` every route's pair must be equal, the fold must
beat the oracle by ``COMMIT_MIN_SPEEDUP`` at n = ``COMMIT_GATE_N`` on
dense weights, and on ``FOLD_CROSSOVER_GROUP``'s real vectors the
route on each side of ``PIPPENGER_MIN_TERMS`` may take at most
``CROSSOVER_MARGIN`` times the other's time.  Its decryption rows
time ``DECRYPT_COUNT`` decryptions on each of ``DECRYPT_GROUPS``: the oracle's
c2 · c1^(P−1−x) against ``ElGamalKeypair.decrypt_to_group``'s
c2 · (c1⁻¹)^x.  Under ``--check`` the group elements must be equal and
the key holder's route must win by ``COMMIT_MIN_SPEEDUP``; the rows
land in ``BENCH_kernels.json``.

Its keystream section times ChaCha20 keystream generation at the
block counts in ``KEYSTREAM_BLOCKS``, the three routes alternating: the
RFC 8439 per-block loop (``tests/crypto/chacha_oracle.py``), the
packed-int route ``chacha20_packed`` and the numpy kernel
``chacha20_blocks``, from a counter that wraps past 2^32 inside the
longer reads.  Under ``--check`` the bytes must be identical at every
count, the packed route must beat the loop by ``PACKED_MIN_SPEEDUP``
at ``PACKED_GATE_BLOCKS``, the kernel must beat it by
``KEYSTREAM_MIN_SPEEDUP`` at ``KEYSTREAM_GATE_BLOCKS`` blocks (one
p128 query repetition), and ``KERNEL_MIN_BLOCKS`` must sit where the
packed and kernel lines cross, within ``CROSSOVER_MARGIN``; the rows
land in ``BENCH_kernels.json``.  Without numpy the kernel's entries
are None and only its gates are skipped.
Its PRG rows time ``FieldPRG.next_vector`` on Goldilocks at
``PRG_READ_SIZES`` samples, the per-sample loop against the uint64
path, from replayed keystream bytes: the sweep behind
``BULK_MIN_SAMPLES``.  Under ``--check`` the draws must be identical.

Its query-path rows time the schedule, t and the answers at
``PAPER_PARAMS`` on LCS m = 4, p128 at B = 8 and Goldilocks at B = 1
(``QUERY_PATH_SHAPES``): the embedded route, 992 full-length queries,
t over all of them and one inner product per query (the oracle,
``tests/pcp/query_oracle.py``), against the base-row route,
``generate_schedule``, ``decommit_challenge`` and
``CommitmentProver.answer``.  Under ``--check`` t and every answer must
be equal and the base rows must win by ``QUERY_PATH_MIN_SPEEDUP`` over
the three stages together; the rows land in ``BENCH_kernels.json``.

Standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py --size 4096 --reps 5 --check

or as a pytest bench like the figure benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the test oracles

from _harness import APP_ORDER, FIELD, RESULTS, emit_results, fmt_seconds, print_table

from repro import telemetry
from repro.crypto import (
    ElGamalCiphertext,
    ElGamalKeypair,
    FieldPRG,
    chacha20_blocks,
    chacha20_packed,
    homomorphic_inner_product,
    named_group,
)
from repro.crypto import multiexp
from repro.crypto.chacha import KERNEL_MIN_BLOCKS
from repro.field import GOLDILOCKS, HAVE_NUMPY, NAMED_FIELDS, PrimeField
from repro.poly import (
    SubproductTree,
    clear_plan_caches,
    get_barycentric_weights,
    get_ntt_plan,
    intt,
    ntt,
    ntt_reference,
    plan_cache_info,
    poly_div_exact,
    poly_from_roots,
    poly_mul,
)
from repro.poly.divide import _series_inverse

#: cached kernels must be at least this close to the uncached reference
#: (generous: CI machines are noisy; locally the speedup is 1.3-2x)
CHECK_MARGIN = 1.25

#: under --check, the numpy NTT must beat scalar by at least this factor
#: at sizes >= NUMPY_NTT_MIN_SIZE (locally it is 8-10x; the margin
#: absorbs CI noise while still catching a broken vector path)
NUMPY_NTT_MIN_SPEEDUP = 2.0
NUMPY_NTT_MIN_SIZE = 4096

#: backend sweep rows where a row's time is mostly fixed per-call cost:
#: at 8, between the gateway's vector lengths (6 and 12), both backends
#: run the scalar loops, so the ratio is the numpy dispatch overhead;
#: 32 to 256 bracket the uint64 kernels' crossover (numpy ``hadamard``
#: 0.3x the scalar loop's speed at 32, 0.7-0.8x at 128, 1.04-1.09x at
#: 256), where ``NumpyBackend.MIN_VECTOR`` hands the vector ops to the
#: uint64 kernel.  Reported, not gated.
BACKEND_SMALL_SIZES = (8, 32, 64, 128, 256)
#: backend sweep rows bracketing the reductions' later crossovers
#: (``NumpyBackend.MIN_INNER_PRODUCT`` and ``MIN_BATCH_INV``): the
#: uint64 ``inner_product`` reaches the scalar loop's speed near 1,024
#: elements and ``batch_inv`` near 2,048.  Reported, not gated.
BACKEND_CROSSOVER_SIZES = (512, 1024, 2048, 4096)
#: the ops the backend sweep times (the keys of ``_bench_backends``' ops),
#: each also on the uint64 kernel alone, whatever length the numpy
#: backend would route to it from (its crossover against scalar)
BACKEND_OPS = ("ntt_roundtrip", "hadamard", "inner_product", "batch_inv")

#: under --check, the CRT residue-plane batched product must beat the
#: object-dtype stacked-NTT route it replaces by at least this factor
#: on the gate shape below (measured 4.6-4.9x locally; the margin
#: absorbs CI noise while still catching a broken fast path)
BATCH_MIN_SPEEDUP = 4.0
BATCH_MIN_BATCH = 32
#: the two routes alternate, each timed best of at least this many, so
#: a slow phase of the host hits both (timed one after the other, one
#: full run read 3.90x where standalone reruns read 4.9-5.8x)
BATCH_MIN_REPS = 3
#: product-stage gate shape: p128 operand rows of width BATCH_GATE_M,
#: BATCH_GATE_BATCH rows per operand (the batch >= BATCH_MIN_BATCH the
#: issue criterion asks for; the speedup grows with both dimensions)
BATCH_GATE_M = 4096
BATCH_GATE_BATCH = 64

#: arithmetic-mode H(t) row: LCS m=4 over p128 (341 constraints, the
#: p128-b8 perfbench shape) at this batch size; under --check
#: ``compute_h_batch`` must beat the division oracle by H_MIN_SPEEDUP
#: (measured 1.85-1.96x with a tree interpolation, 3.14x with Newton's,
#: best of 3, on a 2-core Xeon; the margin absorbs CI noise while still
#: catching a pipeline that fell back to three interpolations or a
#: division)
H_GATE_BATCH = 8
H_MIN_SPEEDUP = 1.5

#: Newton row: the same shape's interpolation step (n = 342 points,
#: H_GATE_BATCH rows over p128); under --check ``mat_interpolate_newton``
#: must beat the tree plus Taylor shift by NEWTON_MIN_SPEEDUP (measured
#: 2.07-2.13x, best of 3 to 7, on a 2-core Xeon; the margin absorbs CI
#: noise while still catching a kernel that fell back to per-row work)
NEWTON_MIN_SPEEDUP = 1.5

#: fixed-operand rows: H(t)'s extension step, the stacked 3B rows of
#: weighted values (n = 342, LCS m=4) by the 683-wide kernel 1/l,
#: keeping the n middle columns, as (field, B) pairs; under --check the
#: product against the pre-transformed ``FixedOperand`` must equal the
#: two-operand product (kernel repeated per row, every column rebuilt,
#: then sliced) and beat it by FIXED_MIN_SPEEDUP (measured 1.55-1.95x
#: on p128 at B = 8 and 1.44-1.74x on Goldilocks at B = 1, best of 3 to
#: 9, on a 2-core Xeon; the margin absorbs CI noise while still
#: catching an operand that is transformed again per call)
FIXED_OPERAND_SHAPES = (("p128", 8), ("goldilocks", 1))
FIXED_MIN_SPEEDUP = 1.3
FIXED_MIN_REPS = 9

#: commitment section: (group, field) pairs and vector lengths timed —
#: the gateway's smallest vector and the p128-b8 proof-vector length
COMMIT_GROUPS = (("goldilocks-512", "goldilocks"), ("p128-512", "p128"))
COMMIT_SIZES = (12, 666)
#: under --check, Enc(r) and the fold must each beat the pow oracle by
#: at least this factor at n = COMMIT_GATE_N (the fold on every
#: FOLD_GROUPS row of dense weights), and decryption on every
#: DECRYPT_GROUPS row (measured 11.2-15.6x for Enc(r), 4.9-7.5x for the
#: fold and 2.95-6.33x for decryption, lowest on p128-512, on a 2-core
#: Xeon; the margin absorbs CI noise while still catching a route that
#: fell back to per-element or P-sized exponents)
COMMIT_MIN_SPEEDUP = 2.0
COMMIT_GATE_N = 666
#: fold section: the groups (with their fields) and the lengths of the
#: dense-weight rows — the gateway's two programs (5 and 11 nonzero
#: weights), a ladder through LCS m = 4's nonzero count (458) and proof
#: length (666), the five apps' shortest and longest proof vectors
#: (1,446 and 10,851), and 4,096 between them
FOLD_GROUPS = (
    ("goldilocks-512", "goldilocks"),
    ("p128-512", "p128"),
    ("p128-1024", "p128"),
)
FOLD_SIZES = (5, 11, 29, 64, 128, 256, 458, 666, 1446, 4096, 10851)
#: the figure benches' group, whose real proof vectors set
#: PIPPENGER_MIN_TERMS and which the crossover gate reads
FOLD_CROSSOVER_GROUP = "goldilocks-512"
#: the real proof vectors folded on FOLD_CROSSOVER_GROUP, as (app,
#: sizes): LCS m = 4 (perfbench's program, 482 nonzero weights), LCS
#: m = 5 and 6 (753 and 1,122, either side of the constant), and the
#: five apps at their default sizes, whose folds fig4, fig5 and
#: model_validation time (1,061–7,307 nonzero weights)
FOLD_APP_VECTORS = (
    ("longest_common_subsequence", {"m": 4}),
    ("longest_common_subsequence", {"m": 5}),
    ("longest_common_subsequence", {"m": 6}),
    *((name, None) for name in APP_ORDER),
)
#: the pow oracle is timed and compared only up to this length: one
#: oracle fold of 1,446 terms takes seconds at 1024 bits
FOLD_ORACLE_MAX_N = 666
#: decryption rows: the groups (with their fields) and the number of
#: ciphertexts decrypted per timing
DECRYPT_GROUPS = (
    ("goldilocks-512", "goldilocks"),
    ("p128-512", "p128"),
    ("p128-1024", "p128"),
)
DECRYPT_COUNT = 16

#: keystream section: block counts timed — short reads, counts on both
#: sides of the packed route's crossover with the numpy kernel
#: (``repro.crypto.chacha.KERNEL_MIN_BLOCKS``), and one p128 LCS m=4
#: query repetition (5,328 16-byte samples = 1,332 blocks)
KEYSTREAM_BLOCKS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 1332)
#: under --check, the kernel must beat the per-block loop by at least
#: this factor at KEYSTREAM_GATE_BLOCKS (measured ~200x on a 2-core
#: Xeon; the margin absorbs CI noise while still catching a kernel
#: that fell back to per-block work)
KEYSTREAM_MIN_SPEEDUP = 10.0
KEYSTREAM_GATE_BLOCKS = 1332
#: under --check, the packed route must beat the per-block loop by at
#: least this factor at each of PACKED_GATE_BLOCKS (measured 2.46–2.47x
#: at one block and 4.32–4.49x at two on a 2-core Xeon)
PACKED_MIN_SPEEDUP = 2.0
PACKED_GATE_BLOCKS = (1, 2)
#: under --check, KERNEL_MIN_BLOCKS must sit where the sweep's packed
#: and kernel lines cross: below it the packed route, and from it on
#: the kernel, may be slower than the other by at most this factor
#: (five sweeps read packed/kernel 0.83–0.96 at 48 blocks and
#: 1.05–1.10 at 64, so a tighter test would read noise).  The fold's
#: PIPPENGER_MIN_TERMS is held to the same margin between Bos–Coster
#: and Pippenger; there it is only a floor on each side, since on real
#: vectors the two routes read within 10% of each other from about 700
#: to 2,700 terms
CROSSOVER_MARGIN = 1.25

#: ``FieldPRG.next_vector`` read lengths (Goldilocks samples) timed on
#: the per-sample loop and on the uint64 path: the sweep that sets
#: ``repro.crypto.prg.BULK_MIN_SAMPLES``.  Reported, not gated.
PRG_READ_SIZES = (1, 4, 8, 16, 32, 128, 666)

#: the query path at the paper's parameters (ρ_lin = 20, ρ = 8, LCS
#: m = 4): (modulus, batch size) per row, the perfbench workloads' shapes
QUERY_PATH_SHAPES = (("p128", 8), ("goldilocks", 1))
#: under --check, the base-row route must beat the embedded queries by
#: this factor on the schedule, t and answers together
QUERY_PATH_MIN_SPEEDUP = 2.5


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_ntt(size: int, reps: int, rng: random.Random) -> dict:
    """Plan-backed forward+inverse transform vs the reference kernels."""
    a = [rng.randrange(FIELD.p) for _ in range(size)]

    clear_plan_caches()
    t0 = time.perf_counter()
    get_ntt_plan(FIELD, size)  # cold: builds twiddles + swap schedule
    plan_build = time.perf_counter() - t0

    cached = _best_of(lambda: intt(FIELD, ntt(FIELD, a)), reps)
    uncached = _best_of(
        lambda: ntt_reference(FIELD, ntt_reference(FIELD, a), invert=True), reps
    )
    identical = ntt(FIELD, a) == ntt_reference(FIELD, a) and ntt(
        FIELD, a, invert=True
    ) == ntt_reference(FIELD, a, invert=True)
    return {
        "size": size,
        "plan_build_seconds": plan_build,
        "cached_seconds": cached,
        "uncached_seconds": uncached,
        "speedup": uncached / cached if cached else float("inf"),
        "bit_identical": identical,
    }


def _bench_division(size: int, reps: int, rng: random.Random) -> dict:
    """Exact division with the cached reversed-divisor inverse vs without.

    Mirrors the prover's step 3: P_w(t) / D(t) where D is fixed across a
    batch and only the numerator changes per instance.
    """
    m = size // 2
    divisor = poly_from_roots(FIELD, list(range(1, m + 1)))
    quotient = [rng.randrange(FIELD.p) for _ in range(m)]
    quotient[-1] = quotient[-1] or 1
    numerator = poly_mul(FIELD, divisor, quotient)
    qlen = len(numerator) - len(divisor) + 1

    uncached = _best_of(lambda: poly_div_exact(FIELD, numerator, divisor), reps)
    t0 = time.perf_counter()
    inv = _series_inverse(FIELD, list(reversed(divisor)), qlen)
    inverse_build = time.perf_counter() - t0
    cached = _best_of(
        lambda: poly_div_exact(FIELD, numerator, divisor, inv_rev_den=inv), reps
    )
    identical = poly_div_exact(
        FIELD, numerator, divisor, inv_rev_den=inv
    ) == poly_div_exact(FIELD, numerator, divisor)
    return {
        "degree": len(divisor) - 1,
        "inverse_build_seconds": inverse_build,
        "cached_seconds": cached,
        "uncached_seconds": uncached,
        "speedup": uncached / cached if cached else float("inf"),
        "bit_identical": identical,
    }


def _bench_interpolation(size: int, reps: int, rng: random.Random) -> dict:
    """Cold tree build + interpolate vs reinterpolation through a warm tree."""
    points = list(range(1, size // 4 + 1))
    values = [rng.randrange(FIELD.p) for _ in points]

    def cold():
        clear_plan_caches()
        return SubproductTree(FIELD, points).interpolate(values)

    cold_seconds = _best_of(cold, max(1, reps // 2))
    clear_plan_caches()
    tree = SubproductTree(FIELD, points)
    tree.interpolate(values)  # populate the per-tree caches
    warm_seconds = _best_of(lambda: tree.interpolate(values), reps)
    identical = tree.interpolate(values) == cold()
    return {
        "points": len(points),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
        "bit_identical": identical,
    }


def _bench_counters(size: int) -> dict:
    """Plan hit/miss accounting over a simulated two-instance batch."""
    clear_plan_caches()
    tracer = telemetry.enable()
    try:
        with telemetry.span("bench.kernels.counters"):
            for _ in range(2):  # two "instances" sharing one plan set
                a = list(range(size))
                intt(FIELD, ntt(FIELD, a))
                get_barycentric_weights(FIELD, size // 4)
    finally:
        telemetry.disable()
    totals = tracer.total_counters()
    return {
        "plan_hits": int(totals.get("poly.plan_hits", 0)),
        "plan_misses": int(totals.get("poly.plan_misses", 0)),
        "cache_entries": plan_cache_info(),
    }


def _bench_backends(size: int, reps: int, rng: random.Random) -> dict:
    """Scalar vs numpy field backends on the batch-shaped kernels.

    One row per vector size (bracketing ``--size``); each op records
    both backends' best-of-``reps`` time, alternating, and whether
    their outputs are bit-identical.  Every op also records the uint64
    kernel's own time (``kernel_seconds``), which is what the numpy
    backend's per-op cutoffs are set from.  Runs
    scalar-only (with ``numpy_seconds: None``) when numpy is absent.
    """
    scalar_field = PrimeField(GOLDILOCKS, check_prime=False, backend="scalar")
    numpy_field = (
        PrimeField(GOLDILOCKS, check_prime=False, backend="numpy")
        if HAVE_NUMPY
        else None
    )
    p = scalar_field.p
    sizes = sorted(
        {*BACKEND_SMALL_SIZES, *BACKEND_CROSSOVER_SIZES, max(256, size // 4), size, size * 4}
    )
    ops = {
        "ntt_roundtrip": lambda f, a, b: intt(f, ntt(f, a)),
        "hadamard": lambda f, a, b: f.hadamard(a, b),
        "inner_product": lambda f, a, b: f.inner_product(a, b),
        "batch_inv": lambda f, a, b: f.batch_inv(b),
    }
    rows = []
    for n in sizes:
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(1, p) for _ in range(n)]
        get_ntt_plan(scalar_field, n)  # warm the shared plan out of the timings
        row: dict = {"size": n}
        for name, op in ops.items():
            scalar_out = op(scalar_field, a, b)
            entry = {
                "scalar_seconds": None,
                "numpy_seconds": None,
                "speedup": None,
                "bit_identical": None,
            }
            if numpy_field is None:
                entry["scalar_seconds"] = _best_of(lambda: op(scalar_field, a, b), reps)
            else:
                outputs = [op(numpy_field, a, b)]
                routes = {
                    "scalar_seconds": lambda: op(scalar_field, a, b),
                    "numpy_seconds": lambda: op(numpy_field, a, b),
                }
                u64 = numpy_field.backend.u64
                if name == "ntt_roundtrip":
                    plan = get_ntt_plan(numpy_field, n)
                    kernel = lambda: u64.ntt(plan, u64.ntt(plan, a, False), True)  # noqa: E731
                else:
                    method = getattr(u64, name)
                    args = (b,) if name == "batch_inv" else (a, b)
                    kernel = lambda: method(*args)  # noqa: E731
                routes["kernel_seconds"] = kernel
                outputs.append(kernel())
                seconds = {key: float("inf") for key in routes}
                for _ in range(reps):  # alternate: drift hits both
                    for key, fn in routes.items():
                        seconds[key] = min(seconds[key], _best_of(fn, 1))
                entry.update(seconds)
                entry["kernel_speedup"] = seconds["scalar_seconds"] / seconds["kernel_seconds"]
                scalar_seconds = seconds["scalar_seconds"]
                numpy_seconds = seconds["numpy_seconds"]
                entry["speedup"] = (
                    scalar_seconds / numpy_seconds if numpy_seconds else float("inf")
                )
                entry["bit_identical"] = all(out == scalar_out for out in outputs)
            row[name] = entry
        rows.append(row)
    return {"numpy_available": HAVE_NUMPY, "sizes": rows}


def _bench_batch(size: int, reps: int, rng: random.Random) -> dict:
    """Batch-axis prover pipeline on the 128-bit modulus: per-row vs 2-D.

    Mirrors the QAP prover's roots-mode H(t) construction — interpolate
    three evaluation rows, multiply, subtract, divide by ``t^m − 1`` —
    once per row (the object-dtype route big moduli used to be stuck
    on; each row's division is a one-row call of the 2-D divider) and
    once as stacked 2-D kernels (one shared plan; the multiply
    drops into the CRT residue planes).  ``evals_c = a ∘ b`` makes every
    row exactly divisible, so the telescoped division runs end to end.
    """
    from repro.field import NAMED_FIELDS
    from repro.poly import (
        interpolate_at_roots_of_unity,
        mat_interpolate_at_roots_of_unity,
        mat_poly_mul,
        pad_rows,
        poly_sub,
        trim,
    )
    from repro.qap.prover import _mat_divide_by_subgroup_vanishing

    m = max(256, size // 2)
    field = PrimeField(NAMED_FIELDS["p128"], check_prime=False, backend="numpy")
    p = field.p

    def sequential(evals):
        out = []
        for ea, eb, ec in evals:
            pa = interpolate_at_roots_of_unity(field, ea)
            pb = interpolate_at_roots_of_unity(field, eb)
            pc = interpolate_at_roots_of_unity(field, ec)
            p_w = poly_sub(field, poly_mul(field, pa, pb), pc)
            out.append(_mat_divide_by_subgroup_vanishing(field, [p_w], m)[0])
        return out

    def batched(evals):
        ra = mat_interpolate_at_roots_of_unity(field, [e[0] for e in evals])
        rb = mat_interpolate_at_roots_of_unity(field, [e[1] for e in evals])
        rc = mat_interpolate_at_roots_of_unity(field, [e[2] for e in evals])
        prod = mat_poly_mul(field, ra, rb)
        p_rows = field.mat_sub(pad_rows(prod, 2 * m), pad_rows(rc, 2 * m))
        return _mat_divide_by_subgroup_vanishing(field, p_rows, m)

    rows = []
    for batch in (1, 8, 32):
        evals = []
        for _ in range(batch):
            ea = [rng.randrange(p) for _ in range(m)]
            eb = [rng.randrange(p) for _ in range(m)]
            evals.append((ea, eb, field.hadamard(ea, eb)))
        seq_out = sequential(evals)  # also warms the shared NTT plans
        bat_out = batched(evals)
        # batched quotients carry fixed-width padding; values must agree
        identical = [trim(list(r)) for r in bat_out] == [
            trim(list(r)) for r in seq_out
        ]
        seq_reps = reps if batch == 1 else 1  # the slow route: ~seconds/rep
        seq_seconds = _best_of(lambda: sequential(evals), seq_reps)
        bat_seconds = _best_of(lambda: batched(evals), reps)
        rows.append(
            {
                "batch": batch,
                "sequential_seconds": seq_seconds,
                "batched_seconds": bat_seconds,
                "per_instance_speedup": (
                    seq_seconds / bat_seconds if bat_seconds else float("inf")
                ),
                "bit_identical": identical,
            }
        )
    return {
        "modulus": "p128",
        "m": m,
        "numpy_available": HAVE_NUMPY,
        "batches": rows,
        "product": _bench_batch_product(reps, rng),
        "arithmetic": _bench_h_arithmetic(reps, rng),
        "newton": _bench_newton(reps, rng),
        "fixed_operand": _bench_fixed_operand(reps, rng),
    }


def _bench_h_arithmetic(reps: int, rng: random.Random) -> dict:
    """Arithmetic-mode H(t): ``compute_h_batch`` vs the division oracle.

    One batch of ``H_GATE_BATCH`` LCS m=4 witnesses over p128, timed
    best-of-``reps`` with the two routes alternating.  Both routes'
    per-QAP structures (tree, divisor inverse, H tables) are built
    before timing: a batch reuses them.
    """
    from repro.apps import ALL_APPS
    from repro.qap import build_qap
    from repro.qap.prover import compute_h_batch
    from tests.qap.h_oracle import compute_h_batch_divide

    field = PrimeField(NAMED_FIELDS["p128"], check_prime=False)
    app = ALL_APPS["longest_common_subsequence"]
    sizes = {"m": 4}
    program = app.compile(field, sizes)
    qap = build_qap(program.quadratic)
    witnesses = [
        program.solve(app.generate_inputs(rng, sizes)).quadratic_witness
        for _ in range(H_GATE_BATCH)
    ]
    identical = compute_h_batch(qap, witnesses) == compute_h_batch_divide(qap, witnesses)
    routes = {"oracle": compute_h_batch_divide, "pipeline": compute_h_batch}
    seconds = {name: float("inf") for name in routes}
    for _ in range(reps):  # alternate, so host drift hits both routes
        for name, route in routes.items():
            seconds[name] = min(seconds[name], _best_of(lambda: route(qap, witnesses), 1))
    return {
        "modulus": "p128",
        "constraints": qap.m,
        "batch": H_GATE_BATCH,
        "oracle_seconds": seconds["oracle"],
        "pipeline_seconds": seconds["pipeline"],
        "speedup": seconds["oracle"] / seconds["pipeline"],
        "bit_identical": identical,
    }


def _bench_newton(reps: int, rng: random.Random) -> dict:
    """H(t)'s interpolation step: batched Newton vs tree plus Taylor shift.

    ``H_GATE_BATCH`` random value rows at LCS m=4's n = 342 points over
    p128, timed best-of-``reps`` with the two routes alternating.  Both
    routes' fixed tables are built before timing, and Newton reads the
    values pre-scaled by 1/j! (the prover folds that scale into the
    step before).
    """
    from repro.poly import mat_interpolate_newton
    from tests.qap.h_oracle import TreeShiftInterpolator, newton_inputs

    field = PrimeField(NAMED_FIELDS["p128"], check_prime=False)
    n = 342
    tree_shift = TreeShiftInterpolator(field, n)
    rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(H_GATE_BATCH)]
    scaled, differences, levels = newton_inputs(field, rows)
    routes = {
        "tree_shift": lambda: tree_shift(rows),
        "newton": lambda: mat_interpolate_newton(field, scaled, differences, levels),
    }
    identical = routes["tree_shift"]() == routes["newton"]()
    seconds = {name: float("inf") for name in routes}
    for _ in range(reps):  # alternate, so host drift hits both routes
        for name, route in routes.items():
            seconds[name] = min(seconds[name], _best_of(route, 1))
    return {
        "modulus": "p128",
        "points": n,
        "batch": H_GATE_BATCH,
        "tree_shift_seconds": seconds["tree_shift"],
        "newton_seconds": seconds["newton"],
        "speedup": seconds["tree_shift"] / seconds["newton"],
        "bit_identical": identical,
    }


def _bench_fixed_operand(reps: int, rng: random.Random) -> list[dict]:
    """H(t)'s extension step: a pre-transformed fixed operand vs two operands.

    One row per ``FIXED_OPERAND_SHAPES`` entry, the two routes timed
    best of ``FIXED_MIN_REPS`` or ``reps``, whichever is more,
    alternating: the Goldilocks row takes a few milliseconds, so a
    best of 3 still carries the host's noise.  The fixed operand's
    transform is built before timing, as the first batch against a
    QAP builds it.
    Empty without numpy: the scalar backend keeps transformed int rows,
    but the gate measures the numpy kernels.
    """
    if not HAVE_NUMPY:
        return []
    from repro.poly import FixedOperand, mat_poly_mul

    n = 342
    rows = []
    for name, batch in FIXED_OPERAND_SHAPES:
        field = PrimeField(NAMED_FIELDS[name], check_prime=False, backend="numpy")
        kernel = field.batch_inv(list(range(1, 2 * n)))
        weighted = [[rng.randrange(field.p) for _ in range(n)] for _ in range(3 * batch)]
        operand = FixedOperand([kernel])
        routes = {
            "two_operand": lambda: [
                row[n - 1 : 2 * n - 1]
                for row in mat_poly_mul(field, weighted, [kernel] * len(weighted))
            ],
            "fixed": lambda: mat_poly_mul(field, weighted, operand, cols=(n - 1, 2 * n - 1)),
        }
        identical = routes["two_operand"]() == routes["fixed"]()  # builds the form
        seconds = {route: float("inf") for route in routes}
        for _ in range(max(reps, FIXED_MIN_REPS)):  # alternate: drift hits both
            for route, fn in routes.items():
                seconds[route] = min(seconds[route], _best_of(fn, 1))
        rows.append(
            {
                "modulus": name,
                "batch": batch,
                "rows": 3 * batch,
                "points": n,
                "two_operand_seconds": seconds["two_operand"],
                "fixed_seconds": seconds["fixed"],
                "speedup": seconds["two_operand"] / seconds["fixed"],
                "bit_identical": identical,
            }
        )
    return rows


def _bench_batch_product(reps: int, rng: random.Random) -> dict | None:
    """The gated product stage: CRT residue planes vs object-dtype NTTs.

    Isolates the multiply that :func:`repro.poly.batch.mat_poly_mul`
    routes — the CRT fast path versus the stacked object-dtype
    transforms the same call falls back to when the fast path declines
    (their pointwise product runs on the scalar loops, like every
    big-modulus elementwise op).
    This is the stage the batch-axis work accelerates (interpolation
    and division bracket it identically on both routes), measured on
    the fixed gate shape rather than ``--size`` so the CI floor always
    tests the same workload.
    """
    if not HAVE_NUMPY:
        return None
    from repro.field import NAMED_FIELDS
    from repro.poly import get_ntt_plan, mat_poly_mul, pad_rows

    m, batch = BATCH_GATE_M, BATCH_GATE_BATCH
    field = PrimeField(NAMED_FIELDS["p128"], check_prime=False, backend="numpy")
    p = field.p
    rows_a = [[rng.randrange(p) for _ in range(m)] for _ in range(batch)]
    rows_b = [[rng.randrange(p) for _ in range(m)] for _ in range(batch)]
    out_len = 2 * m - 1
    size = 2
    while size < out_len:
        size <<= 1

    def object_route():
        plan = get_ntt_plan(field, size)
        fa = field.mat_transform(plan, pad_rows(rows_a, size))
        fb = field.mat_transform(plan, pad_rows(rows_b, size))
        out = field.mat_transform(plan, field.mat_hadamard(fa, fb), invert=True)
        return [row[:out_len] for row in out]

    crt_out = mat_poly_mul(field, rows_a, rows_b)  # warm plane tables
    object_out = object_route()  # warm the shared plan
    crt_seconds = object_seconds = float("inf")
    for _ in range(max(reps, BATCH_MIN_REPS)):  # alternate: drift hits both
        crt_seconds = min(
            crt_seconds, _best_of(lambda: mat_poly_mul(field, rows_a, rows_b), 1)
        )
        object_seconds = min(object_seconds, _best_of(object_route, 1))
    return {
        "modulus": "p128",
        "m": m,
        "batch": batch,
        "object_seconds": object_seconds,
        "crt_seconds": crt_seconds,
        "speedup": object_seconds / crt_seconds if crt_seconds else float("inf"),
        "bit_identical": crt_out == object_out,
    }


def _bench_commitment(reps: int, rng: random.Random) -> list[dict]:
    """Enc(r): one ``pow`` per exponentiation vs the key holder's tables.

    Each row times one Enc(r) of an n-element vector under the
    verifier's key.  The group's generator table is built before
    timing: the process pays for it once.  The fold has its own
    section (``_bench_fold``).
    """
    from tests.crypto.pow_oracle import encrypt_vector_pow

    rows = []
    for group_name, field_name in COMMIT_GROUPS:
        group = named_group(group_name)
        field = PrimeField(NAMED_FIELDS[field_name], check_prime=False)
        keypair = ElGamalKeypair.generate(group, FieldPRG(field, b"bench", "key"))
        public = keypair.public
        for n in COMMIT_SIZES:
            messages = [rng.randrange(group.order) for _ in range(n)]
            cts = keypair.encrypt_vector(messages, FieldPRG(field, b"bench", "enc"))
            oracle_cts = encrypt_vector_pow(
                public, messages, FieldPRG(field, b"bench", "enc")
            )
            prg = FieldPRG(field, b"bench", "timing")
            enc_pow = _best_of(lambda: encrypt_vector_pow(public, messages, prg), reps)
            enc_kernel = _best_of(lambda: keypair.encrypt_vector(messages, prg), reps)
            rows.append(
                {
                    "group": group_name,
                    "n": n,
                    "enc_pow_seconds": enc_pow,
                    "enc_kernel_seconds": enc_kernel,
                    "enc_speedup": enc_pow / enc_kernel,
                    "bit_identical": cts == oracle_cts,
                }
            )
    return rows


def _proof_vector(field_name: str, app_name: str, sizes: dict | None) -> list[int]:
    """One proof vector u = (z, h) of ``app_name`` at ``sizes`` (None:
    its defaults), from the inputs ``_harness.measure_zaatar`` draws."""
    from repro.apps import SCENARIO_APPS
    from repro.qap import build_proof_vector, build_qap

    app = SCENARIO_APPS[app_name]
    field = PrimeField(NAMED_FIELDS[field_name], check_prime=False)
    program = app.compile(field, dict(sizes or {}))
    inputs = app.generate_inputs(random.Random(13), sizes)
    witness = program.solve(inputs).quadratic_witness
    return build_proof_vector(build_qap(program.quadratic), witness).vector


def _vector_label(app_name: str, sizes: dict | None) -> str:
    if sizes is None:
        return app_name
    return f"{app_name} " + " ".join(f"{k}={v}" for k, v in sizes.items())


def _bench_fold(reps: int, rng: random.Random) -> list[dict]:
    """The prover's fold ∏ Enc(r_i)^{u_i}: Bos–Coster vs Pippenger vs pow.

    One row per ``FOLD_GROUPS`` entry and length in ``FOLD_SIZES`` with
    dense weights (uniform in [1, q)), and one per real proof vector
    over the group's field (a sparse z half of small values, a dense h
    half): LCS m = 4 on every group, and ``FOLD_APP_VECTORS`` on
    ``FOLD_CROSSOVER_GROUP``.  The ciphertext components are uniform
    residues: the fold's cost does not depend on subgroup membership.  Each route
    is timed from the call's bases and scalars, so both pay
    ``nonzero_terms``; the two routes alternate for ``reps`` rounds,
    each round the best of max(1, 256 // n) calls.  The pow oracle
    (``tests/crypto/pow_oracle.py``) is timed alongside up to
    ``FOLD_ORACLE_MAX_N``, once per round.
    """
    from tests.crypto.pow_oracle import inner_product_pow

    rows = []
    for group_name, field_name in FOLD_GROUPS:
        group = named_group(group_name)
        P, q, bits = group.modulus, group.order, group.order.bit_length()
        cases = [("dense", [rng.randrange(1, q) for _ in range(n)]) for n in FOLD_SIZES]
        vectors = (
            FOLD_APP_VECTORS
            if group_name == FOLD_CROSSOVER_GROUP
            else [("longest_common_subsequence", {"m": 4})]
        )
        cases += [
            (_vector_label(app, sizes), _proof_vector(field_name, app, sizes))
            for app, sizes in vectors
        ]
        for kind, weights in cases:
            n = len(weights)
            cts = [
                ElGamalCiphertext(rng.randrange(P), rng.randrange(P)) for _ in range(n)
            ]
            bases = [(ct.c1, ct.c2) for ct in cts]
            routes = {
                "bos_coster": lambda: ElGamalCiphertext(
                    *multiexp.bos_coster_pair(
                        *multiexp.nonzero_terms(bases, weights, P, bits), P
                    )
                ),
                "pippenger": lambda: ElGamalCiphertext(
                    *multiexp.pippenger_pair(
                        *multiexp.nonzero_terms(bases, weights, P, bits), P, bits
                    )
                ),
            }
            if n <= FOLD_ORACLE_MAX_N:
                routes["pow"] = lambda: inner_product_pow(group, cts, weights)
            outputs = {route: fn() for route, fn in routes.items()}
            outputs["fold"] = homomorphic_inner_product(group, cts, weights)
            calls = max(1, 256 // n)
            seconds = {route: float("inf") for route in routes}
            for _ in range(reps):  # alternate: drift hits every route
                for route, fn in routes.items():
                    seconds[route] = min(
                        seconds[route], _best_of(fn, 1 if route == "pow" else calls)
                    )
            terms = len(multiexp.nonzero_terms(bases, weights, P, bits)[2])
            route = "bos_coster" if terms < multiexp.PIPPENGER_MIN_TERMS else "pippenger"
            oracle = seconds.get("pow")
            rows.append(
                {
                    "group": group_name,
                    "weights": kind,
                    "n": n,
                    "terms": terms,
                    "route": route,
                    "pow_seconds": oracle,
                    "bos_coster_seconds": seconds["bos_coster"],
                    "pippenger_seconds": seconds["pippenger"],
                    "bos_coster_over_pippenger": (
                        seconds["bos_coster"] / seconds["pippenger"]
                    ),
                    "speedup": oracle / seconds[route] if oracle else None,
                    "bit_identical": len(set(outputs.values())) == 1,
                }
            )
    return rows


def _bench_decryption(reps: int, rng: random.Random) -> list[dict]:
    """Decryption: c2 · c1^(P−1−x) vs the key holder's c2 · (c1⁻¹)^x.

    Each row decrypts ``DECRYPT_COUNT`` honest ciphertexts of random
    messages, the two routes alternating, best of ``reps``.
    """
    from tests.crypto.pow_oracle import decrypt_pow

    rows = []
    for group_name, field_name in DECRYPT_GROUPS:
        group = named_group(group_name)
        field = PrimeField(NAMED_FIELDS[field_name], check_prime=False)
        keypair = ElGamalKeypair.generate(group, FieldPRG(field, b"bench", "key"))
        messages = [rng.randrange(group.order) for _ in range(DECRYPT_COUNT)]
        cts = keypair.encrypt_vector(messages, FieldPRG(field, b"bench", "dec"))
        routes = {
            "pow": lambda: [decrypt_pow(keypair, ct) for ct in cts],
            "key": lambda: [keypair.decrypt_to_group(ct) for ct in cts],
        }
        identical = routes["pow"]() == routes["key"]() == [
            group.encode(m) for m in messages
        ]
        seconds = {route: float("inf") for route in routes}
        for _ in range(reps):  # alternate: drift hits both
            for route, fn in routes.items():
                seconds[route] = min(seconds[route], _best_of(fn, 1))
        rows.append(
            {
                "group": group_name,
                "count": DECRYPT_COUNT,
                "pow_seconds": seconds["pow"] / DECRYPT_COUNT,
                "key_seconds": seconds["key"] / DECRYPT_COUNT,
                "speedup": seconds["pow"] / seconds["key"],
                "bit_identical": identical,
            }
        )
    return rows


def _bench_keystream(reps: int, rng: random.Random) -> list[dict]:
    """ChaCha20 keystream: the per-block oracle loop, the packed route
    and the numpy kernel, at every count in ``KEYSTREAM_BLOCKS``.

    The routes alternate for ``reps`` rounds, each round timing the
    best of max(2, 64 // blocks) calls per route (the loop past 64
    blocks: one call, in two rounds).  The counter starts just below
    2^32, so the longer reads wrap it the way ``ChaChaStream`` does.
    Without numpy the kernel's entries are None.
    """
    from tests.crypto.chacha_oracle import block_loop

    key, nonce = rng.randbytes(32), rng.randbytes(12)
    counter = 2**32 - 100
    rows = []
    for blocks in KEYSTREAM_BLOCKS:
        routes = {
            "loop": lambda: block_loop(key, counter, nonce, blocks),
            "packed": lambda: chacha20_packed(key, counter, nonce, blocks),
        }
        if HAVE_NUMPY:
            routes["kernel"] = lambda: chacha20_blocks(key, counter, nonce, blocks)
        outputs = {route: fn() for route, fn in routes.items()}
        seconds = {route: float("inf") for route in routes}
        calls = max(2, 64 // blocks)  # per round: short reads are noisy
        for rep in range(reps):  # alternate: drift hits every route
            for route, fn in routes.items():
                if route != "loop" or blocks <= 64:
                    seconds[route] = min(seconds[route], _best_of(fn, calls))
                elif rep < 2:  # tens of ms per call
                    seconds[route] = min(seconds[route], _best_of(fn, 1))
        kernel = seconds.get("kernel")
        rows.append(
            {
                "blocks": blocks,
                "loop_seconds": seconds["loop"],
                "packed_seconds": seconds["packed"],
                "kernel_seconds": kernel,
                "packed_speedup": seconds["loop"] / seconds["packed"],
                "speedup": seconds["loop"] / kernel if kernel else None,
                "packed_over_kernel": seconds["packed"] / kernel if kernel else None,
                "bit_identical": len(set(outputs.values())) == 1,
            }
        )
    return rows


def _bench_prg_reads(reps: int) -> list[dict]:
    """``next_vector(n)`` on the per-sample loop vs the uint64 path.

    The keystream is generated before timing and replayed, so a row
    times what the two paths do with the bytes, not ChaCha20.  The two
    paths alternate, best of ``reps`` rounds of 20 reads.  Empty
    without numpy.
    """
    if not HAVE_NUMPY:
        return []
    from repro.crypto import prg as prg_module

    field = PrimeField(GOLDILOCKS, check_prime=False)
    saved = prg_module.BULK_MIN_SAMPLES
    paths = {"loop": 1 << 62, "bulk": 0}

    class Replay:
        def __init__(self, data: bytes):
            self.data, self.at = data, 0

        def read(self, n: int) -> bytes:
            self.at += n
            return self.data[self.at - n : self.at]

    def reader(n: int, rounds: int):
        prg = FieldPRG(field, b"bench", "reads")
        prg._stream = Replay(FieldPRG(field, b"bench").next_bytes(16 * n * rounds))
        return prg

    rows = []
    try:
        for n in PRG_READ_SIZES:
            drawn, seconds = {}, {path: float("inf") for path in paths}
            for _ in range(reps):
                for path, cutoff in paths.items():
                    prg_module.BULK_MIN_SAMPLES = cutoff
                    prg = reader(n, 21)
                    drawn[path] = prg.next_vector(n)
                    seconds[path] = min(seconds[path], _best_of(lambda: prg.next_vector(n), 20))
            rows.append(
                {
                    "samples": n,
                    "loop_seconds": seconds["loop"],
                    "bulk_seconds": seconds["bulk"],
                    "bulk_speedup": seconds["loop"] / seconds["bulk"],
                    "bit_identical": drawn["loop"] == drawn["bulk"],
                }
            )
    finally:
        prg_module.BULK_MIN_SAMPLES = saved
    return rows


def _bench_query_path(reps: int, rng: random.Random) -> list[dict]:
    """The query path at the paper's parameters: embedded queries vs base rows.

    One row per ``QUERY_PATH_SHAPES`` entry, LCS m = 4 at
    ``PAPER_PARAMS``: the schedule, t and B instances' answers, timed
    stage by stage on each route, the routes alternating, best of
    ``reps`` per stage.  The embedded route is the oracle
    (``tests/pcp/query_oracle.py``): 992 full-length queries, t over all
    of them and one inner product per query.  The base-row route is
    ``generate_schedule``, ``CommitmentVerifier.decommit_challenge`` and
    ``CommitmentProver.answer``.  Both use one r, one α per query (the
    verifier's) and the same proof vectors.  Enc(r) is not on this path
    and is not timed.  Empty without numpy: the gate measures the numpy
    kernels.
    """
    if not HAVE_NUMPY:
        return []
    from repro.apps import LCS
    from repro.crypto import CommitmentProver, CommitmentVerifier, group_for_field
    from repro.pcp import PAPER_PARAMS
    from repro.pcp import zaatar as zaatar_pcp
    from repro.qap import build_qap
    from tests.pcp import query_oracle

    seed = b"bench-query-path"
    rows = []
    for name, batch in QUERY_PATH_SHAPES:
        field = PrimeField(NAMED_FIELDS[name], check_prime=False, backend="numpy")
        qap = build_qap(LCS.compile(field, {"m": 4}).quadratic)
        group = group_for_field(field)
        r = [rng.randrange(field.p) for _ in range(qap.proof_vector_length)]
        us = [[rng.randrange(field.p) for _ in r] for _ in range(batch)]

        def verifier():
            made = CommitmentVerifier(field, group, len(r), FieldPRG(field, seed, "c"))
            made._r = r  # Enc(r) is not on the query path
            return made

        def base_rows(clock):
            start = time.perf_counter()
            prg = FieldPRG(field, seed, "queries")
            schedule = zaatar_pcp.generate_schedule(qap, PAPER_PARAMS, prg)
            made = verifier()
            scheduled = time.perf_counter()
            challenge = made.decommit_challenge(schedule.basis)
            folded = time.perf_counter()
            answers = [CommitmentProver(field, group, u).answer(challenge).answers for u in us]
            done = time.perf_counter()
            for stage, seconds in zip(
                ("schedule", "t", "answers"), (scheduled - start, folded - scheduled, done - folded)
            ):
                clock[stage] = min(clock.get(stage, float("inf")), seconds)
            return challenge.t, answers, made._alphas

        alphas = base_rows({})[2]

        def embedded(clock):
            start = time.perf_counter()
            prg = FieldPRG(field, seed, "queries")
            queries = query_oracle.embedded_queries(qap, PAPER_PARAMS, prg)
            scheduled = time.perf_counter()
            t = query_oracle.consistency_query(field, r, alphas, queries)
            folded = time.perf_counter()
            answers = [query_oracle.answers(field, queries, t, u) for u in us]
            done = time.perf_counter()
            for stage, seconds in zip(
                ("schedule", "t", "answers"), (scheduled - start, folded - scheduled, done - folded)
            ):
                clock[stage] = min(clock.get(stage, float("inf")), seconds)
            return t, answers, alphas

        clocks = {"embedded": {}, "base_rows": {}}
        outputs = {}
        for _ in range(max(reps, 2)):  # alternate: drift hits both
            outputs["embedded"] = embedded(clocks["embedded"])
            outputs["base_rows"] = base_rows(clocks["base_rows"])
        totals = {route: sum(clock.values()) for route, clock in clocks.items()}
        rows.append(
            {
                "modulus": name,
                "batch": batch,
                "queries": len(alphas),
                "embedded_seconds": clocks["embedded"],
                "base_rows_seconds": clocks["base_rows"],
                "embedded_total_seconds": totals["embedded"],
                "base_rows_total_seconds": totals["base_rows"],
                "speedup": totals["embedded"] / totals["base_rows"],
                "bit_identical": outputs["embedded"][:2] == outputs["base_rows"][:2],
            }
        )
    return rows


def run_bench(size: int, reps: int) -> dict:
    rng = random.Random(0xC0DE)
    out = {
        "ntt": _bench_ntt(size, reps, rng),
        "division": _bench_division(size, reps, rng),
        "interpolation": _bench_interpolation(size, reps, rng),
        "counters": _bench_counters(size),
        "backends": _bench_backends(size, reps, rng),
        "batch": _bench_batch(size, reps, rng),
        "commitment": _bench_commitment(reps, rng),
        "fold": _bench_fold(reps, rng),
        "decryption": _bench_decryption(reps, rng),
        "keystream": _bench_keystream(reps, rng),
        "prg_reads": _bench_prg_reads(reps),
        "query_path": _bench_query_path(reps, rng),
    }
    for label, row in out.items():
        if label == "backends":
            RESULTS[("backends", "sweep")] = row
        elif label == "batch":
            RESULTS[("batch", "sweep")] = row
        else:
            RESULTS[("kernels", label)] = row
    return out


def check(results: dict) -> list[str]:
    """The CI guard: bit-identity always; cached never slower (+margin)."""
    failures = []
    for section in ("ntt", "division", "interpolation"):
        row = results[section]
        if not row["bit_identical"]:
            failures.append(f"{section}: cached result differs from reference")
        fast = row.get("cached_seconds", row.get("warm_seconds"))
        slow = row.get("uncached_seconds", row.get("cold_seconds"))
        if fast > slow * CHECK_MARGIN:
            failures.append(
                f"{section}: cached path {fast:.6f}s slower than "
                f"uncached {slow:.6f}s (margin {CHECK_MARGIN}x)"
            )
    counters = results["counters"]
    if counters["plan_hits"] == 0:
        failures.append("counters: second instance produced no plan hits")
    if counters["plan_misses"] == 0:
        failures.append("counters: cold caches produced no plan misses")
    for row in results["backends"]["sizes"]:
        n = row["size"]
        for op in BACKEND_OPS:
            entry = row[op]
            if entry["numpy_seconds"] is None:
                continue  # numpy absent: scalar-only run, nothing to compare
            if not entry["bit_identical"]:
                failures.append(f"backends: {op} at n={n} differs scalar vs numpy")
            if op == "ntt_roundtrip" and n >= NUMPY_NTT_MIN_SIZE:
                if entry["speedup"] < NUMPY_NTT_MIN_SPEEDUP:
                    failures.append(
                        f"backends: numpy NTT at n={n} only "
                        f"{entry['speedup']:.2f}x over scalar "
                        f"(need {NUMPY_NTT_MIN_SPEEDUP}x)"
                    )
    for row in results["batch"]["batches"]:
        if not row["bit_identical"]:
            failures.append(
                f"batch: batched H pipeline differs at batch={row['batch']}"
            )
    arithmetic = results["batch"]["arithmetic"]
    where = f"batch: arithmetic-mode H(t) at B={arithmetic['batch']}"
    if not arithmetic["bit_identical"]:
        failures.append(f"{where}: rows differ from the division oracle")
    if arithmetic["speedup"] < H_MIN_SPEEDUP:
        failures.append(
            f"{where}: only {arithmetic['speedup']:.2f}x over the division "
            f"oracle (need {H_MIN_SPEEDUP}x)"
        )
    newton = results["batch"]["newton"]
    where = f"batch: Newton interpolation at n={newton['points']} B={newton['batch']}"
    if not newton["bit_identical"]:
        failures.append(f"{where}: rows differ from the tree plus Taylor shift")
    if newton["speedup"] < NEWTON_MIN_SPEEDUP:
        failures.append(
            f"{where}: only {newton['speedup']:.2f}x over the tree plus "
            f"Taylor shift (need {NEWTON_MIN_SPEEDUP}x)"
        )
    for row in results["batch"]["fixed_operand"]:
        where = (
            f"batch: fixed-operand extension ({row['modulus']}, B={row['batch']}, "
            f"{row['rows']} rows)"
        )
        if not row["bit_identical"]:
            failures.append(f"{where}: rows differ from the two-operand product")
        if row["speedup"] < FIXED_MIN_SPEEDUP:
            failures.append(
                f"{where}: only {row['speedup']:.2f}x over the two-operand "
                f"product (need {FIXED_MIN_SPEEDUP}x)"
            )
    for row in results["commitment"]:
        where = f"commitment: {row['group']} n={row['n']}"
        if not row["bit_identical"]:
            failures.append(f"{where}: Enc(r) ciphertexts differ from the pow oracle")
        if row["n"] == COMMIT_GATE_N and row["enc_speedup"] < COMMIT_MIN_SPEEDUP:
            failures.append(
                f"{where}: Enc(r) only {row['enc_speedup']:.2f}x over pow "
                f"(need {COMMIT_MIN_SPEEDUP}x)"
            )
    failures += _check_fold(results["fold"])
    for row in results["decryption"]:
        where = f"decryption: {row['group']}"
        if not row["bit_identical"]:
            failures.append(f"{where}: c2·(c1⁻¹)^x differs from c2·c1^(P−1−x)")
        if row["speedup"] < COMMIT_MIN_SPEEDUP:
            failures.append(
                f"{where}: key holder's route only {row['speedup']:.2f}x over "
                f"pow (need {COMMIT_MIN_SPEEDUP}x)"
            )
    failures += _check_keystream(results["keystream"])
    for row in results["prg_reads"]:
        if not row["bit_identical"]:
            failures.append(
                f"prg reads: {row['samples']} samples differ between the "
                "per-sample loop and the uint64 path"
            )
    for row in results["query_path"]:
        where = f"query path: {row['modulus']} B={row['batch']} ({row['queries']} queries)"
        if not row["bit_identical"]:
            failures.append(f"{where}: t or answers differ from the embedded queries")
        if row["speedup"] < QUERY_PATH_MIN_SPEEDUP:
            failures.append(
                f"{where}: base rows only {row['speedup']:.2f}x over the "
                f"embedded queries (need {QUERY_PATH_MIN_SPEEDUP}x)"
            )
    product = results["batch"]["product"]
    if product is not None:
        if not product["bit_identical"]:
            failures.append(
                "batch: CRT product differs from the object-dtype route "
                f"at m={product['m']} batch={product['batch']}"
            )
        if product["batch"] >= BATCH_MIN_BATCH and (
            product["speedup"] < BATCH_MIN_SPEEDUP
        ):
            failures.append(
                f"batch: CRT product at m={product['m']} "
                f"batch={product['batch']} only {product['speedup']:.2f}x "
                f"over the object-dtype route (need {BATCH_MIN_SPEEDUP}x)"
            )
    return failures


def _check_fold(rows: list[dict]) -> list[str]:
    """Equal pairs on every route; the fold's floor over pow at
    ``COMMIT_GATE_N``; on ``FOLD_CROSSOVER_GROUP``'s real vectors, the
    route each side of ``PIPPENGER_MIN_TERMS`` takes within
    ``CROSSOVER_MARGIN`` of the other's time."""
    failures = []
    crossover = multiexp.PIPPENGER_MIN_TERMS
    for row in rows:
        where = f"fold: {row['group']} {row['weights']} n={row['n']} ({row['terms']} terms)"
        if not row["bit_identical"]:
            failures.append(f"{where}: the routes' pairs differ")
        if row["weights"] == "dense":
            if row["n"] == COMMIT_GATE_N and row["speedup"] < COMMIT_MIN_SPEEDUP:
                failures.append(
                    f"{where}: fold only {row['speedup']:.2f}x over pow "
                    f"(need {COMMIT_MIN_SPEEDUP}x)"
                )
            continue
        ratio = row["bos_coster_over_pippenger"]
        if row["group"] != FOLD_CROSSOVER_GROUP:
            continue
        if row["terms"] < crossover and ratio > CROSSOVER_MARGIN:
            failures.append(
                f"{where}: Bos–Coster {ratio:.2f}x Pippenger's time below "
                f"PIPPENGER_MIN_TERMS = {crossover} (allowed {CROSSOVER_MARGIN}x)"
            )
        if row["terms"] >= crossover and 1 / ratio > CROSSOVER_MARGIN:
            failures.append(
                f"{where}: Pippenger {1 / ratio:.2f}x Bos–Coster's time from "
                f"PIPPENGER_MIN_TERMS = {crossover} on (allowed {CROSSOVER_MARGIN}x)"
            )
    return failures


def _check_keystream(rows: list[dict]) -> list[str]:
    """Equal bytes on every route; the kernel's and the packed route's
    floors over the loop; ``KERNEL_MIN_BLOCKS`` where the lines cross."""
    failures = []
    for row in rows:
        where = f"keystream: {row['blocks']} blocks"
        if not row["bit_identical"]:
            failures.append(f"{where}: the routes' bytes differ from the per-block loop")
        if row["blocks"] in PACKED_GATE_BLOCKS and row["packed_speedup"] < PACKED_MIN_SPEEDUP:
            failures.append(
                f"{where}: packed route only {row['packed_speedup']:.2f}x over the "
                f"per-block loop (need {PACKED_MIN_SPEEDUP}x)"
            )
        ratio = row["packed_over_kernel"]
        if ratio is None:
            continue  # numpy absent: no kernel to gate or to cross
        if row["blocks"] == KEYSTREAM_GATE_BLOCKS and row["speedup"] < KEYSTREAM_MIN_SPEEDUP:
            failures.append(
                f"{where}: kernel only {row['speedup']:.2f}x over the "
                f"per-block loop (need {KEYSTREAM_MIN_SPEEDUP}x)"
            )
        if row["blocks"] < KERNEL_MIN_BLOCKS and ratio > CROSSOVER_MARGIN:
            failures.append(
                f"{where}: packed route {ratio:.2f}x the kernel's time below "
                f"KERNEL_MIN_BLOCKS = {KERNEL_MIN_BLOCKS} (allowed {CROSSOVER_MARGIN}x)"
            )
        if row["blocks"] >= KERNEL_MIN_BLOCKS and 1 / ratio > CROSSOVER_MARGIN:
            failures.append(
                f"{where}: kernel {1 / ratio:.2f}x the packed route's time from "
                f"KERNEL_MIN_BLOCKS = {KERNEL_MIN_BLOCKS} on (allowed {CROSSOVER_MARGIN}x)"
            )
    return failures


def _report(results: dict) -> None:
    rows = []
    for section in ("ntt", "division", "interpolation"):
        row = results[section]
        fast = row.get("cached_seconds", row.get("warm_seconds"))
        slow = row.get("uncached_seconds", row.get("cold_seconds"))
        rows.append(
            [
                section,
                fmt_seconds(slow),
                fmt_seconds(fast),
                f"{row['speedup']:.2f}x",
                "yes" if row["bit_identical"] else "NO",
            ]
        )
    print_table(
        "kernel plans: cached vs from-scratch",
        ["kernel", "uncached", "cached", "speedup", "bit-identical"],
        rows,
    )
    counters = results["counters"]
    print(
        f"\nplan cache over 2 instances: {counters['plan_hits']} hits / "
        f"{counters['plan_misses']} misses ({counters['cache_entries']})"
    )

    rows = [
        [
            f"{row['group']} n={row['n']}",
            fmt_seconds(row["enc_pow_seconds"]),
            fmt_seconds(row["enc_kernel_seconds"]),
            f"{row['enc_speedup']:.2f}x",
            "yes" if row["bit_identical"] else "NO",
        ]
        for row in results["commitment"]
    ]
    print()
    print_table(
        "Enc(r): per-element pow vs the key holder's generator table",
        ["vector", "pow", "kernel", "speedup", "identical"],
        rows,
    )
    rows = [
        [
            f"{row['group']} {row['weights']} n={row['n']}",
            str(row["terms"]),
            fmt_seconds(row["pow_seconds"]) if row["pow_seconds"] else "-",
            fmt_seconds(row["bos_coster_seconds"]),
            fmt_seconds(row["pippenger_seconds"]),
            f"{row['bos_coster_over_pippenger']:.2f}",
            row["route"],
            f"{row['speedup']:.2f}x" if row["speedup"] else "-",
            "yes" if row["bit_identical"] else "NO",
        ]
        for row in results["fold"]
    ]
    print()
    print_table(
        "fold: per-element pow vs Bos–Coster vs Pippenger "
        f"(PIPPENGER_MIN_TERMS = {multiexp.PIPPENGER_MIN_TERMS})",
        ["vector", "terms", "pow", "Bos–Coster", "Pippenger", "BC/Pip", "route",
         "speedup", "identical"],
        rows,
    )
    rows = [
        [
            row["group"],
            fmt_seconds(row["pow_seconds"]),
            fmt_seconds(row["key_seconds"]),
            f"{row['speedup']:.2f}x",
            "yes" if row["bit_identical"] else "NO",
        ]
        for row in results["decryption"]
    ]
    print()
    print_table(
        "decryption (per ciphertext): c2·c1^(P−1−x) vs c2·(c1⁻¹)^x",
        ["group", "pow", "key holder", "speedup", "identical"],
        rows,
    )

    rows = [
        [
            f"{row['blocks']} blocks",
            fmt_seconds(row["loop_seconds"]),
            fmt_seconds(row["packed_seconds"]),
            f"{row['packed_speedup']:.2f}x",
            fmt_seconds(row["kernel_seconds"]) if row["kernel_seconds"] else "-",
            f"{row['speedup']:.2f}x" if row["speedup"] else "-",
            f"{row['packed_over_kernel']:.2f}" if row["packed_over_kernel"] else "-",
            "yes" if row["bit_identical"] else "NO",
        ]
        for row in results["keystream"]
    ]
    print()
    print_table(
        "ChaCha20 keystream: per-block loop vs packed ints vs numpy kernel "
        f"(KERNEL_MIN_BLOCKS = {KERNEL_MIN_BLOCKS})",
        ["read", "loop", "packed", "speedup", "kernel", "speedup", "packed/kernel",
         "identical"],
        rows,
    )

    if results["prg_reads"]:
        rows = [
            [
                f"{row['samples']} samples",
                fmt_seconds(row["loop_seconds"]),
                fmt_seconds(row["bulk_seconds"]),
                f"{row['bulk_speedup']:.2f}x",
                "yes" if row["bit_identical"] else "NO",
            ]
            for row in results["prg_reads"]
        ]
        print()
        print_table(
            "FieldPRG.next_vector (goldilocks): per-sample loop vs uint64 path",
            ["read", "loop", "uint64", "speedup", "identical"],
            rows,
        )

    if results["query_path"]:
        rows = []
        for row in results["query_path"]:
            for stage in ("schedule", "t", "answers"):
                rows.append(
                    [
                        f"{row['modulus']} B={row['batch']} {stage}",
                        fmt_seconds(row["embedded_seconds"][stage]),
                        fmt_seconds(row["base_rows_seconds"][stage]),
                        f"{row['embedded_seconds'][stage] / row['base_rows_seconds'][stage]:.2f}x",
                        "",
                    ]
                )
            rows.append(
                [
                    f"{row['modulus']} B={row['batch']} total",
                    fmt_seconds(row["embedded_total_seconds"]),
                    fmt_seconds(row["base_rows_total_seconds"]),
                    f"{row['speedup']:.2f}x",
                    "yes" if row["bit_identical"] else "NO",
                ]
            )
        print()
        print_table(
            "query path at PAPER_PARAMS (LCS m=4): embedded queries vs base rows",
            ["stage", "embedded", "base rows", "speedup", "identical"],
            rows,
        )

    backends = results["backends"]
    if not backends["numpy_available"]:
        print("\nfield backends: numpy not installed, scalar-only run")
        return
    rows = []
    for row in backends["sizes"]:
        for op in BACKEND_OPS:
            entry = row[op]
            kernel = "kernel_seconds" in entry
            rows.append(
                [
                    f"{op} n={row['size']}",
                    fmt_seconds(entry["scalar_seconds"]),
                    fmt_seconds(entry["numpy_seconds"]),
                    f"{entry['speedup']:.2f}x",
                    fmt_seconds(entry["kernel_seconds"]) if kernel else "-",
                    f"{entry['kernel_speedup']:.2f}x" if kernel else "-",
                    "yes" if entry["bit_identical"] else "NO",
                ]
            )
    print()
    print_table(
        "field backends: scalar vs numpy (goldilocks), and the uint64 kernel alone",
        ["kernel", "scalar", "numpy", "speedup", "uint64", "speedup", "bit-identical"],
        rows,
    )

    batch = results["batch"]
    rows = [
        [
            f"batch={row['batch']}",
            fmt_seconds(row["sequential_seconds"]),
            fmt_seconds(row["batched_seconds"]),
            f"{row['per_instance_speedup']:.2f}x",
            "yes" if row["bit_identical"] else "NO",
        ]
        for row in batch["batches"]
    ]
    print()
    print_table(
        f"batched H(t) pipeline ({batch['modulus']}, m={batch['m']}): "
        "per-row vs 2-D + CRT",
        ["batch", "per-row", "batched", "speedup", "bit-identical"],
        rows,
    )
    arithmetic = batch["arithmetic"]
    print(
        f"\narithmetic-mode H(t) ({arithmetic['modulus']}, "
        f"{arithmetic['constraints']} constraints, batch={arithmetic['batch']}): "
        f"division oracle {fmt_seconds(arithmetic['oracle_seconds'])} vs "
        f"from evaluations {fmt_seconds(arithmetic['pipeline_seconds'])} — "
        f"{arithmetic['speedup']:.2f}x, bit-identical: "
        f"{'yes' if arithmetic['bit_identical'] else 'NO'}"
    )
    newton = batch["newton"]
    print(
        f"\nH(t) interpolation ({newton['modulus']}, {newton['points']} points, "
        f"batch={newton['batch']}): tree + Taylor shift "
        f"{fmt_seconds(newton['tree_shift_seconds'])} vs Newton "
        f"{fmt_seconds(newton['newton_seconds'])} — {newton['speedup']:.2f}x, "
        f"bit-identical: {'yes' if newton['bit_identical'] else 'NO'}"
    )
    for row in batch["fixed_operand"]:
        print(
            f"\nH(t) extension step ({row['modulus']}, B={row['batch']}: "
            f"{row['rows']} rows of {row['points']}): two operands "
            f"{fmt_seconds(row['two_operand_seconds'])} vs fixed operand "
            f"{fmt_seconds(row['fixed_seconds'])} — {row['speedup']:.2f}x, "
            f"bit-identical: {'yes' if row['bit_identical'] else 'NO'}"
        )
    product = batch.get("product")
    if product is not None:
        print(
            f"\nproduct stage gate ({product['modulus']}, m={product['m']}, "
            f"batch={product['batch']}): object-dtype "
            f"{fmt_seconds(product['object_seconds'])} vs CRT "
            f"{fmt_seconds(product['crt_seconds'])} — "
            f"{product['speedup']:.2f}x, bit-identical: "
            f"{'yes' if product['bit_identical'] else 'NO'}"
        )


def test_kernels(benchmark):
    """Pytest entry point, shaped like the figure benches."""
    results = benchmark.pedantic(lambda: run_bench(4096, 3), rounds=1, iterations=1)
    _report(results)
    emit_results("kernels")
    emit_results("backends")
    emit_results("batch")
    assert not check(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=4096, help="NTT size (power of two)")
    parser.add_argument("--reps", type=int, default=5, help="timing repetitions (best-of)")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) unless cached kernels are bit-identical and not slower",
    )
    args = parser.parse_args(argv)
    if args.size < 4 or args.size & (args.size - 1):
        parser.error("--size must be a power of two >= 4")
    results = run_bench(args.size, args.reps)
    _report(results)
    path = emit_results("kernels")
    backend_path = emit_results("backends")
    batch_path = emit_results("batch")
    print(f"\nresults written to {path}, {backend_path} and {batch_path}")
    if args.check:
        failures = check(results)
        for f in failures:
            print(f"CHECK FAILED: {f}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
