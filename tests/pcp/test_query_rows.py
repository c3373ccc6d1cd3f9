"""Queries as base rows: t and every answer equal the per-query route.

The schedule keeps only its fresh linearity rows and circuit rows, the
verifier folds each α onto them for t, and the prover answers each base
row once and derives the rest.  ``tests/pcp/query_oracle.py`` keeps the
route that builds every query as a full-length vector; these tests hold
the base-row route to it, element for element.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import ALL_APPS
from repro.argument import ZaatarArgument
from repro.crypto import FieldPRG
from repro.crypto import chacha
from repro.crypto import prg as prg_module
from repro.field import HAVE_NUMPY, NAMED_FIELDS, PrimeField, WordRows
from repro.pcp import PAPER_PARAMS, TEST_PARAMS, SoundnessParams, zaatar
from repro.qap import build_qap
from tests.integration.test_end_to_end import FAST, TINY_SIZES
from tests.pcp import query_oracle

BACKENDS = ("scalar", "numpy") if HAVE_NUMPY else ("scalar",)


def _field(name: str, backend: str) -> PrimeField:
    return PrimeField(NAMED_FIELDS[name], check_prime=False, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app_name", sorted(TINY_SIZES))
@pytest.mark.parametrize("batch_size", [1, 3])
def test_t_and_answers_equal_the_per_query_route(app_name, backend, batch_size):
    app, sizes = ALL_APPS[app_name], TINY_SIZES[app_name]
    field = _field("goldilocks", backend)
    argument = ZaatarArgument(app.compile(field, sizes), FAST)
    schedule, verifier, request, challenge = argument.verifier_setup()
    queries = query_oracle.embedded_queries(
        argument.qap, FAST.params, FieldPRG(field, FAST.seed, "queries")
    )
    assert schedule.queries() == queries
    t = query_oracle.consistency_query(field, verifier._r, verifier._alphas, queries)
    assert challenge.t == t
    rng = random.Random(f"{app_name}:{batch_size}")
    batch = [app.generate_inputs(rng, sizes) for _ in range(batch_size)]
    prover = argument.prover()
    prover.commit(request, batch)
    expected = [query_oracle.answers(field, queries, t, u) for _, _, u in prover.committed]
    assert prover.answer(challenge) == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app_name", sorted(TINY_SIZES))
def test_answers_without_the_commitment_layer(app_name, backend):
    """The PCP's own answers, from the base rows alone, are one inner
    product per embedded query."""
    app, sizes = ALL_APPS[app_name], TINY_SIZES[app_name]
    field = _field("goldilocks", backend)
    argument = ZaatarArgument(app.compile(field, sizes), FAST)
    schedule, _, request, _ = argument.verifier_setup()
    queries = query_oracle.embedded_queries(
        argument.qap, FAST.params, FieldPRG(field, FAST.seed, "queries")
    )
    batch = [app.generate_inputs(random.Random(app_name), sizes) for _ in range(2)]
    prover = argument.prover()
    prover.commit(request, batch)
    for _, _, u in prover.committed:
        assert schedule.basis.answer(u) == [field.inner_product(q, u) for q in queries]


@pytest.fixture(scope="module")
def lcs_qaps():
    """LCS m = 4's QAP over every named field, on each backend."""
    app = ALL_APPS["longest_common_subsequence"]
    return {
        (name, backend): build_qap(app.compile(_field(name, backend), {"m": 4}).quadratic)
        for name in NAMED_FIELDS
        for backend in BACKENDS
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
@pytest.mark.parametrize("numpy_present", [True, False])
def test_base_rows_equal_the_embedded_queries(
    lcs_qaps, name, backend, numpy_present, monkeypatch
):
    """On every field, drawn as word arrays (numpy backend, samples
    already canonical: goldilocks, p128, p192) or as int lists (p220's
    samples need a reduction; the scalar backend; no numpy), the
    schedule's base rows make exactly the embedded queries, and t over
    them equals t over the embedded queries."""
    if not numpy_present:
        monkeypatch.setattr(prg_module, "_np", None)
    qap = lcs_qaps[name, backend]
    params = SoundnessParams(rho_lin=3, rho=2)
    schedule = zaatar.generate_schedule(qap, params, FieldPRG(qap.field, b"rows"))
    queries = query_oracle.embedded_queries(qap, params, FieldPRG(qap.field, b"rows"))
    arrays = numpy_present and backend == "numpy" and name != "p220"
    for side in schedule.basis.sides:
        assert isinstance(side, WordRows) == arrays
    assert schedule.queries() == queries
    rng = random.Random(name)
    p = qap.field.p
    r = [rng.randrange(p) for _ in range(qap.proof_vector_length)]
    alphas = [rng.randrange(p) for _ in queries]
    folded = schedule.basis.fold(alphas)
    t = []
    for rows, coeffs, (lo, hi) in zip(
        schedule.basis.sides, folded, [(0, qap.n_prime), (qap.n_prime, len(r))]
    ):
        t += qap.field.vec_lincomb(r[lo:hi], coeffs, rows)
    assert t == query_oracle.consistency_query(qap.field, r, alphas, queries)
    u = [rng.randrange(p) for _ in r]
    assert schedule.basis.answer(u) == query_oracle.answers(qap.field, queries, t, u)[:-1]


class _Scripted:
    """A keystream that replays fixed bytes."""

    def __init__(self, data: bytes):
        self.data, self.at = data, 0

    def read(self, n: int) -> bytes:
        chunk = self.data[self.at : self.at + n]
        self.at += n
        assert len(chunk) == n, "the script ran out"
        return chunk


@pytest.mark.skipif(not HAVE_NUMPY, reason="word draws need numpy")
@pytest.mark.parametrize("name", ["goldilocks", "p128", "p192"])
def test_word_draws_reject_exactly_at_p(name):
    """Of the samples p − 1, p, p + 1 and the largest one, only p − 1 is
    accepted; the word draw reads on for the shortfall and takes the
    same samples, from the same bytes, as ``next_vector``."""
    field = _field(name, "numpy")
    p, width = field.p, (field.p.bit_length() + 7) // 8
    samples = [p - 1, p, p + 1, 2 ** (8 * width) - 1, 0, 1, p - 2, p, 5]
    script = b"".join(v.to_bytes(width, "little") for v in samples)
    accepted = [v for v in samples if v < p]
    draws = {}
    for method in ("next_words", "next_vector"):
        prg = FieldPRG(field, b"scripted")
        prg._stream = _Scripted(script)
        draws[method] = getattr(prg, method)(len(accepted))
        assert prg._stream.at == len(script)
    words = draws["next_words"]
    values = [sum(int(x) << (64 * j) for j, x in enumerate(row)) for row in words]
    assert values == draws["next_vector"] == accepted


@pytest.mark.skipif(not HAVE_NUMPY, reason="without numpy every block is packed")
@pytest.mark.parametrize("params", [TEST_PARAMS, PAPER_PARAMS], ids=["test", "paper"])
@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
def test_schedule_runs_no_per_block_chacha(lcs_qaps, name, params, monkeypatch):
    """With numpy, a schedule's every keystream block comes from the
    kernel: each repetition's linearity draw is one kernel call, and the
    short τ draw after it reads blocks the kernel buffered past it, so
    the short-read route (``chacha20_packed``) never runs."""
    calls = []
    for route in ("chacha20_packed", "chacha20_blocks"):
        fn = getattr(chacha, route)
        monkeypatch.setattr(
            chacha,
            route,
            lambda *args, _fn=fn, _route=route: calls.append(_route) or _fn(*args),
        )
    qap = lcs_qaps[name, "numpy"]
    zaatar.generate_schedule(qap, params, FieldPRG(qap.field, b"blocks", "queries"))
    assert calls == ["chacha20_blocks"] * params.rho
