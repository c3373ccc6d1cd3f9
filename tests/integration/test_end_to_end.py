"""Full-stack integration: compile → solve → prove → verify, per app."""

import random

import pytest

from repro import telemetry
from repro.apps import ALL_APPS
from repro.argument import ArgumentConfig, ZaatarArgument, ZaatarProver
from repro.field import P128, PrimeField
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))

TINY_SIZES = {
    "pam_clustering": {"m": 3, "d": 2},
    "root_finding_bisection": {"m": 3, "L": 3, "num_bits": 6},
    "all_pairs_shortest_path": {"m": 3},
    "fannkuch": {"m": 1, "n": 4},
    "longest_common_subsequence": {"m": 4},
}


@pytest.fixture(params=sorted(ALL_APPS), ids=lambda n: n)
def app(request):
    return ALL_APPS[request.param]


class TestZaatarOnEveryApp:
    def test_batch_verifies(self, gold, app):
        rng = random.Random(42)
        sizes = TINY_SIZES[app.name]
        prog = app.compile(gold, sizes)
        arg = ZaatarArgument(prog, FAST)
        batch = [app.generate_inputs(rng, sizes) for _ in range(2)]
        result = arg.run_batch(batch)
        assert result.all_accepted
        for inputs, inst in zip(batch, result.instances):
            expected = [v % gold.p for v in app.reference(inputs, sizes)]
            assert inst.output_values == expected

    def test_cheating_on_app_rejected(self, gold, app):
        rng = random.Random(43)
        sizes = TINY_SIZES[app.name]
        prog = app.compile(gold, sizes)

        class OutputBumper(ZaatarProver):
            def commit(self, request, batch, **kwargs):
                committed = super().commit(request, batch, **kwargs)
                return [([(y[0] + 1) % gold.p, *y[1:]], c) for y, c in committed]

        class Cheat(ZaatarArgument):
            prover_type = OutputBumper

        result = Cheat(prog, FAST).run_batch([app.generate_inputs(rng, sizes)])
        assert not result.all_accepted


class TestPaperField:
    def test_lcs_on_p128(self):
        """The paper's 128-bit field, end to end (smaller batch)."""
        field = PrimeField(P128, check_prime=False)
        app = ALL_APPS["longest_common_subsequence"]
        rng = random.Random(1)
        sizes = {"m": 4}
        prog = app.compile(field, sizes)
        result = ZaatarArgument(prog, FAST).run_batch(
            [app.generate_inputs(rng, sizes)]
        )
        assert result.all_accepted


def _subtree_counts(tracer, name: str) -> dict:
    """Counters summed over every ``name`` span and its descendants, plus
    ``spans.<span name>``: how many spans of each name that covers."""
    children: dict = {}
    for span in tracer.spans:
        children.setdefault(span.parent_id, []).append(span)
    totals: dict = {}
    todo = tracer.find(name)
    while todo:
        span = todo.pop()
        key = f"spans.{span.name}"
        totals[key] = totals.get(key, 0) + 1
        for counter, value in span.counters.items():
            totals[counter] = totals.get(counter, 0) + value
        todo += children.get(span.span_id, [])
    return totals


class TestBatchingSemantics:
    def test_setup_shared_across_batch(self, gold):
        """The verifier's set-up is shared by the batch: a B = 4 batch's
        ``verifier.query_setup`` does the same encryptions,
        exponentiations and circuit-query constructions as a B = 1
        batch's, and only the per-instance checks grow with B (one
        decryption per instance)."""
        app = ALL_APPS["longest_common_subsequence"]
        rng = random.Random(3)
        sizes = {"m": 4}
        prog = app.compile(gold, sizes)
        setup, checks = {}, {}
        for size in (1, 4):
            batch = [app.generate_inputs(rng, sizes) for _ in range(size)]
            with telemetry.session() as tracer:
                assert ZaatarArgument(prog, FAST).run_batch(batch).all_accepted
            setup[size] = _subtree_counts(tracer, "verifier.query_setup")
            checks[size] = _subtree_counts(tracer, "verifier.per_instance")
        for key in ("crypto.encryptions", "crypto.exponentiations", "spans.qap.circuit_queries"):
            assert setup[1][key] == setup[4][key] > 0, key
        assert checks[1]["crypto.decryptions"] == 1
        assert checks[4]["crypto.decryptions"] == 4
