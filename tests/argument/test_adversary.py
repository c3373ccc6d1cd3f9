"""The soundness-regression harness: every catalogued cheat is rejected.

§2.2's guarantee — a prover that misuses the commitment, commits to a
non-linear function, to one not of the form (z, h), or to a
non-satisfying z', is rejected with probability ≥ 1 − ε — is kept as a
*tested invariant*: one test per (mutation, seed) pair, with the
rejection signature each mutation must trip.  Two adaptive provers, which
win only if they learn the verifier's secrets before they should, are
rejected too, and no prover step is ever handed those secrets.
"""

import dataclasses
import functools
import random
import types
from typing import Callable

import pytest

from repro.apps import LCS
from repro.argument import (
    MUTATION_CATALOG,
    MUTATIONS,
    AdversarialProver,
    ArgumentConfig,
    GatewayServer,
    ProgramRegistry,
    ProtocolViolation,
    ZaatarArgument,
    ZaatarProver,
    run_parallel_batch,
    verify_remote,
)
from repro.argument import serve as serve_mod
from repro.crypto import CommitmentVerifier, ElGamalKeypair, FieldPRG, query_key
from repro.crypto import prg as prg_module
from repro.pcp import PAPER_PARAMS, MutatingOracle, SoundnessParams, VectorOracle, zaatar
from repro.pcp.zaatar import ZaatarSchedule
from repro.qap import build_proof_vector, build_qap, circuit_queries, instance_scalars

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))

#: which verifier check each mutation must trip (None: either may fire)
EXPECTED_SIGNATURE = {
    "tamper-witness": "pcp",
    "wrong-h": "pcp",
    "zero-h": "pcp",
    "tamper-output": "pcp",
    "substitute-commitment": "commitment",
    "swap-answers": None,
}


class TestCatalog:
    def test_catalog_is_documented_and_sorted(self):
        assert MUTATIONS == tuple(sorted(MUTATION_CATALOG))
        assert len(MUTATIONS) == 6
        assert all(MUTATION_CATALOG[m] for m in MUTATIONS)
        assert set(EXPECTED_SIGNATURE) == set(MUTATIONS)

    def test_unknown_mutation_rejected(self, sumsq_program):
        with pytest.raises(ValueError, match="unknown mutation"):
            AdversarialProver(sumsq_program, FAST, mutation="frobnicate")


class TestEveryMutationRejected:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verifier_rejects(self, sumsq_program, mutation, seed):
        adversary = AdversarialProver(
            sumsq_program, FAST, mutation=mutation, seed=seed
        )
        result = adversary.run_batch([[1, 2, 3]])
        (instance,) = result.instances
        assert instance.ok  # a proof was produced — and then rejected
        assert not instance.accepted, (
            f"mutation {mutation!r} (seed {seed}) was ACCEPTED: "
            f"{MUTATION_CATALOG[mutation]}"
        )
        signature = EXPECTED_SIGNATURE[mutation]
        if signature == "pcp":
            assert not instance.pcp_ok
        elif signature == "commitment":
            assert not instance.commitment_ok
        else:
            assert not (instance.commitment_ok and instance.pcp_ok)

    def test_rejected_through_parallel_engine(self, sumsq_program):
        """Every mutation, in the inline pass and in forked workers."""
        for mutation in MUTATIONS:
            adversary = AdversarialProver(
                sumsq_program, FAST, mutation=mutation, seed=0
            )
            for workers in (1, 2):
                result = run_parallel_batch(
                    adversary, [[1, 2, 3], [2, 3, 4]], num_workers=workers
                )
                outcomes = result.result.instances
                assert all(r.ok for r in outcomes), (mutation, workers)
                assert not any(r.accepted for r in outcomes), (mutation, workers)

    def test_mutations_are_counted(self, sumsq_program):
        from repro import telemetry

        adversary = AdversarialProver(
            sumsq_program, FAST, mutation="zero-h", seed=0
        )
        tracer = telemetry.enable()
        try:
            adversary.run_batch([[1, 2, 3]])
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert totals.get("adversary.mutations") == 1
        assert totals.get("adversary.mutations.zero-h") == 1


class TestMutatingOracle:
    """The PCP-level counterpart: adversaries below the commitment."""

    PARAMS = SoundnessParams(rho_lin=3, rho=2)

    @pytest.fixture()
    def setup(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        sol = sumsq_program.solve([2, 3, 4])
        proof = build_proof_vector(qap, sol.quadratic_witness)
        return qap, sol, proof

    def test_identity_mutation_accepts(self, setup, gold):
        qap, sol, proof = setup
        oracle = MutatingOracle(
            VectorOracle(gold, proof.vector), lambda i, q, a: a
        )
        result = zaatar.run_pcp(
            qap, self.PARAMS, FieldPRG(gold, b"mo"), oracle, sol.x, sol.y
        )
        assert result.accepted
        assert oracle.calls > 0

    def test_shifting_every_answer_rejected(self, setup, gold):
        qap, sol, proof = setup
        oracle = MutatingOracle(
            VectorOracle(gold, proof.vector),
            lambda i, q, a: (a + 1) % gold.p,
        )
        result = zaatar.run_pcp(
            qap, self.PARAMS, FieldPRG(gold, b"mo"), oracle, sol.x, sol.y
        )
        assert not result.accepted

    def test_shifting_one_late_answer_rejected(self, setup, gold):
        """A single doctored answer (by query order) must still lose:
        either the consistency layer or the circuit checks notice."""
        qap, sol, proof = setup
        oracle = MutatingOracle(
            VectorOracle(gold, proof.vector),
            lambda i, q, a: (a + 1) % gold.p if i == oracle_target else a,
        )
        oracle_target = 7
        result = zaatar.run_pcp(
            qap, self.PARAMS, FieldPRG(gold, b"mo-one"), oracle, sol.x, sol.y
        )
        assert not result.accepted


# -- adaptive adversaries: the prover sees only the prover's messages --------


def _solve_mod(rows, rhs, p):
    """x with rows·x = rhs (mod p), by Gauss–Jordan elimination."""
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if m[i][col] % p)
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], -1, p)
        m[col] = [v * inv % p for v in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def _dot(a, b, p):
    return sum(x * y for x, y in zip(a, b)) % p


def _fit_h(qap, schedule, x, y, vector):
    """u = (z, h′): h′ is h with its first ρ coordinates solved so that
    D(τ)·⟨q_d, h′⟩ = A_τ·B_τ − C_τ at every τ of ``schedule`` for the
    claim (x, y)."""
    p = qap.field.p
    z, h = vector[: qap.n_prime], vector[qap.n_prime :]
    rho = len(schedule.repetitions)
    rows, rhs = [], []
    for rep in schedule.repetitions:
        c = rep.circuit
        s = instance_scalars(qap, c, x, y)
        a, b, cc = (
            (_dot(q, z, p) + l) % p for q, l in ((c.qa, s.l_a), (c.qb, s.l_b), (c.qc, s.l_c))
        )
        target = (a * b - cc) * pow(c.d_tau, -1, p) % p
        rows.append(c.qd[:rho])
        rhs.append((target - _dot(c.qd, h, p)) % p)
    delta = _solve_mod(rows, rhs, p)
    return z + [(v + d) % p for v, d in zip(h, delta)] + h[rho:]


class QueryAwareProver(ZaatarProver):
    """Claims y + 1 and commits to (z, h′), h′ fitted (``_fit_h``) to the
    schedule it can derive before it commits: from ``seed``, by default
    that of the config it was built with, the only seed it ever holds."""

    def __init__(self, program, qap, config, seed=None):
        super().__init__(program, qap, config)
        self.seed = config.seed if seed is None else seed

    def build(self, batch, *args):
        built = super().build(batch, *args)
        prg = FieldPRG(self.field, self.seed, "queries")
        schedule = zaatar.generate_schedule(self.qap, PAPER_PARAMS, prg)
        p = self.field.p
        for sol, u in built:
            sol.output_values[0] = (sol.output_values[0] + 1) % p
            u[:] = _fit_h(self.qap, schedule, sol.input_values, sol.output_values, u)
        return built


class AlphaAwareProver(ZaatarProver):
    """Commits honestly but claims y + 1.  It answers honestly, then
    moves each q4 answer to fit the claim (τ sits in q4 − q8, which the
    challenge carries) and corrects π(t) with the α's rebuilt from
    ``seed``, by default that of the config it was built with."""

    def __init__(self, program, qap, config, seed=None):
        super().__init__(program, qap, config)
        self.seed = config.seed if seed is None else seed
        self.claims: list = []

    def commit(self, request, batch, **kwargs):
        p = self.field.p
        committed = []
        self.claims = []
        for values, (y, commitment) in zip(
            batch, super().commit(request, batch, **kwargs)
        ):
            claim = [(y[0] + 1) % p, *y[1:]]
            self.claims.append(([v % p for v in values], claim))
            committed.append((claim, commitment))
        return committed

    def answer(self, challenge):
        answers = super().answer(challenge)
        queries = challenge.basis.queries()
        rebuilt = CommitmentVerifier(
            self.field,
            self.group,
            len(queries[0]),
            FieldPRG(self.field, self.seed, "commitment"),
        )
        rebuilt.commit_request()
        rebuilt.decommit_challenge(challenge.basis)
        alphas = rebuilt._alphas
        p, n_prime = self.field.p, self.qap.n_prime
        per_rep = 6 * PAPER_PARAMS.rho_lin + 4
        for (x, y), values in zip(self.claims, answers):
            for base in range(0, len(queries), per_rep):
                i5, i8 = base, base + 3
                i1, i2, i3, i4 = range(base + per_rep - 4, base + per_rep)
                tau = (queries[i4][n_prime + 1] - queries[i8][n_prime + 1]) % p
                circuit = circuit_queries(self.qap, tau)
                s = instance_scalars(self.qap, circuit, x, y)
                a = (values[i1] - values[i5] + s.l_a) % p
                b = (values[i2] - values[i5] + s.l_b) % p
                c = (values[i3] - values[i5] + s.l_c) % p
                moved = (values[i8] + (a * b - c) * pow(circuit.d_tau, -1, p)) % p
                values[-1] = (values[-1] + alphas[i4] * (moved - values[i4])) % p
                values[i4] = moved
        return answers


PAPER = ArgumentConfig(params=PAPER_PARAMS)
PINNED_SEEDS = (b"pinned-adversary-1", b"pinned-adversary-2")


@pytest.fixture(scope="module")
def lcs_program(gold):
    """LCS m = 4: its h is longer than ρ = 8, so h′ can be fitted."""
    return LCS.compile(gold, {"m": 4})


@pytest.fixture(scope="module")
def lcs_inputs():
    rng = random.Random(26)
    return [LCS.generate_inputs(rng, {"m": 4}) for _ in range(2)]


def _run_in_process(program, inputs, seed, prover_type):
    argument = ZaatarArgument(program, dataclasses.replace(PAPER, seed=seed))
    argument.prover_type = prover_type
    return argument.run_batch(inputs).instances


class TestAdaptiveAdversaries:
    """Cheaters that adapt to what they receive.  Each wins once it holds
    the verifier's seed, and is rejected as it runs: no step, and no
    object a prover is built from, carries that seed."""

    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    @pytest.mark.parametrize(
        "adversary, signature",
        [(QueryAwareProver, "pcp"), (AlphaAwareProver, "commitment")],
    )
    def test_rejected_in_process(
        self, lcs_program, lcs_inputs, seed, adversary, signature
    ):
        outcomes = _run_in_process(lcs_program, lcs_inputs, seed, adversary)
        assert all(r.ok for r in outcomes)
        assert not any(r.accepted for r in outcomes)
        for r in outcomes:
            assert not (r.pcp_ok if signature == "pcp" else r.commitment_ok)
        # the control: handed the verifier's seed, it wins
        leaked = functools.partial(adversary, seed=seed)
        outcomes = _run_in_process(lcs_program, lcs_inputs, seed, leaked)
        assert all(r.accepted for r in outcomes)
        honest = ZaatarArgument(lcs_program, PAPER).run_batch(lcs_inputs).instances
        assert [r.output_values[0] for r in outcomes] == [
            r.output_values[0] + 1 for r in honest
        ]

    @pytest.mark.parametrize("adversary", [QueryAwareProver, AlphaAwareProver])
    def test_rejected_as_a_real_gateways_prover(
        self, lcs_program, lcs_inputs, monkeypatch, adversary
    ):
        registry = ProgramRegistry()
        registry.register(lcs_program, PAPER)
        for seed in PINNED_SEEDS:
            config = dataclasses.replace(PAPER, seed=seed)
            monkeypatch.setattr(serve_mod, "ZaatarProver", adversary)
            with GatewayServer(registry) as gw:
                result = verify_remote(lcs_program, lcs_inputs, gw.address, config)
            assert not any(r.accepted for r in result.instances), seed
            # the control: a gateway that hands it the seed is fooled
            monkeypatch.setattr(
                serve_mod, "ZaatarProver", functools.partial(adversary, seed=seed)
            )
            with GatewayServer(registry) as gw:
                result = verify_remote(lcs_program, lcs_inputs, gw.address, config)
            assert all(r.accepted for r in result.instances), seed


def _reachable(root):
    """Every object reachable from ``root`` through containers and
    instance attributes (not through modules, classes or functions)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, Callable)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))


class _SecretScanningProver(ZaatarProver):
    """The honest prover, which fails its instances if a step is handed
    the verifier's seed, anything drawn from it but the queries, a
    commitment verifier or a schedule object; and the commit step, even
    the query key."""

    #: (forbidden ints, forbidden byte strings), set before a run
    secrets: tuple = ((), ())

    def _scan(self, step, *received, query_key_allowed):
        ints, blobs = self.secrets
        if query_key_allowed:
            blobs = blobs[:-1]
        for obj in _reachable((self, received)):
            assert not isinstance(obj, (CommitmentVerifier, ElGamalKeypair, ZaatarSchedule)), (
                step,
                type(obj).__name__,
            )
            if isinstance(obj, (bytes, str)):
                raw = obj.encode() if isinstance(obj, str) else obj
                assert not any(b in raw or b.hex().encode() in raw for b in blobs), step
            elif isinstance(obj, int) and not isinstance(obj, bool):
                assert obj not in ints, step

    def commit(self, request, batch, **kwargs):
        self._scan("commit", request, batch, kwargs, query_key_allowed=False)
        return super().commit(request, batch, **kwargs)

    def answer(self, challenge):
        self._scan("answer", challenge, query_key_allowed=True)
        return super().answer(challenge)


class TestStepsSeeNoVerifierSecret:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_by_type_and_by_value(self, sumsq_program, monkeypatch, workers):
        """Neither step receives the seed, a CommitmentVerifier or the
        set-up tuple: in process, and in a forked worker."""
        config = dataclasses.replace(FAST, seed=b"scanned-seed")
        _, verifier, _, _ = ZaatarArgument(sumsq_program, config).verifier_setup()
        ints = {verifier._keypair.secret, *verifier._r, *verifier._alphas}
        blobs = (
            config.seed,
            prg_module._derive_key(config.seed, "commitment"),
            query_key(config.seed),
        )
        monkeypatch.setattr(_SecretScanningProver, "secrets", (ints, blobs))
        argument = ZaatarArgument(sumsq_program, config)
        argument.prover_type = _SecretScanningProver
        result = run_parallel_batch(
            argument, [[1, 2, 3], [2, 3, 4]], num_workers=workers
        )
        outcomes = result.result.instances
        assert all(r.ok for r in outcomes), [r.error_message for r in outcomes]
        assert all(r.accepted for r in outcomes)

    def test_the_scan_sees_a_leak(self, sumsq_program, monkeypatch):
        """The control: a prover built with the verifier's config holds
        its seed, and the scan fails it."""
        config = dataclasses.replace(FAST, seed=b"scanned-seed")
        monkeypatch.setattr(
            _SecretScanningProver, "secrets", (set(), (config.seed,))
        )

        class Leaky(_SecretScanningProver):
            def __init__(self, program, qap, _config):
                super().__init__(program, qap, config)
                self.leak = config

        argument = ZaatarArgument(sumsq_program, config)
        argument.prover_type = Leaky
        (outcome,) = argument.run_batch([[1, 2, 3]]).instances
        assert not outcome.ok and "AssertionError" in outcome.error_message

    def test_answer_before_commit_raises(self, sumsq_program):
        argument = ZaatarArgument(sumsq_program, FAST)
        _, _, request, challenge = argument.verifier_setup()
        prover = argument.prover()
        with pytest.raises(ProtocolViolation, match="before commit"):
            prover.answer(challenge)
        # a commit whose every instance failed commits to nothing either
        (failed,) = prover.commit(request, [[1, 2]])
        assert isinstance(failed, Exception)
        with pytest.raises(ProtocolViolation, match="before commit"):
            prover.answer(challenge)
