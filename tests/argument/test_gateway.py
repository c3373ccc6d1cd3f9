"""Tests for the multi-tenant prover gateway (repro.argument.serve)."""

import dataclasses
import socket
import threading
import time

import pytest

from repro import telemetry
from repro.argument import (
    ArgumentConfig,
    Deadlines,
    GatewayServer,
    ProcessFaultPlan,
    ProcessFaultRule,
    ProgramRegistry,
    ProtocolViolation,
    RetryPolicy,
    ZaatarArgument,
    fetch_stats,
    program_hash,
    verify_remote,
)
from repro.argument import serve as serve_mod
from repro.argument.framing import hex_list
from repro.argument.net import hello_frame, recv_frame, send_frame
from repro.argument.serve import hello_config
from repro.compiler import compile_program
from repro.crypto import query_key
from repro.pcp import SoundnessParams
from repro.telemetry import Trace

from ..conftest import build_sum_of_squares

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
NO_RETRY = RetryPolicy.none()


@pytest.fixture(scope="module")
def affine_program(gold):
    """A second hosted program, distinct from sumsq."""

    def build(b):
        x = b.input()
        b.output(x * x + x)

    return compile_program(gold, build, name="affine")


@pytest.fixture(scope="module")
def registry(sumsq_program, affine_program):
    reg = ProgramRegistry()
    reg.register(sumsq_program, FAST)
    reg.register(affine_program, FAST)
    return reg


def _raw_session(address, program, setup, batch):
    """Drive one untraced session frame by frame with a fixed verifier
    ``setup`` (drawn from ``FAST.seed``); returns the gateway's outputs
    and answers frames."""
    _, _, request, challenge = setup
    with socket.create_connection(address, timeout=5) as sock:
        sock.settimeout(30)
        send_frame(sock, hello_frame(program, FAST))
        assert recv_frame(sock)["type"] == "hello-ok"
        enc_r = [[format(c.c1, "x"), format(c.c2, "x")] for c in request.ciphertexts]
        send_frame(sock, {"type": "commit", "enc_r": enc_r})
        send_frame(sock, {"type": "inputs", "batch": [hex_list(x) for x in batch]})
        outputs = recv_frame(sock)
        send_frame(
            sock,
            {
                "type": "challenge",
                "key": query_key(FAST.seed).hex(),
                "t": hex_list(challenge.t),
            },
        )
        return outputs, recv_frame(sock)


def _hold_session(address, program):
    """Open a session and stall after hello-ok, pinning a handler/slot."""
    sock = socket.create_connection(address, timeout=5)
    sock.settimeout(10)
    send_frame(sock, hello_frame(program, FAST))
    reply = recv_frame(sock)
    assert reply["type"] == "hello-ok"
    return sock


class TestRegistry:
    def test_lookup_by_canonical_hash(self, registry, sumsq_program):
        entry = registry.lookup(program_hash(sumsq_program))
        assert entry is not None and entry.name == "sumsq"
        assert registry.lookup("no-such-hash") is None
        assert len(registry) == 2
        assert {e.name for e in registry} == {"sumsq", "affine"}

    def test_reregistration_replaces_entry(self, sumsq_program):
        reg = ProgramRegistry()
        first = reg.register(sumsq_program, FAST)
        second = reg.register(sumsq_program, FAST)
        assert len(reg) == 1
        assert reg.lookup(first.hash) is second

    def test_warm_precomputes_qap_artifacts(self, registry, sumsq_program):
        entry = registry.lookup(program_hash(sumsq_program))
        # registration warmed the QAP: a session must find it cached
        assert entry.qap(FAST.qap_mode) is entry.qap(FAST.qap_mode)

    def test_registration_builds_the_h_tables(self, sumsq_program):
        """Registration builds what the arithmetic-mode prover reads (the
        H(t) tables, Newton levels included), so the first session
        builds nothing; the subproduct tree, the divisor polynomial and
        its inverse, which no prover reads, are left unbuilt."""
        entry = ProgramRegistry().register(sumsq_program, FAST)
        qap = entry.qap(FAST.qap_mode)
        assert qap.mode == "arithmetic"
        built = vars(qap)
        assert "h_tables" in built and built["h_tables"].levels
        assert "subproduct_tree" not in built
        assert "divisor_poly" not in built and qap._divisor_inverse is None
        with telemetry.session() as tracer:
            qap.barycentric_weights
        assert tracer.total_counters().get("poly.plan_hits") == 1
        # roots mode interpolates by inverse NTTs: no tree there either
        assert "subproduct_tree" not in vars(entry.warm("roots").qap("roots"))

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError, match="no programs"):
            GatewayServer(ProgramRegistry())


class TestHelloParams:
    """The gateway decodes a hello into the session's config with the
    config's codec but keeps its own error codes and its resource cap."""

    def test_hello_frame_roundtrips(self, sumsq_program):
        config = hello_config(hello_frame(sumsq_program, FAST))
        assert config == dataclasses.replace(FAST, seed=b"")

    @pytest.mark.parametrize(
        "change, code",
        [
            ({"params": None}, "bad-frame"),
            ({"params": {"delta": 0.03, "rho_lin": 2}}, "bad-frame"),
            # an unhashable delta must fail the hello, not the session
            ({"params": {"delta": [1], "rho_lin": 2, "rho": 1}}, "bad-frame"),
            ({"params": {"delta": 0.03, "rho_lin": 0, "rho": 1}}, "bad-request"),
            ({"params": {"delta": 0.03, "rho_lin": 2, "rho": 129}}, "bad-request"),
            # the params refuse zero repetitions with a ValueError, which
            # must stay a bad-request rather than a malformed frame
            ({"params": {"delta": 0.03, "rho_lin": 2, "rho": 0}}, "bad-request"),
            ({"params": {"delta": 0.03, "rho_lin": -1, "rho": 1}}, "bad-request"),
            ({"paper_scale_crypto": "true"}, "bad-frame"),
            ({"qap_mode": ["x"]}, "bad-frame"),
        ],
    )
    def test_bad_params_keep_the_wire_codes(self, sumsq_program, change, code):
        hello = {**hello_frame(sumsq_program, FAST), **change}
        with pytest.raises(ProtocolViolation) as excinfo:
            hello_config(hello)
        assert excinfo.value.code == code


class TestSessionConfig:
    """A session proves under the config its hello carries, group
    included, not under the one its program was registered with."""

    @pytest.mark.parametrize("shards", [0, 1])
    def test_paper_scale_verifier_against_a_default_registration(self, p128, shards):
        program = compile_program(p128, build_sum_of_squares(), name="sumsq")
        registry = ProgramRegistry()
        registry.register(program, ArgumentConfig())
        paper = ArgumentConfig(params=FAST.params, paper_scale_crypto=True)
        with GatewayServer(registry, shards=shards) as gw:
            result = verify_remote(
                program, [[1, 2, 3], [4, 5, 6]], gw.address, paper, retry=NO_RETRY
            )
        verdicts = [(r.accepted, r.commitment_ok, r.pcp_ok) for r in result.instances]
        assert verdicts == [(True, True, True)] * 2
        assert [r.output_values for r in result.instances] == [[14], [77]]


class TestHelloQapMode:
    @staticmethod
    def _hello_reply(address, program, qap_mode):
        with socket.create_connection(address, timeout=5) as sock:
            sock.settimeout(30)
            send_frame(sock, {**hello_frame(program, FAST), "qap_mode": qap_mode})
            return recv_frame(sock)

    @staticmethod
    def _settled(gw, name: str) -> int:
        deadline = time.monotonic() + 5.0
        while not gw.metrics.counter_value(name) and time.monotonic() < deadline:
            time.sleep(0.01)
        return gw.metrics.counter_value(name)

    def test_non_string_qap_mode_is_a_bad_frame_at_the_hello(
        self, registry, sumsq_program
    ):
        """A non-string qap_mode would reach the per-mode QAP cache as
        a key; the hello refuses it, so the ledger never files an
        ``internal`` error for it."""
        with GatewayServer(registry) as gw:
            reply = self._hello_reply(gw.address, sumsq_program, ["x"])
            assert reply["type"] == "error" and reply["code"] == "bad-frame"
            assert "qap_mode" in reply["message"]
            assert self._settled(gw, "session_errors.bad-frame") == 1
            assert gw.metrics.counter_value("session_errors.internal") == 0

    def test_unknown_qap_mode_stays_a_bad_request(self, registry, sumsq_program):
        with GatewayServer(registry) as gw:
            with socket.create_connection(gw.address, timeout=5) as sock:
                sock.settimeout(30)
                send_frame(sock, {**hello_frame(sumsq_program, FAST), "qap_mode": "x"})
                assert recv_frame(sock)["type"] == "hello-ok"
                _, _, request, _ = ZaatarArgument(sumsq_program, FAST).verifier_setup()
                enc_r = [[format(c.c1, "x"), format(c.c2, "x")] for c in request.ciphertexts]
                send_frame(sock, {"type": "commit", "enc_r": enc_r})
                send_frame(sock, {"type": "inputs", "batch": [hex_list([1, 2, 3])]})
                reply = recv_frame(sock)
            assert reply["type"] == "error" and reply["code"] == "bad-request"
            assert self._settled(gw, "session_errors.bad-request") == 1
            assert gw.metrics.counter_value("session_errors.internal") == 0


class TestSessionProver:
    """The inline (shards=0) prove step's per-session work bounds."""

    @staticmethod
    def _prove(registry, program, batch):
        """One prove step, as the exchange runs it once the commit
        frame's Enc(r) is decoded."""
        request = ZaatarArgument(program, FAST).verifier_setup()[2]
        payload = (program_hash(program), FAST, request, batch, None)
        return serve_mod._SessionSteps(registry).run("prove", payload)

    def test_budget_expiring_after_the_solves_stops_before_any_commit(
        self, registry, sumsq_program, monkeypatch
    ):
        import repro.argument.protocol as protocol_mod

        expired = []
        real_compute_h_batch = protocol_mod.compute_h_batch

        def compute_h_then_expire(qap, witnesses):
            rows = real_compute_h_batch(qap, witnesses)
            expired.append(True)  # the budget runs out during H(t)
            return rows

        def budget_check(budget):
            if expired:
                raise ProtocolViolation("budget exhausted", code="deadline")

        monkeypatch.setattr(protocol_mod, "compute_h_batch", compute_h_then_expire)
        monkeypatch.setattr(serve_mod, "_budget_check", budget_check)
        batch = [["1", "2", "3"], ["2", "2", "2"], ["3", "1", "4"]]
        with telemetry.session() as tracer:
            with pytest.raises(ProtocolViolation) as excinfo:
                self._prove(registry, sumsq_program, batch)
        assert excinfo.value.code == "deadline"
        assert len(tracer.find("prover.solve_constraints")) == 3
        assert len(tracer.find("prover.construct_u")) == 1
        assert not tracer.find("prover.crypto_ops")

    def test_unprovable_instance_fails_before_later_solves_and_h(
        self, registry, sumsq_program
    ):
        batch = [["1", "2"], ["2", "2", "2"], ["3", "1", "4"]]  # wrong arity first
        with telemetry.session() as tracer:
            with pytest.raises(ProtocolViolation, match="instance 0") as excinfo:
                self._prove(registry, sumsq_program, batch)
        assert excinfo.value.code == "bad-request"
        assert len(tracer.find("prover.solve_constraints")) == 1
        assert not tracer.find("prover.construct_u")

    def test_empty_batch_is_a_bad_request(self, registry, sumsq_program):
        """A prover answers only what it committed, so a batch of no
        instances is refused at the prove step, not after the challenge."""
        with pytest.raises(ProtocolViolation, match="empty") as excinfo:
            self._prove(registry, sumsq_program, [])
        assert excinfo.value.code == "bad-request"


class TestMultiProgramDispatch:
    def test_two_programs_one_gateway(
        self, registry, sumsq_program, affine_program
    ):
        with GatewayServer(registry) as gw:
            r1 = verify_remote(sumsq_program, [[1, 2, 3]], gw.address, FAST)
            r2 = verify_remote(affine_program, [[6]], gw.address, FAST)
        assert r1.all_accepted and r2.all_accepted
        assert [r.output_values for r in r1.instances] == [[14]]
        assert [r.output_values for r in r2.instances] == [[42]]
        assert gw.metrics.counter_value("gateway.sessions.sumsq") == 1
        assert gw.metrics.counter_value("gateway.sessions.affine") == 1

    def test_unknown_program_is_structured_and_non_retryable(
        self, registry, gold
    ):
        def build(b):
            b.output(b.input() * 7)

        unhosted = compile_program(gold, build, name="unhosted")
        with GatewayServer(registry) as gw:
            with pytest.raises(ProtocolViolation) as excinfo:
                verify_remote(unhosted, [[1]], gw.address, FAST)
            assert excinfo.value.code == "unknown-program"
            assert not excinfo.value.retryable
            assert "not registered" in str(excinfo.value)
            # the default retry policy must not have replayed the session
            assert gw.metrics.counter_value("sessions_started") == 1
        assert gw.metrics.counter_value("gateway.unknown_program") == 1

    @pytest.mark.parametrize("shards", [0, 1])
    def test_every_answer_step_derives_its_schedule(self, sumsq_program, shards):
        """No schedule outlives its session: in both proving modes each
        answer step derives its own from K_q, under ``prover.schedule``
        in the session's subtree, and counts one miss."""
        registry = ProgramRegistry()
        registry.register(sumsq_program, FAST)
        with GatewayServer(registry, shards=shards) as gw:
            with telemetry.session() as tracer:
                for values in ([1, 1, 1], [2, 2, 2]):
                    verify_remote(sumsq_program, [values], gw.address)
        count = gw.metrics.counter_value
        assert count("gateway.schedule_cache_misses") == 2
        assert count("gateway.schedule_cache_hits") == 0
        trace = Trace.from_tracer(tracer)
        for session in trace.find("wire.prover_session"):
            names = [s.name for s in trace.subtree(session)]
            assert names.count("prover.schedule") == 1
            # derived after every commitment, before any answer
            assert (
                names.index("prover.crypto_ops")
                < names.index("prover.schedule")
                < names.index("prover.answer_queries")
            )

    def test_stats_frame_lists_every_program(self, registry, sumsq_program):
        with GatewayServer(registry, max_sessions=3, shards=0) as gw:
            verify_remote(sumsq_program, [[1, 2, 3]], gw.address, FAST)
            # the final answers frame can race the session's own
            # bookkeeping by a hair; wait for the session to retire
            deadline = time.monotonic() + 5.0
            while (
                not gw.metrics.counter_value("sessions_ok")
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            payload = fetch_stats(gw.address)
        server = payload["server"]
        assert server["role"] == "gateway"
        assert {p["name"] for p in server["programs"]} == {"sumsq", "affine"}
        assert server["max_sessions"] == 3
        # the registry snapshot is the frame's only ledger
        assert "stats" not in server
        assert payload["metrics"]["counters"]["sessions_ok"] >= 1
        assert payload["metrics"]["info"]["role"] == "gateway"

    def test_stats_and_metrics_counters_agree(
        self, registry, sumsq_program, gold
    ):
        """After one ok and one failed session, three sources tell one
        ledger: the stats frame's registry snapshot, the live registry,
        and a loopback trace's ``net.*`` counters."""

        def build(b):
            b.output(b.input() - 1)

        unhosted = compile_program(gold, build)
        names = ("sessions_started", "sessions_ok", "session_errors")
        with GatewayServer(registry) as gw:
            with telemetry.session() as tracer:
                verify_remote(sumsq_program, [[1, 2, 3]], gw.address, FAST)
                with pytest.raises(ProtocolViolation):
                    verify_remote(unhosted, [[1]], gw.address, FAST)
                # the final answers frame can race the session's own
                # bookkeeping by a hair; wait for the session to retire
                deadline = time.monotonic() + 5.0
                while (
                    not gw.metrics.counter_value("sessions_ok")
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
            live = {name: gw.metrics.counter_value(name) for name in names}
            wire = fetch_stats(gw.address)["metrics"]["counters"]
        traced = tracer.total_counters()
        assert live == {"sessions_started": 2, "sessions_ok": 1, "session_errors": 1}
        assert {name: traced[f"net.{name}"] for name in names} == live
        # the stats request is not a session: it leaves the ledger alone
        assert wire["stats_requests"] == 1
        assert {name: wire[name] for name in names} == live

    def test_stats_polls_are_not_sessions(self, registry, sumsq_program):
        """Polling the stats frame must not move the session ledger, the
        in-flight gauge, the queue-wait histogram or the latency
        histogram that ``retry_after`` hints read."""
        names = ("sessions_started", "sessions_ok", "session_errors")
        with GatewayServer(registry) as gw:
            verify_remote(sumsq_program, [[1, 2, 3]], gw.address, FAST)
            deadline = time.monotonic() + 5.0
            while (
                not gw.metrics.counter_value("sessions_ok")
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            polls = [fetch_stats(gw.address)["metrics"] for _ in range(3)]
            live = gw.metrics.snapshot()
        for doc in (*polls, live):
            assert {name: doc["counters"].get(name, 0) for name in names} == {
                "sessions_started": 1,
                "sessions_ok": 1,
                "session_errors": 0,
            }
            assert doc["histograms"]["session_latency_seconds"]["count"] == 1
            assert doc["gauges"]["sessions_in_flight"] == 0
            assert doc["histograms"]["gateway.queue_wait_seconds"]["count"] == 1
        assert live["counters"]["stats_requests"] == 3


class TestAdmissionControl:
    def test_overflow_sheds_with_busy_and_retry_after(
        self, registry, sumsq_program
    ):
        with GatewayServer(registry, max_sessions=1, accept_queue=0) as gw:
            held = _hold_session(gw.address, sumsq_program)
            try:
                with socket.create_connection(gw.address, timeout=5) as sock:
                    sock.settimeout(10)
                    frame = recv_frame(sock)
                assert frame["type"] == "error"
                assert frame["code"] == "busy"
                assert 0.05 <= frame["retry_after"] <= 30.0
            finally:
                held.close()
        assert gw.metrics.counter_value("sessions_rejected") >= 1
        assert gw.metrics.counter_value("gateway.shed.global") >= 1

    def test_queued_connection_is_served_after_release(
        self, registry, sumsq_program
    ):
        with GatewayServer(registry, max_sessions=1, accept_queue=4) as gw:
            held = _hold_session(gw.address, sumsq_program)
            outcome = {}

            def client():
                outcome["result"] = verify_remote(
                    sumsq_program, [[2, 3, 4]], gw.address, FAST, retry=NO_RETRY
                )

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            # the client sits in the accept queue while the slot is held
            deadline = time.monotonic() + 5
            while gw.admitted < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gw.admitted == 2
            assert "result" not in outcome
            held.close()  # frees the only handler
            thread.join(timeout=30)
        assert outcome["result"].all_accepted
        waits = gw.metrics.histogram("gateway.queue_wait_seconds")
        assert waits is not None and waits.count >= 1

    def test_per_program_limit_sheds_only_that_program(
        self, registry, sumsq_program, affine_program
    ):
        with GatewayServer(
            registry, max_sessions=4, per_program_sessions=1
        ) as gw:
            held = _hold_session(gw.address, sumsq_program)
            try:
                with pytest.raises(ProtocolViolation) as excinfo:
                    verify_remote(
                        sumsq_program, [[1, 1, 1]], gw.address, FAST, retry=NO_RETRY
                    )
                assert excinfo.value.code == "busy"
                assert excinfo.value.retryable
                assert excinfo.value.retry_after is not None
                # the other program's lane is unaffected
                result = verify_remote(
                    affine_program, [[3]], gw.address, FAST, retry=NO_RETRY
                )
                assert result.all_accepted
            finally:
                held.close()
            # the released slot admits sumsq again
            result = verify_remote(sumsq_program, [[5, 1, 1]], gw.address, FAST)
            assert result.all_accepted
        assert gw.metrics.counter_value("gateway.shed.program") >= 1


class TestShutdown:
    def test_late_client_gets_shutting_down_frame(self, registry):
        gw = GatewayServer(registry).start()
        gw._stop.set()  # simulate close() racing a connecting client
        with socket.create_connection(gw.address, timeout=5) as sock:
            sock.settimeout(10)
            frame = recv_frame(sock)
        assert frame["type"] == "error"
        assert frame["code"] == "shutting-down"
        gw.close()
        assert gw.metrics.counter_value("sessions_refused_shutdown") == 1

    def test_kernel_backlog_drained_with_frames(self, registry):
        # never started: connections complete in the kernel backlog and
        # no accept loop ever claims them — close() must still answer
        # each one with a structured frame, not a RST
        gw = GatewayServer(registry)
        clients = [socket.create_connection(gw.address, timeout=5) for _ in range(3)]
        try:
            for sock in clients:
                sock.settimeout(10)
            gw.close()
            for sock in clients:
                frame = recv_frame(sock)
                assert frame["type"] == "error"
                assert frame["code"] == "shutting-down"
        finally:
            for sock in clients:
                sock.close()
        assert gw.metrics.counter_value("sessions_refused_shutdown") == 3

    def test_shutdown_under_load_answers_every_client(
        self, registry, sumsq_program
    ):
        """Queued clients get ``shutting-down`` frames at close — never
        a bare RST — while the in-flight session drains."""
        gw = GatewayServer(
            registry,
            max_sessions=1,
            accept_queue=8,
            deadlines=Deadlines(read=1.0),
        ).start()
        held = _hold_session(gw.address, sumsq_program)
        outcomes = []
        outcomes_lock = threading.Lock()

        def client():
            try:
                verify_remote(
                    sumsq_program, [[1, 2, 3]], gw.address, FAST, retry=NO_RETRY
                )
                outcome = "ok"
            except ProtocolViolation as exc:
                outcome = exc.code
            except OSError as exc:  # a RST would land here — forbidden
                outcome = f"os-error: {exc}"
            with outcomes_lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        while gw.admitted < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gw.admitted == 5  # 1 in flight + 4 queued

        closer = threading.Thread(target=gw.close, daemon=True)
        closer.start()
        time.sleep(0.2)  # let close() stop the listener
        held.close()  # ends the in-flight session; handlers drain the queue
        closer.join(timeout=30)
        assert not closer.is_alive()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes == ["shutting-down"] * 4
        assert gw.metrics.counter_value("sessions_refused_shutdown") == 4


class TestSharding:
    def test_sharded_sessions_verify(
        self, registry, sumsq_program, affine_program
    ):
        with GatewayServer(registry, shards=2, max_sessions=2) as gw:
            r1 = verify_remote(sumsq_program, [[1, 2, 3], [4, 5, 6]], gw.address, FAST)
            r2 = verify_remote(affine_program, [[2]], gw.address, FAST)
        assert r1.all_accepted and r2.all_accepted
        assert [r.output_values for r in r1.instances] == [[14], [77]]
        assert gw.metrics.counter_value("gateway.worker_deaths") == 0

    def test_inline_and_sharded_sessions_send_identical_frames(
        self, registry, sumsq_program
    ):
        """One exchange serves both proving modes: the same seed, Enc(r),
        inputs and challenge draw the same outputs and answers frames."""
        setup = ZaatarArgument(sumsq_program, FAST).verifier_setup()
        batch = [[1, 2, 3], [4, 5, 6]]
        frames = []
        for shards in (0, 1):
            with GatewayServer(registry, shards=shards) as gw:
                frames.append(_raw_session(gw.address, sumsq_program, setup, batch))
        (outputs, answers), sharded = frames
        assert (outputs["type"], answers["type"]) == ("outputs", "answers")
        assert len(answers["instances"]) == len(batch)
        assert sharded == (outputs, answers)

    @pytest.mark.parametrize("step", ["prove", "answer"])
    def test_worker_death_mid_session_is_retryable_error(
        self, registry, sumsq_program, step
    ):
        """SIGKILL of the leased shard mid-session must surface as one
        structured, retryable error — and the replenished pool must
        serve the next session."""
        attempt = {"prove": 1, "answer": 2}[step]
        plan = ProcessFaultPlan(
            [ProcessFaultRule(index=1, action="kill", attempt=attempt)]
        )
        with GatewayServer(
            registry, shards=1, max_sessions=2, process_faults=plan
        ) as gw:
            with pytest.raises(ProtocolViolation) as excinfo:
                verify_remote(
                    sumsq_program, [[1, 2, 3]], gw.address, FAST, retry=NO_RETRY
                )
            assert excinfo.value.code == "internal"
            assert excinfo.value.retryable
            assert "shard died" in str(excinfo.value)
            assert gw._pool.alive == 1  # replacement forked
            result = verify_remote(sumsq_program, [[4, 5, 6]], gw.address, FAST)
            assert result.all_accepted
        assert gw.metrics.counter_value("gateway.worker_deaths") == 1

    def test_budget_abandoned_shard_is_replaced_not_reused(
        self, registry, sumsq_program
    ):
        """A session whose budget runs out mid-prove fails with
        ``deadline``; its shard, still proving, must not serve the next
        session."""
        plan = ProcessFaultPlan(
            [ProcessFaultRule(index=1, action="slow", attempt=1, delay=10.0)]
        )
        with GatewayServer(
            registry,
            shards=1,
            max_sessions=2,
            deadlines=Deadlines(session=1.0),
            process_faults=plan,
        ) as gw:
            with pytest.raises(ProtocolViolation) as excinfo:
                verify_remote(
                    sumsq_program, [[1, 2, 3]], gw.address, FAST, retry=NO_RETRY
                )
            assert excinfo.value.code == "deadline"
            result = verify_remote(
                sumsq_program, [[4, 5, 6]], gw.address, FAST, retry=NO_RETRY
            )
            assert result.all_accepted
            assert gw._pool.alive == 1

    def test_shard_lease_starvation_sheds_busy(
        self, registry, sumsq_program, monkeypatch
    ):
        """With every shard leased out, a session is shed with ``busy``
        (plus a hint) instead of hanging on the lease."""
        monkeypatch.setattr(serve_mod, "_LEASE_TIMEOUT", 0.2)
        with GatewayServer(registry, shards=1, max_sessions=2) as gw:
            # pin the only shard: drive a session up to the inputs frame
            # so its handler holds the lease while proving
            sock = socket.create_connection(gw.address, timeout=5)
            sock.settimeout(10)
            try:
                send_frame(sock, hello_frame(sumsq_program, FAST))
                # the sharded exchange leases its worker before sending
                # hello-ok, so once it arrives the pool is exhausted
                assert recv_frame(sock)["type"] == "hello-ok"
                with pytest.raises(ProtocolViolation) as excinfo:
                    verify_remote(
                        sumsq_program, [[2, 2, 2]], gw.address, FAST, retry=NO_RETRY
                    )
                assert excinfo.value.code == "busy"
                assert excinfo.value.retry_after is not None
            finally:
                sock.close()
        assert gw.metrics.counter_value("gateway.shed.lease") >= 1

    def test_dead_verifier_releases_lease_and_park_expires(
        self, registry, sumsq_program
    ):
        """Lease hygiene under churn: a verifier killed while the
        gateway awaits its commit must release the shard lease at park
        time (not hold it hostage for the resume window), and the
        orphaned resume token must expire without leaking."""
        with GatewayServer(
            registry, shards=1, max_sessions=2, resume_timeout=0.3
        ) as gw:
            sock = _hold_session(gw.address, sumsq_program)
            sock.close()  # the verifier dies awaiting-commit
            # the lease came back immediately: a full session can run
            # on the only shard while the dead one is still parked
            result = verify_remote(sumsq_program, [[1, 2, 3]], gw.address, FAST)
            assert result.all_accepted
            assert gw._pool.alive == 1
            # ... and the park expires instead of leaking
            deadline = time.monotonic() + 5
            while gw.pending_resumes and time.monotonic() < deadline:
                time.sleep(0.05)
            leak = gw.leak_check()
            assert leak["pending_resumes"] == 0
            assert leak["shards_alive"] == 1
            assert not leak["program_slots"]
        count = gw.metrics.counter_value
        assert count("gateway.reaped.expired") == 1
        assert count("sessions_started") == count("sessions_ok") + count(
            "session_errors"
        )
