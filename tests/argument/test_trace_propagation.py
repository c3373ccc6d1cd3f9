"""Cross-process trace propagation and server introspection over the wire."""

import json
import socket
import threading
import time

import pytest

from repro import telemetry
from repro.argument import (
    ArgumentConfig,
    ProtocolViolation,
    ProverServer,
    fetch_stats,
    program_hash,
    verify_remote,
)
from repro.argument.net import recv_frame, send_frame
from repro.pcp import SoundnessParams
from repro.telemetry import Trace

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


@pytest.fixture
def server(sumsq_program):
    with ProverServer(sumsq_program, FAST) as srv:
        yield srv


def _drive_hello(address, hello):
    """Open a session, send ``hello``, return the first reply frame."""
    sock = socket.create_connection(address, timeout=10)
    try:
        send_frame(sock, hello)
        return recv_frame(sock)
    finally:
        sock.close()


class TestStitchedTraces:
    def test_session_spans_adopted_under_verify_remote(self, sumsq_program, server):
        with telemetry.session() as tracer:
            result = verify_remote(
                sumsq_program, [[1, 2, 3]], server.address, FAST
            )
        assert result.all_accepted
        trace = Trace.from_tracer(tracer)
        remote = trace.find("wire.verify_remote")[0]
        session = trace.find("wire.prover_session")[0]
        assert session.parent_id == remote.span_id
        # the server's own prover phases arrive inside the session span
        subtree = [s.name for s in trace.subtree(session)]
        assert "prover.instance" in subtree
        # every stitched span carries the client's trace id
        assert session.trace_id == tracer.trace_id
        assert all(
            s.trace_id == tracer.trace_id for s in trace.subtree(session)
        )

    def test_propagated_trace_id_reaches_the_server(self, sumsq_program, server):
        with telemetry.session() as tracer:
            verify_remote(sumsq_program, [[1, 2, 3]], server.address, FAST)
        session = Trace.from_tracer(tracer).find("wire.prover_session")[0]
        assert session.trace_id == tracer.trace_id

    def test_no_tracer_means_no_trace_request(self, sumsq_program, server):
        # without telemetry the hello omits the trace context entirely
        # and the run just works
        assert telemetry.current() is None
        result = verify_remote(sumsq_program, [[1, 2, 3]], server.address, FAST)
        assert result.all_accepted

    def test_trace_sessions_off_means_no_stitching(self, sumsq_program):
        """Without session tracing nothing ships back in the answers
        frame.  (In-process the session thread still falls back to the
        global tracer, so its span shows up — but as a separate root,
        the pre-stitching loopback behaviour.)"""
        with ProverServer(sumsq_program, FAST, trace_sessions=False) as srv:
            with telemetry.session() as tracer:
                result = verify_remote(
                    sumsq_program, [[1, 2, 3]], srv.address, FAST
                )
        assert result.all_accepted
        remote = tracer.find("wire.verify_remote")[0]
        for session in tracer.find("wire.prover_session"):
            assert session.parent_id is None
            assert session.parent_id != remote.span_id

    def test_repeat_sessions_stay_separated(self, sumsq_program, server):
        """Two sequential remote batches: two session spans, no dedupe
        collisions (each session uses a fresh server-side tracer)."""
        with telemetry.session() as tracer:
            for _ in range(2):
                verify_remote(sumsq_program, [[1, 2, 3]], server.address, FAST)
        sessions = tracer.find("wire.prover_session")
        remotes = tracer.find("wire.verify_remote")
        assert len(sessions) == 2
        assert {s.parent_id for s in sessions} == {
            r.span_id for r in remotes
        }


class TestTracePayloadBounds:
    def test_server_truncates_oversized_trace(self, sumsq_program):
        """A tiny server budget keeps only the session root, flagged."""
        with ProverServer(sumsq_program, FAST, max_trace_bytes=200) as srv:
            with telemetry.session() as tracer:
                result = verify_remote(
                    sumsq_program, [[1, 2, 3]], srv.address, FAST
                )
        assert result.all_accepted
        sessions = tracer.find("wire.prover_session")
        assert len(sessions) == 1
        assert sessions[0].attrs.get("trace_truncated", 0) > 0
        # the dropped children never arrive
        assert tracer.find("prover.instance") == []

    def test_client_rejects_oversized_trace_payload(self, sumsq_program, server):
        with telemetry.session():
            with pytest.raises(ProtocolViolation) as excinfo:
                verify_remote(
                    sumsq_program,
                    [[1, 2, 3]],
                    server.address,
                    FAST,
                    max_trace_bytes=50,
                )
        assert excinfo.value.code == "bad-frame"

    def test_client_rejects_malformed_trace_payload(self, sumsq_program):
        """A server answering with a non-list trace is a bad frame."""
        from repro.argument.net import _adopt_session_trace

        tracer = telemetry.Tracer()
        with pytest.raises(ProtocolViolation) as excinfo:
            _adopt_session_trace({"not": "a list"}, tracer, None, 1_000_000)
        assert excinfo.value.code == "bad-frame"
        with pytest.raises(ProtocolViolation) as excinfo:
            _adopt_session_trace([{"no": "id"}], tracer, None, 1_000_000)
        assert excinfo.value.code == "bad-frame"


class TestStatsRequest:
    def test_fetch_stats_round_trip(self, sumsq_program, server):
        verify_remote(sumsq_program, [[1, 2, 3]], server.address, FAST)
        # the final answers frame races the server's own sessions_ok
        # bookkeeping by a hair; poll until the session thread retires
        deadline = time.monotonic() + 5
        while True:
            doc = fetch_stats(server.address)
            if doc["metrics"]["counters"].get("sessions_ok"):
                break
            assert time.monotonic() < deadline, "session never retired"
            time.sleep(0.01)
        assert doc["server"]["program"] == "sumsq"
        assert doc["server"]["program_hash"] == program_hash(sumsq_program)
        assert doc["server"]["max_sessions"] == server.max_sessions
        counters = doc["metrics"]["counters"]
        assert counters["sessions_ok"] >= 1
        latency = doc["metrics"]["histograms"]["session_latency_seconds"]
        assert latency["count"] >= 1
        assert latency["p50"] is not None
        assert latency["p99"] >= latency["p50"]

    def test_stats_session_counts_itself(self, server):
        before = fetch_stats(server.address)["metrics"]["counters"]
        after = fetch_stats(server.address)["metrics"]["counters"]
        assert after["stats_requests"] == before["stats_requests"] + 1

    def test_stats_payload_is_json_clean(self, server):
        json.dumps(fetch_stats(server.address))

    def test_stats_reply_is_a_stats_frame(self, server):
        reply = _drive_hello(server.address, {"type": "stats"})
        assert reply["type"] == "stats"

    def test_backend_throughput_appears_after_a_session(
        self, sumsq_program, server
    ):
        verify_remote(sumsq_program, [[1, 2, 3]], server.address, FAST)
        counters = fetch_stats(server.address)["metrics"]["counters"]
        # the counters name the kernel that ran: every vector of this
        # tiny program is below NumpyBackend.MIN_VECTOR, so a numpy
        # field runs them on its scalar kernels too
        assert counters["backend.scalar.calls"] > 0
        assert counters["backend.scalar.elements"] > 0


class TestConcurrentSessionIsolation:
    def test_parallel_clients_get_their_own_session_spans(
        self, sumsq_program, server
    ):
        """Each client's tracer ends up with exactly its own session."""
        results = {}

        def client(idx):
            with telemetry.thread_tracer(telemetry.Tracer()) as tracer:
                verify_remote(sumsq_program, [[idx, 2, 3]], server.address, FAST)
                results[idx] = (
                    tracer.trace_id,
                    [s.trace_id for s in tracer.find("wire.prover_session")],
                )

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 3
        for trace_id, session_trace_ids in results.values():
            assert session_trace_ids == [trace_id]
