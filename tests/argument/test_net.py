"""Tests for the TCP prover server / verifier client."""

import socket
import struct
import threading
import time

import pytest

from repro import telemetry
from repro.argument import (
    ArgumentConfig,
    Deadlines,
    FaultPlan,
    FaultRule,
    ProtocolViolation,
    ProverServer,
    RetryPolicy,
    program_hash,
    verify_remote,
)
from repro.argument.framing import HEADER
from repro.argument.net import recv_frame, send_frame
from repro.compiler import compile_program
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
NO_RETRY = RetryPolicy.none()


@pytest.fixture
def server(sumsq_program):
    with ProverServer(sumsq_program, FAST) as srv:
        yield srv


@pytest.fixture
def scripted_server():
    """A fake prover: accepts one connection and runs a script on it.

    Lets client-side tests see arbitrary misbehaviour (wrong counts,
    oversized frames, mid-session disconnects) without a real prover.
    """
    listeners = []

    def start(script):
        sock = socket.create_server(("127.0.0.1", 0))
        listeners.append(sock)

        def run():
            conn, _ = sock.accept()
            conn.settimeout(10)
            with conn:
                try:
                    script(conn)
                except Exception:
                    pass

        threading.Thread(target=run, daemon=True).start()
        return sock.getsockname()

    yield start
    for sock in listeners:
        sock.close()


def _serve_through_inputs(conn):
    """Play the honest server up to (and including) the inputs frame."""
    recv_frame(conn)  # hello
    send_frame(conn, {"type": "hello-ok"})
    recv_frame(conn)  # commit
    recv_frame(conn)  # inputs


class TestRemoteVerification:
    def test_honest_batch_over_tcp(self, sumsq_program, server):
        result = verify_remote(
            sumsq_program, [[1, 2, 3], [4, 5, 6]], server.address, FAST
        )
        assert result.all_accepted
        assert [r.output_values for r in result.instances] == [[14], [77]]
        assert result.bytes_sent > 0 and result.bytes_received > 0

    def test_multiple_sessions_sequentially(self, sumsq_program, server):
        for trial in range(2):
            result = verify_remote(sumsq_program, [[trial, 1, 1]], server.address, FAST)
            assert result.all_accepted

    def test_upload_independent_of_query_count(self, sumsq_program):
        """The seed optimization: V→P traffic carries Enc(r) and t —
        quantities independent of how many PCP queries the soundness
        parameters demand.  Doubling ρ_lin must leave the upload flat
        (while the prover's answer download grows)."""
        few = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        many = ArgumentConfig(params=SoundnessParams(rho_lin=6, rho=2))
        with ProverServer(sumsq_program, few) as srv:
            r_few = verify_remote(sumsq_program, [[1, 2, 3]], srv.address, few)
        with ProverServer(sumsq_program, many) as srv:
            r_many = verify_remote(sumsq_program, [[1, 2, 3]], srv.address, many)
        assert r_few.all_accepted and r_many.all_accepted
        # upload flat to within framing noise...
        assert abs(r_many.bytes_sent - r_few.bytes_sent) < 200
        # ...while the answers scale with the query count
        assert r_many.bytes_received > 2 * r_few.bytes_received

    def test_frame_bytes_sum_to_the_session_totals(self, sumsq_program):
        """Each frame type's ``net.bytes_sent.<type>`` counter plus its
        4-byte header sums, per direction, to ``NetworkBatchResult``'s
        totals: the network ablation counts bytes by this identity."""
        with telemetry.session() as tracer:
            with ProverServer(sumsq_program, FAST) as srv:
                result = verify_remote(
                    sumsq_program,
                    [[1, 2, 3], [4, 5, 6]],
                    srv.address,
                    FAST,
                    collect_trace=False,
                )
        # read after close(): the server's session span keeps its
        # counters until it ends
        counters = tracer.total_counters()
        assert result.all_accepted and result.attempts == 1
        assert HEADER.size == 4
        # both parties count into this process's tracer, one frame a type
        assert counters["net.frames_sent"] == 7
        assert counters["net.bytes_sent"] == result.bytes_sent + result.bytes_received

        def framed(*types):
            return sum(counters[f"net.bytes_sent.{t}"] + HEADER.size for t in types)

        assert framed("hello", "commit", "inputs", "challenge") == result.bytes_sent
        assert framed("hello-ok", "outputs", "answers") == result.bytes_received

    def test_sequential_sessions_build_the_qap_once(
        self, sumsq_program, monkeypatch
    ):
        """Single-program serving proves from the registry's QAP: the
        second session reuses what registration built."""
        import repro.argument.serve as serve_mod

        builds = []
        real_build = serve_mod.build_qap

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(serve_mod, "build_qap", counting_build)
        with ProverServer(sumsq_program, FAST) as srv:
            for trial in range(2):
                result = verify_remote(
                    sumsq_program, [[trial, 1, 1]], srv.address, FAST
                )
                assert result.all_accepted
        assert len(builds) == 1

    def test_program_hash_stability(self, sumsq_program, gold):
        assert program_hash(sumsq_program) == program_hash(sumsq_program)

        def other(b):
            b.output(b.input() + 1)

        other_prog = compile_program(gold, other)
        assert program_hash(other_prog) != program_hash(sumsq_program)


class TestProtocolErrors:
    def test_wrong_program_rejected(self, gold, sumsq_program, server):
        def other(b):
            b.output(b.input() * 2)

        other_prog = compile_program(gold, other)
        with pytest.raises(ProtocolViolation) as excinfo:
            verify_remote(other_prog, [[1]], server.address, FAST)
        # structured, non-retryable, and with a useful message
        assert excinfo.value.code == "unknown-program"
        assert not excinfo.value.retryable
        assert "program" in str(excinfo.value)
        # the default retry policy must not have replayed the session
        assert server.metrics.counter_value("sessions_started") == 1

    def test_garbage_frame_does_not_kill_server(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"\x00\x00\x00\x05hello")
        # the server must survive and serve the next honest session
        result = verify_remote(sumsq_program, [[1, 1, 1]], server.address, FAST)
        assert result.all_accepted

    def test_truncated_frame_does_not_kill_server(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"\x00\x00\x01\x00partial")  # announces 256B, sends 7
        result = verify_remote(sumsq_program, [[3, 1, 1]], server.address, FAST)
        assert result.all_accepted

    def test_oversized_frame_rejected(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall((300 * 1024 * 1024).to_bytes(4, "big"))
            # server should drop us; next session still works
        result = verify_remote(sumsq_program, [[2, 2, 2]], server.address, FAST)
        assert result.all_accepted

    def test_non_object_payload_gets_error_frame(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            data = b'["not", "an", "object"]'
            sock.sendall(struct.pack("!I", len(data)) + data)
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["code"] == "bad-frame"
        result = verify_remote(sumsq_program, [[4, 1, 1]], server.address, FAST)
        assert result.all_accepted


class TestClientSideViolations:
    """The client must raise ProtocolViolation (with a useful message)
    on every way a misbehaving prover can deviate — and, since these
    all happen post-commit, must never retry."""

    def test_instance_count_mismatch(self, sumsq_program, scripted_server):
        def script(conn):
            _serve_through_inputs(conn)
            send_frame(conn, {"type": "outputs", "instances": []})

        address = scripted_server(script)
        with pytest.raises(ProtocolViolation, match="instance count"):
            verify_remote(sumsq_program, [[1, 2, 3]], address, FAST)

    def test_oversized_announced_frame(self, sumsq_program, scripted_server):
        def script(conn):
            recv_frame(conn)  # hello
            conn.sendall((512 * 1024 * 1024).to_bytes(4, "big"))

        address = scripted_server(script)
        with pytest.raises(ProtocolViolation, match="announced"):
            verify_remote(sumsq_program, [[1, 2, 3]], address, FAST, retry=NO_RETRY)

    def test_non_object_frame_from_server(self, sumsq_program, scripted_server):
        def script(conn):
            recv_frame(conn)  # hello
            data = b"[1, 2, 3]"
            conn.sendall(struct.pack("!I", len(data)) + data)

        address = scripted_server(script)
        with pytest.raises(ProtocolViolation, match="objects with a 'type'"):
            verify_remote(sumsq_program, [[1, 2, 3]], address, FAST, retry=NO_RETRY)

    def test_mid_session_disconnect_after_commit(self, sumsq_program, scripted_server):
        def script(conn):
            _serve_through_inputs(conn)
            conn.close()  # vanish while the client awaits outputs

        address = scripted_server(script)
        # post-commit: even a retrying client must fail fast instead of
        # replaying the commit against a fresh connection
        with pytest.raises(ProtocolViolation, match="mid-frame"):
            verify_remote(sumsq_program, [[1, 2, 3]], address, FAST)

    def test_malformed_answer_hex(self, sumsq_program, scripted_server):
        def script(conn):
            _serve_through_inputs(conn)
            send_frame(
                conn,
                {
                    "type": "outputs",
                    "instances": [{"y": ["zz"], "commitment": ["1", "2"]}],
                },
            )
            recv_frame(conn)  # challenge
            send_frame(conn, {"type": "answers", "instances": [["0"]]})

        address = scripted_server(script)
        with pytest.raises(ProtocolViolation, match="outputs y"):
            verify_remote(sumsq_program, [[1, 2, 3]], address, FAST)


class TestIoClassification:
    """A transport-level drop is code ``io`` — transient, retryable —
    not a protocol offence (regression: it used to raise the generic
    ``violation`` code, muddying the server's error buckets)."""

    def test_mid_frame_close_is_io_and_retryable(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00")  # half a header, then gone
            left.close()
            with pytest.raises(ProtocolViolation) as excinfo:
                recv_frame(right)
        finally:
            right.close()
        assert excinfo.value.code == "io"
        assert excinfo.value.retryable

    def test_pre_commit_drop_is_retried_transparently(
        self, sumsq_program, server
    ):
        # drop the server's hello-ok (recv frame 0) once: the client
        # must classify the dead connection as io and retry clean
        plan = FaultPlan([FaultRule(frame=0, action="drop", direction="recv")])
        result = verify_remote(
            sumsq_program,
            [[1, 2, 3]],
            server.address,
            FAST,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.0),
            socket_wrapper=plan.wrap,
        )
        assert result.all_accepted
        assert result.attempts == 2

    def test_server_buckets_client_drop_under_io(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"\x00\x00\x01")  # partial header, then RST/close
        deadline = time.monotonic() + 5
        while (
            server.metrics.counter_value("session_errors") < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert server.metrics.counter_value("session_errors") == 1
        assert server.metrics.counter_value("session_errors.io") == 1


class TestShutdownRace:
    def test_late_client_gets_shutting_down_frame(self, sumsq_program):
        server = ProverServer(sumsq_program, FAST).start()
        # simulate close() racing a connecting client: _stop is set but
        # the accept loop is still parked in accept()
        server._stop.set()
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.settimeout(10)
            frame = recv_frame(sock)
        assert frame["type"] == "error"
        assert frame["code"] == "shutting-down"
        server.close()
        assert server.metrics.counter_value("sessions_refused_shutdown") == 1

    def test_kernel_backlog_drained_with_frames(self, sumsq_program):
        # the listener exists but nothing ever accepts: clients complete
        # their handshakes in the kernel backlog.  close() must answer
        # each one with a structured frame instead of a bare RST.
        server = ProverServer(sumsq_program, FAST)
        clients = [
            socket.create_connection(server.address, timeout=5) for _ in range(3)
        ]
        try:
            for sock in clients:
                sock.settimeout(10)
            server.close()
            for sock in clients:
                frame = recv_frame(sock)
                assert frame["type"] == "error"
                assert frame["code"] == "shutting-down"
        finally:
            for sock in clients:
                sock.close()
        assert server.metrics.counter_value("sessions_refused_shutdown") == 3

    def test_clean_close_refuses_nobody(self, sumsq_program):
        # the close() poke itself must never be counted as a refused
        # client (regression: the accept loop could observe the poke
        # before its address was recorded)
        for _ in range(5):
            server = ProverServer(sumsq_program, FAST).start()
            server.close()
            assert server.metrics.counter_value("sessions_refused_shutdown") == 0


class TestRetryPolicy:
    def test_delays_are_capped_exponential(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, max_delay=0.5, multiplier=2.0, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_deterministic_in_the_seed(self):
        a = list(RetryPolicy(max_attempts=6, seed=42).delays())
        b = list(RetryPolicy(max_attempts=6, seed=42).delays())
        c = list(RetryPolicy(max_attempts=6, seed=43).delays())
        assert a == b
        assert a != c
        base = list(RetryPolicy(max_attempts=6, seed=42, jitter=0.0).delays())
        assert all(lo <= d <= lo * 1.5 + 1e-9 for d, lo in zip(a, base))

    def test_none_never_retries(self):
        assert list(RetryPolicy.none().delays()) == []

    def test_server_retry_after_hint_overrides_backoff(self, sumsq_program):
        """A busy frame carrying ``retry_after`` reschedules the retry
        at the server's estimate instead of the blind exponential delay
        (which is set pathologically long here to make the difference
        observable)."""
        listener = socket.create_server(("127.0.0.1", 0))

        def refuse_twice():
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    recv_frame(conn)  # hello
                    send_frame(
                        conn,
                        {
                            "type": "error",
                            "code": "busy",
                            "message": "at capacity",
                            "retry_after": 0.05,
                        },
                    )

        thread = threading.Thread(target=refuse_twice, daemon=True)
        thread.start()
        start = time.monotonic()
        try:
            with pytest.raises(ProtocolViolation) as excinfo:
                verify_remote(
                    sumsq_program,
                    [[1, 2, 3]],
                    listener.getsockname(),
                    FAST,
                    retry=RetryPolicy(
                        max_attempts=2, base_delay=30.0, max_delay=60.0
                    ),
                )
        finally:
            listener.close()
            thread.join(timeout=10)
        assert excinfo.value.code == "busy"
        # the hint (0.05s) was honored over the 30s backoff
        assert time.monotonic() - start < 5.0

    def test_connect_retries_through_late_server_start(self, sumsq_program):
        # reserve a port, but start the server only after the client's
        # first connect attempt has failed
        placeholder = socket.create_server(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        done = threading.Event()

        def late_start():
            time.sleep(0.3)
            with ProverServer(sumsq_program, FAST, port=address[1]):
                done.wait(timeout=30)

        thread = threading.Thread(target=late_start, daemon=True)
        thread.start()
        try:
            result = verify_remote(
                sumsq_program,
                [[1, 2, 3]],
                address,
                FAST,
                retry=RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=0.4, seed=1),
                deadlines=Deadlines(connect=2, read=30),
            )
            assert result.all_accepted
            assert result.attempts > 1
        finally:
            done.set()
            thread.join(timeout=10)


class TestFraming:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "x", "data": [1, 2, 3]})
            assert recv_frame(right) == {"type": "x", "data": [1, 2, 3]}
        finally:
            left.close()
            right.close()

    def test_typeless_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            import json, struct

            data = json.dumps({"no_type": 1}).encode()
            left.sendall(struct.pack("!I", len(data)) + data)
            with pytest.raises(ProtocolViolation):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_closed_connection_detected(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ProtocolViolation):
                recv_frame(right)
        finally:
            right.close()


class TestCheatingOverNetwork:
    def test_lying_server_rejected(self, gold, sumsq_program):
        """A server that doctors its outputs fails verification."""
        import copy

        prog_copy = copy.copy(sumsq_program)
        original_solve = prog_copy.solve

        def bad_solve(inputs, check=False):
            sol = original_solve(inputs, check=check)
            sol.output_values[0] = (sol.output_values[0] + 1) % gold.p
            sol.y[0] = sol.output_values[0]
            return sol

        with ProverServer(prog_copy, FAST) as srv:
            # tamper with the registered program's solve
            srv.registry.entries()[0].program.solve = bad_solve
            result = verify_remote(sumsq_program, [[1, 2, 3]], srv.address, FAST)
        assert not result.all_accepted
        assert not result.instances[0].pcp_ok
