"""Concurrent-session stress tests for the prover server.

The ROADMAP north star is a service under heavy traffic: many
verifiers hitting one prover at once, capacity limits that degrade
into structured ``busy`` errors (which clients retry through), read
deadlines that reap stalled peers, and a shutdown that drains rather
than drops in-flight sessions.
"""

import socket
import threading
import time

import pytest

from repro.argument import (
    ArgumentConfig,
    Deadlines,
    ProtocolViolation,
    ProverServer,
    RetryPolicy,
    verify_remote,
)
from repro.argument.net import hello_frame, recv_frame, send_frame
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


def _run_clients(program, address, count, **kwargs):
    """Fire ``count`` concurrent verify_remote calls; return results/errors."""
    results: dict[int, object] = {}
    barrier = threading.Barrier(count)

    def client(i):
        try:
            barrier.wait(timeout=30)
            results[i] = verify_remote(
                program, [[i % 7, 1, 1]], address, FAST, **kwargs
            )
        except Exception as exc:  # noqa: BLE001 - surfaced via results
            results[i] = exc

    threads = [threading.Thread(target=client, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    return results


class TestConcurrentSessions:
    def test_eight_concurrent_clients_all_accept(self, sumsq_program):
        n = 8
        with ProverServer(sumsq_program, FAST, max_sessions=n) as server:
            results = _run_clients(sumsq_program, server.address, n)
        assert len(results) == n
        for i, result in results.items():
            assert not isinstance(result, Exception), f"client {i}: {result!r}"
            assert result.all_accepted, f"client {i} rejected"

    def test_capacity_overflow_retries_to_success(self, sumsq_program):
        # 6 clients against 2 session slots: the overflow gets 'busy'
        # error frames and must retry through them
        retry = RetryPolicy(max_attempts=20, base_delay=0.05, max_delay=0.25, seed=9)
        with ProverServer(sumsq_program, FAST, max_sessions=2) as server:
            results = _run_clients(
                sumsq_program, server.address, 6, retry=retry
            )
            server.close()
            count = server.metrics.counter_value
        for i, result in results.items():
            assert not isinstance(result, Exception), f"client {i}: {result!r}"
            assert result.all_accepted
        assert count("sessions_ok") == 6
        # every connection was either served or cleanly rejected
        assert count("sessions_started") == 6 + count("session_errors")

    def test_busy_rejection_is_structured_and_retryable(self, sumsq_program):
        with ProverServer(
            sumsq_program, FAST, max_sessions=1, accept_queue=0
        ) as server:
            # occupy the single slot with a half-open session
            holder = socket.create_connection(server.address, timeout=5)
            try:
                send_frame(holder, hello_frame(sumsq_program, FAST))
                assert recv_frame(holder)["type"] == "hello-ok"
                # the next client must get a structured busy error
                with pytest.raises(ProtocolViolation) as excinfo:
                    verify_remote(
                        sumsq_program,
                        [[1, 1, 1]],
                        server.address,
                        FAST,
                        retry=RetryPolicy.none(),
                    )
                assert excinfo.value.code == "busy"
                assert excinfo.value.retryable
            finally:
                holder.close()
            # slot freed: the same request now succeeds (with retries to
            # ride out the release race)
            result = verify_remote(
                sumsq_program,
                [[1, 1, 1]],
                server.address,
                FAST,
                retry=RetryPolicy(max_attempts=10, base_delay=0.05, seed=2),
            )
            assert result.all_accepted


class TestDeadlines:
    def test_silent_client_reaped_by_read_deadline(self, sumsq_program):
        deadlines = Deadlines(read=0.3)
        with ProverServer(sumsq_program, FAST, deadlines=deadlines) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                # send nothing: the server must reap us with a deadline error
                reply = recv_frame(sock)
                assert reply["type"] == "error"
                assert reply["code"] == "deadline"
            # and keep serving honest clients
            assert verify_remote(
                sumsq_program, [[2, 1, 1]], server.address, FAST
            ).all_accepted

    def test_session_budget_enforced(self, sumsq_program):
        deadlines = Deadlines(read=5.0, session=0.0)  # budget exhausted at once
        with ProverServer(sumsq_program, FAST, deadlines=deadlines) as server:
            with pytest.raises(ProtocolViolation, match="budget"):
                verify_remote(
                    sumsq_program,
                    [[1, 2, 3]],
                    server.address,
                    FAST,
                    retry=RetryPolicy.none(),
                    deadlines=Deadlines(connect=5, read=5),
                )


class TestGracefulShutdown:
    def test_close_drains_in_flight_session(self, sumsq_program):
        server = ProverServer(sumsq_program, FAST).start()
        results: dict[int, object] = {}

        def client():
            try:
                results[0] = verify_remote(
                    sumsq_program, [[3, 2, 1]], server.address, FAST
                )
            except Exception as exc:  # noqa: BLE001
                results[0] = exc

        thread = threading.Thread(target=client)
        thread.start()
        deadline = time.monotonic() + 10
        while server.metrics.counter_value("sessions_started") < 1:
            assert time.monotonic() < deadline, "session never started"
            time.sleep(0.005)
        server.close()  # must drain, not kill, the in-flight session
        thread.join(timeout=30)
        result = results[0]
        assert not isinstance(result, Exception), repr(result)
        assert result.all_accepted
        assert server.metrics.counter_value("sessions_ok") == 1

    def test_close_with_no_sessions_is_quick(self, sumsq_program):
        server = ProverServer(sumsq_program, FAST).start()
        t0 = time.monotonic()
        server.close()
        assert time.monotonic() - t0 < 3.0


class TestWireTuning:
    def test_tcp_nodelay_on_both_peers(self, sumsq_program):
        """Nagle + delayed-ACK stalls every frame of a chatty protocol
        by ~40ms; both the dialing and the accepting socket must opt
        out."""
        import repro.argument.framing as framing

        seen = []
        original = framing.tune_socket

        def spy(sock):
            original(sock)
            seen.append(
                sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        framing.tune_socket = spy
        try:
            with ProverServer(sumsq_program, FAST) as server:
                result = verify_remote(
                    sumsq_program, [[1, 2, 3]], server.address, FAST
                )
        finally:
            framing.tune_socket = original
        assert result.all_accepted
        # one accept-side socket + one (or more) client dials
        assert len(seen) >= 2
        assert all(flag != 0 for flag in seen)

    def test_warm_loopback_session_latency(self, sumsq_program):
        """Latency tripwire: a warm session (schedule cached) over
        loopback is pure protocol cost — seven small frames.  Nagle
        stalls or emulation sleeping on the send path would blow this."""
        with ProverServer(sumsq_program, FAST) as server:
            verify_remote(sumsq_program, [[1, 2, 3]], server.address, FAST)
            best = min(
                _timed_session(sumsq_program, server.address) for _ in range(3)
            )
        assert best < 1.0, f"warm loopback session took {best:.3f}s"


def _timed_session(program, address) -> float:
    t0 = time.monotonic()
    assert verify_remote(program, [[2, 2, 2]], address, FAST).all_accepted
    return time.monotonic() - t0


class TestConnectRetry:
    def test_connection_refused_retried_until_server_arrives(
        self, sumsq_program
    ):
        """A dead port is transient under RetryPolicy: the verifier
        keeps dialing and succeeds once the server comes up."""
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()  # now the port refuses connections

        server_box = {}

        def late_start():
            time.sleep(0.6)
            server_box["server"] = ProverServer(
                sumsq_program, FAST, host=address[0], port=address[1]
            ).start()

        thread = threading.Thread(target=late_start)
        thread.start()
        try:
            result = verify_remote(
                sumsq_program,
                [[1, 2, 3]],
                address,
                FAST,
                retry=RetryPolicy(max_attempts=12, base_delay=0.2, seed=4),
                deadlines=Deadlines(connect=2, read=30),
            )
        finally:
            thread.join(timeout=10)
            if "server" in server_box:
                server_box["server"].close()
        assert result.all_accepted
        assert result.attempts > 1, "the refused dials must have counted"

    def test_shutting_down_refusal_is_retried_not_fatal(self, sumsq_program):
        """A draining server's refusal frame must burn one retry
        attempt (with its jittered hint honored), not kill the call."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []
        stop = threading.Event()

        def refuse_all():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                accepted.append(conn)
                send_frame(
                    conn,
                    {
                        "type": "error",
                        "code": "shutting-down",
                        "message": "draining",
                        "retry_after": 0.05,
                    },
                )
                conn.close()

        thread = threading.Thread(target=refuse_all)
        thread.start()
        try:
            with pytest.raises(ProtocolViolation) as excinfo:
                verify_remote(
                    sumsq_program,
                    [[1, 2, 3]],
                    listener.getsockname(),
                    FAST,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.05, seed=5),
                    deadlines=Deadlines(connect=2, read=5),
                )
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()
        assert excinfo.value.code == "shutting-down"
        assert excinfo.value.retryable
        # every attempt in the budget dialed in (no pre-commit fail-fast)
        assert len(accepted) == 3
