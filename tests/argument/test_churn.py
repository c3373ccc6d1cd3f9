"""Churn survival: WAN link emulation, resume tokens, storm admission.

The robustness layer for the §5 economics — one long-lived gateway,
many verifiers coming and going over real (emulated) networks:

* :class:`LinkProfile` / :class:`LinkSocket` — seeded latency, jitter,
  bandwidth pacing, loss, and corruption applied per connection;
* pre-commit session parking + resume tokens on the gateway, with the
  ``started == ok + errors`` ledger closed by the reaper;
* token-bucket accept pacing with jittered ``retry_after`` hints;
* deadline-aware injected delays (``ProtocolViolation[deadline]``
  instead of silently burning the read timeout).
"""

import multiprocessing
import socket
import time

import pytest

from repro.argument import (
    ArgumentConfig,
    Deadlines,
    FaultPlan,
    FaultRule,
    GatewayServer,
    LinkProfile,
    ProgramRegistry,
    ProtocolViolation,
    RetryPolicy,
    verify_remote,
)
from repro.argument.net import hello_frame, recv_frame, send_frame
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
NO_RETRY = RetryPolicy.none()
DEADLINES = Deadlines(connect=5.0, read=10.0)


@pytest.fixture(scope="module")
def registry(sumsq_program):
    reg = ProgramRegistry()
    reg.register(sumsq_program, FAST)
    return reg


def _gateway(registry, **kwargs):
    kwargs.setdefault("max_sessions", 4)
    kwargs.setdefault("deadlines", Deadlines(read=10.0))
    return GatewayServer(registry, **kwargs)


def _balanced(counters: dict) -> bool:
    return counters.get("sessions_started", 0) == (
        counters.get("sessions_ok", 0) + counters.get("session_errors", 0)
    )


# -- link emulation -----------------------------------------------------------


def _send_from_child(sock) -> None:
    """A forked child's link-emulated send; it lives until killed."""
    send_frame(LinkProfile(latency=0.01, seed=19).wrap(sock), {"type": "child"})
    time.sleep(30)


class TestLinkEmulation:
    def _pipe(self):
        a, b = socket.socketpair()
        a.settimeout(5)
        b.settimeout(5)
        return a, b

    def test_latency_delays_delivery_without_blocking_sender(self):
        a, b = self._pipe()
        link = LinkProfile(latency=0.2, seed=1)
        wrapped = link.wrap(a)
        start = time.monotonic()
        send_frame(wrapped, {"type": "ping"})
        sent_in = time.monotonic() - start
        frame = recv_frame(b)
        arrived_in = time.monotonic() - start
        assert frame == {"type": "ping"}
        # the sender returned immediately; the frame flew for ~latency
        assert sent_in < 0.1, "sendall must not sleep the sending thread"
        assert arrived_in >= 0.15
        wrapped.close()
        b.close()

    def test_frames_arrive_in_order_under_jitter(self):
        a, b = self._pipe()
        link = LinkProfile(latency=0.01, jitter=0.05, seed=3)
        wrapped = link.wrap(a)
        for i in range(8):
            send_frame(wrapped, {"type": "seq", "i": i})
        got = [recv_frame(b)["i"] for _ in range(8)]
        assert got == list(range(8)), "per-connection FIFO must survive jitter"
        wrapped.close()
        b.close()

    def test_bandwidth_paces_large_frames(self):
        a, b = self._pipe()
        # 20 KB/s: a ~2 KB frame occupies the pipe for ~0.1 s
        link = LinkProfile(bandwidth=20_000, seed=5)
        wrapped = link.wrap(a)
        payload = {"type": "bulk", "data": "x" * 2000}
        start = time.monotonic()
        send_frame(wrapped, payload)
        assert recv_frame(b)["type"] == "bulk"
        assert time.monotonic() - start >= 0.08
        wrapped.close()
        b.close()

    def test_loss_cuts_the_connection(self):
        a, b = self._pipe()
        link = LinkProfile(loss=1.0, seed=7)
        wrapped = link.wrap(a)
        send_frame(wrapped, {"type": "doomed"})
        # the peer sees the connection die, not a late frame
        with pytest.raises(ProtocolViolation, match="connection closed"):
            recv_frame(b)
        # and the local side fails fast on the next send
        with pytest.raises(OSError):
            send_frame(wrapped, {"type": "after"})
        b.close()

    def test_corruption_breaks_the_frame(self):
        a, b = self._pipe()
        link = LinkProfile(corrupt=1.0, seed=9)
        wrapped = link.wrap(a)
        send_frame(wrapped, {"type": "garbled"})
        with pytest.raises(ProtocolViolation, match="bad frame"):
            recv_frame(b)
        wrapped.close()
        b.close()

    def test_seeded_wrap_is_deterministic(self):
        decisions = []
        for _ in range(2):
            link = LinkProfile(loss=0.5, seed=11)
            rngs = [link.wrap(None)._rng for _ in range(3)]
            decisions.append([rng.random() for rng in rngs])
        assert decisions[0] == decisions[1]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_delivers_its_own_frames(self):
        """A child forked after its parent used link emulation inherits
        no delivery thread; its frames must still arrive."""
        a, b = self._pipe()
        parent_link = LinkProfile(latency=0.01, seed=17).wrap(a)
        send_frame(parent_link, {"type": "parent"})
        assert recv_frame(b) == {"type": "parent"}
        c, d = self._pipe()
        child = multiprocessing.get_context("fork").Process(
            target=_send_from_child, args=(c,), daemon=True
        )
        child.start()
        try:
            d.settimeout(2)
            assert recv_frame(d) == {"type": "child"}
        finally:
            child.kill()
            child.join(timeout=5)
            for sock in (parent_link, b, c, d):
                sock.close()
        assert not child.is_alive()

    def test_end_to_end_verification_over_wan_link(self, sumsq_program, registry):
        link = LinkProfile(latency=0.02, jitter=0.005, seed=13)
        with _gateway(registry, link=LinkProfile(latency=0.02, seed=14)) as gw:
            start = time.monotonic()
            result = verify_remote(
                sumsq_program,
                [[1, 2, 3]],
                gw.address,
                FAST,
                retry=NO_RETRY,
                deadlines=DEADLINES,
                socket_wrapper=link.wrap,
            )
            elapsed = time.monotonic() - start
        assert result.all_accepted
        # 4 client frames + 3 server frames, >= 20 ms one-way each
        assert elapsed >= 0.1


# -- resume tokens ------------------------------------------------------------


class TestResume:
    def test_pre_commit_disconnect_resumes_and_verifies(
        self, sumsq_program, registry
    ):
        """A dropped commit frame reconnects by token and completes."""
        plan = FaultPlan([FaultRule(frame=1, action="drop", direction="send")])
        with _gateway(registry) as gw:
            result = verify_remote(
                sumsq_program,
                [[1, 2, 3], [2, 0, 1]],
                gw.address,
                FAST,
                retry=RetryPolicy(max_attempts=3, base_delay=0.2, seed=1),
                deadlines=DEADLINES,
                socket_wrapper=plan.wrap,
            )
            assert result.all_accepted
            assert result.attempts == 2
            assert result.resumed == 1
        # close() joined the handler threads, so the server-side ledger
        # is final: the resumed connection continued the *same* session —
        # one started, one ok, zero errors — and the park ledger closed
        counters = gw.metrics.snapshot()["counters"]
        assert counters["sessions_started"] == 1
        assert counters["sessions_ok"] == 1
        assert counters.get("session_errors", 0) == 0
        assert counters["gateway.parked"] == 1
        assert counters["gateway.resumed"] == 1
        assert counters.get("gateway.reaped", 0) == 0
        assert gw.pending_resumes == 0

    def test_sharded_gateway_resumes_too(self, sumsq_program, registry):
        plan = FaultPlan([FaultRule(frame=1, action="drop", direction="send")])
        with _gateway(registry, shards=1) as gw:
            result = verify_remote(
                sumsq_program,
                [[1, 2, 3]],
                gw.address,
                FAST,
                retry=RetryPolicy(max_attempts=3, base_delay=0.2, seed=2),
                deadlines=DEADLINES,
                socket_wrapper=plan.wrap,
            )
            assert result.all_accepted and result.resumed == 1
            # the park released its lease; the resume leased again
            assert gw._pool.alive == 1
        assert gw.metrics.counter_value("gateway.resumed") == 1
        assert _balanced(gw.metrics.snapshot()["counters"])

    def test_abandoned_park_expires_and_closes_the_ledger(
        self, sumsq_program, registry
    ):
        with _gateway(registry, resume_timeout=0.3) as gw:
            sock = socket.create_connection(gw.address, timeout=5)
            sock.settimeout(5)
            send_frame(sock, hello_frame(sumsq_program, FAST))
            reply = recv_frame(sock)
            assert reply["type"] == "hello-ok"
            assert isinstance(reply.get("resume"), str)
            sock.close()  # verifier dies pre-commit: the session parks
            deadline = time.monotonic() + 5
            while gw.metrics.counter_value("gateway.reaped") < 1:
                assert time.monotonic() < deadline, "park never reaped"
                time.sleep(0.05)
            counters = gw.metrics.snapshot()["counters"]
        assert counters["gateway.parked"] == 1
        assert counters["gateway.reaped.expired"] == 1
        assert counters["session_errors.session-expired"] == 1
        assert counters["sessions_started"] == 1
        assert _balanced(counters)
        assert gw.pending_resumes == 0

    def test_bogus_resume_token_is_rejected(self, registry):
        with _gateway(registry) as gw:
            sock = socket.create_connection(gw.address, timeout=5)
            sock.settimeout(5)
            send_frame(sock, {"type": "resume", "token": "feedface" * 4})
            reply = recv_frame(sock)
            sock.close()
            assert reply["type"] == "error"
            assert reply["code"] == "resume-invalid"
            counters = gw.metrics.snapshot()["counters"]
        # a rejected resume is not a session: the ledger is untouched
        assert counters["gateway.resume_rejected.resume-invalid"] == 1
        assert counters.get("sessions_started", 0) == 0
        assert _balanced(counters)

    def test_expired_token_reconnect_gets_session_expired(
        self, sumsq_program, registry
    ):
        """The client-visible half of expiry: resume after the timeout."""
        plan = FaultPlan([FaultRule(frame=1, action="drop", direction="send")])
        with _gateway(registry, resume_timeout=0.05) as gw:
            with pytest.raises(ProtocolViolation) as err:
                verify_remote(
                    sumsq_program,
                    [[1, 2, 3]],
                    gw.address,
                    FAST,
                    # backoff long enough that the park expires first
                    retry=RetryPolicy(
                        max_attempts=3, base_delay=0.8, jitter=0.0, seed=3
                    ),
                    deadlines=DEADLINES,
                    socket_wrapper=plan.wrap,
                )
            # terminal: the parked session is gone and the commit
            # material must not be replayed against a fresh session
            assert err.value.code in ("session-expired", "resume-invalid")
            assert not err.value.retryable
            counters = gw.metrics.snapshot()["counters"]
        assert _balanced(counters)

    def test_post_commit_disconnect_still_fails_fast(
        self, sumsq_program, registry
    ):
        """The PR-3 invariant survives tokens: past the challenge send
        nothing resumes, even with retry budget left."""
        plan = FaultPlan([FaultRule(frame=3, action="drop", direction="send")])
        with _gateway(registry) as gw:
            with pytest.raises(ProtocolViolation, match="after commit"):
                verify_remote(
                    sumsq_program,
                    [[1, 2, 3]],
                    gw.address,
                    FAST,
                    retry=RetryPolicy(max_attempts=5, base_delay=0.05),
                    deadlines=DEADLINES,
                    socket_wrapper=plan.wrap,
                )
            assert gw.metrics.counter_value("sessions_started") == 1
            assert gw.metrics.counter_value("gateway.resumed") == 0


# -- storm admission ----------------------------------------------------------


class TestStormAdmission:
    def test_token_bucket_sheds_a_reconnect_storm(self, registry):
        with _gateway(registry, accept_rate=2.0, accept_burst=2) as gw:
            refusals = []
            socks = []
            for _ in range(8):
                sock = socket.create_connection(gw.address, timeout=5)
                sock.settimeout(0.5)
                socks.append(sock)
            for sock in socks:
                try:
                    frame = recv_frame(sock)
                except (ProtocolViolation, OSError, TimeoutError):
                    continue  # admitted: no frame until we speak
                refusals.append(frame)
            for sock in socks:
                sock.close()
            shed = gw.metrics.counter_value("gateway.shed.storm")
        assert shed >= 4, f"bucket (burst 2, 2/s) must shed most of 8: {shed}"
        assert len(refusals) == shed
        hints = [f["retry_after"] for f in refusals]
        assert all(f["code"] == "busy" for f in refusals)
        assert all(0.2 <= h <= 1.0 for h in hints), hints
        # jittered: a herd must not be told to come back in lockstep
        assert len(set(hints)) > 1

    def test_storm_pacing_off_by_default(self, registry):
        with _gateway(registry) as gw:
            assert gw.accept_rate is None
            assert gw.metrics.counter_value("gateway.shed.storm") == 0


# -- deadline-aware injected delays ------------------------------------------


class TestDeadlineAwareDelays:
    def test_delay_past_read_timeout_raises_deadline_not_io(self):
        a, b = socket.socketpair()
        plan = FaultPlan([FaultRule(frame=0, action="delay", delay=60.0)])
        wrapped = plan.wrap(a)
        wrapped.settimeout(0.5)
        start = time.monotonic()
        with pytest.raises(ProtocolViolation) as err:
            send_frame(wrapped, {"type": "ping"})
        elapsed = time.monotonic() - start
        assert err.value.code == "deadline"
        # the point: no silently burned wall-clock
        assert elapsed < 1.0, "deadline delays must not sleep"
        a.close()
        b.close()

    def test_recv_side_delay_past_timeout_raises_deadline(self):
        a, b = socket.socketpair()
        plan = FaultPlan(
            [FaultRule(frame=0, action="delay", direction="recv", delay=60.0)]
        )
        wrapped = plan.wrap(a)
        wrapped.settimeout(0.5)
        send_frame(b, {"type": "pong"})
        with pytest.raises(ProtocolViolation) as err:
            recv_frame(wrapped)
        assert err.value.code == "deadline"
        a.close()
        b.close()

    def test_survivable_delay_still_sleeps_and_delivers(self):
        a, b = socket.socketpair()
        plan = FaultPlan([FaultRule(frame=0, action="delay", delay=0.1)])
        wrapped = plan.wrap(a)
        wrapped.settimeout(5.0)
        b.settimeout(5.0)
        start = time.monotonic()
        send_frame(wrapped, {"type": "late"})
        assert recv_frame(b)["type"] == "late"
        assert time.monotonic() - start >= 0.08
        a.close()
        b.close()
