"""Seeded fault-injection suite for the two-party deployment.

Drives ``verify_remote`` against a real ``ProverServer`` with a
``FaultPlan`` wrapped around the client's connections, and checks the
retry contract: faults before the commit frame are retried and the
session succeeds on a clean attempt; faults after the commit frame
fail fast with ``ProtocolViolation`` — never a hang, and never a
replayed commit (the server sees exactly one session).
"""

import socket

import pytest

from repro.argument import (
    ArgumentConfig,
    Deadlines,
    FaultPlan,
    FaultRule,
    FaultySocket,
    ProtocolViolation,
    ProverServer,
    RetryPolicy,
    verify_remote,
)
from repro.argument.net import recv_frame, send_frame
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
#: quick, deterministic backoff so the suite stays fast
RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05, seed=3)
#: short read deadline: a faulted session must fail, not hang
DEADLINES = Deadlines(connect=5.0, read=5.0)

# client-side frame indices, per connection:
#   send: 0 hello, 1 commit, 2 inputs, 3 challenge
#   recv: 0 hello-ok, 1 outputs, 2 answers
HELLO, COMMIT, INPUTS, CHALLENGE = 0, 1, 2, 3
HELLO_OK, OUTPUTS, ANSWERS = 0, 1, 2


def run(program, server, plan, retry=RETRY):
    return verify_remote(
        program,
        [[1, 2, 3]],
        server.address,
        FAST,
        retry=retry,
        deadlines=DEADLINES,
        socket_wrapper=plan.wrap,
    )


class TestPreCommitFaults:
    """Faults before the commit frame: retry, then succeed."""

    @pytest.mark.parametrize("action", ["drop", "truncate", "corrupt"])
    def test_faulted_hello_is_retried(self, sumsq_program, action):
        plan = FaultPlan([FaultRule(frame=HELLO, action=action)], seed=11)
        with ProverServer(sumsq_program, FAST) as server:
            result = run(sumsq_program, server, plan)
        assert result.all_accepted
        assert result.attempts == 2
        assert plan.injected == [("send", HELLO, action)]

    @pytest.mark.parametrize("action", ["drop", "truncate", "corrupt"])
    def test_faulted_hello_ok_is_retried(self, sumsq_program, action):
        plan = FaultPlan(
            [FaultRule(frame=HELLO_OK, action=action, direction="recv")], seed=12
        )
        with ProverServer(sumsq_program, FAST) as server:
            result = run(sumsq_program, server, plan)
        assert result.all_accepted
        assert result.attempts == 2

    def test_delayed_hello_succeeds_without_retry(self, sumsq_program):
        plan = FaultPlan([FaultRule(frame=HELLO, action="delay", delay=0.2)], seed=13)
        with ProverServer(sumsq_program, FAST) as server:
            result = run(sumsq_program, server, plan)
        assert result.all_accepted
        assert result.attempts == 1

    def test_repeated_fault_exhausts_the_policy(self, sumsq_program):
        # a fault on every attempt: the client must give up cleanly
        plan = FaultPlan(
            [FaultRule(frame=HELLO, action="corrupt", times=99)], seed=14
        )
        with ProverServer(sumsq_program, FAST) as server:
            with pytest.raises(ProtocolViolation):
                run(sumsq_program, server, plan)
            server.close()
        assert len(plan.injected) == RETRY.max_attempts


class TestPostCommitFaults:
    """Faults after the commit frame: fail fast, never replay."""

    def test_corrupt_commit_fails_without_replay(self, sumsq_program):
        plan = FaultPlan([FaultRule(frame=COMMIT, action="corrupt")], seed=21)
        with ProverServer(sumsq_program, FAST) as server:
            with pytest.raises(ProtocolViolation) as excinfo:
                run(sumsq_program, server, plan)
            server.close()
        assert excinfo.value.code == "bad-frame"
        # the commit was never replayed
        assert server.metrics.counter_value("sessions_started") == 1

    def test_dropped_challenge_fails_fast(self, sumsq_program):
        plan = FaultPlan([FaultRule(frame=CHALLENGE, action="drop")], seed=22)
        with ProverServer(sumsq_program, FAST) as server:
            with pytest.raises(ProtocolViolation, match="after commit"):
                run(sumsq_program, server, plan)
            server.close()
        assert server.metrics.counter_value("sessions_started") == 1

    def test_truncated_outputs_fails_fast(self, sumsq_program):
        plan = FaultPlan(
            [FaultRule(frame=OUTPUTS, action="truncate", direction="recv")], seed=23
        )
        with ProverServer(sumsq_program, FAST) as server:
            with pytest.raises(ProtocolViolation, match="mid-frame"):
                run(sumsq_program, server, plan)
            server.close()
        assert server.metrics.counter_value("sessions_started") == 1

    def test_refused_resume_keeps_the_root_cause(self, sumsq_program):
        """The truncated outputs arm a resume the server must refuse
        (the session was past its commit); the refusal's code survives
        and the truncation stays attached as the cause."""
        plan = FaultPlan(
            [FaultRule(frame=OUTPUTS, action="truncate", direction="recv")], seed=23
        )
        with ProverServer(sumsq_program, FAST) as server:
            with pytest.raises(ProtocolViolation) as excinfo:
                run(sumsq_program, server, plan)
        assert excinfo.value.code == "resume-invalid"
        cause = excinfo.value.__cause__
        assert isinstance(cause, ProtocolViolation) and cause.code == "io"
        assert "mid-frame" in str(cause)

    def test_corrupt_answers_fails_fast(self, sumsq_program):
        plan = FaultPlan(
            [FaultRule(frame=ANSWERS, action="corrupt", direction="recv")], seed=24
        )
        with ProverServer(sumsq_program, FAST) as server:
            with pytest.raises(ProtocolViolation) as excinfo:
                run(sumsq_program, server, plan)
            server.close()
        assert excinfo.value.code == "bad-frame"
        assert server.metrics.counter_value("sessions_started") == 1


class TestFaultPlanMechanics:
    def test_corruption_is_deterministic_in_the_seed(self):
        a = FaultPlan([], seed=7).corruption("send", 0, 100)
        b = FaultPlan([], seed=7).corruption("send", 0, 100)
        c = FaultPlan([], seed=8).corruption("send", 0, 100)
        assert a == b
        assert a != c
        assert a[0][0] == 0 and a[0][1] != 0  # first byte always breaks

    def test_rules_validate_action_and_direction(self):
        with pytest.raises(ValueError):
            FaultRule(frame=0, action="explode")
        with pytest.raises(ValueError):
            FaultRule(frame=0, action="drop", direction="sideways")

    def test_clean_plan_is_transparent(self):
        left, right = socket.socketpair()
        plan = FaultPlan([], seed=0)
        wrapped = plan.wrap(left)
        try:
            send_frame(wrapped, {"type": "ping", "n": 1})
            assert recv_frame(right) == {"type": "ping", "n": 1}
            send_frame(right, {"type": "pong", "n": 2})
            assert recv_frame(wrapped) == {"type": "pong", "n": 2}
            assert plan.injected == []
        finally:
            left.close()
            right.close()

    def test_corrupt_applies_on_the_recv_path(self):
        left, right = socket.socketpair()
        plan = FaultPlan(
            [FaultRule(frame=0, action="corrupt", direction="recv")], seed=5
        )
        wrapped = plan.wrap(right)
        try:
            send_frame(left, {"type": "ping"})
            with pytest.raises(ProtocolViolation, match="bad frame"):
                recv_frame(wrapped)
            # the next frame passes untouched (times=1)
            send_frame(left, {"type": "ping2"})
            assert recv_frame(wrapped)["type"] == "ping2"
        finally:
            left.close()
            right.close()
