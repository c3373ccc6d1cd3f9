"""Protocol-ordering attacks against the TCP prover server.

A client that skips or reorders protocol phases must get a structured
``error`` frame and a clean drop, and — crucially — must never extract
answers without having committed the protocol to its proper order
(commit before challenge)."""

import socket

import pytest

from repro.argument import ArgumentConfig, ProverServer, verify_remote
from repro.argument.net import hello_frame, recv_frame, send_frame
from repro.pcp import SoundnessParams

FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))


@pytest.fixture
def server(sumsq_program):
    with ProverServer(sumsq_program, FAST) as srv:
        yield srv


def assert_error_reply(sock, *, code=None):
    """The server must answer with an error frame — never with data."""
    reply = recv_frame(sock)
    assert reply["type"] == "error"
    assert reply.get("message")
    if code is not None:
        assert reply.get("code") == code
    return reply


class TestPhaseOrdering:
    def test_challenge_before_commit_rejected(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, hello_frame(sumsq_program, FAST))
            assert recv_frame(sock)["type"] == "hello-ok"
            # jump straight to the challenge: the server must refuse
            # with a structured error, never leak answers
            send_frame(sock, {"type": "challenge", "t": []})
            reply = assert_error_reply(sock)
            assert "commit" in reply["message"]
        # server alive for honest clients afterwards
        assert verify_remote(sumsq_program, [[1, 1, 1]], server.address, FAST).all_accepted

    def test_inputs_before_commit_rejected(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, hello_frame(sumsq_program, FAST))
            assert recv_frame(sock)["type"] == "hello-ok"
            send_frame(sock, {"type": "inputs", "batch": [["1", "2", "3"]]})
            assert_error_reply(sock)
        assert verify_remote(sumsq_program, [[2, 2, 2]], server.address, FAST).all_accepted

    def test_no_hello_rejected(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, {"type": "commit", "enc_r": []})
            reply = assert_error_reply(sock)
            assert "hello" in reply["message"]
        assert verify_remote(sumsq_program, [[3, 3, 3]], server.address, FAST).all_accepted

    def test_malformed_hex_in_commit_rejected(self, sumsq_program, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, hello_frame(sumsq_program, FAST))
            assert recv_frame(sock)["type"] == "hello-ok"
            send_frame(sock, {"type": "commit", "enc_r": [["zz", "qq"]]})
            assert_error_reply(sock, code="bad-frame")
        assert verify_remote(sumsq_program, [[1, 2, 3]], server.address, FAST).all_accepted

    def test_abrupt_disconnect_midway(self, sumsq_program, server):
        sock = socket.create_connection(server.address, timeout=5)
        send_frame(sock, hello_frame(sumsq_program, FAST))
        sock.close()  # vanish mid-session
        assert verify_remote(sumsq_program, [[4, 4, 4]], server.address, FAST).all_accepted
