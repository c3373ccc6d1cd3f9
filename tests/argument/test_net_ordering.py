"""Protocol-ordering attacks against the TCP prover server.

A client that skips or reorders protocol phases must get a structured
``error`` frame and a clean drop, and — crucially — must never extract
answers without having committed the protocol to its proper order
(commit before challenge), nor learn the queries before it commits."""

import dataclasses
import json
import socket

import pytest

from repro.argument import ArgumentConfig, ProverServer, verify_remote
from repro.argument.framing import HEADER
from repro.argument.net import hello_frame, recv_frame, send_frame
from repro.crypto import query_key
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


class _Recorder:
    """Socket wrapper that keeps every byte the verifier sends."""

    def __init__(self, sock, sent: bytearray):
        self._sock = sock
        self._sent = sent

    def sendall(self, data: bytes) -> None:
        self._sent.extend(data)
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        return self._sock.recv(n)

    def close(self) -> None:
        self._sock.close()


def _sent_frames(program, address, config, batch=([1, 2, 3],)) -> list[dict]:
    """Every frame one ``verify_remote`` call sends, in order."""
    sent = bytearray()
    result = verify_remote(
        program,
        [list(x) for x in batch],
        address,
        config,
        socket_wrapper=lambda sock: _Recorder(sock, sent),
    )
    assert result.all_accepted
    frames, offset = [], 0
    while offset < len(sent):
        (length,) = HEADER.unpack_from(sent, offset)
        offset += HEADER.size
        frames.append(json.loads(sent[offset : offset + length]))
        offset += length
    return frames


class TestQueryKeyOrder:
    """The prover learns the queries only after it commits: the hello
    carries neither the verifier's seed nor its query key K_q, which
    first crosses the wire in the challenge, with t."""

    PINNED = dataclasses.replace(FAST, seed=b"pinned-ordering-seed")

    def test_hello_carries_neither_seed_nor_query_key(self, sumsq_program, server):
        secrets_hex = (self.PINNED.seed.hex(), query_key(self.PINNED.seed).hex())
        built = hello_frame(sumsq_program, self.PINNED)
        (sent,) = [
            f
            for f in _sent_frames(sumsq_program, server.address, self.PINNED)
            if f["type"] == "hello"
        ]
        for hello in (built, sent):
            assert set(hello) == {
                "type",
                "program",
                "params",
                "qap_mode",
                "paper_scale_crypto",
            }
            text = json.dumps(hello)
            assert not any(value in text for value in secrets_hex)

    def test_query_key_first_appears_in_the_challenge(self, sumsq_program, server):
        key = query_key(self.PINNED.seed).hex()
        frames = _sent_frames(
            sumsq_program, server.address, self.PINNED, batch=([1, 2, 3], [2, 3, 4])
        )
        assert [f["type"] for f in frames] == [
            "hello", "commit", "inputs", "challenge"
        ]
        first = next(f for f in frames if key in json.dumps(f))
        assert first["type"] == "challenge"
        assert set(first) == {"type", "key", "t"} and first["key"] == key
        # the seed itself never travels, in any frame
        assert not any(self.PINNED.seed.hex() in json.dumps(f) for f in frames)

    def test_default_sessions_send_different_query_keys(self, sumsq_program, server):
        """With no config, each call draws its own verifier seed."""
        keys = [
            next(f["key"] for f in frames if f["type"] == "challenge")
            for frames in (
                _sent_frames(sumsq_program, server.address, None),
                _sent_frames(sumsq_program, server.address, None),
            )
        ]
        assert len(set(keys)) == 2
        assert query_key(ArgumentConfig().seed).hex() not in keys
