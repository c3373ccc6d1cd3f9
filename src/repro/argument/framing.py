"""The wire format: length-prefixed JSON frames and their field codecs.

Every message between verifier and prover is a 4-byte big-endian
length (``HEADER``, capped at ``MAX_FRAME``) followed by a UTF-8 JSON
object carrying a ``type``.  Field elements and ciphertext components
travel as hex strings.  The client (:mod:`repro.argument.net`), the
server (:mod:`repro.argument.serve`) and the socket fault wrappers
(:mod:`repro.argument.faults`) all parse the stream through this one
definition.
"""

from __future__ import annotations

import json
import socket
import struct

from .. import telemetry
from ..crypto.elgamal import ElGamalCiphertext
from .protocol import ProtocolViolation

HEADER = struct.Struct("!I")
MAX_FRAME = 256 * 1024 * 1024


def send_frame(sock, payload: dict) -> None:
    """Write one length-prefixed JSON frame (bytes counted per frame type)."""
    data = json.dumps(payload).encode()
    if len(data) > MAX_FRAME:
        raise ProtocolViolation(f"frame of {len(data)} bytes exceeds limit")
    if telemetry.enabled():
        telemetry.count("net.bytes_sent", HEADER.size + len(data))
        telemetry.count("net.frames_sent")
        telemetry.count(f"net.bytes_sent.{payload.get('type', '?')}", len(data))
    sock.sendall(HEADER.pack(len(data)) + data)


def recv_frame(sock) -> dict:
    """Read one frame; raises ProtocolViolation on malformed data."""
    header = _recv_exact(sock, HEADER.size)
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolViolation(
            f"peer announced {length}-byte frame", code="bad-frame"
        )
    data = _recv_exact(sock, length)
    if telemetry.enabled():
        telemetry.count("net.bytes_received", HEADER.size + length)
        telemetry.count("net.frames_received")
    try:
        payload = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ProtocolViolation(f"bad frame: {exc}", code="bad-frame") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolViolation(
            "frames must be objects with a 'type'", code="bad-frame"
        )
    return payload


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            # a transport-level drop, not a protocol offence: code "io"
            # keeps the client's RetryPolicy treating a pre-commit
            # disconnect as transient and files the failure under the
            # server's session_errors.io bucket
            raise ProtocolViolation("connection closed mid-frame", code="io")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def expect(payload: dict, expected_type: str) -> dict:
    """``payload`` if it has ``expected_type``; a peer error frame raises."""
    if payload["type"] == "error":
        retry_after = payload.get("retry_after")
        if not isinstance(retry_after, (int, float)) or retry_after < 0:
            retry_after = None
        raise ProtocolViolation(
            f"peer error [{payload.get('code', '?')}]: {payload.get('message')}",
            code=payload.get("code", "peer-error"),
            retry_after=retry_after,
        )
    if payload["type"] != expected_type:
        raise ProtocolViolation(
            f"expected {expected_type!r}, got {payload['type']!r}"
        )
    return payload


def require(payload, key: str):
    """Field access on a decoded frame; ProtocolViolation when absent."""
    try:
        return payload[key]
    except (KeyError, TypeError, IndexError) as exc:
        name = payload.get("type", "?") if isinstance(payload, dict) else type(payload).__name__
        raise ProtocolViolation(
            f"malformed {name!r} frame: missing or bad field {key!r}",
            code="bad-frame",
        ) from exc


def tune_socket(sock: socket.socket) -> None:
    """Per-connection TCP tuning, applied on both ends of the wire.

    The protocol is strictly request/response over small frames, the
    worst case for Nagle + delayed-ACK coupling: every ``commit`` or
    ``challenge`` frame would otherwise wait out the peer's delayed-ACK
    timer (~40 ms) before leaving the buffer, which under an emulated
    WAN link stacks on top of the real latency.  ``TCP_NODELAY`` is the
    whole fix; failures are ignored (AF_UNIX in tests, exotic stacks).
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):
        pass


def hex_list(values) -> list[str]:
    """Encode integers as hex strings."""
    return [format(v, "x") for v in values]


def unhex_list(values, *, what: str = "field elements", p: int | None = None) -> list[int]:
    """Decode a hex-string vector; ProtocolViolation on malformed data.

    With ``p`` given the result is canonicalized mod p — peer-supplied
    integers are never passed non-canonical into the commitment or PCP
    checks.
    """
    try:
        out = [int(v, 16) for v in values]
    except (ValueError, TypeError) as exc:
        raise ProtocolViolation(f"malformed {what}: {exc}", code="bad-frame") from exc
    if p is not None:
        out = [v % p for v in out]
    return out


def unhex_ciphertexts(pairs, *, what: str = "ciphertexts") -> list[ElGamalCiphertext]:
    """Decode [c1, c2] hex pairs; ProtocolViolation on malformed data."""
    try:
        return [ElGamalCiphertext(int(c1, 16), int(c2, 16)) for c1, c2 in pairs]
    except (ValueError, TypeError) as exc:
        raise ProtocolViolation(f"malformed {what}: {exc}", code="bad-frame") from exc
