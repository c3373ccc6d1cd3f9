"""Deterministic fault injection for the TCP transport.

Robustness claims about the two-party deployment (docs/NETWORKING.md)
are only as strong as the failure modes they were tested under.  This
module injects those failures *deterministically*: a :class:`FaultPlan`
holds a seed and a set of :class:`FaultRule` entries addressed by frame
index and direction, and :class:`FaultySocket` applies them at frame
granularity by parsing the same length-prefixed framing the transport
itself uses.

Actions:

* ``drop``     — the frame vanishes and the connection dies (the
                 classic mid-handshake partition);
* ``delay``    — the frame is delivered ``delay`` seconds late
                 (exercises read deadlines without killing anything);
* ``truncate`` — a prefix of the frame is delivered, then the
                 connection dies ("connection closed mid-frame");
* ``corrupt``  — seeded XOR bit-flips on the payload, always including
                 the first byte, so the JSON can never parse cleanly
                 and the receiver must take its bad-frame path.

Frames are counted per connection and per direction (``send`` frame 0
is the client's hello; ``recv`` frame 0 is the server's hello-ok), and
each rule fires at most ``times`` times over the plan's lifetime — so
"corrupt the hello once" leaves the retry attempt clean, which is
exactly the retrying-then-succeeding scenario ``RetryPolicy`` is
specified against.

Usage — wrap the verifier's connections (the client side sees both
directions of the wire, so one hook covers every fault site)::

    plan = FaultPlan([FaultRule(frame=0, action="corrupt")], seed=7)
    verify_remote(program, batch, addr, config, socket_wrapper=plan.wrap)
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from .. import telemetry
from .framing import HEADER
from .protocol import ProtocolViolation

ACTIONS = ("drop", "delay", "truncate", "corrupt")
DIRECTIONS = ("send", "recv")

#: process-level actions, for the batch engine's worker pool
PROCESS_ACTIONS = ("kill", "raise", "slow")


class InjectedWorkerFault(RuntimeError):
    """A seeded transient worker failure (``action="raise"``).

    Carries ``code = "io"`` so the batch engine classifies it with the
    same vocabulary as a real worker/transport loss — and therefore
    retries it under the batch ``RetryPolicy``.
    """

    code = "io"


@dataclass(frozen=True)
class ProcessFaultRule:
    """Hit batch instance ``index`` on proving attempt ``attempt``.

    Addressing by (instance, attempt) keeps firing deterministic with
    no cross-process shared state: a task retried after a kill runs as
    attempt 2, which is clean unless another rule targets it.
    """

    index: int
    action: str
    #: 1-based proving attempt this rule fires on
    attempt: int = 1
    #: seconds, for action == "slow"
    delay: float = 0.05

    def __post_init__(self):
        if self.action not in PROCESS_ACTIONS:
            raise ValueError(f"unknown process fault action {self.action!r}")
        if self.attempt < 1:
            raise ValueError("attempt numbers are 1-based")


class ProcessFaultPlan:
    """Seeded process-level fault rules for the batch engine.

    Bound into the worker loop *before* fork, so every worker —
    including replacements spawned after a crash — inherits the same
    rules.  Actions:

    * ``kill`` — SIGKILL the worker process at task start (the classic
      dead-machine scenario; the engine must detect it, reassign the
      in-flight instance, and replenish the pool);
    * ``raise`` — raise :class:`InjectedWorkerFault` (a transient task
      exception: the worker survives, the instance is retried);
    * ``slow`` — sleep ``delay`` seconds before proving (a straggler).

    When the engine runs inline (one worker / no fork), ``kill`` is
    surfaced as the same transient :class:`InjectedWorkerFault` the
    engine would observe — there is no separate process to kill.
    """

    def __init__(self, rules: Sequence[ProcessFaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = seed
        #: (index, attempt, action) log — meaningful in the applying
        #: process (inline runs; in forked workers it stays local)
        self.injected: list[tuple[int, int, str]] = []

    def rule_for(self, index: int, attempt: int) -> ProcessFaultRule | None:
        """The rule targeting this (instance, attempt), or None."""
        for rule in self.rules:
            if rule.index == index and rule.attempt == attempt:
                return rule
        return None

    def apply(self, index: int, attempt: int, *, inline: bool = False) -> None:
        """Inject the fault (if any) for this task execution."""
        rule = self.rule_for(index, attempt)
        if rule is None:
            return
        self.injected.append((index, attempt, rule.action))
        telemetry.count("batch.faults_injected")
        if rule.action == "slow":
            time.sleep(rule.delay)
        elif rule.action == "raise":
            raise InjectedWorkerFault(
                f"injected fault at instance {index} attempt {attempt}"
            )
        elif rule.action == "kill":
            if inline:
                raise InjectedWorkerFault(
                    f"injected worker loss at instance {index} attempt {attempt}"
                )
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class FaultRule:
    """Hit frame number ``frame`` (per connection) in ``direction``."""

    frame: int
    action: str
    direction: str = "send"
    #: seconds, for action == "delay"
    delay: float = 0.05
    #: total firings over the plan's lifetime before the rule goes inert
    times: int = 1

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown fault direction {self.direction!r}")


class FaultPlan:
    """A seeded set of fault rules, shared across a session's connections."""

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = seed
        self._fired = [0] * len(self.rules)
        #: (direction, frame, action) log of every injected fault
        self.injected: list[tuple[str, int, str]] = []

    def claim(self, direction: str, frame: int) -> FaultRule | None:
        """The rule to apply to this frame (consumes one firing), or None."""
        for i, rule in enumerate(self.rules):
            if (
                rule.direction == direction
                and rule.frame == frame
                and self._fired[i] < rule.times
            ):
                self._fired[i] += 1
                self.injected.append((direction, frame, rule.action))
                telemetry.count("net.faults_injected")
                return rule
        return None

    def corruption(self, direction: str, frame: int, length: int) -> list[tuple[int, int]]:
        """Deterministic (offset, xor-mask) flips for a payload of ``length``."""
        if length <= 0:
            return []
        rng = random.Random(f"{self.seed}:{direction}:{frame}")
        flips = [(0, rng.randrange(1, 256))]  # always break the opening byte
        for _ in range(min(7, length - 1)):
            flips.append((rng.randrange(length), rng.randrange(1, 256)))
        return flips

    def wrap(self, sock) -> "FaultySocket":
        """``socket_wrapper`` hook for ``verify_remote``."""
        return FaultySocket(sock, self)


class FaultySocket:
    """Applies a :class:`FaultPlan` to a real socket at frame granularity.

    Outgoing frames are whole ``sendall`` calls (``send_frame`` writes
    header+payload in one call); incoming frames are reassembled by a
    small state machine over the length-prefixed stream, so faults land
    on exact frame boundaries in both directions.
    """

    def __init__(self, sock, plan: FaultPlan):
        self._sock = sock
        self._plan = plan
        self._timeout: float | None = sock.gettimeout() if hasattr(sock, "gettimeout") else None
        self._send_frame = 0
        # recv-side framing state
        self._recv_frame = 0
        self._rx_header = b""
        self._rx_left: int | None = None  # None => reading the header
        self._rx_offset = 0
        self._rx_rule: FaultRule | None = None
        self._rx_flips: dict[int, int] | None = None
        self._rx_cut = 0
        self._dead = False  # simulated peer close

    # -- outgoing ----------------------------------------------------------

    def sendall(self, data: bytes) -> None:
        """Send one frame, applying any send-side rule for its index.

        The wire layer emits exactly one ``sendall`` per frame, so the
        call count *is* the frame index.
        """
        frame = self._send_frame
        self._send_frame += 1
        rule = self._plan.claim("send", frame)
        if rule is None:
            self._sock.sendall(data)
        elif rule.action == "delay":
            self._check_deadline(rule)
            time.sleep(rule.delay)
            self._sock.sendall(data)
        elif rule.action == "drop":
            self._sock.close()  # the frame is lost with the connection
        elif rule.action == "truncate":
            self._sock.sendall(data[: max(len(data) // 2, HEADER.size)])
            self._sock.close()
        elif rule.action == "corrupt":
            head, payload = data[: HEADER.size], bytearray(data[HEADER.size :])
            # dedup with the first (guaranteed offset-0) flip winning, so
            # colliding random offsets can never cancel it out
            flips = dict(reversed(self._plan.corruption("send", frame, len(payload))))
            for offset, mask in flips.items():
                payload[offset] ^= mask
            self._sock.sendall(head + bytes(payload))

    # -- incoming ----------------------------------------------------------

    def recv(self, n: int) -> bytes:
        """Receive bytes, filtered through the recv-side fault rules."""
        if self._dead:
            return b""
        return self._filter_incoming(self._sock.recv(n))

    def _filter_incoming(self, data: bytes) -> bytes:
        out = bytearray()
        view = memoryview(data)
        while len(view):
            if self._rx_left is None:
                take = min(HEADER.size - len(self._rx_header), len(view))
                self._rx_header += bytes(view[:take])
                out += view[:take]
                view = view[take:]
                if len(self._rx_header) < HEADER.size:
                    continue
                (length,) = HEADER.unpack(self._rx_header)
                self._rx_left = length
                self._rx_offset = 0
                self._rx_rule = self._plan.claim("recv", self._recv_frame)
                self._rx_flips = None
                if self._rx_rule is not None:
                    if self._rx_rule.action == "delay":
                        self._check_deadline(self._rx_rule)
                        time.sleep(self._rx_rule.delay)
                    elif self._rx_rule.action == "drop":
                        # the frame never arrives: retract this call's
                        # header bytes and simulate the peer closing
                        del out[len(out) - take :]
                        self._dead = True
                        return bytes(out)
                    elif self._rx_rule.action == "truncate":
                        self._rx_cut = length // 2
                    elif self._rx_rule.action == "corrupt":
                        self._rx_flips = dict(
                            reversed(
                                self._plan.corruption("recv", self._recv_frame, length)
                            )
                        )
                if self._rx_left == 0:
                    self._finish_frame()
                continue
            take = min(self._rx_left, len(view))
            chunk = bytearray(view[:take])
            view = view[take:]
            if self._rx_flips:
                for i in range(take):
                    mask = self._rx_flips.get(self._rx_offset + i)
                    if mask:
                        chunk[i] ^= mask
            rule = self._rx_rule
            if rule is not None and rule.action == "truncate":
                allowed = max(self._rx_cut - self._rx_offset, 0)
                if allowed < take:
                    out += chunk[:allowed]
                    self._dead = True
                    return bytes(out)
            out += chunk
            self._rx_offset += take
            self._rx_left -= take
            if self._rx_left == 0:
                self._finish_frame()
        return bytes(out)

    def _finish_frame(self) -> None:
        self._recv_frame += 1
        self._rx_header = b""
        self._rx_left = None
        self._rx_rule = None
        self._rx_flips = None
        self._rx_cut = 0

    # -- plumbing ----------------------------------------------------------

    def _check_deadline(self, rule: FaultRule) -> None:
        """A delay no reader could survive is a deadline, not an io blip.

        Sleeping through the peer's read timeout would burn real
        wall-clock in every test that injects it and then surface as a
        generic transport error; raising ``deadline`` immediately keeps
        the failure honest about *why* the frame never made it.
        """
        if self._timeout is not None and rule.delay >= self._timeout:
            raise ProtocolViolation(
                f"injected delay of {rule.delay:.3f}s exceeds the "
                f"{self._timeout:.3f}s read deadline",
                code="deadline",
            )

    def settimeout(self, value) -> None:
        """Pass the timeout through to the wrapped socket."""
        self._timeout = value
        self._sock.settimeout(value)

    def gettimeout(self):
        """Return the timeout last set via :meth:`settimeout`."""
        return self._timeout

    def close(self) -> None:
        """Close the wrapped socket."""
        self._sock.close()


# -- WAN link emulation -------------------------------------------------------


class _LinkScheduler:
    """One process-wide delivery thread for every :class:`LinkSocket`.

    Emulated latency must not be slept on the sending thread — a
    gateway handler that wrote an ``outputs`` frame would otherwise sit
    inside the link emulation for the frame's flight time instead of
    reading the next request.  ``sendall`` therefore only computes an
    arrival time and enqueues; this thread delivers frames (and
    deferred closes) when they fall due.  Per-socket ordering is
    preserved because each socket's due times are non-decreasing (the
    pacing model below) and the heap breaks ties by sequence number.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._heap: list = []  # (due, seq, sock, payload-or-None)
        self._seq = itertools.count()
        self._thread: threading.Thread | None = None

    def schedule(self, due: float, sock: "LinkSocket", payload: bytes | None) -> None:
        with self._cond:
            heapq.heappush(self._heap, (due, next(self._seq), sock, payload))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="link-emulator", daemon=True
                )
                self._thread.start()
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._heap:
                    self._cond.wait()
                due = self._heap[0][0]
                wait = due - time.monotonic()
                if wait > 0:
                    self._cond.wait(timeout=wait)
                    continue
                _, _, sock, payload = heapq.heappop(self._heap)
            sock._deliver(payload)


_SCHEDULER = _LinkScheduler()


def _fresh_scheduler() -> None:
    """Give a forked child its own scheduler.

    The child inherits the parent's ``_thread`` record but not the
    thread, and possibly ``_cond`` held by it, so every frame a child's
    :class:`LinkSocket` scheduled on the inherited one would stay
    queued forever.  The parent's pending frames are not the child's
    to deliver either.
    """
    global _SCHEDULER
    _SCHEDULER = _LinkScheduler()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_fresh_scheduler)


@dataclass
class LinkProfile:
    """A seeded emulated network link, applied per connection.

    * ``latency``/``jitter`` — every frame arrives ``latency`` plus a
      uniform ``[0, jitter)`` seconds after it clears the pipe (one-way;
      wrap both peers to emulate a full RTT);
    * ``bandwidth`` — bytes/second pacing: a frame occupies the pipe
      for ``size / bandwidth`` seconds and later frames queue behind it
      (None: infinite);
    * ``loss`` — per-frame probability the frame vanishes.  The
      transport is TCP, so a frame the network truly ate is a
      retransmission stall ending in a dead connection; the emulation
      cuts the connection at the frame's would-be arrival time;
    * ``corrupt`` — per-frame probability of a payload bit-flip
      (exercises the receiver's ``bad-frame`` path end to end).

    ``wrap`` is a ``socket_wrapper`` for :func:`verify_remote`; servers
    take the profile directly via their ``link=`` knob and wrap every
    accepted connection.  Each wrapped connection draws its own RNG
    stream from ``seed`` and a connection counter, so a multi-connection
    run is reproducible connection by connection.
    """

    latency: float = 0.0
    jitter: float = 0.0
    bandwidth: float | None = None
    loss: float = 0.0
    corrupt: float = 0.0
    seed: int = 0
    _conn_ids: "itertools.count" = field(
        init=False, repr=False, compare=False, default_factory=itertools.count
    )

    def wrap(self, sock) -> "LinkSocket":
        """Wrap one connection (``socket_wrapper`` hook)."""
        rng = random.Random(f"link:{self.seed}:{next(self._conn_ids)}")
        return LinkSocket(sock, self, rng)


class LinkSocket:
    """Applies a :class:`LinkProfile` to the *send* side of a socket.

    Sending never blocks beyond the enqueue: the frame's arrival time
    is computed from the pacing model (``start = max(now, link_free)``,
    then ``xmit = size/bandwidth`` occupies the pipe, then latency +
    jitter ride on top) and the process-wide :class:`_LinkScheduler`
    writes it out when due.  ``recv`` is a passthrough — delays are
    already baked into when the peer's frames were written, so readers
    (and gateway handler threads) block in plain ``socket.recv``, never
    inside the emulation.  ``close`` is deferred behind any scheduled
    frames so a caller closing right after its last send cannot beat
    its own traffic to the wire.
    """

    def __init__(self, sock, profile: LinkProfile, rng: random.Random):
        self._sock = sock
        self._profile = profile
        self._rng = rng
        self._lock = threading.Lock()
        self._link_free = 0.0  # when the emulated pipe next idles
        self._last_due = 0.0  # latest scheduled arrival
        self._cut = False  # a lost frame killed the connection
        self._closed = False

    # -- outgoing ----------------------------------------------------------

    def sendall(self, data: bytes) -> None:
        """Schedule ``data`` for delivery after the emulated flight time.

        Returns immediately — the actual write happens on the shared
        scheduler thread at the frame's due time, so a slow link never
        blocks the sending thread. Loss cuts the connection at arrival
        time; corruption flips one payload byte.
        """
        if self._cut or self._closed:
            raise OSError("emulated link: connection is gone")
        p = self._profile
        lost = p.loss > 0 and self._rng.random() < p.loss
        corrupt = not lost and p.corrupt > 0 and self._rng.random() < p.corrupt
        now = time.monotonic()
        with self._lock:
            start = max(now, self._link_free)
            xmit = len(data) / p.bandwidth if p.bandwidth else 0.0
            flight = p.latency + (p.jitter * self._rng.random() if p.jitter else 0.0)
            # TCP delivers in order: a frame that drew less jitter than
            # its predecessor still queues behind it at the receiver
            due = max(start + xmit + flight, self._last_due)
            self._link_free = start + xmit
            self._last_due = due
        telemetry.count("net.link.frames")
        if lost:
            # TCP would retransmit into a black hole until the
            # connection died; emulate the end state at arrival time
            telemetry.count("net.link.lost")
            self._cut = True
            _SCHEDULER.schedule(due, self, None)
            return
        if corrupt:
            telemetry.count("net.link.corrupted")
            head, payload = data[: HEADER.size], bytearray(data[HEADER.size :])
            if payload:
                payload[0] ^= self._rng.randrange(1, 256)
            data = bytes(head) + bytes(payload)
        _SCHEDULER.schedule(due, self, data)

    def _deliver(self, payload: bytes | None) -> None:
        """Scheduler callback: write (or close) when the frame is due."""
        if payload is None:
            try:
                self._sock.close()
            except OSError:
                pass
            return
        try:
            self._sock.sendall(payload)
        except OSError:
            self._cut = True  # peer is gone; surface it on the next send

    # -- plumbing ----------------------------------------------------------

    def recv(self, n: int) -> bytes:
        """Read from the wrapped socket (emulation is send-side only)."""
        return self._sock.recv(n)

    def settimeout(self, value) -> None:
        """Pass the timeout through to the wrapped socket."""
        self._sock.settimeout(value)

    def gettimeout(self):
        """Return the wrapped socket's timeout."""
        return self._sock.gettimeout()

    def close(self) -> None:
        """Close once every scheduled frame has left the building."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            last = self._last_due
        if last > time.monotonic():
            _SCHEDULER.schedule(last, self, None)
        else:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "LinkSocket":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
