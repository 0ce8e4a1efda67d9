"""Adversarial HTTP client corpus for the provisioning service.

The paper's adversary controls the *traffic*; the service's adversary
also controls the *clients*.  This module is the attack side of that
contract: a deterministic corpus of hostile byte streams (slowloris
header drip, stalled bodies, oversized inputs, garbage, pipelining,
mid-body disconnects, a topology past the node ceiling) plus a
raw-socket driver that plays them against a live server and reports
what came back.

Every attack states its expected rejection up front — the status codes
the server is allowed to answer with, and that the connection must be
closed.  The unit suite feeds each attack's bytes straight through the
request parser; the integration suite and ``tools/hostile_client.py``
play them over real sockets, concurrently with legitimate traffic, and
assert nothing leaks (`/stats` ``connections.open`` returns to zero)
and nothing ever surfaces as a 500.

The corpus is data, not code: :func:`corpus` returns frozen
:class:`Attack` records scaled to the server's ``io_timeout_s`` and
size limits, so the same attacks stay meaningful whatever the service
is configured with.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass

__all__ = [
    "Attack",
    "AttackStep",
    "AttackResult",
    "corpus",
    "run_attack",
    "flood",
]


@dataclass(frozen=True)
class AttackStep:
    """Send ``data``, then keep the connection idle for ``pause_s``."""

    data: bytes = b""
    pause_s: float = 0.0


@dataclass(frozen=True)
class Attack:
    """One scripted hostile byte stream and its expected rejection.

    ``expect`` is the set of acceptable response statuses; empty means
    no response is observable from the client side (the client itself
    disconnects mid-attack) — the server-side expectation is then in
    ``parser_expect``, which the unit suite asserts by driving the
    parser directly.  ``close_early`` clients close their socket after
    the scripted steps instead of waiting for a response.
    ``deadline_factor`` scales the response deadline: the server must
    answer (or close) within ``deadline_factor * io_timeout_s + 1.0``
    seconds — 1.0 for the slow attacks pins the acceptance bar
    "reaped within io-timeout + 1s".
    """

    name: str
    description: str
    steps: tuple[AttackStep, ...]
    expect: tuple[int, ...]
    close_early: bool = False
    deadline_factor: float = 1.0

    @property
    def parser_expect(self) -> tuple[int, ...]:
        """Statuses the request parser itself must produce."""
        return self.expect or (400,)

    @property
    def payload(self) -> bytes:
        """Every scripted byte, concatenated (for parser-level tests)."""
        return b"".join(step.data for step in self.steps)


@dataclass
class AttackResult:
    """What one attack run observed from the client side."""

    name: str
    status: int | None
    wall_s: float
    closed: bool
    detail: str = ""

    def ok(self, attack: Attack) -> bool:
        """Did the server reject the attack per its contract?"""
        if attack.expect and self.status not in attack.expect:
            return False
        return self.closed


def corpus(
    *,
    io_timeout_s: float,
    max_header_bytes: int = 16 * 1024,
    max_body_bytes: int = 1 * 1024 * 1024,
) -> tuple[Attack, ...]:
    """The attack corpus, scaled to the target server's limits."""
    drip_pause = max(0.02, io_timeout_s / 10)
    # enough drip steps to outlast several timeouts — the server must
    # cut the drip off long before the script runs out of bytes
    drip_steps = int(3 * io_timeout_s / drip_pause) + 4
    stall_pause = 3 * io_timeout_s
    return (
        Attack(
            name="slowloris-header-drip",
            description=(
                "dribbles one header byte at a time and never "
                "finishes the header block"
            ),
            steps=(AttackStep(b"POST /provision HTTP/1.1\r\nX-Drip: "),)
            + tuple(
                AttackStep(b"a", drip_pause) for _ in range(drip_steps)
            ),
            expect=(408,),
        ),
        Attack(
            name="stalled-body",
            description=(
                "declares Content-Length then stops sending mid-body"
            ),
            steps=(
                AttackStep(
                    b"POST /provision HTTP/1.1\r\n"
                    b"Content-Length: 64\r\n\r\n"
                    b'{"topology": "pa',
                    stall_pause,
                ),
            ),
            expect=(408,),
        ),
        Attack(
            name="oversized-header",
            description="one header field past the header byte limit",
            steps=(
                AttackStep(
                    b"GET /healthz HTTP/1.1\r\nX-Pad: "
                    + b"a" * (max_header_bytes + 1024)
                    + b"\r\n\r\n"
                ),
            ),
            expect=(431,),
            deadline_factor=2.0,
        ),
        Attack(
            name="oversized-body",
            description=(
                "declares a Content-Length past the body byte limit"
            ),
            steps=(
                AttackStep(
                    b"POST /provision HTTP/1.1\r\nContent-Length: "
                    + str(max_body_bytes + 1).encode("ascii")
                    + b"\r\n\r\n"
                ),
            ),
            expect=(413,),
        ),
        Attack(
            name="non-numeric-content-length",
            description="Content-Length that is not a number",
            steps=(
                AttackStep(
                    b"POST /provision HTTP/1.1\r\n"
                    b"Content-Length: banana\r\n\r\n"
                ),
            ),
            expect=(400,),
        ),
        Attack(
            name="negative-content-length",
            description=(
                "negative Content-Length (would reach readexactly(-n) "
                "unvalidated)"
            ),
            steps=(
                AttackStep(
                    b"POST /provision HTTP/1.1\r\n"
                    b"Content-Length: -5\r\n\r\n"
                ),
            ),
            expect=(400,),
        ),
        Attack(
            name="garbage-bytes",
            description="every byte value, nothing resembling HTTP",
            steps=(AttackStep(bytes(range(256)) + b"\r\n\r\n"),),
            expect=(400,),
        ),
        Attack(
            name="pipelined-junk",
            description=(
                "two back-to-back requests on one connection; the "
                "service answers the first and closes (Connection: "
                "close), never executing the second"
            ),
            steps=(
                AttackStep(
                    b"GET /no-such-route HTTP/1.1\r\n\r\n"
                    b"GET /healthz HTTP/1.1\r\n\r\n"
                ),
            ),
            expect=(404,),
        ),
        Attack(
            name="oversized-topology",
            description=(
                "a well-formed query naming a topology past the node "
                "ceiling; refused from the spec's integers before "
                "anything is built"
            ),
            steps=(
                AttackStep(
                    b"POST /provision HTTP/1.1\r\n"
                    b"Content-Length: 25\r\n\r\n"
                    b'{"topology": "binary:40"}'
                ),
            ),
            expect=(400,),
        ),
        Attack(
            name="mid-body-disconnect",
            description=(
                "declares a body, sends part of it, and disconnects"
            ),
            steps=(
                AttackStep(
                    b"POST /provision HTTP/1.1\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b'{"topology":'
                ),
            ),
            expect=(),  # the client is gone; parser answers 400
            close_early=True,
        ),
    )


def _drain_readable(
    sock: socket.socket, buf: bytes, wait_s: float
) -> tuple[bytes, bool]:
    """Read whatever arrives within ``wait_s``; detect server close."""
    closed = False
    deadline = time.monotonic() + max(0.0, wait_s)
    while True:
        remaining = deadline - time.monotonic()
        if remaining < 0:
            break
        readable, _, _ = select.select([sock], [], [], min(remaining, 0.05))
        if readable:
            try:
                chunk = sock.recv(4096)
            except (ConnectionError, OSError):
                closed = True
                break
            if not chunk:
                closed = True
                break
            buf += chunk
        if not readable and wait_s == 0.0:
            break
    return buf, closed


def _parse_status(buf: bytes) -> int | None:
    if b"\r\n" not in buf:
        return None
    parts = buf.split(b"\r\n", 1)[0].split()
    try:
        return int(parts[1])
    except (IndexError, ValueError):
        return None


def run_attack(
    host: str,
    port: int,
    attack: Attack,
    *,
    io_timeout_s: float,
    connect_timeout_s: float = 5.0,
) -> AttackResult:
    """Play one attack over a real socket; never raises.

    The response deadline is ``deadline_factor * io_timeout_s + 1.0``
    past the start of the attack — for the slow attacks that is the
    acceptance bar "rejected within io-timeout + 1s".  Pauses are cut
    short as soon as the server responds or closes.
    """
    t0 = time.monotonic()
    deadline = t0 + attack.deadline_factor * io_timeout_s + 1.0
    try:
        sock = socket.create_connection(
            (host, port), timeout=connect_timeout_s
        )
    except OSError as err:
        return AttackResult(
            attack.name, None, time.monotonic() - t0, False,
            detail=f"connect failed: {err}",
        )
    sock.setblocking(False)
    buf = b""
    closed = False
    detail = ""
    try:
        for step in attack.steps:
            if closed or _parse_status(buf) is not None:
                break
            try:
                pending = step.data
                while pending:
                    _, writable, _ = select.select([], [sock], [], 1.0)
                    if not writable:
                        break
                    sent = sock.send(pending)
                    pending = pending[sent:]
            except (ConnectionError, OSError) as err:
                closed = True
                detail = f"send interrupted: {type(err).__name__}"
            buf, was_closed = _drain_readable(sock, buf, step.pause_s)
            closed = closed or was_closed
        if attack.close_early:
            return AttackResult(
                attack.name, _parse_status(buf),
                time.monotonic() - t0, True,
                detail="client disconnected mid-attack",
            )
        while (
            _parse_status(buf) is None
            and not closed
            and time.monotonic() < deadline
        ):
            buf, closed = _drain_readable(sock, buf, 0.1)
        # observed a status: give the server a moment to close cleanly
        grace = time.monotonic() + 2.0
        while not closed and time.monotonic() < grace:
            buf, closed = _drain_readable(sock, buf, 0.1)
    finally:
        sock.close()
    return AttackResult(
        attack.name,
        _parse_status(buf),
        time.monotonic() - t0,
        closed,
        detail=detail,
    )


def flood(
    host: str,
    port: int,
    *,
    idle: int,
    extra: int,
    read_timeout_s: float = 5.0,
    settle_s: float = 0.3,
) -> dict[str, object]:
    """Connection flood: ``idle`` held-open sockets, then ``extra`` more.

    The idlers send nothing (they sit in the server's header-read
    phase, occupying governor slots); once they have settled, each
    extra connection must be accept-shed — a fast 503 whose headers
    carry ``Retry-After`` — and closed.  Returns per-extra
    ``(status, has_retry_after, wall_s)`` tuples plus how many idlers
    actually connected.
    """
    idlers: list[socket.socket] = []
    shed: list[tuple[int | None, bool, float]] = []
    try:
        for _ in range(idle):
            try:
                idlers.append(
                    socket.create_connection((host, port), timeout=5.0)
                )
            except OSError:
                break
        time.sleep(settle_s)  # let every accept reach the governor
        for _ in range(extra):
            t0 = time.monotonic()
            data = b""
            try:
                s = socket.create_connection((host, port), timeout=5.0)
            except OSError:
                shed.append((None, False, time.monotonic() - t0))
                continue
            try:
                s.settimeout(read_timeout_s)
                while b"\r\n\r\n" not in data:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            except OSError:
                pass
            finally:
                s.close()
            shed.append(
                (
                    _parse_status(data),
                    b"retry-after" in data.lower(),
                    time.monotonic() - t0,
                )
            )
    finally:
        for s in idlers:
            s.close()
    return {"idle_connected": len(idlers), "shed": shed}
