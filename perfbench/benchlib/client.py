"""The benchmark's HTTP client: a closed loop of a few connections.

Provisioning callers each wait for their answer, so the load is a
closed loop: every client sends its next request only when the last
one has been answered.  The service closes each connection after one
response, so a request is connect + send + read to EOF, and its
latency runs from the connect to the last response byte.  Bodies are
kept as bytes and decoded after the timed window, so the client's own
CPU stays out of the way of the server on a small host.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from dataclasses import dataclass
from typing import Any, Iterator

TIMEOUT_S = 40.0  # past the service's 30 s default deadline


@dataclass
class Outcome:
    """One request as the client saw it (status 0: transport error)."""

    index: int
    query: dict[str, Any]
    status: int
    raw: bytes
    t_send: float
    latency_s: float

    def body(self) -> dict[str, Any]:
        try:
            doc = json.loads(self.raw)
        except ValueError:
            return {}
        return doc if isinstance(doc, dict) else {}


def _split(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


def get_json(address: str, path: str) -> tuple[int, dict[str, Any]]:
    host, port = _split(address)
    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


async def _post(host: str, port: int, payload: bytes) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            b"POST /provision HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, body


async def _loop(
    address: str,
    queries: Iterator[dict[str, Any]],
    seconds: float,
    clients: int,
    first_index: int,
) -> list[Outcome]:
    host, port = _split(address)
    outcomes: list[Outcome] = []
    counter = iter(range(first_index, 1 << 62))
    end = time.perf_counter() + seconds

    async def client() -> None:
        while time.perf_counter() < end:
            try:
                query = next(queries)
            except StopIteration:
                return
            index = next(counter)
            payload = json.dumps(query).encode()
            t0 = time.perf_counter()
            try:
                status, raw = await asyncio.wait_for(
                    _post(host, port, payload), TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError):
                status, raw = 0, b""
            outcomes.append(
                Outcome(index, query, status, raw, t0,
                        time.perf_counter() - t0)
            )

    await asyncio.gather(*(client() for _ in range(clients)))
    outcomes.sort(key=lambda o: o.index)
    return outcomes


def closed_loop(
    address: str,
    queries: Iterator[dict[str, Any]],
    seconds: float,
    *,
    clients: int = 2,
    first_index: int = 0,
) -> tuple[list[Outcome], float]:
    """Run ``clients`` closed-loop clients for ``seconds``.

    Stops early once ``queries`` is exhausted.  Returns every request
    attempted (in the order they were taken from ``queries``) and the
    wall time until the last one was answered.
    """
    t0 = time.perf_counter()
    outcomes = asyncio.run(
        _loop(address, queries, seconds, clients, first_index)
    )
    return outcomes, time.perf_counter() - t0
