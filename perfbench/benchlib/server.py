"""A ``repro serve`` (or traced launcher) subprocess under test.

:class:`ServerProcess` spawns the server on an ephemeral port, times
spawn → first ``GET /readyz`` 200 (the benchmark's ``setup_s``), reads
the peak resident memory of the server and every process under it
from ``/proc``, and stops it with SIGTERM, waiting for the graceful
drain to finish.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Sequence

from .client import get_json

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServerError(RuntimeError):
    """The server did not come up, or did not stop cleanly."""


def _children(pid: int) -> list[int]:
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            out += [int(c) for c in task.read_text().split()]
        except OSError:
            continue
    return out


def _alive(pid: int) -> bool:
    """Running (not exited, not a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _vm_hwm_kib(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    return int(match.group(1)) if match else 0


def _descendants(pid: int) -> list[int]:
    out, todo = [], _children(pid)
    while todo:
        p = todo.pop()
        out.append(p)
        todo += _children(p)
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) over ``pid`` and all its descendants."""
    return sum(_vm_hwm_kib(p) for p in [pid, *_descendants(pid)]) / 1024.0


class ServerProcess:
    """One server subprocess: ``start()`` it, ``stop()`` it."""

    def __init__(
        self,
        argv: Sequence[str],
        *,
        env: dict[str, str],
        cwd: str,
        ready_timeout_s: float = 60.0,
    ) -> None:
        self.argv = list(argv)
        self.env = env
        self.cwd = cwd
        self.ready_timeout_s = ready_timeout_s
        self.proc: subprocess.Popen[str] | None = None
        self.address = ""
        self.setup_s = 0.0
        self.output: list[str] = []
        self._reader: threading.Thread | None = None

    def start(self) -> "ServerProcess":
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=self.cwd,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        found = threading.Event()

        def pump() -> None:
            assert self.proc is not None and self.proc.stdout is not None
            for line in self.proc.stdout:
                self.output.append(line.rstrip("\n"))
                match = _LISTENING.search(line)
                if match and not self.address:
                    self.address = f"{match.group(1)}:{match.group(2)}"
                    found.set()
            found.set()

        self._reader = threading.Thread(target=pump, daemon=True)
        self._reader.start()
        deadline = t0 + self.ready_timeout_s
        if not found.wait(self.ready_timeout_s) or not self.address:
            self.stop()
            raise ServerError(
                "server never reported its address:\n"
                + "\n".join(self.output[-20:])
            )
        while time.perf_counter() < deadline:
            try:
                status, _ = get_json(self.address, "/readyz")
            except OSError:
                status = 0
            if status == 200:
                self.setup_s = time.perf_counter() - t0
                return self
            time.sleep(0.01)
        self.stop()
        raise ServerError("server never answered GET /readyz with 200")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM, wait for the drain, then for every process the
        server started; kill whatever overruns."""
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        descendants = _descendants(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
            code = None
        finally:
            if self._reader is not None:
                self._reader.join(timeout=5)
        deadline = time.monotonic() + 10
        for pid in descendants:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if code is None:
            raise ServerError(
                f"server did not drain within {timeout_s:g}s; killed"
            )
        return code
