"""How fast this host's CPU runs while the benchmark measures.

On a small shared host the CPU a process gets drifts by 2x and more
over minutes (neighbours, frequency), and process CPU time drifts with
it, so it is not stolen time the kernel could subtract.  Every timed
figure would carry that drift.  :class:`HostSpeed` samples it instead:
a thread runs a fixed burst of interpreter work every ``period_s`` and
records the burst's *thread* CPU time, which does not count the time
the thread waited for a CPU or for the GIL.  A burst that takes 1.3x
:data:`REFERENCE_BURST_S` says the host ran 1.3x slower than the
reference over that stretch, as this loop sees it.  Code that leans
on the CPU differently moves by a power of that ratio, its
*elasticity*, which the benchmark measures per figure.

The benchmark reports timings *at reference speed*: a duration is
divided by the mean slowdown sampled over its own interval and a rate
multiplied by it (:func:`at_reference`).  A program that does more
work still reads slower; a host that runs slower reads far less so.
The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: thread CPU seconds one burst takes at the reference speed (the
#: median burst on a 2-vCPU x86-64 host under CPython 3.11).
REFERENCE_BURST_S = 0.0020
BURST_ITERATIONS = 20_000
PERIOD_S = 0.05


def burst(iterations: int = BURST_ITERATIONS) -> float:
    """Thread CPU seconds for a fixed piece of interpreter work."""
    c0 = time.thread_time()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.thread_time() - c0


class HostSpeed:
    """A background thread sampling :func:`burst` while measuring.

    ``samples`` holds ``(perf_counter at burst start, burst seconds)``.
    """

    def __init__(
        self,
        period_s: float = PERIOD_S,
        probe: Callable[[], float] = burst,
    ) -> None:
        self.period_s = period_s
        self.probe = probe
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HostSpeed":
        self._thread = threading.Thread(
            target=self._run, name="hostspeed", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            t = time.perf_counter()
            self.samples.append((t, self.probe()))

    def slowdown(self, t0: float = float("-inf"),
                 t1: float = float("inf"), elasticity: float = 1.0) -> float:
        """How many times slower than the reference the host ran code
        of this ``elasticity`` over ``[t0, t1]``, from the mean burst
        there.

        An interval too short to hold a sample takes the sample
        nearest to its middle.
        """
        return slowdown(self.samples, t0, t1) ** elasticity


def slowdown(
    samples: list[tuple[float, float]], t0: float = float("-inf"),
    t1: float = float("inf"),
) -> float:
    """The mean burst over ``[t0, t1]`` relative to the reference."""
    if not samples:
        raise ValueError("no host-speed samples")
    inside = [b for t, b in samples if t0 <= t <= t1]
    if not inside:
        mid = (t0 + t1) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
    return sum(inside) / len(inside) / REFERENCE_BURST_S


def at_reference(seconds: float, factor: float) -> float:
    """A duration measured on a host ``factor`` times slower than the
    reference, as it would read at reference speed."""
    return seconds / factor
