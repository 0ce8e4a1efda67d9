"""State-reactive worst-case heuristics.

The paper's references prove buffer lower bounds for the baseline
policies via crafted traffic:

* Greedy: Θ(n) on the line (Rosén & Scalosub [23]) — realised by the
  *seesaw*: stream packets from the far end, then dump the stream's
  arrivals onto the sink's predecessor while it is still receiving.
* Downhill: Ω(n) ([21]) — a constant far-end stream freezes into a
  staircase, so the far node keeps climbing.
* Downhill-or-Flat: Ω(√n) (Theorem 4.1) — flat plateaus conduct flow,
  so the adversary builds plateaus near the sink and pumps them up.

The adversaries below implement those shapes plus generic hill-climbing
heuristics used by the "worst adversary in the suite" measurements.
All are 1-rate (c = 1).
"""

from __future__ import annotations

import numpy as np

from .base import Adversary
from ..network.topology import Topology

__all__ = [
    "SeesawAdversary",
    "PressureAdversary",
    "PlateauAdversary",
    "MaxHeightChaserAdversary",
    "BackfillAdversary",
]


class SeesawAdversary(Adversary):
    """Anti-greedy: fill from the far end, then hammer the pre-sink.

    Phase 1 (``fill`` steps): inject at the far end; under a greedy
    policy this forms a solid stream flowing towards the sink at rate
    1.  Phase 2: inject at the sink's predecessor, which now receives
    the stream (rate 1), injections (rate 1), and can only drain at
    rate 1 — net +1 per step for as long as the stream lasts, i.e.
    Θ(fill) = Θ(n) buffer growth.
    """

    def __init__(self, fill: int | None = None):
        self.fill = fill
        self.name = f"seesaw(fill={'auto' if fill is None else fill})"
        self._far = -1
        self._pre = -1
        self._fill = 0
        self._start: int | None = None

    def reset(self, topology: Topology, capacity: int) -> None:
        self._far = int(np.argmax(topology.depth))
        kids = topology.children[topology.sink]
        self._pre = kids[0] if kids else self._far
        self._fill = self.fill if self.fill is not None else topology.n - 2
        self._start = None

    def inject(self, step, heights, topology):
        if self._start is None:
            self._start = step
        rel = step - self._start
        return (self._far,) if rel < self._fill else (self._pre,)


class PressureAdversary(Adversary):
    """Anti-Downhill-or-Flat: keep the plateau next to the sink fed.

    Always injects at the last node (walking back from the sink) whose
    height is at least as large as its own predecessor's — i.e. the
    left edge of the maximal non-increasing run ending at the sink.
    Feeding the left edge extends/raises the plateau, and because
    Downhill-or-Flat conducts flow across flat runs, the pumped-up
    plateau keeps refilling the nodes near the sink: heights grow like
    √t (experiment E5).
    """

    name = "pressure"

    def __init__(self) -> None:
        self._order: np.ndarray | None = None

    def reset(self, topology: Topology, capacity: int) -> None:
        # on a tree, press along the spine (the longest corridor)
        self._order = (
            topology.path_order() if topology.is_path
            else topology.spine_order()
        )

    def inject(self, step, heights, topology):
        order = self._order
        hh = heights[order]
        # Walk leftwards from the sink's predecessor while heights are
        # non-increasing towards the sink; the walk stops at the last
        # ascent (hh[i-1] < hh[i]) at or before position n-2.
        n = len(order)
        ascents = np.flatnonzero(hh[: n - 2] < hh[1 : n - 1]) + 1
        pos = int(ascents[-1]) if ascents.size else 0
        return (int(order[pos]),)


class PlateauAdversary(Adversary):
    """Build a height-``target`` plateau of width ``width`` at the sink.

    A scripted variant of :class:`PressureAdversary` used by unit tests
    and the E5 lower-bound exhibit: repeatedly sweeps injection from the
    plateau's left edge towards the sink.
    """

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = int(width)
        self.name = f"plateau(width={width})"
        self._order: np.ndarray | None = None

    def reset(self, topology: Topology, capacity: int) -> None:
        self._order = topology.path_order()

    def inject(self, step, heights, topology):
        order = self._order
        n = len(order)
        width = min(self.width, n - 1)
        # positions [n-1-width, n-2] are the plateau; inject where the
        # plateau is lowest, leftmost first (building from behind keeps
        # the profile non-increasing towards the sink, which flat
        # forwarding preserves).
        window = order[n - 1 - width : n - 1]
        hs = heights[window]
        return (int(window[int(np.argmin(hs))]),)


class MaxHeightChaserAdversary(Adversary):
    """Inject at the current maximum-height node (ties: nearest sink).

    A generic greedy heuristic: always push the peak higher.  Useful as
    a member of the worst-case suite; provably weak against Odd-Even
    (the peak flips parity and drains), which is itself an instructive
    measurement.
    """

    name = "max-chaser"

    def inject(self, step, heights, topology):
        masked = heights.copy()
        masked[topology.sink] = -1
        peak = int(heights[masked.argmax()]) if masked.size else 0
        candidates = np.flatnonzero(masked == max(peak, 0))
        if candidates.size == 0:
            candidates = np.flatnonzero(masked >= 0)
        depths = topology.depth[candidates]
        return (int(candidates[int(np.argmin(depths))]),)


class BackfillAdversary(Adversary):
    """Inject just behind the tallest node, trying to wall it in.

    Raising the predecessor of the peak prevents comparison-based
    policies from refusing flow into the peak forever, and spreads
    congestion backwards — the qualitative behaviour the lower-bound
    proof of Theorem 3.1 exploits in its "inject at the right end"
    scenario.
    """

    name = "backfill"

    def inject(self, step, heights, topology):
        masked = heights.copy()
        masked[topology.sink] = -1
        peak_node = int(masked.argmax())
        kids = topology.children[peak_node]
        if kids:
            hs = [int(heights[k]) for k in kids]
            return (int(kids[int(np.argmax(hs))]),)
        return (peak_node,)
