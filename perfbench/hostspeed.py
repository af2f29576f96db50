"""Host-speed calibration: a fixed unit of work timed between measurements.

The benchmark runs on shared virtual machines whose speed swings by up to
2x within seconds and drifts over minutes, as neighbours load the host
(the vCPU is not descheduled: CPU time tracks wall time, both slow). A run
therefore times, interleaved with its own work and off its clock, a fixed
*calibration unit* that does not touch ``repro``: a pure-Python greedy
cover over a prebuilt graph (the kind of work that dominates graph
generation) and a numpy scatter-add (the kind that dominates the vector
engine). Every reported duration is scaled by
``REFERENCE_S / median(unit times on either side of it)``, so it reads as
the time the program would take on a host that runs the unit in
``REFERENCE_S``. A change to the program cannot move the unit; a slower
host moves both alike and cancels out.

Standard library at import time; numpy is imported on first use, after the
orchestrator has checked that it runs inside the repository.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import List, Optional

#: Median unit time on the reference host (Intel Xeon, 2 vCPUs, KVM).
REFERENCE_S = 0.030
#: Share of the measured work's own time spent on calibration units.
CALIBRATION_SHARE = 0.15

_STATE: dict = {}


def _inputs() -> dict:
    """The unit's inputs, built once per process.

    The unit allocates next to nothing, so its time does not depend on how
    warm the process's heap is (the orchestrator's is cold, a workload
    process's is not).
    """
    if not _STATE:
        import numpy as np

        rng = random.Random(12345)
        n = 2000
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for _ in range(12000):
            u, v = rng.randrange(n), rng.randrange(n)
            adjacency[u].append(v)
            adjacency[v].append(u)
        gen = np.random.default_rng(12345)
        _STATE.update(
            np=np,
            adjacency=adjacency,
            order=sorted(range(n), key=lambda x: -len(adjacency[x])),
            covered=[False] * n,
            blank=[False] * n,
            src=gen.integers(0, 20000, size=60000),
            val=gen.random(60000),
            acc=np.zeros(20000),
        )
    return _STATE


def unit() -> float:
    """Run the calibration unit once; returns its wall time in seconds."""
    state = _inputs()
    np, adjacency, covered = state["np"], state["adjacency"], state["covered"]
    acc, src, val = state["acc"], state["src"], state["val"]
    start = perf_counter()
    for _ in range(60):
        covered[:] = state["blank"]
        for node in state["order"]:
            if not covered[node]:
                covered[node] = True
                for other in adjacency[node]:
                    covered[other] = True
    acc[:] = 0.0
    for _ in range(90):
        np.add.at(acc, src, val)
        np.sqrt(acc, out=acc)
    return perf_counter() - start


class HostSpeed:
    """Blocks of unit times, one block per calibration, over one run.

    Measured work sits between two blocks; ``factor(i)`` scales work that
    began right after block ``i`` by the units on either side of it, so a
    host that slows for a few seconds slows the scale with it.
    """

    def __init__(self) -> None:
        self.blocks: List[List[float]] = []

    def sample(self, budget_s: float, min_units: int = 2) -> int:
        """Time units until ``budget_s`` is spent (at least ``min_units``).

        Returns the index of the new block.
        """
        if not self.blocks:
            unit()  # first use: numpy's lazy set-up, not the host's speed
        block: List[float] = []
        start = perf_counter()
        while len(block) < min_units or perf_counter() - start < budget_s:
            block.append(unit())
        self.blocks.append(block)
        return len(self.blocks) - 1

    def after(self, work_s: float) -> int:
        """Calibrate in proportion to ``work_s`` seconds just measured."""
        return self.sample(CALIBRATION_SHARE * work_s)

    def last(self) -> int:
        """Index of the latest block (the one before the next work)."""
        return len(self.blocks) - 1

    def factor(self, first: int = 0, last: Optional[int] = None) -> float:
        """Scale for work between blocks ``first`` and ``last`` (default: the latest)."""
        end = len(self.blocks) if last is None else last + 1
        units = [u for block in self.blocks[first:end] for u in block]
        return REFERENCE_S / statistics.median(units)

    @property
    def samples(self) -> List[float]:
        return [u for block in self.blocks for u in block]

    def unit_s(self) -> float:
        return statistics.median(self.samples)


class ScaledClock:
    """A stopwatch over one request that reads at reference host speed.

    ``lap()`` closes the work since the previous lap (a record's arrival).
    Once 15% of the unscaled work reaches one unit, units run off the
    clock and every pending lap is scaled by the blocks on either side of
    it; ``close()`` does the same for what is left. The work must run in
    this process, so that it pauses while the units run.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self._before = speed.last()
        self._mark = perf_counter()

    def lap(self) -> None:
        self.raw.append(perf_counter() - self._mark)
        pending = sum(self.raw[len(self.scaled):])
        if CALIBRATION_SHARE * pending >= REFERENCE_S:
            self._calibrate(min_units=1)
        self._mark = perf_counter()

    def close(self) -> None:
        self.lap()
        if len(self.scaled) < len(self.raw):
            self._calibrate(min_units=2)

    def _calibrate(self, min_units: int) -> None:
        pending = self.raw[len(self.scaled):]
        after = self.speed.sample(CALIBRATION_SHARE * sum(pending), min_units)
        k = self.speed.factor(self._before, after)
        self.scaled.extend(k * x for x in pending)
        self._before = after
