"""A fixed pure-Python probe of the host's speed, run beside each timed process.

The benchmark host is a shared virtual machine whose speed drifts: a fixed
pure-Python loop takes up to 1.5x longer for minutes at a time, and every
timing of a pass moves with it.  While a worker process runs a pass, the
benchmark's parent process (otherwise idle, waiting for it) runs a small
fixed piece of work, :func:`probe_work`, every few milliseconds and records
when it ran and how long it took.  ``speed_factor(start, end)`` is
``REFERENCE_S`` divided by the mean probe time in that window, so a timing
from the window multiplied by it reads as it would at the reference speed.
The probe shares no code and no process with mexstat, so a change to mexstat
moves the timings and not the probe.
"""

from __future__ import annotations

import gc
import time

#: About the mean time of a timed probe_work() call on the 2-vCPU Xeon host
#: the benchmark was tuned on, CPython 3.11.7.  Only the ratio to it matters.
REFERENCE_S = 2.5e-4


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def probe_work() -> int:
    """About 0.25 ms of the operations mexstat spends its time on: partition
    generation, big-integer arithmetic and dictionary updates."""
    census: dict[int, int] = {}
    for p in _partitions(12, 12):
        c = 1
        while c in p:
            c += 1
        census[c] = census.get(c, 0) + 1
    x = 1
    for k in range(1, 60):
        x = x * (3 * k + 1) + census[1]
    return x % 1000003


class SpeedProbe:
    """Timed probe_work() calls, each stamped with ``time.monotonic()``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, seconds taken)

    def run(self) -> None:
        """Run one probe now: once to warm the caches, once timed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            probe_work()
            t0 = time.perf_counter()
            probe_work()
            taken = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append((time.monotonic(), taken))

    def speed_factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """REFERENCE_S over the mean probe time between ``start`` and ``end``
        (``time.monotonic()`` values): below 1 when the host ran slow."""
        taken = [dt for when, dt in self.samples if start <= when <= end]
        if not taken:
            raise ValueError("no probe ran in the window")
        return REFERENCE_S * len(taken) / sum(taken)
