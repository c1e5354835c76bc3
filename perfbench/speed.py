"""The machine's speed, sampled beside the workload, to scale timings to a reference speed.

This machine's speed drifts by tens of percent over minutes (see
RATIONALE.md), and runs of the same work move together with it: set-up
times, request latencies and this module's reference loop rise and fall
together from one run to the next.  So the runner samples a fixed
pure-Python loop between requests, a few percent of a run's time, and
reports every timing scaled by ``REFERENCE_NS / <the loop's median time
beside it>``: the time the work would have taken on a machine where the loop
takes ``REFERENCE_NS``.  The loop is the benchmark's own code, so a change
to the program cannot change it; it runs with the garbage collector off, so
the program's heap cannot lengthen it.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns
from typing import List

from common import median

#: The loop's median time on the machine the benchmark was defined on (a
#: 2-vCPU Intel Xeon VM), so scaled timings read in that machine's units.
REFERENCE_NS = 3_300_000
#: At most one sample per this much run time (a sample takes ~3 ms).
INTERVAL_NS = 50_000_000
#: Samples taken and dropped when a probe starts (interpreter warm-up).
WARM_UP = 3


def reference_loop() -> int:
    """The fixed work that is timed: integer arithmetic through a small dict."""
    table: dict = {}
    for i in range(30000):
        table[i % 997] = table.get(i % 997, 0) + i
    return len(table)


def reference_ns() -> int:
    """One timed run of :func:`reference_loop`, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter_ns()
        reference_loop()
        return perf_counter_ns() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples :func:`reference_ns` between a run's requests, by round."""

    def __init__(self) -> None:
        for _ in range(WARM_UP):
            reference_ns()
        #: Per round, the loop's times (ns).
        self.rounds: List[List[int]] = []
        self.last = perf_counter_ns()

    def start_round(self) -> None:
        """Open a round's sample list with one sample."""
        self.rounds.append([])
        self.sample()

    def tick(self) -> None:
        """Sample when INTERVAL_NS has passed since the last sample."""
        if perf_counter_ns() - self.last >= INTERVAL_NS:
            self.sample()

    def sample(self) -> None:
        """Time the loop once, into the current round."""
        self.rounds[-1].append(reference_ns())
        self.last = perf_counter_ns()

    def scale(self, round_index: int) -> float:
        """The factor that brings round ``round_index``'s timings to the reference speed."""
        return REFERENCE_NS / median(self.rounds[round_index])

    def run_scale(self) -> float:
        """The same factor over the whole run."""
        return REFERENCE_NS / 1e6 / self.loop_ms()

    def loop_ms(self) -> float:
        """The loop's median time over the run, unscaled (ms)."""
        return median([ns for samples in self.rounds for ns in samples]) / 1e6
