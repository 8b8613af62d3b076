"""Host-speed normalization of measured times.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
VM a fixed pure-Python loop took between 0.019 s and 0.033 s within one
110 s window, and process CPU time drifted with it, so the host was
running slower, not descheduling us.  Raw wall times then spread more
across runs than any regression bound.  So every end-to-end time is
normalized: multiplied by ``NOMINAL_S`` over the recent median time of
a fixed reference loop that does not touch the program.  It is probed
while nothing else of ours runs (before each serial op, between
batches, before each set-up), or, for the service, every 0.1 s through
the phase.  A normalized second is a second on a host where the loop
takes ``NOMINAL_S``.  In one slow period the probe captured about nine
tenths of the slowdown.  The run record keeps the raw times beside the
normalized ones.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0005
"""Reference-loop time on a quiet host of the kind the baseline ran on."""
WINDOW = 7
WARMUP_S = 0.02
"""Untimed spinning before probing a core that sat idle, so the probe does
not time the core waking up."""


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    table = {}
    acc = 0
    for i in range(5000):
        table[i % 97] = acc
        acc = (acc + i * i) % 1000003
    return acc


def probe() -> float:
    """Best of three timings of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """A rolling record of reference-loop timings."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self, count: int = 1, *, after_idle: bool = False) -> None:
        if after_idle:
            end = time.perf_counter() + WARMUP_S
            while time.perf_counter() < end:
                reference_loop()
        for _ in range(count):
            self.samples.append(probe())

    def factor(self, window: int = WINDOW) -> float:
        """Multiplier from raw to normalized seconds, over the last ``window`` probes."""
        return NOMINAL_S / statistics.median(self.samples[-window:])
