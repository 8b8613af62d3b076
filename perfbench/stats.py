"""Summary statistics shared by the workloads and the driver.

Latency percentiles follow one rule: a percentile is supported by a
sample only with at least ``MIN_BEYOND`` samples strictly beyond it, so
p90 needs 100 samples; each run record says whether its p90 was.
Percentiles use the nearest-rank definition, so a reported value is
always one of the measured samples.
"""

from __future__ import annotations

import math
import re

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``-th percentile."""
    return count - nearest_rank(count, p)


def nearest_rank(count: int, p: float) -> int:
    """1-based rank of the ``p``-th percentile among ``count`` sorted samples."""
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return max(1, math.ceil(p / 100 * count))


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def min_samples_for(p: float) -> int:
    """Fewest samples for which ``p`` has ``MIN_BEYOND`` samples beyond it."""
    count = 1
    while samples_beyond(count, p) < MIN_BEYOND:
        count += 1
    return count


def keep_timing(elapsed: float, ops: int, seconds: float) -> bool:
    """The timed-phase rule: run ``seconds``, and on a slow host go on, up
    to twice as long, until p90 has the samples it needs."""
    return elapsed < seconds or (ops < min_samples_for(90) and elapsed < 2 * seconds)


def supported(count: int, p: float) -> bool:
    return count >= 1 and samples_beyond(count, p) >= MIN_BEYOND


def mean(values, default: float = 0.0) -> float:
    values = list(values)
    return sum(values) / len(values) if values else default


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.match(name))
