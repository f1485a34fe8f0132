"""Timing on a shared host, and summaries of timing samples.

A tail percentile is only reported when at least ten samples lie beyond it;
percentiles are kept in tenths of a percent so the rule is exact integer
arithmetic.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

MIN_BEYOND = 10


def samples_needed(per_mille: int) -> int:
    """Fewest samples with MIN_BEYOND of them beyond the percentile."""
    return -(-MIN_BEYOND * 1000 // (1000 - per_mille))


def percentile(values, per_mille: int) -> float:
    """Nearest-rank percentile; a failed operation enters as +inf."""
    ordered = sorted(values)
    if len(ordered) < samples_needed(per_mille):
        raise ValueError(f"{len(ordered)} samples cannot support {label(per_mille)}")
    rank = -(-per_mille * len(ordered) // 1000)
    return ordered[rank - 1]


def label(per_mille: int) -> str:
    """p50, p90, p99, p99.9."""
    return f"p{per_mille / 10:g}"


# Nominal seconds of one reference_task() run.  Only the ratio to it matters.
REFERENCE_S = 0.0005
# Longest wall time between calibrations of a SteadyClock that only ticks.
RECALIBRATE_S = 0.05
# A calibration that ended at most this long ago counts as taken just now.
FRESH_S = 0.005
_REF_VECTOR = np.arange(4.0)
_REF_DOC = [
    {"op": "rescale", "level": i % 7, "pair_index": i % 5, "span": [i, i + 3], "reason": "ingest"}
    for i in range(100)
]


def reference_task() -> float:
    """Seconds that a fixed mix of interpreter, small-NumPy and JSON work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(125):
        acc += float(np.minimum(_REF_VECTOR, i).sum())
        table[i & 127] = acc
    json.loads(json.dumps(_REF_DOC))
    return time.perf_counter() - t0


def reference_time() -> float:
    """Median of three reference_task() runs, so one interrupted run does not count."""
    return statistics.median(reference_task() for _ in range(3))


class SteadyClock:
    """Durations in reference-CPU seconds.

    The CPU speed of a shared host swings by a quarter or more within
    seconds as other tenants come and go, which would drown any change
    smaller than that.  The clock times :func:`reference_task` at least every
    RECALIBRATE_S seconds and scales each duration by REFERENCE_S over that
    time, so a host that is uniformly slower for a while leaves the figures
    unchanged.  Call :meth:`tick` only between timed regions; :meth:`timed`
    brackets one call with calibrations of its own.  Back-to-back timed calls
    share calibrations: the one after a call is the one before the next.
    """

    def __init__(self):
        self.factors: list[float] = []
        reference_task()  # the first run pays one-off costs
        self.recalibrate()

    def recalibrate(self) -> None:
        self._ref = reference_time()
        self.scale = REFERENCE_S / self._ref
        self.factors.append(self.scale)
        self._at = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._at >= RECALIBRATE_S:
            self.recalibrate()

    def scaled(self, seconds: float) -> float:
        return seconds * self.scale

    def timed(self, fn):
        """(fn(), its reference-CPU seconds), scaled by calibrations just before and after."""
        fresh = time.perf_counter() - self._at <= FRESH_S
        before = self._ref if fresh else reference_time()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        self._ref = reference_time()
        self.scale = 2.0 * REFERENCE_S / (before + self._ref)
        self.factors.append(self.scale)
        self._at = time.perf_counter()
        return result, elapsed * self.scale
