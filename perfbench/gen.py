"""Seeded inputs for every workload: regime streams, request mixes, CSV chunks.

The program under test only ever sees what these functions return, and the
same seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

# Regimes of tens to a few hundred rows, each with its own mean and spread,
# so KL scoring has real differences to rank.  Many short regimes per stream
# keep seeds alike.  How many stored summaries a member query visits depends
# on how the regime means happen to cluster: over ten seeds of the 30k-row
# served store, the 90th percentile of nodes visited spread (quartile
# distance over median) by 0.26 with runs of 100 to 1000 rows, 0.21 with 50
# to 500 and 0.08 with 20 to 200.
REGIME_ROWS = (20, 200)
REGIME_MEAN_SD = 4.0
REGIME_SPREAD = (0.3, 2.0)

# Member values outside the stream lie this far beyond its extrema.
ABSENT_GAP = (1.0, 10.0)
PRESENT_SHARE = 2.0 / 3.0


def rng_for(seed: int, purpose: int) -> np.random.Generator:
    """An independent stream per purpose, so adding one input leaves the others unchanged."""
    return np.random.default_rng([seed, purpose])


def regime_stream(rng: np.random.Generator, rows: int, channels: int) -> np.ndarray:
    """A rows x channels piecewise-stationary stream."""
    parts = []
    total = 0
    while total < rows:
        length = int(rng.integers(REGIME_ROWS[0], REGIME_ROWS[1] + 1))
        mean = rng.normal(0.0, REGIME_MEAN_SD, channels)
        spread = rng.uniform(REGIME_SPREAD[0], REGIME_SPREAD[1], channels)
        parts.append(rng.normal(mean, spread, (length, channels)))
        total += length
    return np.vstack(parts)[:rows]


def csv_text(block: np.ndarray) -> str:
    """CSV rows with repr precision, so parsing gives back the exact floats."""
    block = np.asarray(block, dtype=np.float64)
    if block.ndim == 1:
        block = block[:, np.newaxis]
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in block)


def interval_requests(rng: np.random.Generator, now: int):
    """Endless interval queries over [0, now).

    Span lengths are log-uniform from 1 step to the whole stream, so short
    recent spans and long historical ones both occur and latencies form a
    continuum rather than two clusters.  Half the spans end at ``now``.
    """
    while True:
        length = max(1, min(now, int(round(now ** rng.uniform(0.0, 1.0)))))
        if rng.random() < 0.5:
            t1 = now
        else:
            t1 = int(rng.integers(length, now + 1))
        yield {"op": "interval", "t0": t1 - length, "t1": t1}


def member_requests(rng: np.random.Generator, stream: np.ndarray):
    """Endless membership queries: ingested values, and values outside the range.

    An absent value is excluded at the index root, so it costs far less than
    a present one.  With an even split the median would fall in the gap
    between the two modes and jump between them from run to run, so
    PRESENT_SHARE of the queries ask for ingested values.

    Yields (request, present) pairs.
    """
    flat = stream.reshape(len(stream), -1)
    lo, hi = flat.min(axis=0), flat.max(axis=0)
    while True:
        if rng.random() < PRESENT_SHARE:
            row = flat[int(rng.integers(len(flat)))]
            yield {"op": "member", "value": [float(v) for v in row]}, True
        else:
            gap = rng.uniform(ABSENT_GAP[0], ABSENT_GAP[1], flat.shape[1])
            row = hi + gap if rng.random() < 0.5 else lo - gap
            yield {"op": "member", "value": [float(v) for v in row]}, False


def compare_requests(rng: np.random.Generator, stores: list[str]):
    """Endless compare requests, each against one of ``stores``."""
    while True:
        yield {"op": "compare", "store": stores[int(rng.integers(len(stores)))]}
