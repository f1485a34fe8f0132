"""Write the format-6 stores that ``tests/test_container.py`` pins byte for byte.

Run this script from the repository root with this build's package on the
path:

    PYTHONPATH=src python tests/data/make_format6_stores.py

The functions below are seeded, and the test runs them again: each record
must be written as the stored file byte for byte, and the file must read
back equal to the record.  A change to what the format-6 writer puts in a
column, or to the order of its blocks, fails the test, and so does a
reader that loses a mask, an offset or a histogram pair.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from gfstore import container, stats
from gfstore.curation import CurationRules, compact
from gfstore.record import SummaryRecord

HERE = Path(__file__).resolve().parent
SEED = 61


def all_statistics_record() -> SummaryRecord:
    """d = 2 with covariance, hull, a 4-bin histogram on [-1, 1] and scale-wise variance, budget 16.

    300 rows of scale 1.5 come in blocks of 1, 9, 90 and 200 rows, the
    third with a NaN row and the fourth with an inf row, so the samples
    that cover them keep no hull and a NaN variance.  Then ``max_scalars`` is lowered
    five times, so that compaction drops statistics from the oldest
    samples, and 100 more rows follow.
    """
    opts = stats.StatisticSet(covariance=True, hull=True, histogram_edges=(-1.0, -0.5, 0.0, 0.5, 1.0), swv=True)
    rec = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=16))
    rows = np.random.default_rng(SEED).normal(scale=1.5, size=(400, 2))
    rows[50, 0], rows[150, 1] = np.nan, np.inf
    for i, j in ((0, 1), (1, 10), (10, 100), (100, 300)):
        rec.ingest_block(rows[i:j])
    for _ in range(5):
        rec.rules.max_scalars = rec.scalar_footprint() - 1
        compact(rec)
    rec.ingest_block(rows[300:])
    return rec


def three_channel_record() -> SummaryRecord:
    """d = 3 with covariance, a 6-bin histogram on [-3, 3] of the first channel and SWV: 500 rows at budget 8."""
    opts = stats.StatisticSet(covariance=True, histogram_edges=tuple(np.linspace(-3.0, 3.0, 7)), swv=True)
    rec = SummaryRecord(channels=3, opts=opts, rules=CurationRules(budget_slots=8))
    rows = np.random.default_rng(SEED + 1).normal(size=(500, 3))
    for start in range(0, 500, 100):
        rec.ingest_block(rows[start : start + 100])
    return rec


def default_record() -> SummaryRecord:
    """One channel with the default statistics: 2,000 rows at budget 64 in blocks of 100."""
    rec = SummaryRecord(budget=64)
    rows = np.random.default_rng(SEED + 2).normal(size=2_000)
    for start in range(0, 2_000, 100):
        rec.ingest_block(rows[start : start + 100])
    return rec


STORES = {
    "columns-d1.gfs": default_record,
    "columns-d2.gfs": all_statistics_record,
    "columns-d3.gfs": three_channel_record,
}


def main() -> int:
    if container.FORMAT_VERSION != 6:
        print(f"this build writes format {container.FORMAT_VERSION}; run a format-6 package", file=sys.stderr)
        return 2
    for name, build in STORES.items():
        container.save(build(), HERE / name)
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
