"""Write the format-5 stores that ``tests/test_container.py`` reads.

Each store is written by the package of an older build.  Run this script
with that commit's package on the path, from the repository root, naming
the stores to write:

    git archive <commit> src | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/data/make_format5_stores.py <name>...

``golden-d2.gfs`` was written by commit 4fb31cf, the last build that kept
histograms as key -> count dicts.  ``deep-swv.gfs`` was written by commit
bc56547, the last build that appended a scale-wise variance term per merge.

The functions below are seeded, and the test runs them again under the
current code.  Each store of ``STORES`` must load equal to what they build
now and be written back byte for byte, which pins the histogram block's
outlier-first key order across builds.  ``deep-swv.gfs`` must load with its
stacks folded to ⌈log2 n⌉ terms.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from gfstore import container, stats
from gfstore.curation import CurationRules, compact
from gfstore.record import SummaryRecord

HERE = Path(__file__).resolve().parent
GOLDEN_SEED = 51
DEEP_SWV_SEED = 52


def golden_record() -> SummaryRecord:
    """d = 2 with covariance, hull and a 4-bin histogram on [-1, 1], 240 rows at budget 16.

    About half the rows, of scale 1.5, fall outside the edges as outliers.
    The rows come in blocks of 1, 7, 100, 100 and 19 rows; then ``max_scalars`` is
    lowered until compaction drops a histogram, and 13 more rows follow.
    """
    opts = stats.StatisticSet(covariance=True, hull=True, histogram_edges=(-1.0, -0.5, 0.0, 0.5, 1.0))
    rec = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=16))
    rows = np.random.default_rng(GOLDEN_SEED).normal(scale=1.5, size=(240, 2))
    for i, j in ((0, 1), (1, 8), (8, 108), (108, 208), (208, 227)):
        rec.ingest_block(rows[i:j])
    while all(s.histogram is not None for s in rec.samples_in_time_order()):
        rec.rules.max_scalars = rec.scalar_footprint() - 1
        compact(rec)
    rec.ingest_block(rows[227:])
    return rec


def deep_swv_record() -> SummaryRecord:
    """One channel with scale-wise variance, untuned at budget 2: 1,000 rows in blocks of 100.

    Below the level count, every level's quota is zero, so the coarsest
    sample absorbs a few steps per merge, and an older build's stacks grew
    by one term each time.
    """
    rec = SummaryRecord(budget=2, opts=stats.StatisticSet(swv=True))
    rows = np.random.default_rng(DEEP_SWV_SEED).normal(loc=2.0, size=1_000)
    for start in range(0, 1_000, 100):
        rec.ingest_block(rows[start : start + 100])
    return rec


STORES = {"golden-d2.gfs": golden_record}
DEEP_SWV = "deep-swv.gfs"


def main(names) -> int:
    if container.FORMAT_VERSION != 5:
        print(f"this build writes format {container.FORMAT_VERSION}; run a format-5 package", file=sys.stderr)
        return 2
    builds = {**STORES, DEEP_SWV: deep_swv_record}
    for name in names:
        container.save(builds[name](), HERE / name)
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
