"""Write the format-5 store that ``tests/test_container.py`` reads as golden bytes.

The stored file was written by commit 4fb31cf, the last build that kept
histograms as key -> count dicts.  Run this script with that commit's
package on the path, from the repository root:

    git archive 4fb31cf src | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/data/make_format5_stores.py

The functions below are seeded, and the test runs them again under the
current code: each stored file must load equal to what they build now and
be written back byte for byte, which pins the histogram block's
outlier-first key order across builds.
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


STORES = {"golden-d2.gfs": golden_record}


def main() -> int:
    if container.FORMAT_VERSION != 5:
        print(f"this build writes format {container.FORMAT_VERSION}; run the 4fb31cf package", file=sys.stderr)
        return 2
    for name, build in STORES.items():
        container.save(build(), HERE / name)
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
