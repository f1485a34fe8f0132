"""Write the format-4 stores that ``tests/test_container.py`` loads.

Format 4 was last written by commit ede42fe.  Run this script with that
commit's package on the path, from the repository root:

    git archive ede42fe src | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/data/make_format4_stores.py

The functions below are seeded, and the test runs them again under the
current code: each stored file must load equal to what they build now,
once the served requests' access tallies are left out.  The stored
``accessed.gfs`` was written with an ``access_log.advance()`` after each
block, which only the format-4 access log kept.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from gfstore import container, service, stats
from gfstore.curation import CurationRules
from gfstore.record import SummaryRecord

HERE = Path(__file__).resolve().parent
TUNED_SEED = 41
ACCESSED_SEED = 42


def tuned_record() -> SummaryRecord:
    """d = 2 with every statistic and KL-tuned merges: 200 rows at budget 16."""
    opts = stats.StatisticSet(covariance=True, hull=True, histogram_edges=tuple(np.linspace(-3, 3, 7)), swv=True)
    rec = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=16, nonstationarity_w=1.0))
    rec.ingest_block(np.random.default_rng(TUNED_SEED).normal(size=(200, 2)))
    return rec


def accessed_record() -> SummaryRecord:
    """Default statistics, 2,000 rows at budget 32, with accesses counted by served queries.

    The queries go through the service, so each build counts accesses in
    whatever form it keeps them.
    """
    rng = np.random.default_rng(ACCESSED_SEED)
    rec = SummaryRecord(budget=32)
    svc = service.QueryService(rec)
    for block in np.split(rng.normal(size=2_000), 8):
        rec.ingest_block(block)
        for req in (
            {"op": "interval", "t0": rec.now - 300, "t1": rec.now},
            {"op": "interval", "t0": 0, "t1": 50},
            {"op": "member", "value": [float(block[0])]},
        ):
            assert svc.handle_line(json.dumps(req))["ok"]
    return rec


STORES = {"tuned-d2.gfs": tuned_record, "accessed.gfs": accessed_record}


def main() -> int:
    if container.FORMAT_VERSION != 4:
        print(f"this build writes format {container.FORMAT_VERSION}; run the ede42fe package", file=sys.stderr)
        return 2
    for name, build in STORES.items():
        container.save(build(), HERE / name)
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
