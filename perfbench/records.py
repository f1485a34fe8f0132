"""How each workload constructs its record.

Imports nothing but gfstore, so timing ``import records`` plus
:func:`new_record` in a fresh interpreter measures the program's own set-up.
"""

from __future__ import annotations

from gfstore import SummaryRecord, curation, stats

PLAIN_BUDGET = 64
RICH_BUDGET = 64
# Histogram bins of unit width over the range the regime means mostly fall in;
# values outside land in the outlier bin.
RICH_STATS = stats.StatisticSet(
    covariance=True,
    hull=True,
    histogram_edges=tuple(float(v) for v in range(-12, 13)),
    swv=True,
)


def new_record(workload: str) -> SummaryRecord:
    """The empty record a workload starts from."""
    if workload == "ingest-plain":
        return SummaryRecord(channels=1, budget=PLAIN_BUDGET)
    if workload == "ingest-rich":
        rules = curation.CurationRules(budget_slots=RICH_BUDGET, nonstationarity_w=1.0)
        return SummaryRecord(channels=2, opts=RICH_STATS, rules=rules)
    if workload == "cli-append":
        from gfstore import cli

        # what `gfs ingest` creates for a new one-channel store
        return SummaryRecord(channels=1, budget=cli.DEFAULT_BUDGET)
    raise ValueError(f"workload {workload!r} builds no record in-process")
