"""gfstore: a bounded-memory multi-scale summary store for numeric streams.

Unbounded input is kept as mergeable statistics under a fixed slot budget.
New data stay at full resolution; old data are lazily merged into coarser
and coarser summaries, so the whole past remains queryable, approximately,
forever.

``build`` makes the table of stored samples that a record keeps as :meth:`SummaryRecord.stack`;
``membership`` and ``range_count_bounds`` answer from such a table.
"""

from . import compare, container, curation, index, record, spectrum, stats
from .compare import (
    DistributionModel,
    Verdict,
    kl_divergence,
    model_from_sample,
    subset_verdict,
    symmetric_merge_score,
)
from .curation import CurationRules, compact, rank_statistics_for_drop, record_access, score_merge_candidates
from .errors import StoreError
from .index import build, membership, range_count_bounds
from .record import SummaryRecord
from .stats import (
    OUTLIER_BIN,
    StatisticSet,
    SummarySample,
    merge,
    merge_all,
    merge_hull,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "CurationRules",
    "DistributionModel",
    "OUTLIER_BIN",
    "StatisticSet",
    "StoreError",
    "SummaryRecord",
    "SummarySample",
    "Verdict",
    "build",
    "compact",
    "compare",
    "container",
    "curation",
    "index",
    "kl_divergence",
    "membership",
    "merge",
    "merge_all",
    "merge_hull",
    "model_from_sample",
    "range_count_bounds",
    "rank_statistics_for_drop",
    "record",
    "record_access",
    "score_merge_candidates",
    "spectrum",
    "stats",
    "subset_verdict",
    "summarize",
    "symmetric_merge_score",
]
