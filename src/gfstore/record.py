"""The budgeted multi-scale summary record.

Raw samples enter at level 0; when the slot budget is exceeded, the oldest
adjacent pair at the fullest fine level is merged into one sample one level
up (each level-k sample nominally covers 2^k raw steps).  Merging is lazy:
nothing happens while the budget holds, so a short stream is kept verbatim.
The oldest data therefore sit at the coarsest scales and the newest at full
resolution, and the concatenation of all levels tiles the whole stream
exactly once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import curation, stats
from .errors import BudgetTooSmall, ChannelMismatch, FutureRange, InvariantViolation

#: Provenance events kept verbatim; older events survive only as totals in
#: ``SummaryRecord.event_counts``.
PROVENANCE_RING = 64


def allocate_budget(budget: int, levels_active: int) -> list[int]:
    """Split ``budget`` slots evenly over the active levels.

    Every level gets floor(budget/levels) slots; the remainder goes to the
    finest levels, where the newest data live.
    """
    if levels_active < 1:
        raise BudgetTooSmall("need at least one active level")
    if budget < levels_active:
        raise BudgetTooSmall(f"budget {budget} cannot give {levels_active} levels a slot each")
    base, rem = divmod(budget, levels_active)
    return [base + (1 if k < rem else 0) for k in range(levels_active)]


def recorder_span(levels: int, base: int = 1) -> int:
    """Total time span covered when every level stores ``base`` worth of time.

    Level k covers ``base * 2**k``, so the span is ``base * (2**levels - 1)``,
    exactly (integer arithmetic).  A recorder whose budget holds 24 h at full
    resolution covers more than a year with 9 levels of the same storage.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    return base * ((1 << levels) - 1)


@dataclass
class SpanRow:
    level: int
    scale: int
    count: int
    t_start: int
    t_end: int
    n_total: int


@dataclass
class QueryPart:
    sample: stats.SummarySample
    coarse: bool


class SummaryRecord:
    """Bounded-memory summary of an unbounded stream.

    Everything the record keeps is bounded: at most ``budget`` samples, one
    access counter per stored sample, the last ``PROVENANCE_RING`` events in
    ``provenance``, and exact event totals in ``event_counts``, keyed by
    ``(op, level, reason)``, which grow only with the number of levels.

    Single writer: ingest/compact must not run concurrently; readers may
    share the record between writes.
    """

    def __init__(
        self,
        channels: int = 1,
        budget: int = 64,
        opts: stats.StatisticSet | None = None,
        rules: curation.CurationRules | None = None,
        labels: tuple[str, ...] | None = None,
    ):
        if channels < 1:
            raise ChannelMismatch("need at least one channel")
        self.channels = channels
        self.opts = opts or stats.StatisticSet()
        if rules is None:
            rules = curation.CurationRules(budget_slots=budget)
        if rules.budget_slots < 1:
            raise BudgetTooSmall("budget must be at least one slot")
        self.rules = rules
        self.labels = labels or ("observation",) * channels
        if len(self.labels) != channels:
            raise ChannelMismatch("one label per channel")
        self.levels: list[list[stats.SummarySample]] = [[]]
        self.access_log = curation.AccessLog(half_life=rules.access_half_life)
        self.merge_count = 0
        self.now = 0
        self.event_counts: dict[tuple[str, int | None, str | None], int] = {}
        self.provenance: deque[dict] = deque(maxlen=PROVENANCE_RING)
        self.note(
            ("create", None, None),
            {
                "op": "create",
                "channels": channels,
                "scale_ratio": 2,
                "statistics": self._statistic_ids(),
            },
        )
        self._next_sid = 0
        self._slots = 0

    # -- bookkeeping -------------------------------------------------------

    def _statistic_ids(self) -> list[str]:
        ids = ["count", "mean", "variance", "min", "max", "weight"]
        if self.opts.covariance:
            ids.append("covariance")
        if self.opts.hull:
            ids.append("hull")
        if self.opts.histogram_edges is not None:
            ids.append("histogram")
        if self.opts.swv:
            ids.append("swv")
        return ids

    def note(self, key: tuple[str, int | None, str | None], event: dict) -> None:
        """Count ``event`` under ``key`` = (op, level, reason) and keep it in the ring."""
        counts = self.event_counts
        counts[key] = counts.get(key, 0) + 1
        self.provenance.append(event)

    def event_rows(self) -> list[list]:
        """``event_counts`` as ``[op, level, reason, count]`` rows in a fixed order."""

        def order(item):
            (op, level, reason), _ = item
            return (op, -1 if level is None else level, reason or "")

        return [[*key, n] for key, n in sorted(self.event_counts.items(), key=order)]

    @property
    def budget(self) -> int:
        return self.rules.budget_slots

    def slots(self) -> int:
        return self._slots

    def scalar_footprint(self) -> int:
        total = 0
        for level in self.levels:
            for s in level:
                f, i = stats.scalar_cost(s)
                total += f + i
        return total

    def samples_in_time_order(self):
        """Oldest first: coarsest level down to level 0."""
        for k in range(len(self.levels) - 1, -1, -1):
            yield from self.levels[k]

    def _assign_sid(self, s: stats.SummarySample) -> stats.SummarySample:
        s.sid = self._next_sid
        self._next_sid += 1
        self.access_log.register(s.sid)
        return s

    # -- ingest and rescaling ----------------------------------------------

    def ingest(self, x) -> "SummaryRecord":
        """Append one observation and restore the budget invariant."""
        row = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if row.shape[0] != self.channels:
            raise ChannelMismatch(f"got {row.shape[0]} channels, expected {self.channels}")
        s = stats.point_sample(row, self.now, self.opts)
        self._assign_sid(s)
        self.levels[0].append(s)
        self._slots += 1
        self.now += 1
        if self._slots > self.budget:
            self.rebalance()
        return self

    def ingest_block(self, block) -> "SummaryRecord":
        arr = np.asarray(block, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        for row in arr:
            self.ingest(row)
        return self

    def _quotas(self, budget: int) -> list[int]:
        k = len(self.levels)
        if budget >= k:
            return allocate_budget(budget, k)
        return [0] * k  # degenerate budget: every occupied level is over

    def _shed_level(self, budget: int) -> int | None:
        quotas = self._quotas(budget)
        candidates = [
            k
            for k, level in enumerate(self.levels)
            if len(level) >= 2 and len(level) > quotas[k]
        ]
        if not candidates:
            return None
        # keep two fine slots when possible so the newest datum never merges
        if candidates[0] == 0 and len(self.levels[0]) <= 2 and len(candidates) > 1:
            return candidates[1]
        return candidates[0]

    def _relocate(self) -> None:
        """Move the second-coarsest lone sample up one level (no data loss)."""
        occupied = [k for k in range(len(self.levels)) if self.levels[k]]
        mover = sorted(occupied, reverse=True)[1]
        s = self.levels[mover].pop()
        self.levels[mover + 1].append(s)
        self.note(("promote", mover, None), {"op": "promote", "level": mover, "span": [s.t_start, s.t_end]})

    def _merge_pair(
        self,
        k: int,
        i: int,
        reason: str,
        log: curation.AccessLog,
    ) -> None:
        a, b = self.levels[k][i], self.levels[k][i + 1]
        merged = stats.merge(a, b)
        self._assign_sid(merged)
        log.pool([a.sid, b.sid], merged.sid)
        if i == 0 and merged.n > (1 << k):
            del self.levels[k][0:2]
            if k + 1 == len(self.levels):
                self.levels.append([])
            self.levels[k + 1].append(merged)
            dest = k + 1
        else:
            self.levels[k][i : i + 2] = [merged]
            dest = k
        self._slots -= 1
        self.merge_count += 1
        self.note(
            ("rescale", k, reason),
            {
                "op": "rescale",
                "level": k,
                "pair_index": i,
                "out_level": dest,
                "span": [merged.t_start, merged.t_end],
                "reason": reason,
            },
        )

    def rebalance(
        self,
        rules: curation.CurationRules | None = None,
        log: curation.AccessLog | None = None,
        reason: str = "ingest",
    ) -> None:
        """Merge oldest/lowest-scored pairs until the slot budget holds."""
        rules = rules if rules is not None else self.rules
        log = log if log is not None else self.access_log
        budget = rules.budget_slots
        while self._slots > budget:
            k = self._shed_level(budget)
            if k is None:
                self._relocate()
                continue
            level = self.levels[k]
            if rules.tuned():
                ranked = curation.score_merge_candidates(level, rules, log)
                i = ranked[0].index
            else:
                i = 0  # pure recency: the oldest adjacent pair
            self._merge_pair(k, i, reason, log)

    # -- reporting and queries ----------------------------------------------

    def span_report(self) -> list[SpanRow]:
        """Per-level accounting, oldest (coarsest) level first."""
        rows = []
        for k in range(len(self.levels) - 1, -1, -1):
            level = self.levels[k]
            if not level:
                continue
            rows.append(
                SpanRow(
                    level=k,
                    scale=1 << k,
                    count=len(level),
                    t_start=level[0].t_start,
                    t_end=level[-1].t_end,
                    n_total=sum(s.n for s in level),
                )
            )
        return rows

    def query_interval(self, t0: int, t1: int) -> list[QueryPart]:
        """Minimal stored samples covering [t0, t1); overhangs are flagged coarse."""
        if t1 > self.now:
            raise FutureRange(f"t1 {t1} is beyond now {self.now}")
        if t0 >= t1:
            raise ValueError("need t0 < t1")
        t0 = max(t0, 0)
        out = []
        for s in self.samples_in_time_order():
            if s.t_end <= t0 or s.t_start >= t1:
                continue
            out.append(QueryPart(s, coarse=s.t_start < t0 or s.t_end > t1))
        return out

    def aggregate(self) -> stats.SummarySample:
        """Merge of everything stored; equals summarize() of the whole stream."""
        samples = list(self.samples_in_time_order())
        if not samples:
            return stats.empty(self.channels)
        return stats.merge_all(samples)

    def membership(self, q):
        """Search the stored summaries for a value; see :mod:`gfstore.index`."""
        from . import index  # local import: index depends on stats only

        leaves = list(self.samples_in_time_order())
        if not leaves:
            return index.MembershipResult(True, [], 0)
        root = index.build(leaves)
        return index.membership(root, q)

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Raise InvariantViolation unless the structure is sound."""
        if self._slots != sum(len(level) for level in self.levels):
            raise InvariantViolation("slot counter out of sync")
        if self._slots > self.budget:
            raise InvariantViolation(f"{self._slots} slots exceed budget {self.budget}")
        cursor = 0
        for s in self.samples_in_time_order():
            if s.t_start != cursor:
                raise InvariantViolation(
                    f"coverage gap: expected t_start {cursor}, found {s.t_start}"
                )
            if s.t_end < s.t_start:
                raise InvariantViolation("negative-length interval")
            cursor = s.t_end
        if cursor != self.now:
            raise InvariantViolation(f"coverage ends at {cursor}, stream is at {self.now}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SummaryRecord):
            return NotImplemented
        return (
            self.channels == other.channels
            and self.opts == other.opts
            and self.rules == other.rules
            and self.labels == other.labels
            and self.now == other.now
            and self.merge_count == other.merge_count
            and self._next_sid == other._next_sid
            and self.provenance == other.provenance
            and self.event_counts == other.event_counts
            and len(self.levels) == len(other.levels)
            and all(a == b for a, b in zip(self.levels, other.levels))
            and self.access_log.to_dict() == other.access_log.to_dict()
        )
