"""The budgeted multi-scale summary record.

Raw samples enter at level 0; when the slot budget is exceeded, the oldest
adjacent pair at the fullest fine level is merged into one sample one level
up (each level-k sample nominally covers 2^k raw steps).  Merging is lazy:
nothing happens while the budget holds, so a short stream is kept verbatim.
The oldest data therefore sit at the coarsest scales and the newest at full
resolution, and the concatenation of all levels tiles the whole stream
exactly once.

Under untuned rules the layout depends only on counts, never on values, so
``ingest_block`` plans a block on counts and then builds each new stored
sample once, in one grouped reduction over the rows and the stored samples
it absorbs.  Tuned rules score values and scale-wise variance follows the
merge tree, so they go row by row through ``ingest`` and ``rebalance``.
Both paths take their steps from :func:`next_step`.
"""

from __future__ import annotations

import bisect
import functools
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

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


@functools.lru_cache(maxsize=256)
def level_quotas(budget: int, levels: int) -> tuple[int, ...]:
    """Slots each of ``levels`` levels may hold; all zero when ``budget`` cannot give each one."""
    if budget >= levels:
        return tuple(allocate_budget(budget, levels))
    return (0,) * levels  # degenerate budget: every occupied level is over


def next_step(lengths, quotas) -> tuple[int, bool]:
    """The next step of ``rebalance``, decided on level lengths and quotas alone.

    ``(k, False)``: merge a pair at level k, the finest level holding at
    least two samples and more than its quota.  Level 0 with only two
    samples yields to the next such level, if any, so the newest datum never
    merges.  ``(k, True)``: no level qualifies, so the newest sample of the
    second-coarsest occupied level k moves up one level (no data loss).
    """
    fine = False
    for k, n in enumerate(lengths):
        if n >= 2 and n > quotas[k]:
            if k or n > 2:
                return k, False
            fine = True
    if fine:
        return 0, False
    return [k for k, n in enumerate(lengths) if n][-2], True


def _rescale_note(level: int, pair_index: int, out_level: int, span: list[int], reason: str):
    """Key and provenance event of one merge."""
    event = {
        "op": "rescale",
        "level": level,
        "pair_index": pair_index,
        "out_level": out_level,
        "span": span,
        "reason": reason,
    }
    return ("rescale", level, reason), event


def _promote_note(level: int, span: list[int]):
    """Key and provenance event of one move up a level."""
    return ("promote", level, None), {"op": "promote", "level": level, "span": span}


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
    Each fact is held once: the level lists are the slot count
    (:meth:`slots` sums their lengths), and the histogram bin edges live
    in ``opts``, whose one array every histogram sample shares.

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
        self.access_log = curation.AccessLog()
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
                "statistics": self.opts.names(),
            },
        )
        self._next_sid = 0

    # -- bookkeeping -------------------------------------------------------

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
        return sum(len(level) for level in self.levels)

    def scalar_footprint(self) -> int:
        """Scalars the stored samples hold of their own (see :func:`stats.scalar_cost`)."""
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
        self.now += 1
        if self.slots() > self.budget:
            self.rebalance()
        return self

    def ingest_block(self, block) -> "SummaryRecord":
        """Append the rows of ``block`` (rows x channels; 1-D is one channel) in order.

        All or nothing: the block's shape and channel count are checked before
        the record is touched, and the planned path below changes the record
        only once every new stored sample is built.

        With untuned rules and SWV off, the block is planned on counts and
        each new stored sample is reduced once (:meth:`_ingest_planned`).
        Planning and the grouped reduction cost about three single-row
        ingests whatever the block's size, so blocks under about six rows
        ingest slower than a loop of :meth:`ingest`; longer blocks gain.
        The record then equals what ``for row in block: ingest(row)``
        leaves, except for rounding: the layout, every sid, ``now``,
        ``merge_count``, the event counts and ring, the access counters,
        extrema, histograms and hulls are identical, and means, variances
        and covariances agree within 1e-12 relative to the data's magnitude
        (a run of n samples sums in another order than a chain of n - 1
        merges).  Tuned rules score values and SWV follows the merge tree,
        so both ingest row by row.
        """
        arr = np.asarray(block, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.ndim != 2:
            raise ValueError(f"a block is rows x channels, got {arr.ndim} dimensions")
        if arr.shape[0] == 0:
            return self
        if arr.shape[1] != self.channels:
            raise ChannelMismatch(f"got {arr.shape[1]} channels, expected {self.channels}")
        if self.opts.swv or self.rules.tuned():
            for row in arr:
                self.ingest(row)
        else:
            self._ingest_planned(arr)
        return self

    def _ingest_planned(self, rows: np.ndarray) -> None:
        """Ingest rows under untuned rules: plan on counts, reduce once, then commit.

        The plan replays ``rebalance`` on copies of the level lists, where
        each new stored sample is an entry ``[t_start, t_end, n, sid, access,
        level]``: ``next_step`` picks each step, the oldest pair merges and
        moves up once its count exceeds 2^k, sids are numbered in event order
        and access counts pool in ``AccessLog.pool``'s order.  The entries
        left in the copies, read coarsest level first, are the new samples in
        time order.  ``stats.merge_runs`` builds each from the stored samples
        and rows it absorbed, and only then are the copies swapped in, so the
        record changes all at once or not at all.
        """
        budget = self.rules.budget_slots
        count = self.access_log.count
        t_rows = self.now
        levels = [level[:] for level in self.levels]
        lengths = [len(level) for level in levels]
        quotas = level_quotas(budget, len(levels))
        absorbed: list[stats.SummarySample] = []  # stored samples merged away
        # (level, out level or None for a promotion, t_start, t_end) of the
        # newest events; older ones survive only in the tallies below
        events = deque(maxlen=PROVENANCE_RING)
        merges = [0] * len(levels)  # per level, for event_counts
        promotions = [0] * len(levels)
        sid, slots = self._next_sid, sum(lengths)

        fine = levels[0]
        for t in range(t_rows, t_rows + rows.shape[0]):
            fine.append([t, t + 1, 1, sid, 0.0, 0])
            sid += 1
            lengths[0] += 1
            slots += 1
            while slots > budget:
                k, promote = next_step(lengths, quotas)
                level = levels[k]
                if promote:
                    e = level.pop()
                    levels[k + 1].append(e)
                    lengths[k] -= 1
                    lengths[k + 1] += 1
                    promotions[k] += 1
                    if e.__class__ is list:
                        e[5] = k + 1
                        events.append((k, None, e[0], e[1]))
                    else:
                        events.append((k, None, e.t_start, e.t_end))
                    continue
                a, b = level[0], level[1]
                if a.__class__ is list:
                    t0, n, pooled = a[0], a[2], 0.0 + a[4]
                else:
                    t0, n, pooled = a.t_start, a.n, 0.0 + count(a.sid)
                    absorbed.append(a)
                if b.__class__ is list:
                    t1, n, pooled = b[1], n + b[2], pooled + b[4]
                else:
                    t1, n, pooled = b.t_end, n + b.n, pooled + count(b.sid)
                    absorbed.append(b)
                slots -= 1
                if n > 1 << k:  # as in _merge_pair: the oldest pair outgrew level k
                    del level[0:2]
                    lengths[k] -= 2
                    if k + 1 == len(levels):
                        levels.append([])
                        lengths.append(0)
                        merges.append(0)
                        promotions.append(0)
                        quotas = level_quotas(budget, len(levels))
                    merged = [t0, t1, n, sid, pooled, k + 1]
                    levels[k + 1].append(merged)
                    lengths[k + 1] += 1
                else:
                    merged = [t0, t1, n, sid, pooled, k]
                    level[0:2] = [merged]
                    lengths[k] -= 1
                sid += 1
                merges[k] += 1
                events.append((k, merged[5], t0, t1))

        # Reduce: one run of absorbed samples and rows per new entry, in time order.
        fresh = [e for level in reversed(levels) for e in level if e.__class__ is list]
        absorbed.sort(key=attrgetter("t_start"))
        starts = [s.t_start for s in absorbed]
        sizes = []
        i = 0
        for e in fresh:
            j = bisect.bisect_left(starts, e[1], i)
            sizes.append(j - i + max(0, e[1] - max(e[0], t_rows)))
            i = j
        for e, s in zip(fresh, stats.merge_runs(absorbed, rows, t_rows, sizes, self.opts)):
            s.sid = e[3]
            e.append(s)

        # Commit: swap every entry for its sample (entry[6]) in every level.
        self.levels[:] = [[e[6] if e.__class__ is list else e for e in level] for level in levels]
        self.access_log.settle([s.sid for s in absorbed], [(e[3], e[4]) for e in fresh])
        self.now = t_rows + rows.shape[0]
        self._next_sid = sid
        self.merge_count += sum(merges)
        counts = self.event_counts
        for op, reason, tally in (("rescale", "ingest", merges), ("promote", None, promotions)):
            for k, n in enumerate(tally):
                if n:
                    key = (op, k, reason)
                    counts[key] = counts.get(key, 0) + n
        for k, dest, t0, t1 in events:
            if dest is None:
                self.provenance.append(_promote_note(k, [t0, t1])[1])
            else:
                self.provenance.append(_rescale_note(k, 0, dest, [t0, t1], "ingest")[1])

    def _relocate(self, k: int) -> None:
        """Move the newest sample of level k up one level (no data loss)."""
        s = self.levels[k].pop()
        self.levels[k + 1].append(s)
        self.note(*_promote_note(k, [s.t_start, s.t_end]))

    def _merge_pair(self, k: int, i: int, reason: str) -> None:
        a, b = self.levels[k][i], self.levels[k][i + 1]
        merged = stats.merge(a, b)
        self._assign_sid(merged)
        self.access_log.pool([a.sid, b.sid], merged.sid)
        if i == 0 and merged.n > (1 << k):
            del self.levels[k][0:2]
            if k + 1 == len(self.levels):
                self.levels.append([])
            self.levels[k + 1].append(merged)
            dest = k + 1
        else:
            self.levels[k][i : i + 2] = [merged]
            dest = k
        self.merge_count += 1
        self.note(*_rescale_note(k, i, dest, [merged.t_start, merged.t_end], reason))

    def rebalance(self, reason: str = "ingest") -> None:
        """Merge oldest/lowest-scored pairs until the slot budget holds.

        The policy is the record's own ``rules`` and ``access_log``;
        ``next_step`` picks the level, the scores the pair within it.
        """
        rules = self.rules
        budget = rules.budget_slots
        while self.slots() > budget:
            levels = self.levels
            k, promote = next_step([len(level) for level in levels], level_quotas(budget, len(levels)))
            if promote:
                self._relocate(k)
            elif rules.tuned():
                ranked = curation.score_merge_candidates(levels[k], rules, self.access_log)
                self._merge_pair(k, ranked[0].index, reason)
            else:
                self._merge_pair(k, 0, reason)  # pure recency: the oldest adjacent pair

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
        slots = self.slots()
        if slots > self.budget:
            raise InvariantViolation(f"{slots} slots exceed budget {self.budget}")
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
