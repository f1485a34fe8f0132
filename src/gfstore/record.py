"""The budgeted multi-scale summary record.

Raw samples enter at level 0; when the slot budget is exceeded, the oldest
adjacent pair at the fullest fine level is merged into one sample one level
up (each level-k sample nominally covers 2^k raw steps).  Merging is lazy:
nothing happens while the budget holds, so a short stream is kept verbatim.
The oldest data therefore sit at the coarsest scales and the newest at full
resolution, and the concatenation of all levels tiles the whole stream
exactly once.

Rows enter one way, ``ingest_block`` (``ingest`` is a block of one row),
and curation is one method, :meth:`SummaryRecord._curate`, which
``ingest_block`` and ``rebalance`` run.  It has two layout steps, which
agree wherever both apply, then one build and one commit, so every ingest
and rebalance is all or nothing:

- The step loop: :func:`next_step` picks each step on level lengths
  alone, and under tuned rules the scores pick the pair.
- The count planner, :func:`plan_counts`: under untuned rules, on a
  dyadic layout (every level-k sample covers 2^k steps, the bucket
  structure of exponential histograms), the layout depends on the count
  vector alone.  A block of two or more rows advances that vector as a
  lazy binary counter, in O(levels) per stretch of rows rather than one
  step per row; only the last rows, which fill the event ring, and rows
  on a record whose level count has reached its budget go one by one.

Under untuned rules a block of two or more rows plans each new stored
sample as a :class:`Span`, read as a stored sample is, then builds every
span in one grouped reduction over the rows and the stored samples it
absorbs, scale-wise variance by the plan's merge tree.  A single row, a
rebalance, and any step under tuned rules, which score values, build each
sample as it is made.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import curation, index, spectrum, stats
from .errors import ChannelMismatch, FutureRange, InvariantViolation

#: Provenance events kept verbatim; older events survive only as totals in
#: ``SummaryRecord.event_counts``.
PROVENANCE_RING = 64


@functools.lru_cache(maxsize=256)
def level_quotas(budget: int, levels: int) -> tuple[int, ...]:
    """Slots each of ``levels`` levels may hold: the budget split evenly, the remainder to the finest levels,
    where the newest data live; all zero when ``budget`` cannot give each level a slot."""
    if budget < levels:
        return (0,) * levels  # degenerate budget: every occupied level is over
    base, rem = divmod(budget, levels)
    return tuple(base + (1 if k < rem else 0) for k in range(levels))


def next_step(lengths, quotas) -> tuple[int, bool]:
    """The next step of the curation loop, decided on level lengths and quotas alone.

    ``(k, False)``: merge a pair at level k, the finest level holding at
    least two samples and more than its quota.  Level 0 with only two
    samples yields to the next such level, if any, so the newest datum never
    merges.  ``(k, True)``: no level qualifies, so the newest sample of the
    second-coarsest occupied level k moves up one level (no data loss).
    """
    fine = False
    k = 0  # counted by hand: this runs once a merge, and enumerate cost a third of it
    for n in lengths:
        if n >= 2 and n > quotas[k]:
            if k or n > 2:
                return k, False
            fine = True
        k += 1
    if fine:
        return 0, False
    return [k for k, n in enumerate(lengths) if n][-2], True


# What reaches a level in the count planner: a new sample (the merge of a
# pair one level finer, or at level 0 a row), or a merge still due, which
# every finer level has passed up because none holds more than its quota.
_NEW, _DUE = 0, 1


def _pass_level(x: int, segments: list) -> tuple[int, list]:
    """Run one level, ``x`` samples over its quota, over what reaches it; return its last ``x`` and what it passes up.

    ``segments`` are ``(symbol, length, alternating)``: ``length`` copies of
    ``symbol``, or when ``alternating`` that many symbols alternating from
    it.  A new sample adds one to ``x``; a due merge is made here while
    ``x > 0`` (``x`` falls by two and a new sample goes up) and is passed
    up as due otherwise.  What goes up takes the same form, so each segment
    costs O(1) whatever its length.
    """
    out = []

    def up(symbol, n, alternating=False):
        if n:
            if not alternating and out and out[-1][0] == symbol and not out[-1][2]:
                out[-1] = (symbol, out[-1][1] + n, False)
            else:
                out.append((symbol, n, alternating))

    for symbol, n, alternating in segments:
        if alternating and symbol == _DUE:  # its first symbol alone, then an alternation from a new sample
            merged = x > 0
            x -= 2 * merged
            up(_DUE - merged, 1)
            symbol, n = _NEW, n - 1
        if not alternating:
            if symbol == _NEW:
                x += n
            else:
                made = min(n, max(0, (x + 1) // 2))
                x -= 2 * made
                up(_NEW, made)
                up(_DUE, n - made)
            continue
        # (new, due) pairs: each merges here while x >= 0 and passes the merge up while x < -1; from x = -1 on, the
        # pairs merge every other time, and x ends at -1 or 0
        pairs, odd = divmod(n, 2)
        if x >= 0:
            head = min(pairs, x + 1)
            up(_NEW, head)
            x -= head
        else:
            head = min(pairs, -x - 1)
            up(_DUE, head)
            x += head
        if pairs > head:
            up(_DUE, pairs - head, True)
            x = (pairs - head) % 2 - 1
        x += odd
    return x, out


def _advance(counts: list[int], quotas: tuple[int, ...], rows: int) -> list[int] | None:
    """The counts after ``rows`` rows that each make one merge, or None if the coarsest level would merge."""
    segments = [(_NEW, 2 * rows, True)]  # each row: a new level-0 sample, then the merge it makes due
    after = []
    for n, quota in zip(counts, quotas):
        x, segments = _pass_level(n - quota, segments)
        after.append(x + quota)
    if any(symbol == _NEW or alternating and n > 1 for symbol, n, alternating in segments):
        return None
    return after


def _carry(counts: list[int], budget: int, rows: int, events: list) -> bool:
    """Add ``rows`` rows to ``counts`` one by one, each making its merge, and append each merge's event to ``events``.

    False, with ``counts`` part way, where :func:`next_step` would promote,
    which leaves the dyadic layout.
    """
    levels = len(counts)
    quotas = level_quotas(budget, levels)
    now = sum([n << k for k, n in enumerate(counts)])
    for _ in range(rows):
        counts[0] += 1
        now += 1
        if levels < budget:  # every level holds a quota, level 0 two or more: next_step's pick is the finest over it
            k = 0
            finer = counts[0]  # steps held at levels 0..k
            while counts[k] <= quotas[k]:
                k += 1
                finer += counts[k] << k
        else:
            k, promote = next_step(counts, quotas)
            if promote:
                return False
            finer = sum([counts[j] << j for j in range(k + 1)])
        t0 = now - finer  # where the oldest sample of level k starts
        counts[k] -= 2
        if k + 1 == levels:
            counts.append(0)
            levels += 1
            quotas = level_quotas(budget, levels)
        counts[k + 1] += 1
        events.append((k, 0, k + 1, t0, t0 + (2 << k)))
    return True


def plan_counts(counts, rows: int, budget: int) -> tuple[list[int], list[int], list[tuple]] | None:
    """Plan ``rows`` new rows on a dyadic layout of ``counts`` samples per level: what the curation loop would do.

    Returns the new counts, the merges per level and the last
    ``PROVENANCE_RING`` events as ``(level, 0, level + 1, t_start,
    t_end)``, or None where the loop leaves the dyadic layout: more slots
    than ``budget`` before the block, or a promotion.

    Under untuned rules, on a dyadic layout (every level-k sample covers
    2^k steps), each merge joins the two oldest samples of a level into
    the newest of the next.  Rows only append until the budget is full;
    from then on every row makes one merge.  While the budget exceeds the
    level count that merge is at the finest level holding more samples
    than its quota, so ``counts[k] - quotas[k]`` runs as a lazy binary
    counter (Okasaki 1998): level 0 merges every other row and passes the
    other merges up, and each level passes about every other one on.
    :func:`_pass_level` runs such a stretch of rows in O(levels), split
    only where the coarsest level merges and a level opens, which changes
    every quota.  Rows past that, where level 0 holds a quota of one or
    none and :func:`next_step` may let it yield or promote, and the last
    rows, which fill the event ring, are made one by one.  The merges
    follow from flow conservation: ``after[k] = counts[k] + merges[k - 1]
    - 2 merges[k]``, with ``merges[-1] = rows``.
    """
    after = list(counts)
    fill = min(rows, budget - sum(after))
    if fill < 0:
        return None
    after[0] += fill
    merging = rows - fill
    last = min(merging, PROVENANCE_RING)
    stretch = merging - last
    while stretch:
        if len(after) >= budget:
            if not _carry(after, budget, stretch, []):
                return None
            break
        quotas = level_quotas(budget, len(after))
        moved = _advance(after, quotas, stretch)
        if moved is not None:
            after = moved
            break
        lo, hi = 0, stretch - 1  # the rows before the one whose merge opens a level
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _advance(after, quotas, mid) is None:
                hi = mid - 1
            else:
                lo = mid
        if lo:
            after = _advance(after, quotas, lo)
        _carry(after, budget, 1, [])
        stretch -= lo + 1
    events = []
    if not _carry(after, budget, last, events):
        return None
    merges = []
    flow = rows
    for was, n in zip([*counts, *[0] * (len(after) - len(counts))], after):
        flow = (was + flow - n) >> 1
        merges.append(flow)
    return after, merges, events


def dyadic_splits(spans, ends) -> np.ndarray:
    """The merges that build dyadic ``spans`` as ``(t_start, t_mid, t_end)`` rows, for :func:`stats.merge_runs`.

    A span of 2^k steps is the root of the dyadic tree over them, and each
    of the tree's nodes of 2^j steps (j >= 1) is a merge unless it lies
    inside one stored sample.  On a dyadic layout that holds exactly for
    the nodes that start before ``ends[j]``, the end of the stored samples
    of levels j and up.  The rows come level by level and each level's in
    time order, so each span's terms at one scale add in the order the
    step loop makes its merges.
    """
    starts = np.array([s.t_start for s in spans], dtype=np.int64)
    stops = np.array([s.t_end for s in spans], dtype=np.int64)
    parts = [np.empty((0, 3), dtype=np.int64)]
    for j in range(1, int((stops - starts).max(initial=0)).bit_length()):
        first = np.maximum(starts, ends[j])
        nodes = np.maximum(stops - first, 0) >> j  # zero on the spans narrower than 2^j
        total = int(nodes.sum())
        if total:
            offset = np.arange(total) - np.repeat(np.cumsum(nodes) - nodes, nodes)
            t0 = np.repeat(first, nodes) + (offset << j)
            parts.append(np.stack([t0, t0 + (1 << (j - 1)), t0 + (1 << j)], axis=1))
    return np.concatenate(parts)


class Span:
    """The steps ``[t_start, t_end)`` that a stored sample still to be built will cover; a planned merge grows it."""

    __slots__ = ("t_start", "t_end")

    def __init__(self, t_start: int, t_end: int):
        self.t_start, self.t_end = t_start, t_end


@dataclass
class QueryPart:
    sample: stats.SummarySample
    coarse: bool
    row: int = field(compare=False)  # the sample's row of the record's :meth:`~SummaryRecord.stack`


class SummaryRecord:
    """Bounded-memory summary of an unbounded stream.

    Everything the record keeps is bounded: at most ``budget`` samples, the
    last ``PROVENANCE_RING`` events in ``provenance``, and exact event
    totals in ``event_counts``, keyed by ``(op, level, reason)``, which grow
    only with the number of levels.  The totals include the served
    requests' per-level ``access`` tallies (:func:`curation.record_access`).
    Each fact is held once: a stored sample is known by its ``t_start``
    (the samples tile ``[0, now)``); the slot count, :attr:`now` and
    :attr:`merge_count` derive from the level lists and event totals; the
    histogram bin edges live in ``opts``, whose one array every histogram
    sample shares.

    ``budget`` sets the slot budget when ``rules`` is not given; given
    beside ``rules``, it must equal ``rules.budget_slots``.

    Every read between changes answers from one table of the stored
    samples, :meth:`stack`: :meth:`query_interval`, :meth:`membership` and
    range counts search it, :meth:`membership` keeps its likelihood parts,
    and :meth:`aggregate` reduces it once and keeps the merge.  All three
    are made on first use and forgotten whenever the stored samples
    change, and only the record's own writers change them:
    the commit of :meth:`_curate` (``ingest``, ``ingest_block`` and
    ``rebalance``), :meth:`drop_statistic`, and an assignment to
    :attr:`levels` (tuples, so no other hand adds or replaces a sample), as
    ``container.read`` makes.  A stored sample edited in place is not seen
    until the next of these; :meth:`validate` reads the samples as they are.

    Single writer: ingest/compact must not run concurrently; readers may
    share the record between writes.
    """

    def __init__(
        self,
        channels: int = 1,
        budget: int | None = None,
        opts: stats.StatisticSet | None = None,
        rules: curation.CurationRules | None = None,
        labels: tuple[str, ...] | None = None,
    ):
        if channels < 1:
            raise ChannelMismatch("need at least one channel")
        self.channels = channels
        self.opts = opts or stats.StatisticSet()
        if rules is None:
            rules = curation.CurationRules() if budget is None else curation.CurationRules(budget_slots=budget)
        elif budget is not None and budget != rules.budget_slots:
            raise ValueError(f"budget {budget} disagrees with rules.budget_slots {rules.budget_slots}")
        rules.check()
        self.rules = rules
        self.labels = labels or ("observation",) * channels
        if len(self.labels) != channels:
            raise ChannelMismatch("one label per channel")
        self.levels = [[]]
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

    # -- bookkeeping -------------------------------------------------------

    @property
    def levels(self) -> tuple[tuple[stats.SummarySample, ...], ...]:
        """The stored samples, one tuple per level, finest first; assigning new ones forgets what the record keeps."""
        return self._levels

    @levels.setter
    def levels(self, levels) -> None:
        self._levels = tuple(map(tuple, levels))
        self._forget()

    def _forget(self) -> None:
        """Drop the kept table, its likelihood parts and the aggregate: the stored samples changed."""
        self._stack: stats.Stack | None = None
        self._likelihood_parts: tuple | None = None
        self._aggregate: stats.SummarySample | None = None

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

    @property
    def now(self) -> int:
        """Steps ingested: the end of the newest sample, the last of the finest non-empty level."""
        return next((level[-1].t_end for level in self.levels if level), 0)

    @property
    def merge_count(self) -> int:
        """Merges ever made: the sum of the ``rescale`` event totals."""
        return sum(n for (op, _, _), n in self.event_counts.items() if op == "rescale")

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
        for level in reversed(self.levels):
            yield from level

    # -- ingest and rescaling ----------------------------------------------

    def ingest(self, x) -> "SummaryRecord":
        """Append one observation: :meth:`ingest_block` of the one row ``x``."""
        return self.ingest_block([x])

    def ingest_block(self, block) -> "SummaryRecord":
        """Append the rows of ``block`` (rows x channels; 1-D is one channel) in order.

        All or nothing, as every ingest: the block's shape and channel count
        are checked before the record is touched, a two-dimensional block
        of no rows too, and :meth:`_curate` changes the record only once
        every new stored sample is built.  An empty list adds nothing to a
        record of any width.  The record equals what ``for row in block:
        ingest(row)`` leaves, and a one-row block is ``ingest`` of that
        row, byte for byte.

        With untuned rules, a block of two or more rows is planned on spans
        and each new stored sample is reduced once, by
        :func:`stats.merge_runs`; on a dyadic record the layout comes from
        its count vector, with no step per row (:func:`plan_counts`).  A
        planned block of up to a few dozen rows costs about as much as five
        or six single-row ingests, so blocks of two to five rows ingest
        slower than a loop of :meth:`ingest`; longer blocks gain.  A
        planned record differs from the row-by-row one only in rounding:
        means, variances, covariances and scale-wise variance terms agree
        within 1e-12 relative to the data's magnitude (a span of n sources
        sums in another order than a chain of n - 1 merges), and everything
        else is identical.
        """
        arr = np.asarray(block, dtype=np.float64)
        if arr.ndim == 1:
            if not arr.shape[0]:  # as `gfs ingest` passes an empty CSV to a store of any width
                return self
            arr = arr[:, np.newaxis]
        if arr.ndim != 2:
            raise ValueError(f"a block is rows x channels, got {arr.ndim} dimensions")
        if arr.shape[1] != self.channels:
            raise ChannelMismatch(f"got {arr.shape[1]} channels, expected {self.channels}")
        if arr.shape[0]:
            self._curate(arr, "ingest")
        return self

    def rebalance(self, reason: str = "ingest") -> None:
        """Merge oldest/lowest-scored pairs until the slot budget holds: :meth:`_curate` with no rows.

        The policy is the record's own ``rules``; ``next_step`` picks the
        level, the scores the pair within it.
        """
        self._curate(np.empty((0, self.channels)), reason)

    def _curate(self, rows: np.ndarray, reason: str) -> None:
        """The record's one curation: merge while over budget, then append each row and merge again.

        A layout step decides which samples merge, and every ingest and
        rebalance shares what follows it: the build and the commit.  There are
        two layout steps, and they agree wherever both apply:

        - On a dyadic record (every level-k sample covers 2^k steps), a
          block of two or more rows under untuned rules is laid out on its
          count vector by :func:`plan_counts`, with no per-row loop
          (:meth:`_count_layout`).
        - Anything else, and every block :func:`plan_counts` declines,
          runs the step loop (:meth:`_step_layout`).

        Under untuned rules a block of two or more rows is planned: each
        new sample is a :class:`Span`, read by its ``t_start`` and
        ``t_end`` as a stored sample is.  The spans, read coarsest level
        first, are the new samples in time order, and
        ``stats.merge_runs`` builds them all in one grouped reduction from
        the rows and the stored samples merged away, scale-wise variance by
        the plan's merge tree.  Any other step (one row, a rebalance, or
        tuned rules, which score values) builds each sample as the loop
        makes it (``point_sample`` and ``stats.merge``), which costs less
        than a plan for so few rows.  The new levels, event tallies and
        ring are swapped in only then, so the record changes all at once or
        not at all.
        """
        planned = not self.rules.tuned() and rows.shape[0] > 1
        t_rows = self.now
        with np.errstate(all="ignore"):  # non-finite or near-limit rows; their moments read NaN or inf
            layout = self._count_layout(rows.shape[0]) if planned else None
            if layout is None:
                layout = self._step_layout(rows, planned)
            levels, absorbed, splits, merges, promotions, events = layout
            if planned:
                # Reduce every new span, in time order, from the samples it absorbed and its rows.
                fresh = [(level, j) for level in reversed(levels) for j, e in enumerate(level) if e.__class__ is Span]
                sources = stats.stack(absorbed, self.channels)
                spans = [level[j] for level, j in fresh]
                for (level, j), s in zip(fresh, stats.merge_runs(sources, rows, t_rows, spans, splits, self.opts)):
                    level[j] = s

        # Commit.
        self.levels = levels
        counts = self.event_counts
        for op, why, tally in (("rescale", reason, merges), ("promote", None, promotions)):
            for k, n in enumerate(tally):
                if n:
                    key = (op, k, why)
                    counts[key] = counts.get(key, 0) + n
        self.provenance.extend(
            {"op": "promote", "level": k, "span": [t0, t1]}
            if dest is None
            else {"op": "rescale", "level": k, "pair_index": i, "out_level": dest, "span": [t0, t1], "reason": reason}
            for k, i, dest, t0, t1 in events
        )

    def _count_layout(self, rows: int):
        """The layout of ``rows`` more rows on a dyadic record, from :func:`plan_counts`; None where it does not apply.

        Level k of ``c_k`` stored samples keeps all but the oldest
        ``min(2 m_k, c_k)``, which its ``m_k`` merges absorbed, and holds
        new spans after them up to its planned count.  Under scale-wise
        variance the merges are the dyadic trees of the new spans
        (:func:`dyadic_splits`).  Returns what :meth:`_step_layout` does.
        """
        stored = self.levels
        for k, level in enumerate(stored):
            width = 1 << k
            for s in level:
                if s.t_end - s.t_start != width:
                    return None
        before = [len(level) for level in stored]
        plan = plan_counts(before, rows, self.budget)
        if plan is None:
            return None
        after, merges, events = plan
        levels, absorbed, spans = [], [], []
        t = 0
        for k in range(len(after) - 1, -1, -1):  # coarsest first: time order
            old = stored[k] if k < len(stored) else ()
            gone = min(2 * merges[k], len(old))
            absorbed += old[:gone]
            level = list(old[gone:])
            width = 1 << k
            t += len(level) * width
            new = [Span(t0, t0 + width) for t0 in range(t, t + (after[k] - len(level)) * width, width)]
            t += len(new) * width
            spans += new
            levels.append(level + new)
        levels.reverse()
        splits = None
        if self.opts.swv:
            ends = [0] * (len(after) + 1)  # ends[j]: the end of the stored levels j and up
            for k in range(len(before) - 1, -1, -1):
                ends[k] = ends[k + 1] + (before[k] << k)
            splits = dyadic_splits(spans, ends)
        return levels, absorbed, splits, merges, [0] * len(after), events

    def _step_layout(self, rows: np.ndarray, planned: bool):
        """The step loop: ``(levels, absorbed, splits, merges, promotions, events)`` after the rows of ``rows``.

        The loop runs on copies of the level lists.  :func:`next_step`
        picks each step; the pair is the oldest of its level, or the
        best-scored one under tuned rules, and the oldest pair moves up
        once its count exceeds 2^k.  Planned, each new sample is a
        :class:`Span` and ``absorbed`` lists the stored samples merged
        away, in time order; otherwise each sample is built as it is made.
        ``splits`` holds each planned merge's ``(t_start, t_mid, t_end)``
        under scale-wise variance; ``merges`` and ``promotions`` are tallies
        per level, and ``events`` the last ``PROVENANCE_RING`` steps as
        ``(level, pair index, out level or None for a promotion, t_start,
        t_end)``.
        """
        rules = self.rules
        budget = rules.budget_slots
        tuned = rules.tuned()
        t_rows = t = self.now
        t_end = t_rows + rows.shape[0]
        levels = [list(level) for level in self.levels]
        lengths = [len(level) for level in levels]
        quotas = level_quotas(budget, len(levels))
        slots = sum(lengths)
        splits = [] if planned and self.opts.swv else None
        events = deque(maxlen=PROVENANCE_RING)  # older events survive only in the tallies
        merges = [0] * len(levels)
        promotions = [0] * len(levels)

        fine = levels[0]
        while True:
            while slots > budget:
                k, promote = next_step(lengths, quotas)
                level = levels[k]
                if promote:
                    e = level.pop()
                    levels[k + 1].append(e)
                    lengths[k] -= 1
                    lengths[k + 1] += 1
                    promotions[k] += 1
                    events.append((k, 0, None, e.t_start, e.t_end))
                    continue
                i = curation.score_merge_candidates(level, rules)[0] if tuned else 0
                a, b = level[i], level[i + 1]
                t0, t1 = a.t_start, b.t_end
                if planned:
                    merged = a if a.__class__ is Span else Span(t0, t1)
                    merged.t_end = t1  # a span grows over the entry it absorbs: no object per merge
                    if splits is not None:
                        splits.append((t0, b.t_start, t1))
                else:
                    merged = stats.merge(a, b)
                slots -= 1
                if i == 0 and t1 - t0 > 1 << k:  # the oldest pair outgrew level k
                    del level[0:2]
                    lengths[k] -= 2
                    if k + 1 == len(levels):
                        levels.append([])
                        lengths.append(0)
                        merges.append(0)
                        promotions.append(0)
                        quotas = level_quotas(budget, len(levels))
                    dest = k + 1
                    levels[dest].append(merged)
                    lengths[dest] += 1
                else:
                    dest = k
                    level[i : i + 2] = [merged]
                    lengths[k] -= 1
                merges[k] += 1
                events.append((k, i, dest, t0, t1))
            if t == t_end:
                break
            if planned:  # Span(t, t + 1), made without the cost of a call to __init__ on every row
                fine.append(row := object.__new__(Span))
                row.t_start, row.t_end = t, t + 1
            else:
                fine.append(stats.point_sample(rows[t - t_rows], t, self.opts))
            lengths[0] += 1
            slots += 1
            t += 1

        absorbed = None
        if planned:
            kept = {id(e) for level in levels for e in level}  # the stored samples not merged away
            absorbed = [s for s in self.samples_in_time_order() if id(s) not in kept]
        return levels, absorbed, splits, merges, promotions, events

    # -- reporting and queries ----------------------------------------------

    def stack(self) -> stats.Stack:
        """The table of the stored samples in time order (:func:`index.build`), kept until they change; read-only."""
        if self._stack is None:
            self._stack = index.build(self.samples_in_time_order(), self.channels)
        return self._stack

    def query_interval(self, t0: int, t1: int) -> list[QueryPart]:
        """Minimal stored samples covering [t0, t1), in time order, by :meth:`stack`'s starts; overhangs are coarse.

        Each part holds its sample's row of :meth:`stack`.
        """
        if t1 > self.now:
            raise FutureRange(f"t1 {t1} is beyond now {self.now}")
        if t0 >= t1:
            raise ValueError("need t0 < t1")
        t0 = max(t0, 0)
        st = self.stack()
        i = int(np.searchsorted(st.t_start, t0, side="right")) - 1  # the sample holding t0 (the samples tile [0, now))
        j = int(np.searchsorted(st.t_start, t1))  # one past the last sample starting before t1
        return [QueryPart(s, s.t_start < t0 or s.t_end > t1, row) for row, s in enumerate(st.samples[i:j], i)]

    def aggregate(self) -> stats.SummarySample:
        """Merge of everything stored, in one grouped reduction (:func:`stats.merge_runs`).

        Its moments equal summarize() of the whole stream to rounding;
        counts, span, extrema, histogram and hull are exact, and SWV terms
        are those of the left fold of :func:`stats.merge`, to rounding.
        The record reduces once per change of its stored samples and
        returns a copy of the merge it keeps, so a caller may edit the
        result without changing the next one.
        """
        agg = self._aggregate
        if agg is None:
            st = self.stack()
            if not st.samples:
                agg = stats.empty(self.channels)
            else:
                fold = [(0, s.t_start, s.t_end) for s in st.samples[1:]] if self.opts.swv else None
                rows = np.empty((0, self.channels))
                with np.errstate(all="ignore"):  # non-finite or near-limit rows; their moments read NaN or inf
                    agg = stats.merge_runs(st, rows, self.now, [Span(0, self.now)], fold, self.opts)[0]
            self._aggregate = agg
        return agg.copy()

    def membership(self, q):
        """Test a value against every stored sample of :meth:`stack`; see :func:`index.membership`.

        The table's :func:`index.likelihood_parts` are made on first use and kept with it.
        """
        st = self.stack()
        if self._likelihood_parts is None:
            self._likelihood_parts = index.likelihood_parts(st)
        return index.membership(st, q, self._likelihood_parts)

    def drop_statistic(self, k: int, name: str) -> None:
        """Remove statistic ``name``, a key of :data:`curation.DROPPABLE`, from every stored sample of level ``k``."""
        fields = curation.DROPPABLE[name]
        for s in self.levels[k]:
            for field in fields:
                setattr(s, field, None)
        self._forget()
        self.note(("drop_statistic", k, name), {"op": "drop_statistic", "statistic": name, "level": k})

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Raise InvariantViolation unless the samples tile ``[0, now)``, hold a row a step, fit the record (histograms
        and SWV too), keep no hull without a vertex and have no negative variance and no minimum above its maximum."""
        slots = self.slots()
        if slots > self.budget:
            raise InvariantViolation(f"{slots} slots exceed budget {self.budget}")
        width = len(self.opts.histogram_edges or ())  # the bins and the outlier count; no edges: no histogram fits
        where = "sample [{0.t_start},{0.t_end})".format  # formatted for a message only
        cursor = 0
        samples = list(self.samples_in_time_order())
        for s in samples:
            if s.t_start != cursor:
                raise InvariantViolation(
                    f"coverage gap: expected t_start {cursor}, found {s.t_start}"
                )
            if s.t_end <= s.t_start:
                raise InvariantViolation(f"{where(s)} covers no step")
            if s.channels != self.channels or s.n != s.t_end - s.t_start:
                raise InvariantViolation(f"{where(s)}: n = {s.n} in {s.channels} channels; record has {self.channels}")
            if s.histogram is not None and (len(s.histogram) != width or sum(s.histogram) != s.n):
                raise InvariantViolation(f"{where(s)} of n = {s.n} has histogram {s.histogram} on {width - 1} bins")
            if s.swv is not None and s.swv.shape != (terms := (spectrum.depth(s.n), self.channels)):
                raise InvariantViolation(f"{where(s)} of n = {s.n} has SWV terms {s.swv.shape}, not {terms}")
            if s.hull is not None and not s.hull.shape[0]:
                raise InvariantViolation(f"{where(s)} of n = {s.n} has a hull with no vertex")
            cursor = s.t_end
        st = stats.stack(samples, self.channels)
        crossed = ((st.variance < 0) | (st.min_v > st.max_v)).any(axis=1)  # a NaN passes
        covariances = [s.covariance for s in samples if s.covariance is not None]  # per sample, not stacked
        if covariances:
            diagonals = np.frombuffer(b"".join(covariances)).reshape(-1, self.channels ** 2)[:, :: self.channels + 1]
            crossed[~st.lacks("covariance")] |= (diagonals < 0).any(axis=1)
        swvs = [s.swv for s in samples if s.swv is not None]
        if swvs:  # of unequal depths: each negative term marks its sample
            owner = np.repeat(np.flatnonzero(~st.lacks("swv")), [x.size for x in swvs])
            crossed[owner[np.frombuffer(b"".join(swvs)) < 0]] = True
        if crossed.any():
            s = samples[crossed.argmax()]
            raise InvariantViolation(f"{where(s)} has a negative variance or a minimum above its maximum")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SummaryRecord):
            return NotImplemented
        return (
            self.channels == other.channels
            and self.opts == other.opts
            and self.rules == other.rules
            and self.labels == other.labels
            and self.provenance == other.provenance
            and self.event_counts == other.event_counts
            and len(self.levels) == len(other.levels)
            and all(a == b for a, b in zip(self.levels, other.levels))
        )
