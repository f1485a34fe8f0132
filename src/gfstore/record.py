"""The budgeted multi-scale summary record.

Raw samples enter at level 0; when the slot budget is exceeded, the oldest
adjacent pair at the fullest fine level is merged into one sample one level
up (each level-k sample nominally covers 2^k raw steps).  Merging is lazy:
nothing happens while the budget holds, so a short stream is kept verbatim.
The oldest data therefore sit at the coarsest scales and the newest at full
resolution, and the concatenation of all levels tiles the whole stream
exactly once.

Curation is one loop, :meth:`SummaryRecord._curate`, which ``ingest``,
``ingest_block`` and ``rebalance`` all run: :func:`next_step` picks each
step on level lengths alone, and the record changes only once the loop is
done, so every ingest and rebalance is all or nothing.  Under untuned
rules the layout depends only on counts, never on values, so
``ingest_block`` plans each new stored sample as a :class:`Span`, read as
a stored sample is, then builds every span in one grouped reduction over
the rows and the stored samples it absorbs, scale-wise variance by the
plan's merge tree.  Tuned rules score values, so there, as in ``ingest``
and ``rebalance``, the loop builds each sample as it is made.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import curation, index, spectrum, stats
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


class Span:
    """The steps ``[t_start, t_end)`` that a stored sample still to be built will cover; a planned merge grows it."""

    __slots__ = ("t_start", "t_end")

    def __init__(self, t_start: int, t_end: int):
        self.t_start, self.t_end = t_start, t_end


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

    The record keeps two reductions of its stored samples for the reads
    between changes: their :func:`stats.stack`, which :meth:`membership`
    searches, and :meth:`aggregate`'s merge.  Each is made on first use and
    forgotten whenever the stored samples change, and only the record's own
    writers change them: the commit of :meth:`_curate` (``ingest``,
    ``ingest_block`` and ``rebalance``), :meth:`drop_statistic`, and an
    assignment to :attr:`levels`, as ``container.read`` makes.  A stored
    sample edited in place by any other hand is not seen until the next of
    these; :meth:`validate` reads the samples as they are.

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
    def levels(self) -> list[list[stats.SummarySample]]:
        """The stored samples, one list per level, finest first; assigning new ones forgets what the record keeps."""
        return self._levels

    @levels.setter
    def levels(self, levels: list[list[stats.SummarySample]]) -> None:
        self._levels = levels
        self._forget()

    def _forget(self) -> None:
        """Drop the kept stack and aggregate: the stored samples changed."""
        self._stack: stats.Stack | None = None
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
        """Append one observation and restore the budget invariant."""
        row = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if row.shape[0] != self.channels:
            raise ChannelMismatch(f"got {row.shape[0]} channels, expected {self.channels}")
        self._curate(row[np.newaxis], "ingest", planned=False)
        return self

    def ingest_block(self, block) -> "SummaryRecord":
        """Append the rows of ``block`` (rows x channels; 1-D is one channel) in order.

        All or nothing, as every ingest: the block's shape and channel count
        are checked before the record is touched, and :meth:`_curate`
        changes the record only once every new stored sample is built.  The
        record equals what ``for row in block: ingest(row)`` leaves.

        With untuned rules, the block is planned on spans and each new
        stored sample is reduced once, by :func:`stats.merge_runs`.
        Planning and the grouped reduction cost about three single-row
        ingests whatever the block's size, so blocks under about five rows
        ingest slower than a loop of :meth:`ingest`; longer blocks gain.
        A planned record differs from the row-by-row one only in rounding:
        means, variances, covariances and scale-wise variance terms agree
        within 1e-12 relative to the data's magnitude (a span of n sources
        sums in another order than a chain of n - 1 merges), and everything
        else is identical.  The tuned merge weight scores values, so under
        it the block builds each sample as it is made, as ``ingest`` does.
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
        self._curate(arr, "ingest", planned=not self.rules.tuned())
        return self

    def rebalance(self, reason: str = "ingest") -> None:
        """Merge oldest/lowest-scored pairs until the slot budget holds: :meth:`_curate` with no rows.

        The policy is the record's own ``rules``; ``next_step`` picks the
        level, the scores the pair within it.
        """
        self._curate(np.empty((0, self.channels)), reason, planned=False)

    def _curate(self, rows: np.ndarray, reason: str, planned: bool) -> None:
        """The record's one curation loop: merge while over budget, then append each row and merge again.

        The loop runs on copies of the level lists.  ``next_step`` picks
        each step; the pair is the oldest of its level, or the best-scored
        one under tuned rules, and the oldest pair moves up once its count
        exceeds 2^k.

        Unplanned, each new sample is built as it is made (``point_sample``
        and ``stats.merge``).  Planned, each is a :class:`Span`, read by its
        ``t_start`` and ``t_end`` as a stored sample is.  The spans left in
        the copies, read coarsest level first, are the new samples in time
        order, and ``stats.merge_runs`` builds them all from the rows and
        the stored samples merged away.  Either way the copies are swapped
        in only then, with the event tallies and ring, so the record
        changes all at once or not at all.
        """
        rules = self.rules
        budget = rules.budget_slots
        tuned = rules.tuned()
        t_rows = t = self.now
        t_end = t_rows + rows.shape[0]
        levels = [level[:] for level in self.levels]
        lengths = [len(level) for level in levels]
        quotas = level_quotas(budget, len(levels))
        slots = sum(lengths)
        absorbed: list[stats.SummarySample] = []  # planned: stored samples merged away
        splits = [] if planned and self.opts.swv else None  # planned SWV: (t_start, t_mid, t_end) of each merge
        # (level, pair index, out level or None for a promotion, t_start,
        # t_end) of the newest events; older ones survive only in the tallies
        events = deque(maxlen=PROVENANCE_RING)
        merges = [0] * len(levels)  # per level, for event_counts
        promotions = [0] * len(levels)

        with np.errstate(all="ignore"):  # non-finite or near-limit rows; their moments read NaN or inf
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
                        if a.__class__ is not Span:
                            absorbed.append(a)
                        if b.__class__ is not Span:
                            absorbed.append(b)
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

            if planned:
                # Reduce every new span, in time order, from the samples it absorbed and its rows.
                fresh = [(level, j) for level in reversed(levels) for j, e in enumerate(level) if e.__class__ is Span]
                absorbed.sort(key=attrgetter("t_start"))  # merges of finer levels came first
                spans = [level[j] for level, j in fresh]
                for (level, j), s in zip(fresh, stats.merge_runs(absorbed, rows, t_rows, spans, splits, self.opts)):
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
            samples = list(self.samples_in_time_order())
            if not samples:
                agg = stats.empty(self.channels)
            else:
                fold = ((0, s.t_start, s.t_end) for s in samples[1:])  # read only when the store keeps SWV
                rows = np.empty((0, self.channels))
                with np.errstate(all="ignore"):  # non-finite or near-limit rows; their moments read NaN or inf
                    agg = stats.merge_runs(samples, rows, self.now, [Span(0, self.now)], fold, self.opts)[0]
            self._aggregate = agg
        return agg.copy()

    def membership(self, q):
        """Test a value against every stored sample (an empty record holds none); see :mod:`gfstore.index`.

        The samples' stack (:func:`index.build`) is built on the first query after a change and kept.
        """
        if self._stack is None:
            leaves = list(self.samples_in_time_order())
            if not leaves:
                return index.MembershipResult(True, [], 0)
            self._stack = index.build(leaves)
        return index.membership(self._stack, q)

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
