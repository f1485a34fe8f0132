"""Curation: heuristic merge scoring, statistic drop ranking, compaction.

The rules and the access log travel with the record (``record.rules``,
``record.access_log``) and are saved with it, so any future process
resumes the same policy; no call takes a policy of its own.  All
heuristic weights default to zero: with nothing tuned, behaviour reduces
exactly to the pure recency scheme (oldest pair merges first).  Weights
are static configuration; learning them from feedback is out of scope
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import compare, stats
from .errors import CannotSatisfyBudget, TooFewSamples, UnknownId

#: The statistics a forced drop may remove, in canonical id order, with the
#: sample fields that hold each.  Count and mean are never droppable.
DROPPABLE = {
    "covariance": ("covariance",),
    "extrema": ("min_v", "max_v"),
    "histogram": ("histogram", "hist_edges"),
    "hull": ("hull",),
    "swv": ("swv",),
    "variance": ("variance",),
}


@dataclass
class CurationRules:
    """Policy stored with the data: slot budget, heuristic weights, scalar bound.

    Recency is implicit and always on (it is the tie-break of the merge
    ranking).  ``max_scalars``, when set, bounds the total number of stored
    scalars; forced statistic drops only happen under that bound.  The
    access counters' half-life belongs to :class:`AccessLog`.
    """

    budget_slots: int = 64
    nonstationarity_w: float = 0.0
    slowness_w: float = 0.0
    recurrence_reprieve_w: float = 0.0
    prior_access_w: float = 0.0
    max_scalars: int | None = None

    def tuned(self) -> bool:
        return (
            self.nonstationarity_w > 0
            or self.slowness_w > 0
            or self.recurrence_reprieve_w > 0
            or self.prior_access_w > 0
        )


class AccessLog:
    """Per-sample usage counters with exponential decay, keyed by sample start.

    Time is measured in compaction cycles; counters halve every
    ``half_life`` cycles.  The record's curation loop sets the counters of
    the samples it makes in one :meth:`settle`: a merged sample pools its
    parts' counters under its start, and a new row's counter starts at 0.
    """

    def __init__(self, half_life: float = 16.0):
        self.half_life = float(half_life)
        self.tick = 0
        self._counts: dict[int, tuple[float, int]] = {}

    def count(self, start: int) -> float:
        entry = self._counts.get(start)
        if entry is None:
            return 0.0
        value, last = entry
        if value == 0.0:
            return 0.0
        return value * 0.5 ** ((self.tick - last) / self.half_life)

    def record(self, starts) -> None:
        for start in starts:
            if start not in self._counts:
                raise UnknownId(f"no sample starting at {start} has a counter")
            self._counts[start] = (self.count(start) + 1.0, self.tick)

    def settle(self, retired, created) -> None:
        """Drop the counters of the ``retired`` starts, then set each ``(start, count)`` of ``created`` at this tick."""
        for start in retired:
            self._counts.pop(start, None)
        for start, value in created:
            self._counts[start] = (value, self.tick)

    def advance(self, cycles: int = 1) -> None:
        self.tick += cycles

    def to_dict(self) -> dict:
        return {
            "half_life": self.half_life,
            "tick": self.tick,
            "counts": {str(k): [v, t] for k, (v, t) in sorted(self._counts.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AccessLog":
        """Raise ValueError on a half-life, count or tick that :meth:`settle` and :meth:`record` never make."""
        log = cls(half_life=d.get("half_life", 16.0))
        log.tick = int(d.get("tick", 0))
        log._counts = {int(k): (float(v[0]), int(v[1])) for k, v in d.get("counts", {}).items()}
        if not 0.0 < log.half_life < math.inf:
            raise ValueError(f"access half-life {log.half_life} is not finite and positive")
        for start, (value, last) in log._counts.items():
            if not (0.0 <= value < math.inf and 0 <= last <= log.tick):
                raise ValueError(f"access count {value} at tick {last} for start {start} (log tick {log.tick})")
        return log


def record_access(log: AccessLog, starts) -> AccessLog:
    """Bump the usage counters of the samples that start at ``starts``."""
    log.record(starts)
    return log


@dataclass
class ScoredPair:
    index: int  # pair = (index, index + 1) within the level
    score: float


def _fast_share(s: stats.SummarySample) -> float:
    if s.swv is None or s.swv.shape[0] == 0:
        return 0.0
    total = float(s.swv.sum())
    if total <= 0:
        return 0.0
    return float(s.swv[:2].sum()) / total


def _in_range_share(s: stats.SummarySample) -> float:
    if s.histogram is None or s.n == 0:
        return 0.0
    hits = sum(v for k, v in s.histogram.items() if k != stats.OUTLIER_BIN)
    return hits / s.n


def score_merge_candidates(samples, rules: CurationRules, access=None):
    """Rank adjacent pairs in the oldest quartile; lowest score merges first.

    score = nonstationarity_w * symmetric KL        (similar pairs go first)
          + prior_access_w    * pooled access count (used data get reprieve)
          + recurrence_w      * share of rows inside the histogram bins
          - slowness_w        * fast-scale SWV share(erratic data go early)

    ``access`` holds each sample's access count, aligned with ``samples``;
    without it the access term is zero.  Ties break toward the oldest
    pair, which is the whole policy when all weights are zero.
    """
    m = len(samples)
    if m < 2:
        raise TooFewSamples(f"need >= 2 samples, got {m}")
    quartile = max(1, m // 4)
    ranked: list[ScoredPair] = []
    for i in range(min(quartile, m - 1)):
        a, b = samples[i], samples[i + 1]
        score = 0.0
        if rules.nonstationarity_w > 0:
            score += rules.nonstationarity_w * compare.symmetric_merge_score(a, b)
        if rules.prior_access_w > 0 and access is not None:
            score += rules.prior_access_w * (access[i] + access[i + 1])
        if rules.recurrence_reprieve_w > 0:
            score += rules.recurrence_reprieve_w * 0.5 * (_in_range_share(a) + _in_range_share(b))
        if rules.slowness_w > 0:
            score -= rules.slowness_w * 0.5 * (_fast_share(a) + _fast_share(b))
        ranked.append(ScoredPair(i, score))
    ranked.sort(key=lambda p: (p.score, p.index))
    return ranked


def _single_stat_model(s: stats.SummarySample, name: str) -> compare.DistributionModel | np.ndarray | None:
    """The model of statistic ``name`` of ``s`` alone, or None; a multi-channel covariance is the matrix itself."""
    d = s.channels
    if name == "variance" and s.variance is not None:
        return compare.gaussian_model(np.zeros(d), s.variance)
    if name == "extrema" and s.min_v is not None and s.max_v is not None:
        return compare.uniform_model(s.min_v, s.max_v)
    if name == "histogram" and s.histogram is not None and s.hist_edges is not None:
        counts = stats.in_range_counts(s)
        if counts.sum() <= 0:
            return None
        return compare.piecewise_model(s.hist_edges, counts)
    if name == "covariance" and s.covariance is not None:
        return s.covariance if d > 1 else compare.gaussian_model(np.zeros(1), s.covariance.reshape(1))
    if name == "hull" and s.hull is not None:
        return compare.uniform_model(s.hull.min(axis=0), s.hull.max(axis=0))
    if name == "swv" and s.swv is not None and s.swv.shape[0] > 0:
        total = s.swv.sum()
        if total <= 0:
            return None
        probs = s.swv.sum(axis=1) / total
        k = probs.shape[0]
        return compare.piecewise_model(np.arange(k + 1, dtype=np.float64), probs)
    return None


def rank_statistics_for_drop(samples) -> list[tuple[str, float]]:
    """Order the droppable statistics that any of ``samples`` keeps by how little they discriminate.

    Each statistic is scored over the samples that keep it, in order: a
    model is built from that statistic alone on each of them (a covariance
    of two or more channels is the matrix, scored by ``covariance_kl``), and
    the score is the mean ``compare.symmetric_kl``, capped at 2e9, over the
    adjacent pairs whose models both exist, 0.0 when there is none (as when
    fewer than two keep it).  The least discriminative statistic comes first
    (drop it first); ties go alphabetically.  Count and mean never compete.
    """
    rows: list[tuple[float, str]] = []
    for name, fields in DROPPABLE.items():
        models = [
            _single_stat_model(s, name) for s in samples if any(getattr(s, f) is not None for f in fields)
        ]
        if not models:
            continue
        scores = [
            compare.symmetric_kl(ma, mb)
            for ma, mb in zip(models[:-1], models[1:])
            if ma is not None and mb is not None
        ]
        rows.append((sum(scores) / len(scores) if scores else 0.0, name))
    rows.sort()
    return [(name, score) for score, name in rows]


def _drop_statistic(sample: stats.SummarySample, name: str) -> None:
    """Remove one statistic from a sample in place."""
    for field in DROPPABLE[name]:
        setattr(sample, field, None)


def compact(record):
    """Bring the record within budget; a within-budget record is untouched.

    Slot pressure is always resolvable by merging, so the scalar bound
    (``record.rules.max_scalars``) is what triggers statistic drops: the
    least discriminative statistic (see :func:`rank_statistics_for_drop`)
    is removed from the oldest level that keeps any, and count+mean always
    survive.
    """
    rules = record.rules
    if rules.budget_slots < 1:
        raise CannotSatisfyBudget("budget must be at least one slot")

    over_slots = record.slots() > rules.budget_slots
    over_scalars = rules.max_scalars is not None and record.scalar_footprint() > rules.max_scalars
    if not (over_slots or over_scalars):
        return record  # lazy: nothing to do, nothing is touched

    record.access_log.advance()
    if over_slots:
        record.rebalance(reason="compact")

    if rules.max_scalars is not None:
        while record.scalar_footprint() > rules.max_scalars:
            for level in range(len(record.levels) - 1, -1, -1):
                order = rank_statistics_for_drop(record.levels[level])
                if order:
                    break
            else:
                raise CannotSatisfyBudget(
                    f"scalar footprint {record.scalar_footprint()} > {rules.max_scalars} "
                    "with nothing left to drop"
                )
            name = order[0][0]
            for s in record.levels[level]:
                _drop_statistic(s, name)
            record.note(
                ("drop_statistic", level, name),
                {"op": "drop_statistic", "statistic": name, "level": level},
            )
    return record
