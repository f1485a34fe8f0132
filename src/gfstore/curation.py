"""Curation: merge scoring, statistic drop ranking, compaction.

The rules travel with the record (``record.rules``) and are saved with it,
so any future process resumes the same policy; no call takes a policy of
its own.  One merge weight remains, ``nonstationarity_w``, and it defaults
to zero: with nothing tuned, behaviour reduces exactly to the pure recency
scheme (oldest pair merges first).  The weight is static configuration.
Usage steers nothing: :func:`record_access` only tallies, per level, the
stored samples that served requests touched.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import compare, stats
from .errors import BudgetTooSmall, CannotSatisfyBudget, TooFewSamples

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


@dataclasses.dataclass
class CurationRules:
    """Policy stored with the data: slot budget, merge weight, scalar bound.

    Recency is implicit and always on (it is the tie-break of the merge
    ranking).  ``max_scalars``, when set, bounds the total number of stored
    scalars; forced statistic drops only happen under that bound.
    """

    budget_slots: int = 64
    nonstationarity_w: float = 0.0
    max_scalars: int | None = None

    def tuned(self) -> bool:
        return self.nonstationarity_w > 0

    def check(self) -> None:
        """Raise unless ``budget_slots`` is an int >= 1 (``BudgetTooSmall`` below), ``max_scalars`` None or an
        int >= 0 and ``nonstationarity_w`` a finite int or float >= 0 (``ValueError``); a bool is none of these."""
        b, w, cap = self.budget_slots, self.nonstationarity_w, self.max_scalars
        counts = type(b) is int and (cap is None or (type(cap) is int and cap >= 0))
        if not (counts and type(w) in (int, float) and np.isfinite(w) and w >= 0):
            raise ValueError(f"malformed rules {dataclasses.asdict(self)}")
        if b < 1:
            raise BudgetTooSmall(f"budget {b} is below one slot")


def row_levels(record) -> np.ndarray:
    """The level of each row of ``record.stack()``: its stored samples in time order, the coarsest level first."""
    levels = record.levels
    return np.repeat(np.arange(len(levels) - 1, -1, -1), [len(level) for level in reversed(levels)])


def record_access(record, levels, op: str) -> None:
    """Count one access of ``op`` under ``("access", k, op)`` for each entry ``k`` of ``levels``, the levels
    (:func:`row_levels`) of the stored samples of ``record`` that a request returned.

    The counts go into ``record.event_counts`` only, never into the
    provenance ring, so they add at most one key per level and op.  One
    ``bincount`` tallies the levels.
    """
    tally = np.bincount(np.asarray(levels, dtype=np.int64))
    counts = record.event_counts
    for k in np.flatnonzero(tally).tolist():
        key = ("access", k, op)
        counts[key] = counts.get(key, 0) + int(tally[k])


def score_merge_candidates(samples, rules: CurationRules) -> list[int]:
    """Rank adjacent pairs in the oldest quartile; lowest score merges first.

    score = nonstationarity_w * symmetric KL (similar pairs go first)

    Returns the index ``i`` of each pair ``(i, i + 1)``, best first.  Ties
    break toward the oldest pair, which is the whole policy when the weight
    is zero.
    """
    m = len(samples)
    if m < 2:
        raise TooFewSamples(f"need >= 2 samples, got {m}")
    quartile = max(1, m // 4)
    scores = []
    for i in range(min(quartile, m - 1)):
        score = 0.0
        if rules.nonstationarity_w > 0:
            score += rules.nonstationarity_w * compare.symmetric_merge_score(samples[i], samples[i + 1])
        scores.append((score, i))
    scores.sort()
    return [i for _, i in scores]


def _single_stat_model(s: stats.SummarySample, name: str) -> compare.DistributionModel | np.ndarray | None:
    """The model of statistic ``name`` of ``s`` alone, or None; a multi-channel covariance is the matrix itself."""
    d = s.channels
    if name == "variance" and s.variance is not None:
        return compare.gaussian_model(np.zeros(d), s.variance)
    if name == "extrema" and s.min_v is not None and s.max_v is not None:
        return compare.uniform_model(s.min_v, s.max_v)
    if name == "histogram" and s.histogram is not None and s.hist_edges is not None:
        counts = s.histogram[: stats.OUTLIER_BIN]
        if sum(counts) <= 0:
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


def compact(record):
    """Bring the record within budget; a within-budget record is untouched.

    Slot pressure is always resolvable by merging, so the scalar bound
    (``record.rules.max_scalars``) is what triggers statistic drops: the
    least discriminative statistic (see :func:`rank_statistics_for_drop`)
    is removed from the oldest level that keeps any, and count+mean always
    survive.
    """
    rules = record.rules
    rules.check()

    over_slots = record.slots() > rules.budget_slots
    over_scalars = rules.max_scalars is not None and record.scalar_footprint() > rules.max_scalars
    if not (over_slots or over_scalars):
        return record  # lazy: nothing to do, nothing is touched

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
            record.drop_statistic(level, order[0][0])
    return record
