"""Flat search over a record's stored samples.

A record keeps at most ``budget`` stored samples, so a query tests every
one: one vectorized pass over their counts and extrema, then the 2-D hull
test and the likelihood on the samples left.  Exclusion is conservative:
a value that was in the raw data is never declared certainly absent.
Candidate likelihoods are plausibility, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compare, stats
from .errors import ChannelMismatch, EmptyLeaves

#: Relative slack for hull pruning so roundoff can only widen, never narrow.
HULL_MARGIN = 1e-9


@dataclass(frozen=True)
class SampleIndex:
    """Stored samples in time order beside their counts and ``(samples, channels)`` extrema.

    Dropped extrema read NaN, which rules nothing out and lies within no box.
    """

    leaves: list
    n: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def node_count(self) -> int:
        return len(self.leaves)


def build(leaves) -> SampleIndex:
    """Stack each stored sample's count and extrema into arrays."""
    leaves = list(leaves)
    if not leaves:
        raise EmptyLeaves("cannot index zero samples")
    unknown = (np.full(leaves[0].channels, np.nan),) * 2
    lo, hi = zip(*((s.min_v, s.max_v) if s.min_v is not None and s.max_v is not None else unknown for s in leaves))
    return SampleIndex(leaves, np.array([s.n for s in leaves]), np.array(lo), np.array(hi))


def _as_query(index: SampleIndex, v) -> np.ndarray:
    qv = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if qv.shape != index.lo.shape[1:]:
        raise ChannelMismatch(f"query of shape {qv.shape} does not match {index.lo.shape[1]} channels")
    return qv


@dataclass
class MembershipResult:
    absent_certain: bool
    candidates: list  # (leaf sample, likelihood), most plausible first
    nodes_visited: int  # stored samples tested
    note: str = "likelihood ranking over candidates is heuristic, not part of the exclusion proof"


def membership(index: SampleIndex, q) -> MembershipResult:
    """Decide certainly-absent vs candidate samples for a query value.

    A sample is ruled out when it holds no rows, when ``q`` lies below its
    minimum or above its maximum in any channel (a NaN on either side rules
    nothing out), or when a 2-D ``q`` lies outside its hull.  Candidates
    come in time order, stably sorted by likelihood.
    """
    qv = _as_query(index, q)
    inside = (index.n > 0) & ~np.any(qv < index.lo, axis=1) & ~np.any(qv > index.hi, axis=1)
    hits: list[tuple[stats.SummarySample, float]] = []
    for i in np.flatnonzero(inside):
        leaf = index.leaves[i]
        if leaf.hull is not None and qv.shape[0] == 2:
            span = float(np.max(leaf.hull) - np.min(leaf.hull)) if leaf.hull.size else 0.0
            if not stats.hull_contains(leaf.hull, qv, margin=HULL_MARGIN * max(span * span, 1.0)):
                continue
        try:
            like = compare.pdf(compare.model_from_sample(leaf), qv)
        except ValueError:
            like = 0.0
        hits.append((leaf, like))
    hits.sort(key=lambda h: -h[1])
    return MembershipResult(absent_certain=not hits, candidates=hits, nodes_visited=index.node_count())


def range_count_bounds(index: SampleIndex, lo, hi) -> tuple[int, int]:
    """Lower/upper bounds on the raw values inside the closed box: a sample counts in both when its
    extrema lie within the box, and in the upper bound alone when it may meet the box."""
    lo, hi = _as_query(index, lo), _as_query(index, hi)
    meets = (index.n > 0) & ~np.any(index.hi < lo, axis=1) & ~np.any(index.lo > hi, axis=1)
    within = meets & np.all(index.lo >= lo, axis=1) & np.all(index.hi <= hi, axis=1)
    return int(index.n[within].sum()), int(index.n[meets].sum())
