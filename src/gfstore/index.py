"""Flat search over a record's stored samples.

A record keeps at most ``budget`` stored samples, so a query tests every
one.  :func:`build` stacks their counts, extrema and likelihood parameters
into arrays; :func:`membership` rules samples out and scores the rest in
one array pass over them, then applies the hull test to the 2-D samples
that keep one.  Exclusion is conservative: a value that was in the raw data
is never declared certainly absent.  Candidate likelihoods are
plausibility, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stats
from .errors import ChannelMismatch, DictionaryMismatch, EmptyLeaves

#: Relative slack for hull pruning so roundoff can only widen, never narrow.
HULL_MARGIN = 1e-9

#: A sample's likelihood family, chosen as :func:`compare.model_from_sample` chooses its model.
PIECEWISE, GAUSSIAN, UNIFORM, POINT = range(4)


@dataclass(frozen=True)
class SampleIndex:
    """Stored samples in time order beside their stacked statistics.

    ``n`` and ``family`` hold one entry per sample; ``mean``, ``var``,
    ``lo`` and ``hi`` are ``(samples, channels)``.  A dropped variance or
    dropped extrema read NaN; NaN extrema rule nothing out and lie within
    no box.  A one-channel index whose samples keep a histogram holds their
    in-range counts as ``(samples, bins)`` ``hist_counts`` on the shared
    ``hist_edges``, zero for a sample without one; otherwise both are None.
    """

    leaves: list
    n: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    family: np.ndarray
    hist_counts: np.ndarray | None = None
    hist_edges: np.ndarray | None = None

    def node_count(self) -> int:
        return len(self.leaves)


def build(leaves) -> SampleIndex:
    """Stack each stored sample's count, extrema, mean, variance and one-channel histogram into arrays.

    Histograms must share their bin edges, as a record's do, or
    ``DictionaryMismatch`` is raised.
    """
    leaves = list(leaves)
    if not leaves:
        raise EmptyLeaves("cannot index zero samples")
    k, d = len(leaves), leaves[0].channels
    unknown = np.full(d, np.nan)
    n, family, stacked = [], [], []
    for s in leaves:
        v, lo, hi = s.variance, s.min_v, s.max_v
        if lo is None or hi is None:
            lo = hi = unknown
            family.append(POINT if v is None else GAUSSIAN)
        else:
            family.append(UNIFORM if v is None else GAUSSIAN)
        n.append(s.n)
        stacked += s.mean, unknown if v is None else v, lo, hi
    # stats and container make every statistic a C-contiguous float64 array (join refuses a strided one),
    # so their joined bytes are the stack, at a third of np.concatenate's cost
    mean, var, lo, hi = np.frombuffer(b"".join(stacked)).reshape(k, 4, d).transpose(1, 0, 2)
    family = np.array(family, dtype=np.int8)

    hist_counts = hist_edges = None
    kept = [i for i, s in enumerate(leaves) if s.histogram is not None and s.hist_edges is not None] if d == 1 else []
    if kept:
        hist_edges = leaves[kept[0]].hist_edges
        for i in kept:
            edges = leaves[i].hist_edges
            if edges is not hist_edges and not np.array_equal(edges, hist_edges):
                raise DictionaryMismatch("histogram bin edges differ")
        hist_counts = np.zeros((k, hist_edges.shape[0]))
        hist_counts[kept] = [leaves[i].histogram for i in kept]
        hist_counts = hist_counts[:, : stats.OUTLIER_BIN]
        family[hist_counts.sum(axis=1) > 0] = PIECEWISE
    return SampleIndex(leaves, np.array(n), lo, hi, mean, var, family, hist_counts, hist_edges)


def _as_query(index: SampleIndex, v) -> np.ndarray:
    qv = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if qv.shape != index.lo.shape[1:]:
        raise ChannelMismatch(f"query of shape {qv.shape} does not match {index.lo.shape[1]} channels")
    return qv


@dataclass
class MembershipResult:
    absent_certain: bool
    candidates: list  # (leaf sample, likelihood), most plausible first, a NaN likelihood last
    nodes_visited: int  # stored samples tested
    note: str = "likelihood ranking over candidates is heuristic, not part of the exclusion proof"


def _likelihoods(index: SampleIndex, c: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """``compare.pdf(compare.model_from_sample(s), qv)`` of each sample ``c`` indexes, in one pass."""
    mean, var, lo, hi, family = index.mean[c], index.var[c], index.lo[c], index.hi[c], index.family[c]
    point = qv == mean
    gaussian = np.where(var == 0, point, np.exp(-0.5 * (qv - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var))
    uniform = np.where(lo == hi, qv == lo, np.where((lo <= qv) & (qv <= hi), 1.0 / (hi - lo), 0.0))
    gaussian_row, uniform_row = (family == GAUSSIAN)[:, np.newaxis], (family == UNIFORM)[:, np.newaxis]
    like = np.where(gaussian_row, gaussian, np.where(uniform_row, uniform, point)).prod(axis=1)  # over channels
    if index.hist_counts is not None:
        edges, x = index.hist_edges, qv[0]
        piece = np.zeros(c.shape[0])
        if edges[0] <= x <= edges[-1]:
            b = min(int(np.searchsorted(edges, x, side="right")), edges.shape[0] - 1) - 1  # the last bin is closed
            counts = index.hist_counts[c]
            piece = counts[:, b] / counts.sum(axis=1) / (edges[b + 1] - edges[b])
        like = np.where(family == PIECEWISE, piece, like)
    return like


def membership(index: SampleIndex, q) -> MembershipResult:
    """Decide certainly-absent vs candidate samples for a query value.

    A sample is ruled out when it holds no rows, when ``q`` lies below its
    minimum or above its maximum in any channel (a NaN on either side rules
    nothing out), or when a 2-D ``q`` lies outside its hull.  One array pass
    applies the count and extrema tests and scores the samples left with the
    density of :func:`compare.model_from_sample`'s model at ``q``; only the
    2-D samples that keep a hull are then tested one by one.  Candidates
    come in time order, stably sorted by likelihood, with a NaN likelihood
    (from a NaN or inf row) after every other.
    """
    qv = _as_query(index, q)
    with np.errstate(all="ignore"):  # large or non-finite data may overflow; the families' values stay defined
        inside = (index.n > 0) & ~((qv < index.lo) | (qv > index.hi)).any(axis=1)
        c = np.flatnonzero(inside)
        if qv.shape[0] == 2:
            c = c[[_in_hull(index.leaves[i].hull, qv) for i in c.tolist()]]
        like = _likelihoods(index, c, qv)
    order = np.argsort(-like, kind="stable")  # argsort puts NaN last
    leaves = index.leaves
    hits = [(leaves[i], x) for i, x in zip(c[order].tolist(), like[order].tolist())]
    return MembershipResult(absent_certain=not hits, candidates=hits, nodes_visited=index.node_count())


def _in_hull(hull, qv: np.ndarray) -> bool:
    """Whether a 2-D query may lie in a sample's hull; a sample without one rules nothing out."""
    if hull is None:
        return True
    span = float(np.max(hull) - np.min(hull)) if hull.size else 0.0
    return stats.hull_contains(hull, qv, margin=HULL_MARGIN * max(span * span, 1.0))


def range_count_bounds(index: SampleIndex, lo, hi) -> tuple[int, int]:
    """Lower/upper bounds on the raw values inside the closed box: a sample counts in both when its
    extrema lie within the box, and in the upper bound alone when it may meet the box."""
    lo, hi = _as_query(index, lo), _as_query(index, hi)
    meets = (index.n > 0) & ~np.any(index.hi < lo, axis=1) & ~np.any(index.lo > hi, axis=1)
    within = meets & np.all(index.lo >= lo, axis=1) & np.all(index.hi <= hi, axis=1)
    return int(index.n[within].sum()), int(index.n[meets].sum())
