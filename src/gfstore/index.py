"""Flat search over a record's stored samples.

A record keeps at most ``budget`` stored samples, so a query tests every
one.  :func:`build` returns their :func:`stats.stack`, the table of their
counts, moments, extrema and histogram counts, which the record keeps until
its stored samples change (:meth:`record.SummaryRecord.membership`), so
queries between changes share one build; :func:`families` reads each
sample's likelihood family off it.  :func:`membership` rules samples out
and scores the rest in one array pass over the stack, then applies the hull
test to the 2-D samples that keep one.  Exclusion is conservative: a value
that was in the raw data is never declared certainly absent.  Candidate
likelihoods are plausibility, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stats
from .errors import ChannelMismatch, EmptyLeaves

#: Relative slack for hull pruning so roundoff can only widen, never narrow.
HULL_MARGIN = 1e-9

#: A sample's likelihood family, chosen as :func:`compare.model_from_sample` chooses its model.
PIECEWISE, GAUSSIAN, UNIFORM, POINT = range(4)


def build(leaves) -> stats.Stack:
    """The :func:`stats.stack` of the stored samples ``leaves``, in time order: a dropped variance or extremum
    reads NaN there, and a NaN extremum rules nothing out and lies within no box."""
    leaves = list(leaves)
    if not leaves:
        raise EmptyLeaves("cannot index zero samples")
    return stats.stack(leaves, leaves[0].channels)


def families(index: stats.Stack) -> np.ndarray:
    """Each sample's likelihood family, in :func:`compare.model_from_sample`'s order of precedence: a one-channel
    histogram with in-range counts, then a variance, then both extrema, then the mean alone."""
    no_extrema = index.lacks("min_v") | index.lacks("max_v")
    family = np.where(index.lacks("variance"), np.where(no_extrema, POINT, UNIFORM), GAUSSIAN)
    if index.histogram is not None and index.mean.shape[1] == 1:
        family[index.histogram[:, : stats.OUTLIER_BIN].sum(axis=1) > 0] = PIECEWISE
    return family


def _as_query(index: stats.Stack, v) -> np.ndarray:
    qv = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if qv.shape != index.mean.shape[1:]:
        raise ChannelMismatch(f"query of shape {qv.shape} does not match {index.mean.shape[1]} channels")
    return qv


@dataclass
class MembershipResult:
    absent_certain: bool
    candidates: list  # (leaf sample, likelihood), most plausible first, a NaN likelihood last
    nodes_visited: int  # stored samples tested
    note: str = "likelihood ranking over candidates is heuristic, not part of the exclusion proof"


def _likelihoods(index: stats.Stack, c: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """``compare.pdf(compare.model_from_sample(s), qv)`` of each sample ``c`` indexes, in one pass."""
    mean, var, lo, hi = index.mean[c], index.variance[c], index.min_v[c], index.max_v[c]
    family = families(index)[c]
    point = qv == mean
    gaussian = np.where(var == 0, point, np.exp(-0.5 * (qv - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var))
    uniform = np.where(lo == hi, qv == lo, np.where((lo <= qv) & (qv <= hi), 1.0 / (hi - lo), 0.0))
    gaussian_row, uniform_row = (family == GAUSSIAN)[:, np.newaxis], (family == UNIFORM)[:, np.newaxis]
    like = np.where(gaussian_row, gaussian, np.where(uniform_row, uniform, point)).prod(axis=1)  # over channels
    if index.histogram is not None and qv.shape[0] == 1:
        edges, x = index.hist_edges, qv[0]
        piece = np.zeros(c.shape[0])
        if edges[0] <= x <= edges[-1]:
            b = min(int(np.searchsorted(edges, x, side="right")), edges.shape[0] - 1) - 1  # the last bin is closed
            counts = index.histogram[c, : stats.OUTLIER_BIN]
            piece = counts[:, b] / counts.sum(axis=1) / (edges[b + 1] - edges[b])
        like = np.where(family == PIECEWISE, piece, like)
    return like


def membership(index: stats.Stack, q) -> MembershipResult:
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
        inside = (index.n > 0) & ~((qv < index.min_v) | (qv > index.max_v)).any(axis=1)
        c = np.flatnonzero(inside)
        if qv.shape[0] == 2:
            c = c[[_in_hull(index.samples[i].hull, qv) for i in c.tolist()]]
        like = _likelihoods(index, c, qv)
    order = np.argsort(-like, kind="stable")  # argsort puts NaN last
    hits = [(index.samples[i], x) for i, x in zip(c[order].tolist(), like[order].tolist())]
    return MembershipResult(absent_certain=not hits, candidates=hits, nodes_visited=index.node_count())


def _in_hull(hull, qv: np.ndarray) -> bool:
    """Whether a 2-D query may lie in a sample's hull; a sample without one rules nothing out."""
    if hull is None:
        return True
    span = float(np.max(hull) - np.min(hull)) if hull.size else 0.0
    return stats.hull_contains(hull, qv, margin=HULL_MARGIN * max(span * span, 1.0))


def range_count_bounds(index: stats.Stack, lo, hi) -> tuple[int, int]:
    """Lower/upper bounds on the raw values inside the closed box: a sample counts in both when its
    extrema lie within the box, and in the upper bound alone when it may meet the box."""
    lo, hi = _as_query(index, lo), _as_query(index, hi)
    meets = (index.n > 0) & ~np.any(index.max_v < lo, axis=1) & ~np.any(index.min_v > hi, axis=1)
    within = meets & np.all(index.min_v >= lo, axis=1) & np.all(index.max_v <= hi, axis=1)
    return int(index.n[within].sum()), int(index.n[meets].sum())
