"""Flat search over a record's stored samples.

A record keeps at most ``budget`` stored samples, so a query tests every
one.  :func:`build` returns their :func:`stats.stack`, the table of their
starts, counts, moments, extrema and histogram counts.  The record keeps
it as :meth:`record.SummaryRecord.stack` until its stored samples change,
so every read between changes (membership, range counts, interval queries
and the aggregate) shares one build; :func:`likelihood_parts` reads each
sample's likelihood family and gaussian normaliser off it, and the record
keeps those beside the table.  An empty table answers too: nothing is a
candidate and a range holds no value.  :func:`membership` rules samples out
and scores the rest in one array pass over the stack, then applies the hull
test to the 2-D samples that keep one.  Exclusion is conservative: a value
that was in the raw data is never declared certainly absent.  Candidate
likelihoods are plausibility, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import stats
from .errors import ChannelMismatch

#: Relative slack for hull pruning so roundoff can only widen, never narrow.
HULL_MARGIN = 1e-9

#: A sample's likelihood family, chosen as :func:`compare.model_from_sample` chooses its model.
PIECEWISE, GAUSSIAN, UNIFORM, POINT = range(4)


def build(leaves, channels: int) -> stats.Stack:
    """The :func:`stats.stack` of the stored samples ``leaves`` (none or more) of ``channels`` channels, in time
    order: a dropped variance or extremum reads NaN there, and a NaN extremum rules nothing out and lies in no box."""
    return stats.stack(leaves, channels)


def families(index: stats.Stack) -> np.ndarray:
    """Each sample's likelihood family, in :func:`compare.model_from_sample`'s order of precedence: a one-channel
    histogram with in-range counts, then a variance, then both extrema, then the mean alone."""
    no_extrema = index.lacks("min_v") | index.lacks("max_v")
    family = np.where(index.lacks("variance"), np.where(no_extrema, POINT, UNIFORM), GAUSSIAN)
    if index.histogram is not None and index.mean.shape[1] == 1:
        family[index.histogram[:, : stats.OUTLIER_BIN].sum(axis=1) > 0] = PIECEWISE
    return family


def likelihood_parts(index: stats.Stack) -> tuple[np.ndarray, np.ndarray]:
    """What every likelihood over one table reads beside its columns: each row's family (:func:`families`) and the
    gaussian normaliser ``sqrt(2 pi variance)`` of each row and channel."""
    with np.errstate(all="ignore"):  # a NaN or inf variance gives a NaN or inf normaliser, quietly, as in a likelihood
        return families(index), np.sqrt(2.0 * np.pi * index.variance)


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
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)  # each candidate's row of the table


def _likelihoods(index: stats.Stack, c: np.ndarray, qv: np.ndarray, parts: tuple) -> np.ndarray:
    """``compare.pdf(compare.model_from_sample(s), qv)`` of each sample ``c`` indexes, in one pass.

    Each family is evaluated on its own rows only, and a family that no row has is skipped.
    """
    families_of_rows, norm_of_rows = parts
    mean, family = index.mean[c], families_of_rows[c]
    present = np.bincount(family, minlength=4)

    def rows_of(f):  # the rows of family ``f``: every row as a slice, else their positions
        return slice(None) if present[f] == c.size else np.flatnonzero(family == f)

    per_channel = (qv == mean).astype(np.float64)  # the point family: the mean alone
    if present[GAUSSIAN]:
        g = rows_of(GAUSSIAN)
        m, var, norm = mean[g], index.variance[c[g]], norm_of_rows[c[g]]
        per_channel[g] = np.where(var == 0, qv == m, np.exp(-0.5 * (qv - m) ** 2 / var) / norm)
    if present[UNIFORM]:
        u = rows_of(UNIFORM)
        lo, hi = index.min_v[c[u]], index.max_v[c[u]]
        per_channel[u] = np.where(lo == hi, qv == lo, np.where((lo <= qv) & (qv <= hi), 1.0 / (hi - lo), 0.0))
    like = per_channel.prod(axis=1)  # over channels
    if present[PIECEWISE]:  # one channel, so ``qv`` falls in one bin
        p = rows_of(PIECEWISE)
        edges = index.hist_edges
        b = int(stats.hist_bins(edges, qv)[0])
        like[p] = 0.0
        if b != stats.OUTLIER_BIN:
            counts = index.histogram[c[p], : stats.OUTLIER_BIN]
            like[p] = counts[:, b] / counts.sum(axis=1) / (edges[b + 1] - edges[b])
    return like


def membership(index: stats.Stack, q, parts: tuple | None = None) -> MembershipResult:
    """Decide certainly-absent vs candidate samples for a query value.

    A sample is ruled out when it holds no rows, when ``q`` lies below its
    minimum or above its maximum in any channel (a NaN on either side rules
    nothing out), or when a 2-D ``q`` lies outside its hull.  One array pass
    applies the count and extrema tests and scores the samples left with the
    density of :func:`compare.model_from_sample`'s model at ``q``; only the
    2-D samples that keep a hull are then tested one by one.  Candidates
    come in time order, stably sorted by likelihood, with a NaN likelihood
    (from a NaN or inf row) after every other; ``rows`` holds their rows of
    ``index`` in that order.  ``parts`` are the table's
    :func:`likelihood_parts`, made here when not given.
    """
    qv = _as_query(index, q)
    if parts is None:
        parts = likelihood_parts(index)
    with np.errstate(all="ignore"):  # large or non-finite data may overflow; the families' values stay defined
        inside = (index.n > 0) & ~((qv < index.min_v) | (qv > index.max_v)).any(axis=1)
        c = np.flatnonzero(inside)
        if qv.shape[0] == 2:
            c = c[[_in_hull(index.samples[i].hull, qv) for i in c.tolist()]]
        like = _likelihoods(index, c, qv, parts)
    order = np.argsort(-like, kind="stable")  # argsort puts NaN last
    rows = c[order]
    samples = index.samples
    hits = [(samples[i], x) for i, x in zip(rows.tolist(), like[order].tolist())]
    return MembershipResult(absent_certain=not hits, candidates=hits, nodes_visited=index.node_count(), rows=rows)


def _in_hull(hull, qv: np.ndarray) -> bool:
    """Whether a 2-D query may lie in a sample's hull; a sample without one rules nothing out."""
    if hull is None:
        return True
    span = float(np.max(hull) - np.min(hull)) if hull.size else 0.0
    return stats.hull_contains(hull, qv, margin=HULL_MARGIN * max(span * span, 1.0))


def range_count_bounds(index: stats.Stack, lo, hi) -> tuple[int, int]:
    """Lower/upper bounds on the raw values inside the closed box: a sample counts in both when its
    extrema lie within the box, and in the upper bound alone when it may meet the box.  A box is
    refused with ``ValueError`` unless ``lo <= hi`` in every channel, so a NaN bound is refused too."""
    lo, hi = _as_query(index, lo), _as_query(index, hi)
    if not (lo <= hi).all():
        raise ValueError(f"the box's low corner {lo.tolist()} does not lie at or below its high corner {hi.tolist()}")
    meets = (index.n > 0) & ~np.any(index.max_v < lo, axis=1) & ~np.any(index.min_v > hi, axis=1)
    within = meets & np.all(index.min_v >= lo, axis=1) & np.all(index.max_v <= hi, axis=1)
    return int(index.n[within].sum()), int(index.n[meets].sum())
