"""Mergeable summary statistics.

A :class:`SummarySample` bundles every statistic kept for one stream
interval: count, mean, population variance, extrema, and the optional
histogram / covariance / convex hull / scale-wise variance.
All of them obey the same contract: merging the summaries of two disjoint
blocks gives exactly the summary of their union, so summaries can be
rescaled forever without touching raw data again.

Medians and other non-mergeable quantities are deliberately absent.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .errors import ChannelMismatch, DictionaryMismatch, InvariantViolation

#: Index of the out-of-range count, the last entry of every histogram.
OUTLIER_BIN = -1


@dataclass(frozen=True)
class StatisticSet:
    """Which optional statistics to compute alongside count/mean/var/extrema."""

    covariance: bool = False
    hull: bool = False
    histogram_edges: tuple[float, ...] | None = None
    swv: bool = False

    def names(self) -> list[str]:
        """Ids of every statistic kept, the fixed five first."""
        ids = ["count", "mean", "variance", "min", "max"]
        if self.covariance:
            ids.append("covariance")
        if self.hull:
            ids.append("hull")
        if self.histogram_edges is not None:
            ids.append("histogram")
        if self.swv:
            ids.append("swv")
        return ids

    def __post_init__(self):
        if any(type(getattr(self, name)) is not bool for name in ("covariance", "hull", "swv")):
            raise ValueError(f"covariance, hull and swv must each be True or False, got {self!r}")
        edges = None
        if self.histogram_edges is not None:
            edges = np.asarray(self.histogram_edges, dtype=np.float64)
            if edges.ndim != 1 or edges.shape[0] < 2 or not np.isfinite(edges).all() or np.any(np.diff(edges) <= 0):
                raise ValueError(
                    f"histogram edges must be two or more finite, strictly increasing values, "
                    f"got {self.histogram_edges!r}"
                )
            edges.flags.writeable = False
        object.__setattr__(self, "_edges", edges)

    def edges_array(self) -> np.ndarray | None:
        """The bin edges as one read-only array, shared by every histogram sample of the set."""
        return self._edges


@dataclass(eq=False)
class SummarySample:
    """Statistics of one half-open interval [t_start, t_end) of the stream.

    ``n`` is the raw cardinality and the weight of the sample in every
    count-weighted merge formula.

    ``histogram`` is a tuple of ``len(hist_edges)`` counts: one per bin of
    ``hist_edges``, then the count of rows outside the edges, so
    ``histogram[:OUTLIER_BIN]`` are the in-range counts and
    ``histogram[OUTLIER_BIN]`` the outliers.  The counts sum to ``n``.
    ``hist_edges`` is the :meth:`StatisticSet.edges_array` the histogram
    was built under, shared by reference and never copied.

    ``hull`` is kept over finite rows only: a sample that covers an inf or
    NaN row has none, and neither has any merge it enters.

    ``variance``/``min_v``/``max_v`` may be None after a curation drop, and
    stay None through every later merge; an empty sample (n == 0) instead
    carries the neutral values (zero moments, +inf/-inf extrema) so merges
    need no special cases.
    """

    t_start: int
    t_end: int
    n: int
    mean: np.ndarray
    variance: np.ndarray | None
    min_v: np.ndarray | None
    max_v: np.ndarray | None
    covariance: np.ndarray | None = None
    hull: np.ndarray | None = None
    histogram: tuple[int, ...] | None = None
    hist_edges: np.ndarray | None = None
    swv: np.ndarray | None = None

    @property
    def channels(self) -> int:
        return self.mean.shape[0]

    def copy(self) -> "SummarySample":
        """A sample that owns every array of this one but ``hist_edges``, which stays shared."""
        return SummarySample(
            **{f: v.copy() if isinstance(v := getattr(self, f), np.ndarray) and f != "hist_edges" else v for f in _FIELDS}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SummarySample):
            return NotImplemented
        return all(_same(getattr(self, f), getattr(other, f)) for f in _FIELDS)


_FIELDS = tuple(f.name for f in dataclasses.fields(SummarySample))


def _same(x, y) -> bool:
    """One field's equality: arrays by shape and value, a NaN equal to a NaN (a NaN row's sample equals its copy)."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return type(x) is type(y) and x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
    return x == y


def empty(channels: int = 1, t: int = 0) -> SummarySample:
    """The neutral element: merging with it is an exact identity."""
    d = channels
    return SummarySample(
        t_start=t,
        t_end=t,
        n=0,
        mean=np.zeros(d),
        variance=np.zeros(d),
        min_v=np.full(d, np.inf),
        max_v=np.full(d, -np.inf),
    )


def summarize(raw, t_start: int = 0, opts: StatisticSet | None = None) -> SummarySample:
    """Compute the statistics of a raw block directly.

    This is the reference path that every chain of merges must agree with.
    """
    opts = opts or StatisticSet()
    x = np.asarray(raw, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if x.ndim != 2:
        raise ValueError("raw data must be an N x d matrix")
    n, d = x.shape
    if n == 0:
        s = empty(d, t_start)
        return s
    s = SummarySample(
        t_start=t_start,
        t_end=t_start + n,
        n=n,
        mean=x.mean(axis=0),
        variance=x.var(axis=0),
        min_v=x.min(axis=0),
        max_v=x.max(axis=0),
    )
    if opts.covariance:
        centered = x - s.mean
        s.covariance = centered.T @ centered / n
    if opts.hull and d == 2:
        s.hull = convex_hull(x)
    edges = opts.edges_array()
    if edges is not None:
        counts = np.histogram(x[:, 0], bins=edges)[0].tolist()
        s.histogram = (*counts, n - sum(counts))
        s.hist_edges = edges
    if opts.swv:
        s.swv = spectrum.swv_ladder(x)
    return s


def point_sample(row, t: int, opts: StatisticSet | None = None) -> SummarySample:
    """Fast path for a single observation (the level-0 sample of a record)."""
    opts = opts or StatisticSet()
    v = np.atleast_1d(np.asarray(row, dtype=np.float64))
    d = v.shape[0]
    s = SummarySample(
        t_start=t,
        t_end=t + 1,
        n=1,
        mean=v.copy(),
        variance=np.zeros(d),
        min_v=v.copy(),
        max_v=v.copy(),
    )
    if opts.covariance:
        s.covariance = np.zeros((d, d))
    if opts.hull and d == 2 and np.isfinite(v).all():
        s.hull = v[np.newaxis, :].copy()
    edges = opts.edges_array()
    if edges is not None:
        hist = [0] * len(edges)
        hist[hist_bins(edges, v[:1])[0]] = 1
        s.histogram = tuple(hist)
        s.hist_edges = edges
    if opts.swv:
        s.swv = np.zeros((0, d))
    return s


def hist_bins(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Histogram bin of each value of ``x``, ``OUTLIER_BIN`` outside ``edges`` (and for NaN).

    The one bin rule: bins are half-open except the last, which is closed on
    the right, as in ``np.histogram``.
    """
    i = np.searchsorted(edges[:-1], x, side="right") - 1  # -1, which is OUTLIER_BIN, below the first edge
    i[~(x <= edges[-1])] = OUTLIER_BIN  # above the last edge, or NaN
    return i


def convex_hull(points) -> np.ndarray | None:
    """Convex hull of 2D points via the monotone chain, counter-clockwise.

    Degenerate inputs collapse: one distinct point gives a 1-vertex hull,
    collinear points a 2-vertex segment.  A hull is kept over finite points
    only: any inf or NaN coordinate gives None, since the vertex set of such
    points would depend on their order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(pts).all():
        return None
    pts = np.unique(pts, axis=0)
    if pts.shape[0] <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # lower keeps pts[0] and upper pts[-1], so three or more distinct points give two or more vertices
    return np.vstack(lower[:-1] + upper[:-1])


def merge_hull(h1, h2) -> np.ndarray | None:
    """Hull of the union: the hull of both vertex sets together."""
    a = np.asarray(h1, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(h2, dtype=np.float64).reshape(-1, 2)
    if a.shape[0] == 0:
        return convex_hull(b) if b.shape[0] else b
    if b.shape[0] == 0:
        return convex_hull(a)
    return convex_hull(np.vstack([a, b]))


def hull_contains(hull: np.ndarray, point, *, margin: float = 0.0) -> bool:
    """Inclusive point-in-convex-polygon test (CCW hull, degenerates allowed).

    ``margin`` loosens the test; pruning callers pass a small positive value
    so roundoff can only ever produce false positives, never false negatives.
    """
    q = np.asarray(point, dtype=np.float64)
    m = hull.shape[0]
    if m == 0:
        return False
    if m == 1:
        return bool(np.all(np.abs(hull[0] - q) <= margin))
    if m == 2:
        a, b = hull[0], hull[1]
        ab = b - a
        cross = ab[0] * (q[1] - a[1]) - ab[1] * (q[0] - a[0])
        if abs(cross) > margin:
            return False
        t = np.dot(q - a, ab)
        return -margin <= t <= np.dot(ab, ab) + margin
    for i in range(m):
        a = hull[i]
        b = hull[(i + 1) % m]
        cross = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        if cross < -margin:
            return False
    return True


def merge(a: SummarySample, b: SummarySample) -> SummarySample:
    """Merge adjacent summaries into the summary of the union interval.

    The samples must be adjacent in time, in either order; a gap or an
    overlap raises ``ValueError``.  An optional statistic survives only when
    present on both sides; one missing on either side is None on the result.
    Means, variances, covariances and scale-wise variances are weighted by
    ``n``.  Histograms must share their bin edges, which the result holds
    by reference, and add bin by bin.  Merging with the empty sample is an
    exact identity.  Provenance is the record's business, not the sample's.
    """
    if a.mean.shape[0] != b.mean.shape[0]:
        raise ChannelMismatch(f"channels {a.mean.shape[0]} != {b.mean.shape[0]}")
    if b.t_end <= a.t_start:
        a, b = b, a
    if a.t_end != b.t_start:
        raise ValueError(f"samples are not adjacent: [{a.t_start},{a.t_end}) and [{b.t_start},{b.t_end})")
    t0, t1 = a.t_start, b.t_end

    if a.n == 0 or b.n == 0:
        out = (b if a.n == 0 else a).copy()
        out.t_start, out.t_end = t0, t1
        return out

    n = a.n + b.n
    # float counts: numpy scales an array by a Python float faster than by an int
    na, nb, nf = float(a.n), float(b.n), float(n)
    mean = (na * a.mean + nb * b.mean) / nf
    out = SummarySample(t_start=t0, t_end=t1, n=n, mean=mean, variance=None, min_v=None, max_v=None)

    da = a.mean - mean
    db = b.mean - mean
    if a.variance is not None and b.variance is not None:
        out.variance = (na * (a.variance + da * da) + nb * (b.variance + db * db)) / nf
    if a.min_v is not None and b.min_v is not None:
        out.min_v = np.minimum(a.min_v, b.min_v)
    if a.max_v is not None and b.max_v is not None:
        out.max_v = np.maximum(a.max_v, b.max_v)
    if a.covariance is not None and b.covariance is not None:
        out.covariance = (
            na * (a.covariance + np.outer(da, da)) + nb * (b.covariance + np.outer(db, db))
        ) / nf
    if a.hull is not None and b.hull is not None:
        out.hull = merge_hull(a.hull, b.hull)
    if a.histogram is not None and b.histogram is not None:
        ea, eb = a.hist_edges, b.hist_edges
        if ea is not eb and (ea is None or eb is None or not np.array_equal(ea, eb)):
            raise DictionaryMismatch("histogram bin edges differ")
        out.histogram = tuple(map(operator.add, a.histogram, b.histogram))
        out.hist_edges = ea
    if a.swv is not None and b.swv is not None:
        out.swv = spectrum.pool_terms(a.swv, a.mean, na, b.swv, b.mean, nb, mean)
    return out


def merge_all(samples) -> SummarySample:
    """Left fold of :func:`merge` over a time-ordered sequence of adjacent samples."""
    it = iter(samples)
    try:
        acc = next(it).copy()
    except StopIteration:
        raise ValueError("merge_all needs at least one sample") from None
    for s in it:
        acc = merge(acc, s)
    return acc


#: The optional statistics a :class:`Stack` keeps a lacks mask for, in the row order of its ``masks``.
LACKABLE = ("variance", "min_v", "max_v", "covariance", "hull", "histogram", "swv")
_MASK = {name: i for i, name in enumerate(LACKABLE)}


class Stack:
    """Stored samples in time order as columns: the table a record keeps, and what :func:`stack` makes of samples.

    ``t_start``, ``t_end`` and ``n`` hold one entry per row, the rows of
    ``spans``.  ``mean``, ``variance``, ``min_v`` and ``max_v`` are
    ``(rows, channels)``, the rows of ``moments``, and ``covariance`` is
    ``(rows, channels, channels)``, NaN where a row lacks the statistic.
    ``histogram`` holds the counts as ``(rows, bins + 1)`` on the shared
    ``hist_edges``, zero where a row lacks one.  ``hull`` and ``swv`` are
    ragged: their rows (a hull vertex of 2 values, an SWV term of
    ``channels``) for every row of the table in turn, row i's from
    ``hull_at[i]`` to ``hull_at[i + 1]`` (``swv_at`` alike), none where it
    lacks one.  An optional column that no row keeps may be None.

    ``masks`` holds an explicit lacks mask per statistic of :data:`LACKABLE`
    (:meth:`lacks`), true where a row keeps none, as after a drop; a kept
    NaN is not lacking.  Every array is read-only.

    :attr:`samples` are the rows as :class:`SummarySample` views, made on
    first read and kept: their arrays are row views of one copy per column,
    so editing a view changes neither the table nor another view of it.
    """

    __slots__ = ("spans", "t_start", "t_end", "n", "moments", "mean", "variance", "min_v", "max_v", "masks",
                 "covariance", "hull", "hull_at", "histogram", "hist_edges", "swv", "swv_at", "_samples")

    def __init__(self, spans, moments, masks, covariance=None, hull=None, hull_at=None, histogram=None,
                 hist_edges=None, swv=None, swv_at=None, samples=None):
        """``spans`` is ``(3, rows)`` int64, ``moments`` ``(4, rows, channels)`` float64 and ``masks``
        ``(len(LACKABLE), rows)`` bool; the other columns as the class holds them."""
        for a in (spans, moments, masks, covariance, hull, hull_at, histogram, swv, swv_at):
            if a is not None:  # the shared edges are the statistic set's, read-only already
                a.setflags(write=False)
        self.spans, self.moments, self.masks = spans, moments, masks
        self.t_start, self.t_end, self.n = spans
        self.mean, self.variance, self.min_v, self.max_v = moments
        self.covariance, self.hull, self.hull_at = covariance, hull, hull_at
        self.histogram, self.hist_edges, self.swv, self.swv_at = histogram, hist_edges, swv, swv_at
        self._samples = samples

    def __len__(self) -> int:
        return self.t_start.shape[0]

    def lacks(self, name: str) -> np.ndarray:
        """The mask of the rows that keep no ``name``, a statistic of :data:`LACKABLE`."""
        return self.masks[_MASK[name]]

    def node_count(self) -> int:
        return len(self)

    @property
    def samples(self) -> list[SummarySample]:
        """The rows as samples, in time order: made on first read, then kept with the table."""
        if self._samples is None:
            self._samples = _views(self)
        return self._samples

    def take(self, rows) -> "Stack":
        """The table of ``rows`` (indices) of this one, in their order."""
        rows = np.asarray(rows, dtype=np.intp)
        cov, hist = self.covariance, self.histogram
        return Stack(
            self.spans.take(rows, 1), self.moments.take(rows, 1), self.masks.take(rows, 1),
            None if cov is None else cov.take(rows, 0), *_take_ragged(self.hull, self.hull_at, rows),
            None if hist is None else hist.take(rows, 0), self.hist_edges, *_take_ragged(self.swv, self.swv_at, rows),
        )


def _take_ragged(values, at, rows):
    """The ragged rows and offsets of the table rows ``rows``; (None, None) for a column no row keeps."""
    if values is None:
        return None, None
    sizes = np.diff(at).take(rows)
    out = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return values.take(np.repeat(at.take(rows) - out[:-1], sizes) + np.arange(out[-1]), axis=0), out


def _views(st: Stack) -> list[SummarySample]:
    """A sample per row of ``st``: every array a row view of one copy of its column, None where the row lacks it."""

    def spread(name: str, values) -> list:
        lacks = st.lacks(name)
        if not lacks.any():
            return list(values)
        return [None if gone else v for v, gone in zip(values, lacks.tolist())]

    cols = {name: getattr(st, name).tolist() for name in ("t_start", "t_end", "n")}
    cols["mean"] = list(st.mean.copy())
    for name in ("variance", "min_v", "max_v", "covariance"):
        if (col := getattr(st, name)) is not None:
            cols[name] = spread(name, col.copy())
    for name, values, at in (("hull", st.hull, st.hull_at), ("swv", st.swv, st.swv_at)):
        if values is not None:
            values, at = values.copy(), at.tolist()
            cols[name] = spread(name, [values[i:j] for i, j in zip(at, at[1:])])
    if st.histogram is not None:
        hists = cols["histogram"] = spread("histogram", map(tuple, st.histogram.tolist()))
        cols["hist_edges"] = [None if h is None else st.hist_edges for h in hists]
    none = itertools.repeat(None)
    return list(map(SummarySample, *(cols.get(name, none) for name in _FIELDS)))


def _ragged(values: list, width: int):
    """The rows and offsets of a ragged column from one array or None per sample; (None, None) when all are None."""
    kept = [x for x in values if x is not None]
    if not kept:
        return None, None
    at = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum([0 if x is None else x.shape[0] for x in values], out=at[1:])
    return np.concatenate(kept).astype(np.float64, copy=False).reshape(-1, width), at


def stack(samples, channels: int) -> Stack:
    """The :class:`Stack` of stored samples of ``channels`` channels, in their order; the samples are its views.

    Their moments are C-contiguous float64 arrays, as this module makes them, so their joined bytes are the
    columns.  Histograms must share their bin edges, as a record's do, or ``DictionaryMismatch`` is raised, and hold
    one count per bin and the outliers, or ``InvariantViolation`` is raised.
    """
    samples = list(samples)
    k, d = len(samples), channels
    unknown = np.full(d, np.nan)
    spans, moments, lacking, covs, hulls, hists, swvs = [], [], [], [], [], [], []
    edges = width = None
    for s in samples:
        v, lo, hi, c, hull, h, swv = s.variance, s.min_v, s.max_v, s.covariance, s.hull, s.histogram, s.swv
        spans += s.t_start, s.t_end, s.n
        moments += s.mean, unknown if v is None else v, unknown if lo is None else lo, unknown if hi is None else hi
        lacking += v is None, lo is None, hi is None, c is None, hull is None, h is None, swv is None
        covs.append(c)
        hulls.append(hull)
        hists.append(h)
        swvs.append(swv)
        if h is not None:
            if width is None:
                edges = s.hist_edges
                width = len(h) if edges is None else edges.shape[0]
            elif s.hist_edges is not edges and not np.array_equal(s.hist_edges, edges):
                raise DictionaryMismatch("histogram bin edges differ")
            if len(h) != width:
                where = f"sample [{s.t_start},{s.t_end}) of n = {s.n}"
                raise InvariantViolation(f"{where} has histogram {h} on {width - 1} bins")
    moments = np.frombuffer(b"".join(moments)).reshape(k, 4, d).transpose(1, 0, 2)
    spans = np.array(spans, dtype=np.int64).reshape(k, 3).T.copy()
    masks = np.array(lacking, dtype=bool).reshape(k, len(LACKABLE)).T.copy()
    covariance = None
    if not masks[_MASK["covariance"]].all():
        covariance = np.full((k, d, d), np.nan)
        covariance[~masks[_MASK["covariance"]]] = [c for c in covs if c is not None]
    counts = None
    if width is not None:
        zero = (0,) * width  # the counts of a sample without a histogram
        flat = itertools.chain.from_iterable(zero if h is None else h for h in hists)
        counts = np.fromiter(flat, np.int64, k * width).reshape(k, width)
    return Stack(
        spans, moments, masks, covariance, *_ragged(hulls, 2), counts, edges, *_ragged(swvs, d), samples=samples
    )


def concat(stacks) -> Stack:
    """The rows of ``stacks`` (of one channel count), one table after another.

    An optional column that some of ``stacks`` keep and others do not reads,
    where it is missing, as a lacking row's does: NaN, zero counts, no rows.
    """
    d = stacks[0].mean.shape[1]

    def column(name: str, missing=None, axis: int = 0):
        """Column ``name`` of every table; ``missing(k)`` fills an optional column where a table of k rows has none."""
        parts = [getattr(s, name) for s in stacks]
        if missing is not None:
            if all(p is None for p in parts):
                return None
            parts = [missing(len(s)) if p is None else p for s, p in zip(stacks, parts)]
        return np.concatenate(parts, axis=axis)

    def ragged(name: str):
        if all(getattr(s, name) is None for s in stacks):
            return None, None
        values, ats, base = [], [np.zeros(1, dtype=np.int64)], 0
        for s in stacks:
            at = getattr(s, f"{name}_at")
            if at is None:
                ats.append(np.full(len(s), base, dtype=np.int64))
            else:
                values.append(getattr(s, name))
                ats.append(at[1:] + base)
                base += int(at[-1])
        return np.concatenate(values), np.concatenate(ats)

    kept = [s for s in stacks if s.histogram is not None]
    edges, width = (kept[0].hist_edges, kept[0].histogram.shape[1]) if kept else (None, 0)
    return Stack(
        column("spans", axis=1), column("moments", axis=1), column("masks", axis=1),
        column("covariance", lambda k: np.full((k, d, d), np.nan)), *ragged("hull"),
        column("histogram", lambda k: np.zeros((k, width), dtype=np.int64)), edges, *ragged("swv"),
    )


def merge_runs(st: Stack, rows: np.ndarray, t_rows: int, spans, splits, opts: StatisticSet) -> Stack:
    """Merge the sources of each span, every span in one grouped reduction; the table of the merges, one row a span.

    The sources are the rows of the :class:`Stack` ``st``, in time order,
    followed by the point samples of ``rows`` (rows x channels) under
    ``opts``, row j covering step ``t_rows + j``.  ``spans``, each with a
    ``t_start`` and a ``t_end`` (a ``record.Span``), come in time order; the
    sources starting in a span must tile it, and every source lies in one,
    but spans need not be adjacent.  Empty ``rows`` with the one span
    ``(0, now)`` gives the aggregate of the table, as
    :meth:`record.SummaryRecord.aggregate` reduces its kept table.

    Each span gets the k-way form of :func:`merge`'s formulas: with
    N = sum n_i and M = sum n_i m_i / N over its sources,

        variance   = sum n_i (v_i + (m_i - M)^2) / N
        covariance = sum n_i (C_i + (m_i - M)(m_i - M)^T) / N

    Scale-wise variance terms are ``sum n_i T_i / N`` plus, at each merge's
    scale, its spread ``n_a (m_a - m)^2 + n_b (m_b - m)^2`` over N, as
    :func:`spectrum.pool_terms` places it; ``splits``, read only under
    ``opts.swv``, holds each merge's ``(t_start, t_mid, t_end)``, as a list
    of triples or the rows of an array.

    A span of one row gets ``point_sample``'s values, zero moments even for
    a non-finite row, and a span of two sources ``merge``'s own expressions.
    Longer spans sum in another order than a chain of merges, so their
    moments agree with it to rounding.  Counts, extrema and histograms are
    exact, and a hull is the hull of every vertex and row of its span, as a
    chain of ``merge_hull`` gives it.  A statistic that any source of a span
    lacks, by the table's :meth:`Stack.lacks` mask reduced over the span, is
    lacking on its row, as is every optional statistic ``opts`` does not
    keep.
    """
    m, d = rows.shape
    k = len(st)
    n_runs = len(spans)

    starts = np.concatenate([st.t_start, np.arange(t_rows, t_rows + m + 1)])  # every source's start, then the end
    bounds = np.array([t for s in spans for t in (s.t_start, s.t_end)], dtype=np.int64).reshape(-1, 2)
    at, end = np.searchsorted(starts, bounds.ravel()).reshape(-1, 2).T
    sizes = end - at
    # a span lacks what any of its sources lacks, and a row lacks nothing; a statistic ``opts`` does not keep lacks
    # on every span
    masks = np.logical_or.reduceat(np.concatenate([st.masks, np.zeros((len(LACKABLE), m), dtype=bool)], 1), at, 1)
    kept = (True, True, True, opts.covariance, opts.hull and d == 2, opts.histogram_edges is not None, opts.swv)
    masks[[not x for x in kept]] = True
    lost = dict(zip(LACKABLE, masks))

    means = np.concatenate([st.mean, rows])
    weight = np.concatenate([st.n, np.ones(m)])[:, np.newaxis]
    total = np.add.reduceat(weight, at)
    moments = np.empty((4, n_runs, d))  # the columns of the result
    mean, variance, low, high = moments
    np.divide(np.add.reduceat(weight * means, at), total, out=mean)
    dev = means - np.repeat(mean, sizes, axis=0)
    lone = (sizes == 1) & (at >= k)  # a lone row, whose inf or NaN dev would read NaN
    np.divide(np.add.reduceat(weight * (np.concatenate([st.variance, np.zeros((m, d))]) + dev * dev), at), total,
              out=variance)
    variance[lone] = 0.0
    np.minimum.reduceat(np.concatenate([st.min_v, rows]), at, out=low)
    np.maximum.reduceat(np.concatenate([st.max_v, rows]), at, out=high)
    if masks[:3].any():
        moments[1:][masks[:3]] = np.nan

    covariance = hull = hull_at = counts = swv = swv_at = None
    if opts.covariance:
        cov = np.zeros((k + m, d, d))
        if st.covariance is not None:
            cov[:k] = st.covariance  # NaN where a source lacks one, which loses its span's
        cov += dev[:, :, np.newaxis] * dev[:, np.newaxis, :]
        covariance = np.add.reduceat(weight[:, :, np.newaxis] * cov, at) / total[:, :, np.newaxis]
        covariance[lone] = 0.0
        covariance[lost["covariance"]] = np.nan

    if opts.hull and d == 2:
        vertices = np.empty((0, 2)) if st.hull is None else st.hull
        vat = [0] * (k + 1) if st.hull is None else st.hull_at.tolist()
        hulls = []
        for i, j, gone in zip(at.tolist(), end.tolist(), lost["hull"].tolist()):
            # a span's stored vertices are one run of the ragged column, and its rows one run of ``rows``
            stored = vertices[vat[min(i, k)] : vat[min(j, k)]]
            hulls.append(None if gone else convex_hull(np.vstack([stored, rows[max(i - k, 0) : max(j - k, 0)]])))
        lost["hull"][:] = [h is None for h in hulls]  # also the spans of a non-finite row
        hull, hull_at = _ragged(hulls, 2)

    run = np.repeat(np.arange(n_runs), sizes)  # the span of every source
    edges = opts.edges_array()
    if edges is not None:
        # spans x (bins + 1) counts (OUTLIER_BIN last), no rows x bins array: the stored samples come first, so the
        # spans that hold any are a prefix and reduce their stacked counts, and each row adds one to its span's bin
        width = edges.shape[0]
        counts = np.zeros((n_runs, width), dtype=np.int64)
        if st.histogram is not None:
            prefix = int(np.searchsorted(at, k))
            counts[:prefix] = np.add.reduceat(st.histogram, at[:prefix])
        if m:
            cells = run[k:] * width + hist_bins(edges, rows[:, 0]) % width
            counts += np.bincount(cells, minlength=n_runs * width).reshape(n_runs, width)
        counts[lost["histogram"]] = 0

    if opts.swv:
        n_of = total[:, 0]
        terms = np.zeros((n_runs, spectrum.depth(int(n_of.max())), d))
        if st.swv is not None:
            owner = np.repeat(np.arange(k), np.diff(st.swv_at))
            term = np.arange(owner.shape[0]) - st.swv_at[owner]  # each stored term's scale
            np.add.at(terms, (run[owner], term), st.n[owner, np.newaxis] * st.swv)
        splits = np.array(splits, dtype=np.int64).reshape(-1, 3)
        at3 = np.searchsorted(starts, splits.ravel())  # the sources where each merge starts, halves and ends
        half = np.add.reduceat(np.vstack([weight * means, np.zeros(d)]), at3).reshape(-1, 3, d)
        n_a, n_b = np.diff(splits).T[:, :, np.newaxis]
        m_a, m_b, m_ab = half[:, 0] / n_a, half[:, 1] / n_b, (half[:, 0] + half[:, 1]) / (n_a + n_b)
        scale = np.frexp(splits[:, 2] - splits[:, 0] - 1)[1] - 1  # spectrum.depth(n_a + n_b) - 1, for n < 2^53
        np.add.at(terms, (run[at3[0::3]], scale), n_a * (m_a - m_ab) ** 2 + n_b * (m_b - m_ab) ** 2)  # as merge
        depth = np.where(lost["swv"], 0, spectrum.depths(n_of.astype(np.int64)))
        swv = (terms / n_of[:, np.newaxis, np.newaxis])[np.arange(terms.shape[1]) < depth[:, np.newaxis]]
        swv_at = np.zeros(n_runs + 1, dtype=np.int64)
        np.cumsum(depth, out=swv_at[1:])

    return Stack(
        np.vstack([bounds.T, total.T.astype(np.int64)]), moments, masks, covariance, hull, hull_at, counts,
        None if counts is None else edges, swv, swv_at,
    )


def scalar_cost(s: SummarySample) -> tuple[int, int]:
    """(floats, ints) this sample stores of its own; used for size accounting.

    Histogram bin edges are not counted: the record's ``StatisticSet`` holds
    them once for every sample.
    """
    d = s.channels
    floats = d  # mean
    ints = 3  # t_start, t_end, n
    for v in (s.variance, s.min_v, s.max_v):
        if v is not None:
            floats += d
    if s.covariance is not None:
        floats += d * (d + 1) // 2
    if s.hull is not None:
        floats += 2 * s.hull.shape[0]
    if s.histogram is not None:
        ints += 2 * (len(s.histogram) - s.histogram.count(0))  # as stored: a key and a count per non-zero bin
    if s.swv is not None:
        floats += s.swv.size
    return floats, ints
