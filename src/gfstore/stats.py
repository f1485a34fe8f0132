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
from .errors import ChannelMismatch, DictionaryMismatch

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


@dataclass(frozen=True)
class Stack:
    """Stored samples in time order beside their statistics stacked into arrays, as :func:`stack` builds it.

    ``t_start`` and ``n`` hold one entry per sample; ``mean``, ``variance``, ``min_v`` and ``max_v`` are read-only
    ``(samples, channels)`` arrays, NaN where a sample lacks the statistic.  ``histogram`` holds the counts as
    ``(samples, bins + 1)`` on the shared ``hist_edges``, zero for a sample without one, or both are None.
    """

    samples: list
    t_start: np.ndarray
    n: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    min_v: np.ndarray
    max_v: np.ndarray
    histogram: np.ndarray | None = None
    hist_edges: np.ndarray | None = None

    def lacks(self, name: str) -> np.ndarray:
        """The mask of the samples whose field ``name`` is None; a stacked NaN is looked up, as a row may hold NaN."""
        if name not in ("variance", "min_v", "max_v"):
            return np.array([getattr(s, name) is None for s in self.samples], dtype=bool)
        out = np.isnan(getattr(self, name)).any(axis=1)
        if out.any():
            out[out] = [getattr(s, name) is None for s in itertools.compress(self.samples, out)]
        return out

    def node_count(self) -> int:
        return len(self.samples)


def stack(samples, channels: int) -> Stack:
    """Stack stored samples of ``channels`` channels into one :class:`Stack`.

    Their statistics are C-contiguous float64 arrays, as this module and the container make them, so their joined
    bytes are the stack.  Histograms must share their bin edges, as a record's do, or ``DictionaryMismatch`` is raised.
    """
    samples = list(samples)
    k, d = len(samples), channels
    unknown = np.full(d, np.nan)
    starts, counts, moments = [], [], []
    edges = None
    for s in samples:
        v, lo, hi = s.variance, s.min_v, s.max_v
        starts.append(s.t_start)
        counts.append(s.n)
        moments += s.mean, unknown if v is None else v, unknown if lo is None else lo, unknown if hi is None else hi
        if s.histogram is not None:
            if edges is not None and s.hist_edges is not edges and not np.array_equal(s.hist_edges, edges):
                raise DictionaryMismatch("histogram bin edges differ")
            edges = s.hist_edges
    mean, variance, min_v, max_v = np.frombuffer(b"".join(moments)).reshape(k, 4, d).transpose(1, 0, 2)
    histogram = None
    if edges is not None:
        zero = (0,) * edges.shape[0]  # the counts of a sample without a histogram
        flat = itertools.chain.from_iterable(zero if s.histogram is None else s.histogram for s in samples)
        histogram = np.fromiter(flat, np.int64, k * len(zero)).reshape(k, -1)
    starts, counts = np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64)
    return Stack(samples, starts, counts, mean, variance, min_v, max_v, histogram, edges)


def merge_runs(st: Stack, rows: np.ndarray, t_rows: int, spans, splits, opts: StatisticSet) -> list[SummarySample]:
    """Merge the sources of each span, every span in one grouped reduction.

    The sources are the stored samples of the :class:`Stack` ``st``, in
    time order, followed by the point samples of ``rows`` (rows x
    channels) under ``opts``, row j covering step ``t_rows + j``.
    ``spans``, each with a ``t_start`` and a ``t_end`` (a ``record.Span``),
    come in time order; the sources starting in a span must tile it, and
    every source lies in one, but spans need not be adjacent.  Empty
    ``rows`` with the one span ``(0, now)`` gives the aggregate of the
    stacked samples, as :meth:`record.SummaryRecord.aggregate` reduces its
    kept stack.

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
    lacks, by the stack's :meth:`Stack.lacks` mask reduced over the span, is
    None on the result.
    """
    m, d = rows.shape
    samples, k = st.samples, len(st.samples)
    n_runs = len(spans)

    starts = np.concatenate([st.t_start, np.arange(t_rows, t_rows + m + 1)])  # every source's start, then the end
    at, end = np.searchsorted(starts, [t for s in spans for t in (s.t_start, s.t_end)]).reshape(-1, 2).T
    sizes = end - at
    firsts, ends = at.tolist(), end.tolist()
    tail = np.zeros(m, dtype=bool)  # a row lacks nothing

    def kept(name: str, values) -> list:
        """``values`` per span, None on the spans with a source that lacks the field ``name``."""
        lacks = st.lacks(name)
        if not lacks.any():
            return list(values)
        lost = np.logical_or.reduceat(np.concatenate([lacks, tail]), at).tolist()
        return [None if gone else v for v, gone in zip(values, lost)]

    means = np.concatenate([st.mean, rows])
    weight = np.concatenate([st.n, np.ones(m)])[:, np.newaxis]
    total = np.add.reduceat(weight, at)
    mean = np.add.reduceat(weight * means, at) / total
    dev = means - np.repeat(mean, sizes, axis=0)
    lone = (sizes == 1) & (at >= k)  # a lone row, whose inf or NaN dev would read NaN
    variance = np.add.reduceat(weight * (np.concatenate([st.variance, np.zeros((m, d))]) + dev * dev), at) / total
    variance[lone] = 0.0
    variance = kept("variance", variance)
    low = kept("min_v", np.minimum.reduceat(np.concatenate([st.min_v, rows]), at))
    high = kept("max_v", np.maximum.reduceat(np.concatenate([st.max_v, rows]), at))

    covariance = hulls = hists = swv = [None] * n_runs  # an optional statistic not kept is None on every span
    if opts.covariance:
        cov = np.zeros((k + m, d, d))
        kept_cov = [s.covariance for s in samples if s.covariance is not None]
        cov[:k][~st.lacks("covariance")] = np.frombuffer(b"".join(kept_cov)).reshape(-1, d, d)
        cov += dev[:, :, np.newaxis] * dev[:, np.newaxis, :]
        cov = np.add.reduceat(weight[:, :, np.newaxis] * cov, at) / total[:, :, np.newaxis]
        cov[lone] = 0.0
        covariance = kept("covariance", cov)

    if opts.hull and d == 2:
        parts = ([s.hull for s in samples[i:j]] + [rows[max(i - k, 0) : max(j - k, 0)]] for i, j in zip(firsts, ends))
        hulls = [None if ps is None else convex_hull(np.vstack(ps)) for ps in kept("hull", parts)]

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
        hists = kept("histogram", map(tuple, counts.tolist()))

    if opts.swv:
        terms = np.zeros((n_runs, spectrum.depth(int(total.max())), d))
        for r, s in zip(run.tolist(), samples):
            if s.swv is not None:
                terms[r, : s.swv.shape[0]] += s.n * s.swv
        splits = np.array(splits, dtype=np.int64).reshape(-1, 3)
        at3 = np.searchsorted(starts, splits.ravel())  # the sources where each merge starts, halves and ends
        half = np.add.reduceat(np.vstack([weight * means, np.zeros(d)]), at3).reshape(-1, 3, d)
        n_a, n_b = np.diff(splits).T[:, :, np.newaxis]
        m_a, m_b, m_ab = half[:, 0] / n_a, half[:, 1] / n_b, (half[:, 0] + half[:, 1]) / (n_a + n_b)
        scale = np.frexp(splits[:, 2] - splits[:, 0] - 1)[1] - 1  # spectrum.depth(n_a + n_b) - 1, for n < 2^53
        np.add.at(terms, (run[at3[0::3]], scale), n_a * (m_a - m_ab) ** 2 + n_b * (m_b - m_ab) ** 2)  # as merge
        swv = kept("swv", (t[: spectrum.depth(int(n))] / n for t, n in zip(terms, total[:, 0])))

    return [
        SummarySample(
            t_start=span.t_start,
            t_end=span.t_end,
            n=int(n),
            mean=mu,
            variance=variance[r],
            min_v=low[r],
            max_v=high[r],
            covariance=covariance[r],
            hull=hulls[r],
            histogram=hists[r],
            hist_edges=None if hists[r] is None else edges,
            swv=swv[r],
        )
        for r, (span, n, mu) in enumerate(zip(spans, total[:, 0].tolist(), mean))
    ]


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
