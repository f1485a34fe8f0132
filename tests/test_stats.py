import dataclasses

import numpy as np
import pytest

from gfstore import stats
from gfstore.errors import ChannelMismatch, DictionaryMismatch
from gfstore.record import Span, SummaryRecord
from gfstore.stats import OUTLIER_BIN, StatisticSet, merge, merge_hull, summarize
from test_record import BLOCK_RTOL, assert_same_sample

RTOL = 1e-9

FULL = StatisticSet(covariance=True, histogram_edges=tuple(np.linspace(-4, 4, 17)))
FULL2D = StatisticSet(covariance=True, hull=True, histogram_edges=tuple(np.linspace(-4, 4, 17)))


def close(a, b, rtol=RTOL, atol=1e-12):
    return np.allclose(a, b, rtol=rtol, atol=atol)


def test_summarize_worked_example():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert close(s.mean, [2.5])
    assert close(s.variance, [1.25])
    assert close(s.min_v, [1.0]) and close(s.max_v, [4.0])
    assert s.t_start == 0 and s.t_end == 4


def test_summarize_empty_and_constant():
    e = summarize(np.empty((0, 2)))
    assert e.n == 0
    assert np.all(np.isinf(e.min_v)) and np.all(np.isinf(e.max_v))
    c = summarize([7.0, 7.0, 7.0])
    assert c.n == 3 and close(c.mean, [7.0]) and close(c.variance, [0.0])
    assert close(c.min_v, [7.0]) and close(c.max_v, [7.0])
    with pytest.raises(ValueError, match="N x d"):
        summarize(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="at least one sample"):
        stats.merge_all([])


def test_merge_variance_worked_example():
    # {n=2,m=1,v=0.25} + {n=2,m=3,v=0.25} -> {n=4,m=2,v=1.25}; oracle is the
    # direct variance of the reconstructed multiset [0.5, 1.5, 2.5, 3.5]
    a = summarize([0.5, 1.5], t_start=0)
    b = summarize([2.5, 3.5], t_start=2)
    assert close(a.variance, [0.25]) and close(b.variance, [0.25])
    m = merge(a, b)
    assert m.n == 4
    assert close(m.mean, [2.0])
    assert close(m.variance, [np.var([0.5, 1.5, 2.5, 3.5])])
    assert close(m.variance, [1.25])


def test_merge_weighted_mean_example():
    a = summarize([0.0], t_start=0)
    b = summarize([4.0, 4.0, 4.0], t_start=1)
    m = merge(a, b)
    assert m.n == 4 and close(m.mean, [(0.0 * 1 + 4.0 * 3) / 4]) and close(m.mean, [3.0])


def test_merge_extrema_example():
    a = summarize([-1.0, 2.0], t_start=0)
    b = summarize([0.0, 5.0], t_start=2)
    m = merge(a, b)
    assert close(m.min_v, [-1.0]) and close(m.max_v, [5.0])


def test_a_copy_owns_every_array_but_the_shared_bin_edges():
    opts = StatisticSet(covariance=True, hull=True, histogram_edges=(0, 1, 2), swv=True)
    rec = SummaryRecord(channels=2, budget=4, opts=opts)
    rec.ingest_block(np.random.default_rng(5).normal(size=(40, 2)))
    s = rec.levels[-1][0]
    c = s.copy()
    assert c == s and c is not s
    arrays = [f.name for f in dataclasses.fields(s) if isinstance(getattr(s, f.name), np.ndarray)]
    assert sorted(arrays) == sorted(["mean", "variance", "min_v", "max_v", "covariance", "hull", "hist_edges", "swv"])
    for name in arrays:
        owned = not np.shares_memory(getattr(c, name), getattr(s, name))
        assert owned == (name != "hist_edges"), name
    assert c.hist_edges is s.hist_edges
    c.mean[0] += 1.0
    assert c != s


def test_merge_with_empty_is_identity():
    x = summarize(np.linspace(0, 1, 9), t_start=0, opts=FULL)
    e = stats.empty(1, t=9)
    m = merge(x, e)
    assert m == stats.merge(x, e)
    assert m.n == x.n and close(m.mean, x.mean) and close(m.variance, x.variance)
    assert m.histogram == x.histogram
    assert m.t_start == 0 and m.t_end == 9
    # empty on the left, too
    e0 = stats.empty(1, t=0)
    x1 = summarize(np.linspace(0, 1, 9), t_start=0, opts=FULL)
    m2 = merge(e0, x1)
    assert m2.n == x1.n and close(m2.mean, x1.mean)


def test_mergeability_on_random_splits():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        d = int(rng.integers(1, 4))
        raw = rng.normal(size=(n, d))
        opts = StatisticSet(
            covariance=True,
            hull=(d == 2),
            histogram_edges=tuple(np.linspace(-4, 4, 9)),
            swv=True,
        )
        cut = int(rng.integers(1, n))
        whole = summarize(raw, opts=opts)
        m = merge(summarize(raw[:cut], opts=opts), summarize(raw[cut:], t_start=cut, opts=opts))
        assert m.n == whole.n
        assert close(m.mean, whole.mean)
        assert close(m.variance, whole.variance)
        assert close(m.min_v, whole.min_v) and close(m.max_v, whole.max_v)
        assert close(m.covariance, whole.covariance)
        assert m.histogram == whole.histogram
        if d == 2:
            assert close(m.hull, whole.hull)


def test_merge_associative_and_commutative_fields():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=60)
    a = summarize(raw[:20], 0)
    b = summarize(raw[20:45], 20)
    c = summarize(raw[45:], 45)
    left = merge(merge(a, b), c)
    right = merge(a, merge(b, c))
    assert close(left.mean, right.mean, rtol=1e-8)
    assert close(left.variance, right.variance, rtol=1e-8)
    # merge is symmetric in its arguments; bounds follow stream order
    ab = merge(a, b)
    ba = merge(b, a)
    assert close(ab.mean, ba.mean) and ab.t_start == ba.t_start == 0


def test_covariance_diagonal_matches_variance():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(100, 3))
    opts = StatisticSet(covariance=True)
    m = merge(summarize(raw[:37], opts=opts), summarize(raw[37:], t_start=37, opts=opts))
    assert close(np.diag(m.covariance), m.variance)


def test_channel_mismatch():
    with pytest.raises(ChannelMismatch):
        merge(summarize(np.zeros((3, 1))), summarize(np.zeros((3, 2)), t_start=3))


def test_merge_wants_adjacent_samples():
    a, b = summarize(np.zeros((3, 1))), summarize(np.ones((3, 1)), t_start=4)
    for x, y in ((a, b), (b, a), (a, summarize(np.ones((3, 1)), t_start=2))):  # a gap either way, an overlap
        with pytest.raises(ValueError, match="not adjacent"):
            merge(x, y)


def test_histogram_mismatch():
    o1 = StatisticSet(histogram_edges=(0.0, 1.0, 2.0))
    o2 = StatisticSet(histogram_edges=(0.0, 2.0, 4.0))
    a = summarize([0.5, 1.5], opts=o1)
    b = summarize([0.5, 1.5], t_start=2, opts=o2)
    with pytest.raises(DictionaryMismatch):
        merge(a, b)


@pytest.mark.parametrize(
    "edges", [(10.0, 7.5, 5.0), (0.0, 0.0, 0.0), (0.0,), (), (0.0, np.inf), (np.nan, 1.0), (0.0, 1.0, 1.0, 2.0)]
)
def test_histogram_edges_are_checked_where_they_enter(edges):
    with pytest.raises(ValueError, match="histogram edges"):
        StatisticSet(histogram_edges=edges)


def test_histogram_counts_sum_to_n():
    opts = StatisticSet(histogram_edges=(0.0, 1.0, 2.0))
    s = summarize([0.5, 1.5, 5.0, -3.0], opts=opts)  # two in range, two outliers
    assert sum(s.histogram) == s.n
    assert s.histogram == (1, 1, 2) and s.histogram[stats.OUTLIER_BIN] == 2


# The per-sample histogram (one count per bin, then the count of rows outside
# the edges at OUTLIER_BIN) is the store's one dictionary of values: counts
# add bin by bin, and a merge over different bin edges raises DictionaryMismatch.
EDGES = StatisticSet(histogram_edges=(0.0, 1.0, 2.0, 3.0))


def test_histogram_merge_identity_and_doubling():
    block = [0.2, 0.5, 0.8, 1.5]
    h = summarize(block, t_start=0, opts=EDGES)
    assert h.histogram == (3, 1, 0, 0)
    m = merge(h, stats.empty(1, t=4))
    assert m.histogram == (3, 1, 0, 0) and m.histogram[OUTLIER_BIN] == 0
    m2 = merge(h, summarize(block, t_start=4, opts=EDGES))
    assert m2.histogram == (6, 2, 0, 0)
    assert (m2.t_start, m2.t_end) == (0, 8)
    assert np.array_equal(m2.hist_edges, h.hist_edges)


def test_histogram_merge_requires_same_dictionary():
    h1 = summarize([0.5], t_start=0, opts=EDGES)
    h2 = summarize([0.5], t_start=1, opts=StatisticSet(histogram_edges=(0.0, 2.0, 4.0)))
    with pytest.raises(DictionaryMismatch):
        merge(h1, h2)
    # same edges, disjoint bins: the merged histogram counts both
    m = merge(h1, summarize([1.5], t_start=1, opts=EDGES))
    assert m.histogram == (1, 1, 0, 0)


def test_intersection_semantics_notes_drop():
    a = summarize(np.random.default_rng(0).normal(size=10), 0, opts=StatisticSet(covariance=True))
    b = summarize(np.random.default_rng(1).normal(size=10), 10)  # no covariance
    m = merge(a, b)
    assert m.covariance is None
    assert m.variance is not None  # statistics both sides have survive
    assert not hasattr(m, "notes")  # provenance lives on the record, not the sample


# -- hulls -------------------------------------------------------------------

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_hull_idempotent_on_square():
    h = merge_hull(SQUARE, SQUARE)
    assert h.shape == (4, 2)
    assert {tuple(p) for p in h} == {tuple(p) for p in SQUARE}


def test_hull_two_triangles_matches_brute_force():
    t1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    t2 = np.array([[3.0, 0.0], [4.0, 0.0], [3.5, 1.0]])
    h = merge_hull(t1, t2)
    brute = stats.convex_hull(np.vstack([t1, t2]))
    assert {tuple(p) for p in h} == {tuple(p) for p in brute}


def test_hull_degenerate_points():
    h = merge_hull(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    assert h.shape == (2, 2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the moments
def test_hull_is_kept_over_finite_rows_only():
    opts = StatisticSet(hull=True)
    clean = summarize(SQUARE, opts=opts)
    for bad in (np.inf, -np.inf, np.nan):
        row = [0.5, bad]
        assert stats.convex_hull(np.vstack([SQUARE, row])) is None
        assert summarize(np.vstack([SQUARE, row]), opts=opts).hull is None
        lone = stats.point_sample(row, 4, opts)
        assert lone.hull is None
        assert merge(clean, lone).hull is None
    assert stats.point_sample([0.5, 2.0], 4, opts).hull.shape == (1, 2)


def test_hull_contains_all_inputs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts1 = rng.normal(size=(12, 2))
        pts2 = rng.normal(size=(12, 2)) + 0.5
        h = merge_hull(stats.convex_hull(pts1), stats.convex_hull(pts2))
        for p in np.vstack([pts1, pts2]):
            assert stats.hull_contains(h, p, margin=1e-9)


def test_hull_contains_on_degenerate_hulls_and_merge_with_an_empty_side():
    none = np.zeros((0, 2))
    assert not stats.hull_contains(none, [0.0, 0.0]) and not stats.hull_contains(none, [0.0, 0.0], margin=1.0)
    vertex = np.array([[1.0, 2.0]])
    assert stats.hull_contains(vertex, [1.0, 2.0])
    assert not stats.hull_contains(vertex, [1.0, 2.0 + 1e-6])
    assert stats.hull_contains(vertex, [1.0 - 1e-6, 2.0 + 1e-6], margin=1e-5)
    segment = np.array([[0.0, 0.0], [2.0, 2.0]])
    for inside in ([0.0, 0.0], [1.0, 1.0], [2.0, 2.0]):
        assert stats.hull_contains(segment, inside)
    for outside in ([1.0, 1.0 + 1e-6], [2.0 + 1e-6, 2.0 + 1e-6], [-1e-6, -1e-6]):
        assert not stats.hull_contains(segment, outside)
        assert stats.hull_contains(segment, outside, margin=1e-5)
    assert not stats.hull_contains(segment, [1.0, 1.5], margin=1e-5)
    assert merge_hull(none, none).shape == (0, 2)
    for side in (SQUARE, np.vstack([SQUARE, [0.5, 0.5]])):
        assert np.array_equal(merge_hull(none, side), stats.convex_hull(SQUARE))
        assert np.array_equal(merge_hull(side, none), stats.convex_hull(SQUARE))


def test_sample_hull_contains_mean():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(50, 2))
    s = summarize(raw, opts=StatisticSet(hull=True))
    assert stats.hull_contains(s.hull, s.mean, margin=1e-9)


def test_no_median_field():
    assert not hasattr(summarize([1.0, 2.0]), "median")


def test_hist_bins_matches_point_sample_and_np_histogram():
    edges = np.linspace(-1.0, 1.0, 5)
    x = np.array([-2.0, -1.0, -0.75, -0.5, 0.0, 0.3, 0.5, 1.0, 1.5, np.nan, np.inf, -np.inf])
    opts = StatisticSet(histogram_edges=tuple(edges))
    bins = stats.hist_bins(edges, x)
    assert bins.tolist() == [-1, 0, 0, 1, 2, 2, 3, 3, -1, -1, -1, -1]  # the last bin is closed on the right
    one_hot = np.eye(len(edges), dtype=np.int64)[bins]  # OUTLIER_BIN selects the last row
    assert list(map(tuple, one_hot.tolist())) == [stats.point_sample([v], 0, opts).histogram for v in x]
    in_range = bins[bins != stats.OUTLIER_BIN]
    assert np.bincount(in_range, minlength=4).tolist() == np.histogram(x[~np.isnan(x)], bins=edges)[0].tolist()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the lone inf row's deviation
def test_merge_runs_reduces_into_the_spans_it_is_given():
    raw = np.random.default_rng(12).normal(size=(14, 2))
    raw[11], raw[12] = (np.inf, 0.0), (np.nan, 1.0)
    s0, s1, kept, s3 = (summarize(raw[a:b], a, FULL2D) for a, b in ((0, 4), (4, 6), (6, 8), (8, 10)))
    s1.variance = None  # a statistic a source lacks is None on its span only
    s3.histogram = s3.hist_edges = None
    rows = raw[10:]
    bounds = [(0, 6), (8, 11), (11, 12), (12, 13), (13, 14)]  # the kept sample [6, 8) is no source
    out = stats.merge_runs(stats.stack([s0, s1, s3], 2), rows, 10, [Span(a, b) for a, b in bounds], (), FULL2D).samples
    assert [(s.t_start, s.t_end, s.n) for s in out] == [(a, b, b - a) for a, b in bounds]
    assert out[0] == merge(s0, s1)  # a two-source span is bitwise merge's
    assert out[0].variance is None and out[0].histogram is not None
    assert out[1] == merge(s3, stats.point_sample(rows[0], 10, FULL2D))
    assert out[1].variance is not None and out[1].histogram is None
    for s, t in zip(out[2:], range(11, 14)):  # a lone row, inf and NaN too, is its point sample, with zero moments
        assert s == stats.point_sample(raw[t], t, FULL2D)
        assert not s.variance.any() and not s.covariance.any()
    assert out[2].hull is None and out[3].hull is None and out[4].hull is not None

    finite = raw[:10]
    parts = [summarize(finite[a:b], a, FULL) for a, b in ((0, 4), (4, 6), (6, 8), (8, 10))]
    whole = stats.merge_runs(stats.stack(parts, 2), np.empty((0, 2)), 10, [Span(0, 10)], (), FULL)  # as aggregate()
    (whole,) = whole.samples
    assert_same_sample(whole, summarize(finite, 0, FULL), float(np.abs(finite).max()), BLOCK_RTOL)

    # each lost statistic is None on its own span only: covariance, SWV, one extremum, then none
    every = StatisticSet(covariance=True, hull=True, histogram_edges=FULL2D.histogram_edges, swv=True)
    raw = np.random.default_rng(13).normal(size=(16, 2))
    pairs = [[summarize(raw[a : a + 2], a, every) for a in (t, t + 2)] for t in range(0, 16, 4)]
    pairs[0][1].covariance = None
    pairs[1][0].swv = None
    pairs[2][1].max_v = None
    sources = [s for pair in pairs for s in pair]
    spans, splits = [Span(t, t + 4) for t in range(0, 16, 4)], [(t, t + 2, t + 4) for t in range(0, 16, 4)]
    out = stats.merge_runs(stats.stack(sources, 2), np.empty((0, 2)), 16, spans, splits, every).samples
    fields = ("variance", "min_v", "max_v", "covariance", "hull", "histogram", "swv")
    lost = [[name for name in fields if getattr(s, name) is None] for s in out]
    assert lost == [["covariance"], ["swv"], ["max_v"], []]
    for s, (a, b) in zip(out, pairs):
        assert_same_sample(s, merge(a, b), float(np.abs(raw).max()), BLOCK_RTOL)
