import dataclasses
import math

import numpy as np
import pytest

from gfstore import compare, container, curation
from gfstore.errors import ChannelMismatch, DictionaryMismatch
from gfstore.index import GAUSSIAN, PIECEWISE, POINT, UNIFORM, build, families, membership, range_count_bounds
from gfstore.record import SummaryRecord
from gfstore.stats import StatisticSet, summarize


def leaves_from(raw, chunk, opts=None):
    out = []
    for i in range(0, len(raw), chunk):
        block = raw[i : i + chunk]
        if len(block):
            out.append(summarize(block, t_start=i, opts=opts))
    return out


def test_single_leaf_root():
    leaf = summarize([1.0, 2.0])
    index = build([leaf], 1)
    assert index.samples[0] is leaf and index.node_count() == 1


def test_an_empty_table_answers():
    for d in (1, 2):
        index = build([], d)
        assert index.node_count() == 0 and index.mean.shape == (0, d)
        res = membership(index, [0.0] * d)
        assert (res.absent_certain, res.candidates, res.nodes_visited) == (True, [], 0)
        assert range_count_bounds(index, [-np.inf] * d, [np.inf] * d) == (0, 0)
        with pytest.raises(ChannelMismatch):
            membership(index, [0.0] * (d + 1))


def test_membership_out_of_bounds_tests_every_sample():
    leaves = leaves_from(np.linspace(0, 1, 64), 8)
    res = membership(build(leaves, 1), [5.0])
    assert res.absent_certain and res.candidates == [] and res.nodes_visited == 8


def test_a_nan_on_either_side_rules_nothing_out():
    leaves = leaves_from(np.linspace(0, 1, 64), 8)
    assert len(membership(build(leaves, 1), [np.nan]).candidates) == 8
    with_nan = summarize([2.0, np.nan], t_start=64)  # its extrema read NaN
    res = membership(build(leaves + [with_nan], 1), [5.0])
    assert [s for s, _ in res.candidates] == [with_nan]


def test_membership_single_candidate():
    # value-disjoint leaves: each chunk of sorted data owns one value range
    raw = np.sort(np.random.default_rng(3).normal(size=64))
    leaves = leaves_from(raw, 8)
    q = raw[20]
    res = membership(build(leaves, 1), [q])
    assert not res.absent_certain
    inside = [s for s, _ in res.candidates]
    oracle = [l for l in leaves if l.min_v[0] <= q <= l.max_v[0]]
    assert {id(s) for s in inside} == {id(l) for l in oracle}


def test_membership_dimension_mismatch():
    index = build([summarize(np.zeros((4, 2)))], 2)
    with pytest.raises(ChannelMismatch):
        membership(index, [1.0])
    with pytest.raises(ChannelMismatch):
        range_count_bounds(index, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_no_false_negatives_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 3))
        raw = rng.normal(size=(int(rng.integers(16, 200)), d))
        opts = StatisticSet(hull=(d == 2))
        leaves = leaves_from(raw, int(rng.integers(4, 32)), opts=opts)
        index = build(leaves, d)
        for _ in range(30):
            q = raw[int(rng.integers(0, raw.shape[0]))]
            assert not membership(index, q).absent_certain


def test_hull_pruning_tightens_2d():
    # a diagonal point cloud: hull excludes box corners
    rng = np.random.default_rng(6)
    t = rng.uniform(0, 1, size=256)
    raw = np.column_stack([t, t + rng.normal(scale=0.01, size=256)])
    with_hull = leaves_from(raw, 16, opts=StatisticSet(hull=True))
    without = leaves_from(raw, 16)
    q = [0.9, 0.1]  # inside every box, far outside every hull
    visited_hull = membership(build(with_hull, 2), q)
    visited_box = membership(build(without, 2), q)
    assert visited_hull.absent_certain
    assert not visited_box.absent_certain  # boxes alone cannot rule it out


def test_no_ingested_row_is_certainly_absent_from_a_hull_record_with_one_row_samples():
    rec = SummaryRecord(channels=2, budget=16, opts=StatisticSet(hull=True))
    raw = np.random.default_rng(8).normal(size=(100, 2)) * [1.0, 1e3]
    rec.ingest_block(raw)
    assert [s.hull.shape for s in rec.levels[0]] == [(1, 2)] * len(rec.levels[0])  # one vertex each
    for t, row in enumerate(raw):
        res = rec.membership(row)
        assert not res.absent_certain
        assert any(s.t_start <= t < s.t_end for s, _ in res.candidates)


def test_an_empty_record_holds_no_value():
    rec = SummaryRecord(channels=2)
    res = rec.membership([0.0, 0.0])
    assert (res.absent_certain, res.candidates, res.nodes_visited) == (True, [], 0)
    assert range_count_bounds(rec.stack(), [-np.inf, -np.inf], [np.inf, np.inf]) == (0, 0)
    with pytest.raises(ChannelMismatch):
        rec.membership([0.0])
    with pytest.raises(ChannelMismatch):
        range_count_bounds(rec.stack(), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_range_count_bounds_trivial_cases():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(128, 1))
    index = build(leaves_from(raw, 8), 1)
    lo, hi = raw.min() - 1, raw.max() + 1
    assert range_count_bounds(index, [lo], [hi]) == (128, 128)
    assert range_count_bounds(index, [hi + 1], [hi + 2]) == (0, 0)


def test_an_inverted_box_is_refused():
    rec = SummaryRecord(budget=2)
    rec.ingest_block(np.arange(40.0))
    for lo, hi in (([30.0], [10.0]), ([np.nan], [10.0]), ([0.0], [np.nan]), ([np.nan], [np.nan])):
        with pytest.raises(ValueError, match="low corner"):
            range_count_bounds(rec.stack(), lo, hi)
    rec2 = SummaryRecord(channels=2, budget=2)
    rec2.ingest_block(np.arange(40.0).reshape(20, 2))
    for lo, hi in (([0.0, 5.0], [40.0, 4.0]), ([np.nan, 0.0], [1.0, 40.0])):  # in one channel only
        with pytest.raises(ValueError, match="low corner"):
            range_count_bounds(rec2.stack(), lo, hi)


def test_range_count_brackets_truth():
    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        raw = rng.normal(size=(200, d))
        index = build(leaves_from(raw, int(rng.integers(5, 40))), d)
        lo = rng.uniform(-1.5, 0, size=d)
        hi = lo + rng.uniform(0.2, 2.0, size=d)
        truth = int(np.sum(np.all((raw >= lo) & (raw <= hi), axis=1)))
        low, up = range_count_bounds(index, lo, hi)
        assert low <= truth <= up


def test_rows_of_samples_that_lost_their_extrema_count_only_in_the_upper_bound():
    raw = np.random.default_rng(10).normal(size=500)
    rec = SummaryRecord(budget=16)
    rec.ingest_block(raw)
    rec.rules.max_scalars = rec.scalar_footprint() - 1
    curation.compact(rec)
    oldest = rec.levels[-1]
    assert all(s.min_v is None and s.max_v is None for s in oldest)  # compact dropped them
    lost = sum(s.n for s in oldest)
    index = rec.stack()
    assert range_count_bounds(index, [raw.min()], [raw.max()]) == (500 - lost, 500)
    assert range_count_bounds(index, [raw.max() + 1], [raw.max() + 2]) == (0, lost)
    assert range_count_bounds(index, [-np.inf], [np.inf]) == (500 - lost, 500)


def test_a_sample_that_keeps_only_its_minimum_rules_out_only_values_below_it():
    raw = np.random.default_rng(16).normal(size=300)
    rec = SummaryRecord(budget=16)
    rec.ingest_block(raw)
    for s in rec.levels[-1]:
        s.max_v = None  # compact drops both extrema, but a container may hold a sample with one
    rec.levels = rec.levels  # the edit reaches the table
    back = container.read(container.write(rec))
    assert all(s.min_v is not None and s.max_v is None for s in back.levels[-1])
    for x in raw:
        assert not back.membership([x]).absent_certain
    assert back.membership([raw.min() - 1.0]).absent_certain  # below every minimum
    index = back.stack()
    rng = np.random.default_rng(17)
    for lo in rng.uniform(-3.0, 2.0, size=50):
        hi = lo + rng.uniform(0.1, 2.0)
        low, up = range_count_bounds(index, [lo], [hi])
        assert low <= int(((raw >= lo) & (raw <= hi)).sum()) <= up
    assert range_count_bounds(index, [raw.min() - 2.0], [raw.min() - 1.0]) == (0, 0)


def record_of(raw, opts=None, compact_to=None):
    """A budget-16 record of ``raw`` in blocks of 10 rows, compacted to ``compact_to`` of its scalars if given."""
    rec = SummaryRecord(channels=raw.shape[1], budget=16, opts=opts)
    for i in range(0, len(raw), 10):
        rec.ingest_block(raw[i : i + 10])
    if compact_to is not None:
        rec.rules.max_scalars = int(rec.scalar_footprint() * compact_to)
        curation.compact(rec)
    return list(rec.samples_in_time_order())


def likelihood_cases(scale):
    """(name, leaves, what the index must show) per likelihood family, on data of SD ``scale``."""
    rng = np.random.default_rng(12)
    one, two = rng.normal(size=(200, 1)) * scale, rng.normal(size=(200, 2)) * scale
    edges = tuple((np.linspace(-2.0, 2.0, 9) * scale).tolist())
    hist = StatisticSet(histogram_edges=edges)
    outside = summarize(one[:10] + 10 * scale, t_start=200, opts=hist)  # every row beyond the edges
    flat = [dataclasses.replace(s, variance=None) for s in leaves_from(np.r_[one[:12, 0], [0.5 * scale] * 4], 4)]
    rich = StatisticSet(covariance=True, hull=True, histogram_edges=edges)
    with_outside = leaves_from(one, 10, hist) + [outside]
    return [
        ("d1 default", record_of(one), lambda ix: GAUSSIAN in families(ix) and (ix.variance == 0).any()),
        ("histogram", with_outside, lambda ix: PIECEWISE in families(ix) and families(ix)[-1] == GAUSSIAN),
        ("equal extrema", flat, lambda ix: (families(ix) == UNIFORM).all() and (ix.min_v == ix.max_v).any()),
        ("compacted", record_of(one, compact_to=0.7), lambda ix: {UNIFORM, POINT} <= set(families(ix))),
        ("d2 hull", record_of(two, StatisticSet(hull=True)), lambda ix: all(s.hull is not None for s in ix.samples)),
        ("d2 all", record_of(two, rich), lambda ix: all(s.histogram is not None for s in ix.samples)),
        ("d2 all compacted", record_of(two, rich, compact_to=0.5), lambda ix: {UNIFORM, POINT} <= set(families(ix))),
    ]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_likelihoods_equal_the_reference_models_density_in_ranked_order(scale):
    for name, leaves, shows in likelihood_cases(scale):
        index = build(leaves, leaves[0].channels)
        assert shows(index), name
        d = leaves[0].channels
        at_means = [s.mean for s in leaves] + [np.full(d, 0.5 * scale)]  # every point family, and the flat chunk
        queries = np.vstack(at_means + [np.random.default_rng(13).normal(size=(20, d)) * scale])
        for q in queries:
            res = membership(index, q)
            for s, like in res.candidates:
                assert like == pytest.approx(compare.pdf(compare.model_from_sample(s), q), rel=1e-12, abs=0), name
            ranked = zip(res.candidates, res.candidates[1:])
            assert all(a > b or (a == b and s.t_start < t.t_start) for (s, a), (t, b) in ranked), name


def test_a_nan_likelihood_ranks_after_every_other_in_time_order():
    raw = np.random.default_rng(14).normal(size=200)
    raw[50], raw[120] = np.nan, np.inf
    rec = SummaryRecord(budget=8)
    for i in range(0, 200, 10):  # a RuntimeWarning, from inf - inf in the moments, fails the test
        rec.ingest_block(raw[i : i + 10])
    res = rec.membership([0.1])
    likes = [like for _, like in res.candidates]
    nan = [s.t_start for s, like in res.candidates if math.isnan(like)]
    assert nan == [0] and len(likes) > 2  # the sample holding both rows, [0, 128)
    assert math.isnan(likes[-1]) and likes[:-1] == sorted(likes[:-1], reverse=True)


NEAR_LIMIT = np.array([-1e155, 1e155, 3e154, 0.0])  # their variance overflows to inf


def test_membership_on_data_near_the_float_limit_warns_nothing():
    rec = SummaryRecord(budget=1)
    rec.ingest_block(NEAR_LIMIT)  # a RuntimeWarning fails the test
    res = rec.membership([1e155])
    assert not res.absent_certain and len(res.candidates) == 1


@pytest.mark.parametrize("how", ["per row", "rebalance"])
def test_ingesting_data_near_the_float_limit_warns_nothing(how):
    rec = SummaryRecord(budget=1 if how == "per row" else 4)
    if how == "per row":
        for x in NEAR_LIMIT:  # a RuntimeWarning fails the test
            rec.ingest(x)
    else:
        rec.ingest_block(NEAR_LIMIT)  # four slots: kept verbatim
        rec.rules.budget_slots = 1
        rec.rebalance()
    (s,) = rec.samples_in_time_order()
    assert (s.n, s.min_v[0], s.max_v[0], s.variance[0]) == (4, -1e155, 1e155, np.inf)
    assert rec.aggregate() == s
    assert not rec.membership([1e155]).absent_certain


def test_histograms_on_different_edges_cannot_share_an_index():
    a = summarize([0.5], opts=StatisticSet(histogram_edges=(0.0, 1.0)))
    b = summarize([0.5], t_start=1, opts=StatisticSet(histogram_edges=(0.0, 2.0)))
    with pytest.raises(DictionaryMismatch):
        build([a, b], 1)
