import numpy as np
import pytest

from gfstore import curation
from gfstore.errors import ChannelMismatch, EmptyLeaves
from gfstore.index import build, membership, range_count_bounds
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
    index = build([leaf])
    assert index.leaves[0] is leaf and index.node_count() == 1


def test_empty_leaves_rejected():
    with pytest.raises(EmptyLeaves):
        build([])


def test_membership_out_of_bounds_tests_every_sample():
    leaves = leaves_from(np.linspace(0, 1, 64), 8)
    res = membership(build(leaves), [5.0])
    assert res.absent_certain and res.candidates == [] and res.nodes_visited == 8


def test_a_nan_on_either_side_rules_nothing_out():
    leaves = leaves_from(np.linspace(0, 1, 64), 8)
    assert len(membership(build(leaves), [np.nan]).candidates) == 8
    with_nan = summarize([2.0, np.nan], t_start=64)  # its extrema read NaN
    res = membership(build(leaves + [with_nan]), [5.0])
    assert [s for s, _ in res.candidates] == [with_nan]


def test_membership_single_candidate():
    # value-disjoint leaves: each chunk of sorted data owns one value range
    raw = np.sort(np.random.default_rng(3).normal(size=64))
    leaves = leaves_from(raw, 8)
    q = raw[20]
    res = membership(build(leaves), [q])
    assert not res.absent_certain
    inside = [s for s, _ in res.candidates]
    oracle = [l for l in leaves if l.min_v[0] <= q <= l.max_v[0]]
    assert {id(s) for s in inside} == {id(l) for l in oracle}


def test_membership_dimension_mismatch():
    index = build([summarize(np.zeros((4, 2)))])
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
        index = build(leaves)
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
    visited_hull = membership(build(with_hull), q)
    visited_box = membership(build(without), q)
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


def test_range_count_bounds_trivial_cases():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(128, 1))
    index = build(leaves_from(raw, 8))
    lo, hi = raw.min() - 1, raw.max() + 1
    assert range_count_bounds(index, [lo], [hi]) == (128, 128)
    assert range_count_bounds(index, [hi + 1], [hi + 2]) == (0, 0)


def test_range_count_brackets_truth():
    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        raw = rng.normal(size=(200, d))
        index = build(leaves_from(raw, int(rng.integers(5, 40))))
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
    index = build(rec.samples_in_time_order())
    assert range_count_bounds(index, [raw.min()], [raw.max()]) == (500 - lost, 500)
    assert range_count_bounds(index, [raw.max() + 1], [raw.max() + 2]) == (0, lost)
    assert range_count_bounds(index, [-np.inf], [np.inf]) == (500 - lost, 500)
