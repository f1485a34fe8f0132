import numpy as np
import pytest

from gfstore import stats
from gfstore.errors import DimensionMismatch, EmptyLeaves
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


def test_non_adjacent_leaves_raise():
    leaves = leaves_from(np.arange(12.0), 4)
    with pytest.raises(ValueError, match="not adjacent"):
        build([leaves[0], leaves[2]])


def test_single_leaf_root():
    leaf = summarize([1.0, 2.0])
    root = build([leaf])
    assert root.leaf is leaf and root.children == ()


def test_four_leaves_fanout2():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(32, 1))
    leaves = leaves_from(raw, 8)
    root = build(leaves, fanout=2)
    assert root.height == 2
    assert root.node_count() == 2 * 4 - 1
    agg = root.aggregate
    whole = summarize(raw)
    assert agg.n == whole.n
    assert np.allclose(agg.mean, whole.mean, rtol=1e-9)
    assert np.allclose(agg.variance, whole.variance, rtol=1e-9)


def test_power_of_two_node_count():
    rng = np.random.default_rng(2)
    for n_leaves in (2, 8, 16):
        leaves = leaves_from(rng.normal(size=(n_leaves * 4, 1)), 4)
        root = build(leaves, fanout=2)
        assert root.node_count() == 2 * n_leaves - 1
        assert root.height == int(np.log2(n_leaves))


def test_empty_leaves_rejected():
    with pytest.raises(EmptyLeaves):
        build([])


def test_membership_out_of_bounds_visits_root_only():
    leaves = leaves_from(np.linspace(0, 1, 64), 8)
    root = build(leaves)
    res = membership(root, [5.0])
    assert res.absent_certain and res.nodes_visited == 1


def test_membership_single_candidate():
    # value-disjoint leaves: each chunk of sorted data owns one value range
    raw = np.sort(np.random.default_rng(3).normal(size=64))
    leaves = leaves_from(raw, 8)
    root = build(leaves, fanout=2)
    q = raw[20]
    res = membership(root, [q])
    assert not res.absent_certain
    inside = [s for s, _ in res.candidates]
    oracle = [l for l in leaves if l.min_v[0] <= q <= l.max_v[0]]
    assert {id(s) for s in inside} == {id(l) for l in oracle}


def test_membership_dimension_mismatch():
    root = build([summarize(np.zeros((4, 2)))])
    with pytest.raises(DimensionMismatch):
        membership(root, [1.0])


def test_no_false_negatives_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 3))
        raw = rng.normal(size=(int(rng.integers(16, 200)), d))
        opts = StatisticSet(hull=(d == 2))
        leaves = leaves_from(raw, int(rng.integers(4, 32)), opts=opts)
        root = build(leaves, fanout=int(rng.integers(2, 9)))
        for _ in range(30):
            q = raw[int(rng.integers(0, raw.shape[0]))]
            assert not membership(root, q).absent_certain


def test_pruning_bound_on_sorted_leaves():
    raw = np.sort(np.random.default_rng(5).normal(size=256))
    leaves = leaves_from(raw, 8)
    fanout = 4
    root = build(leaves, fanout=fanout)
    res = membership(root, [raw[100]])
    assert res.nodes_visited <= fanout * root.height + len(res.candidates)


def test_hull_pruning_tightens_2d():
    # a diagonal point cloud: hull excludes box corners
    rng = np.random.default_rng(6)
    t = rng.uniform(0, 1, size=256)
    raw = np.column_stack([t, t + rng.normal(scale=0.01, size=256)])
    with_hull = leaves_from(raw, 16, opts=StatisticSet(hull=True))
    without = leaves_from(raw, 16)
    q = [0.9, 0.1]  # inside every box, far outside every hull
    visited_hull = membership(build(with_hull, 4), q)
    visited_box = membership(build(without, 4), q)
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


def test_aggregate_consistency_after_build():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(96, 2))
    leaves = leaves_from(raw, 8, opts=StatisticSet(covariance=True))
    root = build(leaves, fanout=3)
    whole = summarize(raw, opts=StatisticSet(covariance=True))
    assert np.allclose(root.aggregate.mean, whole.mean, rtol=1e-9)
    assert np.allclose(root.aggregate.covariance, whole.covariance, rtol=1e-9, atol=1e-12)


def test_range_count_bounds_trivial_cases():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(128, 1))
    root = build(leaves_from(raw, 8))
    lo, hi = raw.min() - 1, raw.max() + 1
    assert range_count_bounds(root, [lo], [hi]) == (128, 128)
    assert range_count_bounds(root, [hi + 1], [hi + 2]) == (0, 0)


def test_range_count_brackets_truth():
    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        raw = rng.normal(size=(200, d))
        root = build(leaves_from(raw, int(rng.integers(5, 40))), fanout=4)
        lo = rng.uniform(-1.5, 0, size=d)
        hi = lo + rng.uniform(0.2, 2.0, size=d)
        truth = int(np.sum(np.all((raw >= lo) & (raw <= hi), axis=1)))
        low, up = range_count_bounds(root, lo, hi)
        assert low <= truth <= up
