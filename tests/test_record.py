import copy
import gc
import tracemalloc

import numpy as np
import pytest

from gfstore import container, stats
from gfstore.curation import compact
from gfstore.errors import BudgetTooSmall, ChannelMismatch, FutureRange
from gfstore.record import PROVENANCE_RING, SummaryRecord, allocate_budget, recorder_span


def fill(rec, n, rng=None, d=1):
    if rng is None:
        data = np.arange(n * d, dtype=float).reshape(n, d)
    else:
        data = rng.normal(size=(n, d))
    for row in data:
        rec.ingest(row)
    return data


def test_allocate_even_division():
    assert allocate_budget(64, 4) == [16, 16, 16, 16]


def test_allocate_remainder_to_finest():
    assert allocate_budget(10, 3) == [4, 3, 3]


def test_allocate_too_small():
    with pytest.raises(BudgetTooSmall):
        allocate_budget(2, 3)


def test_recorder_span_arithmetic():
    # one level of storage covers 24 h; 9 levels cover more than a year,
    # 45 levels more than 1e10 years, all in exact integer hours
    hours_per_year = 365 * 24
    assert recorder_span(9, 24) == (2**9 - 1) * 24
    assert recorder_span(9, 24) >= hours_per_year
    assert recorder_span(45, 24) > 10**10 * hours_per_year
    assert recorder_span(1, 24) == 24


def test_single_ingest_no_merge():
    rec = SummaryRecord(channels=1, budget=4)
    rec.ingest([1.0])
    assert rec.merge_count == 0
    assert rec.slots() == 1
    assert len(rec.levels[0]) == 1 and rec.levels[0][0].n == 1


def test_laziness_within_budget():
    rec = SummaryRecord(channels=1, budget=64)
    fill(rec, 64)
    assert rec.merge_count == 0
    assert rec.slots() == 64


def test_budget_1000_samples_64_slots():
    rec = SummaryRecord(channels=1, budget=64)
    fill(rec, 1000)
    rec.validate()
    assert rec.slots() <= 64
    top = max(k for k, level in enumerate(rec.levels) if level)
    assert top >= int(np.ceil(np.log2(1000 / 64)))  # = 4


def test_budget_one_collapses_to_single_level_k_sample():
    for k in (3, 4, 6):
        rec = SummaryRecord(channels=1, budget=1)
        raw = fill(rec, 2**k)
        rec.validate()
        occupied = [(lvl, len(s)) for lvl, s in enumerate(rec.levels) if s]
        assert occupied == [(k, 1)]
        s = rec.levels[k][0]
        assert s.n == 2**k
        assert np.allclose(s.mean, raw.mean(axis=0), rtol=1e-9)
        assert np.allclose(s.variance, raw.var(axis=0), rtol=1e-9)


def test_lossless_aggregation_against_raw_oracle():
    rng = np.random.default_rng(101)
    for budget in (1, 3, 8, 31):
        rec = SummaryRecord(
            channels=2,
            budget=budget,
            opts=stats.StatisticSet(covariance=True, swv=True),
        )
        raw = fill(rec, 137, rng, d=2)
        rec.validate()
        agg = rec.aggregate()
        whole = stats.summarize(raw, opts=rec.opts)
        assert agg.n == whole.n
        assert np.allclose(agg.mean, whole.mean, rtol=1e-9)
        assert np.allclose(agg.variance, whole.variance, rtol=1e-9)
        assert np.allclose(agg.min_v, whole.min_v) and np.allclose(agg.max_v, whole.max_v)
        assert np.allclose(agg.covariance, whole.covariance, rtol=1e-9, atol=1e-12)
        assert np.allclose(agg.swv.sum(axis=0), whole.variance, rtol=1e-9)


def test_budget_safety_and_recency_fuzz():
    rng = np.random.default_rng(55)
    for _ in range(60):
        n = int(rng.integers(1, 150))
        budget = int(rng.integers(1, 40))
        rec = SummaryRecord(channels=1, budget=budget)
        for i in range(n):
            rec.ingest([float(rng.normal())])
            assert rec.slots() <= budget
            # recency: walking old -> new, the level never increases
            seen_levels = []
            for k in range(len(rec.levels) - 1, -1, -1):
                seen_levels.extend([k] * len(rec.levels[k]))
            assert all(a >= b for a, b in zip(seen_levels, seen_levels[1:]))
        rec.validate()


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    data = rng.normal(size=200)
    recs = []
    for _ in range(2):
        rec = SummaryRecord(channels=1, budget=16)
        for x in data:
            rec.ingest([x])
        recs.append(rec)
    assert recs[0] == recs[1]


def test_channel_mismatch():
    rec = SummaryRecord(channels=2, budget=4)
    with pytest.raises(ChannelMismatch):
        rec.ingest([1.0])


def test_span_report_empty():
    rec = SummaryRecord(channels=1, budget=4)
    assert rec.span_report() == []


def test_span_report_single_row_after_budget1():
    rec = SummaryRecord(channels=1, budget=1)
    fill(rec, 16)
    rows = rec.span_report()
    assert len(rows) == 1
    assert rows[0].level == 4 and rows[0].count == 1 and rows[0].n_total == 16


def test_span_report_conserves_counts():
    rng = np.random.default_rng(77)
    rec = SummaryRecord(channels=1, budget=10)
    fill(rec, 237, rng)
    rows = rec.span_report()
    assert sum(r.n_total for r in rows) == 237
    # in the default (pure recency) mode every level-k sample covers 2^k raws
    assert sum(r.count * r.scale for r in rows) == 237
    # coverage is contiguous from 0 to now, oldest rows first
    cursor = 0
    for r in rows:
        assert r.t_start == cursor
        cursor = r.t_end
    assert cursor == 237


def test_query_newest_raw_index():
    rec = SummaryRecord(channels=1, budget=16)
    fill(rec, 40)
    parts = rec.query_interval(39, 40)
    assert len(parts) == 1
    assert parts[0].sample.n == 1 and not parts[0].coarse
    assert parts[0].sample.t_start == 39


def test_query_full_stream_returns_all_stored():
    rec = SummaryRecord(channels=1, budget=16)
    fill(rec, 100)
    parts = rec.query_interval(0, 100)
    assert len(parts) == rec.slots()
    assert not any(p.coarse for p in parts)
    assert parts[0].sample.t_start == 0 and parts[-1].sample.t_end == 100


def test_query_ancient_range_is_coarse():
    rec = SummaryRecord(channels=1, budget=4)
    fill(rec, 64)
    parts = rec.query_interval(0, 1)
    assert len(parts) == 1 and parts[0].coarse
    assert parts[0].sample.n > 1


def test_query_future_raises():
    rec = SummaryRecord(channels=1, budget=4)
    fill(rec, 4)
    with pytest.raises(FutureRange):
        rec.query_interval(0, 5)


def test_newest_datum_not_merged_immediately():
    # with room for two fine slots, an arriving datum never merges with its
    # immediate predecessor
    rec = SummaryRecord(channels=1, budget=8)
    for i in range(200):
        rec.ingest([float(i)])
        assert rec.levels[0], "level 0 should keep the newest datum"
        assert rec.levels[0][-1].n == 1
        assert rec.levels[0][-1].t_end == rec.now


def test_labels_stored():
    rec = SummaryRecord(channels=3, budget=4, labels=("observation", "action", "reward"))
    assert rec.labels == ("observation", "action", "reward")
    with pytest.raises(ChannelMismatch):
        SummaryRecord(channels=2, budget=4, labels=("observation",))


def traced_size(obj) -> int:
    """Bytes tracemalloc sees allocated for a deep copy of ``obj``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        clone = copy.deepcopy(obj)  # noqa: F841 - held until measured
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_memory_and_container_stay_flat_from_1e4_to_1e5_rows():
    # Bound: 10x the rows may cost at most 10% more bytes.  Only the level
    # count grows (log2 of the stream), so the measured growth is ~2%; an
    # unbounded per-merge log would grow both figures about 10x.
    bound = 1.10
    rows = np.random.default_rng(7).normal(size=100_000)
    rec = SummaryRecord(budget=64)
    rec.ingest_block(rows[:10_000])
    small_blob, small_mem = len(container.write(rec)), traced_size(rec)
    rec.ingest_block(rows[10_000:])
    large_blob, large_mem = len(container.write(rec)), traced_size(rec)
    assert large_blob <= bound * small_blob
    assert large_mem <= bound * small_mem
    assert len(rec.provenance) <= PROVENANCE_RING
    rescales = sum(n for (op, _, _), n in rec.event_counts.items() if op == "rescale")
    assert rescales == rec.merge_count == 100_000 - 64


def test_every_event_is_counted_and_the_ring_keeps_the_newest():
    rec = SummaryRecord(budget=1)
    fill(rec, 50)
    rec.rules.max_scalars = 4  # count + mean are 4 scalars
    compact(rec)
    ops = {op for op, _, _ in rec.event_counts}
    assert {"create", "rescale", "promote", "drop_statistic"} <= ops
    top = len(rec.levels) - 1
    assert rec.event_counts[("drop_statistic", top, "extrema")] == 1
    assert rec.event_counts[("drop_statistic", top, "variance")] == 1
    assert len(rec.provenance) == PROVENANCE_RING
    assert rec.provenance[-1]["op"] == "drop_statistic"
    total = sum(rec.event_counts.values())
    assert total > PROVENANCE_RING
    assert container.inspect_summary(rec)["provenance_events"] == total


def test_container_stays_flat_under_scalar_bound_and_compaction():
    # Curation drops statistics from old samples, so merges keep meeting
    # samples that lack one; a sample that logged each such merge would grow
    # with the stream.  Bound: 8x the rows may cost at most 10% more bytes.
    rows = np.random.default_rng(7).normal(size=40_000)
    rec = SummaryRecord(budget=16)
    rec.rules.max_scalars = 100
    sizes = {}
    for start in range(0, rows.shape[0], 100):
        rec.ingest_block(rows[start : start + 100])
        compact(rec)
        if rec.now in (5_000, 40_000):
            sizes[rec.now] = len(container.write(rec))
    assert rec.scalar_footprint() <= 100
    assert any(op == "drop_statistic" for op, _, _ in rec.event_counts)
    assert sizes[40_000] <= 1.10 * sizes[5_000]
