import copy
import gc
import tracemalloc

import numpy as np
import pytest

from gfstore import container, spectrum, stats
from gfstore.curation import CurationRules, compact, record_access
from gfstore.errors import BudgetTooSmall, ChannelMismatch, FutureRange, InvariantViolation
from gfstore.record import PROVENANCE_RING, SummaryRecord, allocate_budget, level_quotas, next_step

#: Planned block ingest and ``aggregate()`` sum moments in one k-way pass, a
#: chain of merges pairwise; both stay within this share of the data's scale.
BLOCK_RTOL = 1e-12


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


def test_single_ingest_no_merge():
    rec = SummaryRecord(channels=1, budget=4)
    rec.ingest([1.0])
    assert rec.merge_count == 0
    assert rec.slots() == 1
    assert len(rec.levels[0]) == 1 and rec.levels[0][0].n == 1


def test_budget_beside_rules_must_agree():
    assert SummaryRecord().budget == CurationRules().budget_slots
    assert SummaryRecord(budget=8).budget == 8
    assert SummaryRecord(rules=CurationRules(budget_slots=8)).budget == 8
    assert SummaryRecord(budget=8, rules=CurationRules(budget_slots=8)).budget == 8
    with pytest.raises(ValueError, match="budget 8"):
        SummaryRecord(budget=8, rules=CurationRules(nonstationarity_w=1.0))


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


def test_now_and_merge_count_derive_from_the_samples_and_events():
    rec = SummaryRecord(budget=4)
    assert (rec.now, rec.merge_count) == (0, 0)
    rec.ingest_block(np.arange(10.0))
    assert rec.now == 10 == rec.levels[0][-1].t_end
    assert rec.merge_count == sum(n for (op, _, _), n in rec.event_counts.items() if op == "rescale") == 6
    with pytest.raises(AttributeError):
        rec.now = 11


def test_validate_wants_samples_that_tile_the_stream_and_cover_a_step_each():
    rec = SummaryRecord(budget=16)
    rec.ingest_block(np.arange(10.0))
    rec.validate()
    rec.levels[0].append(stats.empty(1, rec.now))  # [10, 10)
    with pytest.raises(InvariantViolation, match=r"sample \[10,10\) covers no step"):
        rec.validate()
    rec.levels[0][-1] = stats.point_sample([1.0], 11)
    with pytest.raises(InvariantViolation, match="coverage gap"):
        rec.validate()


def test_validate_wants_one_histogram_count_per_bin_and_the_outliers():
    rec = SummaryRecord(budget=16, opts=stats.StatisticSet(histogram_edges=(0.0, 1.0, 2.0)))
    rec.ingest_block([0.5, 1.5, 9.0])
    rec.validate()
    rec.levels[0][-1].histogram = (0, 1)  # the outlier dropped: it still sums to n
    with pytest.raises(InvariantViolation, match=r"\[2,3\) of n = 1 has histogram \(0, 1\) on 2 bins"):
        rec.validate()


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


@pytest.mark.parametrize("budget", [2, 8, 64])
def test_container_stays_flat_with_scale_wise_variance(budget):
    # Below the level count every quota is zero and the coarsest sample
    # absorbs a few steps per merge; a stack that grew a term per merge
    # would grow with the stream.  Bound: 8x the rows may cost at most 10% more bytes.
    rows = np.random.default_rng(budget).normal(size=32_000)
    rec = SummaryRecord(budget=budget, opts=stats.StatisticSet(swv=True))
    sizes = {}
    for start in range(0, rows.shape[0], 100):
        rec.ingest_block(rows[start : start + 100])
        if rec.now in (4_000, 32_000):
            sizes[rec.now] = len(container.write(rec))
    rec.validate()
    assert sizes[32_000] <= 1.10 * sizes[4_000]


def test_tuned_stacks_stay_within_the_scales_of_the_stream():
    rec = SummaryRecord(opts=stats.StatisticSet(swv=True), rules=CurationRules(budget_slots=8, nonstationarity_w=1.0))
    rows = np.random.default_rng(12).normal(size=2_000)
    for start in range(0, rows.shape[0], 100):
        rec.ingest_block(rows[start : start + 100])
    rec.validate()
    assert max(s.swv.shape[0] for s in rec.samples_in_time_order()) <= spectrum.depth(rec.now)


def test_next_step_policy_on_level_lengths():
    assert level_quotas(8, 3) == (3, 3, 2)
    assert level_quotas(2, 3) == (0, 0, 0)
    assert next_step([4, 3, 1], level_quotas(8, 3)) == (0, False)  # finest level over its quota
    assert next_step([2, 4, 3], level_quotas(8, 3)) == (1, False)  # two fine slots stay unmerged
    assert next_step([2, 1, 0], level_quotas(2, 3)) == (0, False)  # unless no other level can shed
    assert next_step([1, 0, 1, 1], level_quotas(2, 4)) == (2, True)  # the second-coarsest lone sample moves up


def assert_same_record(planned, per_row, scale, rtol=BLOCK_RTOL):
    """``planned`` equals ``per_row`` exactly, but for moments within ``rtol * scale`` (NaN equals NaN)."""
    assert (planned.now, planned.merge_count, planned.slots()) == (
        per_row.now,
        per_row.merge_count,
        per_row.slots(),
    )
    assert planned.event_counts == per_row.event_counts
    assert list(planned.provenance) == list(per_row.provenance)
    assert [len(level) for level in planned.levels] == [len(level) for level in per_row.levels]
    for a, b in zip(planned.samples_in_time_order(), per_row.samples_in_time_order()):
        assert_same_sample(a, b, scale, rtol)


def assert_same_sample(a, b, scale, rtol=BLOCK_RTOL):
    """``a`` equals ``b`` exactly, but for moments and SWV terms within ``rtol`` relative or ``rtol * scale`` (NaN
    equals NaN)."""
    assert (a.t_start, a.t_end, a.n) == (b.t_start, b.t_end, b.n)
    for name in ("min_v", "max_v", "hull", "hist_edges"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None) and (x is None or np.array_equal(x, y, equal_nan=True)), name
    assert a.histogram == b.histogram
    for name in ("mean", "variance", "covariance", "swv"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and np.allclose(x, y, rtol=rtol, atol=rtol * scale, equal_nan=True), name


def test_planned_block_ingest_matches_per_row():
    rich = dict(covariance=True, hull=True, histogram_edges=tuple(np.linspace(-4, 4, 9)))
    # (channels, statistics, weights, moment tolerance): untuned blocks are
    # planned, and sum moments and SWV terms in another order than ingest
    configs = (
        (1, stats.StatisticSet(), {}, BLOCK_RTOL),
        (2, stats.StatisticSet(**rich), {}, BLOCK_RTOL),
        (1, stats.StatisticSet(swv=True), {}, BLOCK_RTOL),
    )
    for d, opts, weights, rtol in configs:
        for budget in (1, 2, 3, 5, 16, 64):
            for block in (1, 7, 500):
                rng = np.random.default_rng(budget * 1_000 + block)
                rows = 3.0 * rng.normal(size=(min(3 * block, 1_000), d)) + 1.0
                scale = float(np.abs(rows).max())
                # a lone inf or NaN row keeps zero moments, and no sample covering it keeps a hull
                rows[-3, -1], rows[-1, -1] = np.inf, np.nan
                planned, per_row = (
                    SummaryRecord(channels=d, opts=opts, rules=CurationRules(budget_slots=budget, **weights))
                    for _ in range(2)
                )
                for i, start in enumerate(range(0, rows.shape[0], block)):
                    planned.ingest_block(rows[start : start + block])
                    for row in rows[start : start + block]:
                        per_row.ingest(row)
                    if i == 0:  # stored samples that later merges absorb lose statistics
                        for rec in (planned, per_row):
                            rec.rules.max_scalars = rec.scalar_footprint() - 1
                            compact(rec)
                            rec.rules.max_scalars = None
                    for rec in (planned, per_row):  # tallied usage changes no curation
                        record_access(rec, list(rec.samples_in_time_order())[::2], "interval")
                    assert_same_record(planned, per_row, scale, rtol)
                planned.validate()
                assert any(op == "drop_statistic" for op, _, _ in planned.event_counts)


def test_every_stored_sample_is_the_summary_of_the_rows_it_covers():
    every = dict(covariance=True, hull=True, histogram_edges=tuple(np.linspace(-2, 8, 6)))
    # (statistics, weights, per row): untuned blocks plan; per-row ingest and
    # tuned blocks build each sample as it is made
    configs = (
        (stats.StatisticSet(**every), {}, False),
        (stats.StatisticSet(**every, swv=True), {}, False),
        (stats.StatisticSet(**every, swv=True), {}, True),
        (stats.StatisticSet(**every, swv=True), {"nonstationarity_w": 1.0}, False),
    )
    rows = 2.0 * np.random.default_rng(17).normal(size=(300, 2)) + 3.0
    scale = float(np.abs(rows).max())
    for opts, weights, per_row in configs:
        for budget in (1, 5, 64):
            rec = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=budget, **weights))
            for start in range(0, rows.shape[0], 60):
                block = rows[start : start + 60]
                for row in block if per_row else (block,):
                    (rec.ingest if per_row else rec.ingest_block)(row)
            assert rec.merge_count > 0
            for s in rec.samples_in_time_order():
                want = stats.summarize(rows[s.t_start : s.t_end], s.t_start, opts)
                assert (s.t_start, s.t_end, s.n, s.histogram) == (want.t_start, want.t_end, want.n, want.histogram)
                for name in ("min_v", "max_v", "hull"):
                    assert np.array_equal(getattr(s, name), getattr(want, name)), name
                assert np.allclose(s.mean, want.mean, rtol=0.0, atol=BLOCK_RTOL * scale)
                for name in ("variance", "covariance"):
                    assert np.allclose(getattr(s, name), getattr(want, name), rtol=0.0, atol=BLOCK_RTOL * scale**2)
                if opts.swv:
                    assert s.swv.shape == want.swv.shape
                    assert np.allclose(s.swv.sum(axis=0), want.variance, rtol=0.0, atol=BLOCK_RTOL * scale**2)


def test_aggregate_is_the_fold_of_merge_over_the_stored_samples():
    rich = dict(covariance=True, hull=True)
    # (channels, statistics, histogram, budget, scalars to drop after ingest)
    configs = (
        (1, {}, False, 64, 0),
        (1, {}, True, 64, 0),
        (2, rich, True, 64, 0),
        (2, rich, True, 16, 40),
        (2, rich, True, 1, 0),
        (1, {"swv": True}, True, 16, 0),
    )
    for d, kw, binned, budget, drop in configs:
        for scale in (1e-3, 1.0, 1e3):
            rng = np.random.default_rng(budget * 10 + d)
            rows = scale * (2.0 * rng.normal(size=(1_000, d)) + 1.0)
            edges = tuple(np.linspace(-3, 3, 7) * scale) if binned else None
            rec = SummaryRecord(channels=d, budget=budget, opts=stats.StatisticSet(histogram_edges=edges, **kw))
            for start in range(0, 1_000, 100):
                rec.ingest_block(rows[start : start + 100])
            if drop:  # the oldest samples lose statistics that the newest keep
                rec.rules.max_scalars = rec.scalar_footprint() - drop
                compact(rec)
            rec.validate()
            samples = list(rec.samples_in_time_order())
            want = stats.merge_all(samples)
            agg = rec.aggregate()
            assert_same_sample(agg, want, float(np.abs(rows).max()))
            if budget == 1:
                assert len(samples) == 1
            if drop:
                names = ("variance", "min_v", "max_v", "covariance", "hull", "histogram")
                lost = [name for name in names if getattr(agg, name) is None]
                assert lost and all(any(getattr(s, name) is not None for s in samples) for name in lost)
    assert SummaryRecord(channels=2).aggregate() == stats.empty(2)


def without_histogram(rec) -> list[tuple[int, int]]:
    return [(s.t_start, s.t_end) for s in rec.samples_in_time_order() if s.histogram is None]


def test_planned_runs_absorb_stored_samples_whose_histogram_was_dropped():
    # one bin holds every row alike, so the histogram is the first statistic dropped
    opts = stats.StatisticSet(histogram_edges=(-50.0, 50.0))
    rows = 3.0 * np.random.default_rng(7).normal(size=(60, 1)) + 1.0
    planned, per_row = (SummaryRecord(budget=5, opts=opts) for _ in range(2))
    for i, start in enumerate(range(0, 60, 20)):
        planned.ingest_block(rows[start : start + 20])
        for row in rows[start : start + 20]:
            per_row.ingest(row)
        if i == 0:
            for rec in (planned, per_row):
                rec.rules.max_scalars = rec.scalar_footprint() - 1
                compact(rec)
                rec.rules.max_scalars = None
            assert without_histogram(planned) == [(0, 8), (8, 16)]
        assert_same_record(planned, per_row, float(np.abs(rows).max()))
    # the next block's run merged both into one sample, which keeps no histogram either
    assert without_histogram(planned) == [(0, 32)]


def test_wrong_channel_block_leaves_the_record_unchanged():
    rec = SummaryRecord(channels=2, budget=4)
    rec.ingest_block(np.ones((40, 2)))
    before = copy.deepcopy(rec)
    for bad in (np.ones((40, 3)), np.ones(40), np.ones((2, 40, 2))):
        with pytest.raises((ChannelMismatch, ValueError)):
            rec.ingest_block(bad)
        assert rec == before


def failing_on_third_merge(monkeypatch):
    """Patch ``stats.merge`` to raise on its third call from now on."""
    merge, calls = stats.merge, []

    def flaky(a, b):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("third merge fails")
        return merge(a, b)

    monkeypatch.setattr(stats, "merge", flaky)


def test_a_failed_ingest_or_rebalance_leaves_the_record_unchanged(monkeypatch):
    opts = stats.StatisticSet(covariance=True, swv=True)
    rec = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=8, nonstationarity_w=1.0))
    rows = np.random.default_rng(3).normal(size=(60, 2))
    rec.ingest_block(rows[:40])
    with monkeypatch.context() as patch:
        before = copy.deepcopy(rec)
        failing_on_third_merge(patch)
        with pytest.raises(RuntimeError, match="third merge"):
            rec.ingest_block(rows[40:])
        assert rec == before
    rec.rules.budget_slots = 4
    with monkeypatch.context() as patch:
        before = copy.deepcopy(rec)
        failing_on_third_merge(patch)
        with pytest.raises(RuntimeError, match="third merge"):
            rec.rebalance()
        assert rec == before
    rec.rebalance()
    rec.validate()


# -- what the record keeps between changes -----------------------------------

KEPT_QUERIES = ([0.0], [0.5], [2.5], [-9.0])
KEPT_OPTS = stats.StatisticSet(histogram_edges=tuple(np.linspace(-3.0, 3.0, 7)), swv=True)


def answers(rec):
    """What a reader of ``rec`` gets: its aggregate and a membership answer per query of ``KEPT_QUERIES``."""
    return rec.aggregate(), [rec.membership(q) for q in KEPT_QUERIES]


def assert_answers_are_current(rec):
    """``rec`` answers as a record read from its own bytes does, which has kept nothing yet."""
    assert answers(rec) == answers(container.read(container.write(rec)))


def kept_record():
    rec = SummaryRecord(opts=KEPT_OPTS, budget=8)
    rec.ingest_block(np.random.default_rng(11).normal(size=60))
    assert_answers_are_current(rec)  # the record keeps its stack and aggregate from here on
    return rec


def drop_by_compact(rec):
    rec.rules.max_scalars = rec.scalar_footprint() - 1
    compact(rec)
    assert any(op == "drop_statistic" for op, _, _ in rec.event_counts)


@pytest.mark.parametrize(
    "change",
    [
        lambda rec: rec.ingest(2.5),
        lambda rec: rec.ingest_block(np.full(5, 0.5)),
        lambda rec: (setattr(rec.rules, "budget_slots", 4), rec.rebalance()),
        drop_by_compact,
    ],
    ids=["ingest", "ingest_block", "rebalance", "compact-drop"],
)
def test_every_writer_forgets_what_the_record_kept(change):
    rec = kept_record()
    before = answers(rec)
    change(rec)
    after = answers(rec)
    assert after != before
    assert_answers_are_current(rec)


def test_assigning_levels_as_container_read_does_forgets_what_the_record_kept(monkeypatch):
    rec = kept_record()
    blob = container.write(rec)
    queried = []

    class QueriedAtBirth(SummaryRecord):
        """A record asked for its answers before ``container.read`` gives it its samples."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            queried.append(answers(self))

    monkeypatch.setattr(container, "SummaryRecord", QueriedAtBirth)
    back = container.read(blob)
    assert queried and queried[0][0].n == 0
    assert answers(back) == answers(rec)
    other = SummaryRecord(opts=KEPT_OPTS, budget=8)
    other.ingest_block(np.arange(30.0))
    back.levels = [level[:] for level in other.levels]
    assert answers(back) == answers(other)


def test_an_edited_aggregate_leaves_the_next_one_unchanged():
    rec = kept_record()
    agg = rec.aggregate()
    agg.mean[0] = 1e9
    agg.variance = None
    agg.swv[0, 0] = -1.0
    assert rec.aggregate() == container.read(container.write(rec)).aggregate()
    assert rec.aggregate() is not rec.aggregate()
