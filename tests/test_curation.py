import numpy as np
import pytest

from gfstore import container, stats
from gfstore.curation import AccessLog, CurationRules, compact, rank_statistics_for_drop, score_merge_candidates
from gfstore.record import SummaryRecord

OPTS = stats.StatisticSet(histogram_edges=tuple(np.linspace(-2.0, 2.0, 9)), swv=True)


def level(blocks):
    """Consecutive samples of the given raw blocks, their starts registered in a fresh log."""
    samples, t = [], 0
    log = AccessLog()
    for raw in blocks:
        s = stats.summarize(raw, t_start=t, opts=OPTS)
        log.register(s.t_start)
        samples.append(s)
        t += len(raw)
    return samples, log


def first_pick(samples, log, **weights) -> int:
    return score_merge_candidates(samples, CurationRules(**weights), log)[0].index


rng = np.random.default_rng(0)
NOISE = [rng.normal(0.0, 0.5, size=64) for _ in range(8)]
SMOOTH = np.linspace(-0.5, 0.5, 64)  # slow: little variance at the finest scales
ERRATIC = np.tile([-0.5, 0.5], 32)  # fast: all variance at the finest scale


def test_untuned_picks_the_oldest_pair():
    samples, log = level([np.full(64, 5.0), *NOISE[1:]])
    assert first_pick(samples, log) == 0


def test_nonstationarity_merges_similar_pairs_first():
    # pair 0 straddles a shift of the mean; pair 1 is two draws of one regime
    samples, log = level([np.full(64, 5.0) + NOISE[0], *NOISE[1:]])
    assert first_pick(samples, log) == 0
    assert first_pick(samples, log, nonstationarity_w=1.0) == 1


def test_prior_access_reprieves_used_samples():
    samples, log = level(NOISE)
    log.record([0, 0, 0])
    assert first_pick(samples, log) == 0
    assert first_pick(samples, log, prior_access_w=1.0) == 1


def test_recurrence_reprieves_rows_inside_the_histogram():
    # sample 0 lies inside the bins, sample 2 entirely in the outlier bin
    samples, log = level([NOISE[0] * 0.1, NOISE[1] * 0.1, np.full(64, 9.0), *NOISE[3:]])
    assert first_pick(samples, log) == 0
    assert first_pick(samples, log, recurrence_reprieve_w=1.0) == 1


def test_slowness_merges_erratic_pairs_first():
    samples, log = level([SMOOTH, SMOOTH, ERRATIC, *NOISE[3:]])
    assert first_pick(samples, log) == 0
    assert first_pick(samples, log, slowness_w=1.0) == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the variance of [2, inf]
def test_drop_ranking_counts_a_nan_score_as_the_cap():
    samples = [stats.summarize(x) for x in ([0, 1], [2, np.inf], [0.5, 3])]
    assert rank_statistics_for_drop(samples) == [("extrema", 2e9), ("variance", 2e9)]


def test_drop_ranking_scores_scale_wise_variance_by_where_the_variance_sits():
    alike, _ = level(NOISE[:3])
    unlike, _ = level([SMOOTH, ERRATIC, SMOOTH])
    scores = [dict(rank_statistics_for_drop(samples)) for samples in (alike, unlike)]
    assert all(set(s) == {"extrema", "histogram", "swv", "variance"} for s in scores)
    assert 0.0 < scores[0]["swv"] < scores[1]["swv"] < 1e9


def filled(budget=16, rows=100) -> SummaryRecord:
    rec = SummaryRecord(budget=budget)
    rec.ingest_block(np.random.default_rng(4).normal(size=rows))
    return rec


def test_compact_is_lazy_within_budget():
    rec = filled()
    before = container.write(rec)
    assert compact(rec) is rec
    assert rec.access_log.tick == 0
    assert container.write(rec) == before  # no event, no tick, no change
    rec.rules.max_scalars = rec.scalar_footprint()  # at the bound is within it
    compact(rec)
    assert rec.access_log.tick == 0
    assert not any(op == "drop_statistic" for op, _, _ in rec.event_counts)


def test_compact_uses_the_rules_and_log_of_the_record():
    rec = filled()
    rec.rules.budget_slots = 8
    compact(rec)
    rec.validate()
    assert rec.slots() <= 8
    assert rec.access_log.tick == 1
    assert sum(n for (op, _, why), n in rec.event_counts.items() if (op, why) == ("rescale", "compact")) > 0


def test_max_scalars_drops_from_the_oldest_level_first():
    rec = filled()
    top = max(k for k, samples in enumerate(rec.levels) if samples)
    rec.rules.max_scalars = rec.scalar_footprint() - 1  # one drop at the top level suffices
    compact(rec)
    assert rec.scalar_footprint() <= rec.rules.max_scalars
    assert rec.access_log.tick == 1
    drops = {key: n for key, n in rec.event_counts.items() if key[0] == "drop_statistic"}
    assert len(drops) == 1
    ((_, lvl, name), n), = drops.items()
    assert (lvl, n) == (top, 1)
    assert name in ("variance", "extrema")
    for k, samples in enumerate(rec.levels):
        for s in samples:
            kept = s.variance is not None and s.min_v is not None and s.max_v is not None
            assert kept == (k != top)


def test_compact_drops_statistics_that_only_some_samples_of_a_level_keep():
    """A stripped sample beside one that keeps its statistics leaves them droppable."""
    opts = stats.StatisticSet(covariance=True, hull=True, histogram_edges=tuple(np.linspace(-2, 2, 6)))
    rec = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=2, max_scalars=14))
    for row in np.random.default_rng(0).normal(size=(40, 2)):
        rec.ingest(row)
        compact(rec)
        rec.validate()
        assert rec.scalar_footprint() <= 14
    assert any(op == "drop_statistic" for op, _, _ in rec.event_counts)
