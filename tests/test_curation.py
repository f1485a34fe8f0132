import dataclasses

import numpy as np
import pytest

from gfstore import compare, container, curation, stats
from gfstore.curation import CurationRules, compact, rank_statistics_for_drop, score_merge_candidates
from gfstore.errors import BudgetTooSmall, CannotSatisfyBudget
from gfstore.record import SummaryRecord

OPTS = stats.StatisticSet(histogram_edges=tuple(np.linspace(-2.0, 2.0, 9)), swv=True)


def level(blocks):
    """Consecutive samples of the given raw blocks."""
    samples, t = [], 0
    for raw in blocks:
        samples.append(stats.summarize(raw, t_start=t, opts=OPTS))
        t += len(raw)
    return samples


def first_pick(samples, **weights) -> int:
    return score_merge_candidates(samples, CurationRules(**weights))[0]


rng = np.random.default_rng(0)
NOISE = [rng.normal(0.0, 0.5, size=64) for _ in range(8)]
SMOOTH = np.linspace(-0.5, 0.5, 64)  # slow: little variance at the finest scales
ERRATIC = np.tile([-0.5, 0.5], 32)  # fast: all variance at the finest scale


def test_untuned_picks_the_oldest_pair():
    samples = level([np.full(64, 5.0), *NOISE[1:]])
    assert first_pick(samples) == 0


def test_nonstationarity_merges_similar_pairs_first():
    # pair 0 straddles a shift of the mean; pair 1 is two draws of one regime
    samples = level([np.full(64, 5.0) + NOISE[0], *NOISE[1:]])
    assert first_pick(samples) == 0
    assert first_pick(samples, nonstationarity_w=1.0) == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the variance of [2, inf]
def test_drop_ranking_counts_a_nan_score_as_the_cap():
    samples = [stats.summarize(x) for x in ([0, 1], [2, np.inf], [0.5, 3])]
    assert rank_statistics_for_drop(samples) == [("extrema", 2e9), ("variance", 2e9)]
    # a covariance of two channels over an inf row scores the cap as well
    cov = stats.StatisticSet(covariance=True)
    rows = ([[0, 1], [1, 3]], [[0, np.inf], [1, 2]], [[0.5, 1], [2, 2.5]])
    samples = [stats.summarize(x, 2 * i, cov) for i, x in enumerate(rows)]
    assert rank_statistics_for_drop(samples) == [("covariance", 2e9), ("extrema", 2e9), ("variance", 2e9)]


def test_drop_ranking_scores_scale_wise_variance_by_where_the_variance_sits():
    alike = level(NOISE[:3])
    unlike = level([SMOOTH, ERRATIC, SMOOTH])
    scores = [dict(rank_statistics_for_drop(samples)) for samples in (alike, unlike)]
    assert all(set(s) == {"extrema", "histogram", "swv", "variance"} for s in scores)
    assert 0.0 < scores[0]["swv"] < scores[1]["swv"] < 1e9
    flat = level([np.full(64, 1.0)] * 3)  # every SWV term zero: no model of where the variance sits
    assert curation._single_stat_model(flat[0], "swv") is None
    assert dict(rank_statistics_for_drop(flat))["swv"] == 0.0


def filled(budget=16, rows=100) -> SummaryRecord:
    rec = SummaryRecord(budget=budget)
    rec.ingest_block(np.random.default_rng(4).normal(size=rows))
    return rec


BAD_RULES = {
    "budget-zero": (dict(budget_slots=0), BudgetTooSmall),
    "fractional-budget": (dict(budget_slots=8.5), ValueError),
    "weight-a-string": (dict(nonstationarity_w="1"), ValueError),
    "nan-weight": (dict(nonstationarity_w=float("nan")), ValueError),
    "weight-a-bool": (dict(nonstationarity_w=True), ValueError),
    "max-scalars-a-string": (dict(max_scalars="x"), ValueError),
    "negative-max-scalars": (dict(max_scalars=-3), ValueError),
}


@pytest.mark.parametrize("fields, error", BAD_RULES.values(), ids=BAD_RULES.keys())
def test_malformed_rules_are_refused_by_a_new_record_and_by_compact(fields, error):
    with pytest.raises(error):
        SummaryRecord(rules=CurationRules(**fields))
    rec = filled()
    before = container.write(rec)
    for name, value in fields.items():
        setattr(rec.rules, name, value)
    with pytest.raises(error):
        compact(rec)
    for name, value in dataclasses.asdict(CurationRules(budget_slots=16)).items():
        setattr(rec.rules, name, value)
    assert container.write(rec) == before  # refused before anything changed


def test_compact_is_lazy_within_budget():
    rec = filled()
    before, events = container.write(rec), dict(rec.event_counts)
    assert compact(rec) is rec
    assert container.write(rec) == before  # no event, no change
    rec.rules.max_scalars = rec.scalar_footprint()  # at the bound is within it
    compact(rec)
    assert rec.event_counts == events
    rec.rules.max_scalars = None
    assert container.write(rec) == before


def test_compact_uses_the_rules_and_log_of_the_record():
    rec = filled()
    events = dict(rec.event_counts)
    rec.rules.budget_slots = 8
    compact(rec)
    rec.validate()
    assert rec.slots() <= 8
    changed = {key for key, n in rec.event_counts.items() if n != events.get(key)}
    assert changed and all((op, why) == ("rescale", "compact") for op, _, why in changed)


def test_max_scalars_drops_from_the_oldest_level_first():
    rec = filled()
    top = max(k for k, samples in enumerate(rec.levels) if samples)
    rec.rules.max_scalars = rec.scalar_footprint() - 1  # one drop at the top level suffices
    compact(rec)
    assert rec.scalar_footprint() <= rec.rules.max_scalars
    drops = {key: n for key, n in rec.event_counts.items() if key[0] == "drop_statistic"}
    assert len(drops) == 1
    ((_, lvl, name), n), = drops.items()
    assert (lvl, n) == (top, 1)
    assert name in ("variance", "extrema")
    for k, samples in enumerate(rec.levels):
        for s in samples:
            kept = s.variance is not None and s.min_v is not None and s.max_v is not None
            assert kept == (k != top)


def test_compact_raises_when_count_and_mean_alone_exceed_the_scalar_bound():
    rec = filled()
    rec.rules.max_scalars = 4 * rec.slots() - 1  # count + mean are 4 scalars a sample, and always stay
    with pytest.raises(CannotSatisfyBudget, match="nothing left to drop"):
        compact(rec)
    assert all(s.variance is None and s.min_v is None for s in rec.samples_in_time_order())


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


def test_tuned_curation_of_near_limit_rows_scores_the_cap():
    rows = [-1e155, 1e155, 3e154, 0.0, 5e154, -2e154]
    per_row = SummaryRecord(rules=CurationRules(budget_slots=2, nonstationarity_w=1.0))
    for x in rows:
        per_row.ingest(x)
    per_row.validate()
    assert per_row.slots() == 2
    rebalanced = SummaryRecord(budget=64)
    rebalanced.ingest_block(rows[:4])
    rebalanced.rules = CurationRules(budget_slots=1, nonstationarity_w=1.0)
    rebalanced.rebalance()
    rebalanced.validate()
    assert (rebalanced.slots(), rebalanced.aggregate().n) == (1, 4)
    pair = list(per_row.samples_in_time_order())  # both keep an infinite variance
    assert compare.symmetric_merge_score(*pair) == 2 * compare.KL_CAP
    assert score_merge_candidates(pair, per_row.rules) == [0]
