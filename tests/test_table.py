"""The kept table is the record's state: every writer keeps it equal to the table of the record's samples."""

import copy
import itertools

import numpy as np
import pytest

from gfstore import container, stats
from gfstore.record import SummaryRecord

EDGES = tuple(np.linspace(-3.0, 3.0, 7).tolist())
STATISTICS = {
    "default": lambda d: stats.StatisticSet(),
    "histogram": lambda d: stats.StatisticSet(histogram_edges=EDGES),
    "all": lambda d: stats.StatisticSet(covariance=True, hull=d == 2, histogram_edges=EDGES, swv=True),
}
DROPS = {"none": (), "variance": ("variance",), "variance+extrema": ("variance", "extrema"), "histogram": ("histogram",)}


def assert_same_table(kept: stats.Stack, built: stats.Stack) -> None:
    """Column by column, NaN for NaN, masks included; an optional column that every row lacks may be None."""
    assert np.array_equal(kept.masks, built.masks)
    for name in ("t_start", "t_end", "n", "mean", "variance", "min_v", "max_v"):
        a, b = getattr(kept, name), getattr(built, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    for name in ("covariance", "hull", "hull_at", "histogram", "swv", "swv_at"):
        a, b = getattr(kept, name), getattr(built, name)
        if a is None or b is None:
            lacking = name.removesuffix("_at")
            assert a is b or kept.lacks(lacking).all(), name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    if built.histogram is not None:
        assert np.array_equal(kept.hist_edges, built.hist_edges)


def assert_table_is_the_samples(rec: SummaryRecord) -> None:
    """The kept table equals the table of the record's samples, and writes the bytes a table rebuilt from them does."""
    assert_same_table(rec.stack(), stats.stack(rec.samples_in_time_order(), rec.channels))
    blob = container.write(rec)
    rebuilt = copy.deepcopy(rec)
    rebuilt.levels = rebuilt.levels  # the table is built anew from the samples
    assert container.write(rebuilt) == blob


def recorded(d: int, opts: stats.StatisticSet, drops: tuple, nonfinite: bool, rng) -> SummaryRecord:
    rec = SummaryRecord(channels=d, budget=16, opts=opts)
    raw = rng.normal(size=(300, d))
    if nonfinite:
        raw[17, 0], raw[150, d - 1], raw[151, 0] = np.nan, np.inf, -np.inf
    rec.ingest_block(raw)
    coarsest = max(k for k, level in enumerate(rec.levels) if level)
    for name in drops:  # the coarsest samples keep their rows for long, level 1's are soon merged
        rec.drop_statistic(coarsest, name)
        rec.drop_statistic(1, name)
    return rec


@pytest.mark.parametrize(
    "d, stats_name, drop, nonfinite",
    list(itertools.product((1, 2), STATISTICS, DROPS, (False, True))),
)
def test_every_writer_keeps_the_table_equal_to_its_samples(d, stats_name, drop, nonfinite):
    rng = np.random.default_rng(d * 100 + len(stats_name) * 10 + len(drop) + nonfinite)
    rec = recorded(d, STATISTICS[stats_name](d), DROPS[drop], nonfinite, rng)
    assert_table_is_the_samples(rec)
    rec = container.read(container.write(rec))
    assert_table_is_the_samples(rec)
    with np.errstate(all="ignore"):  # the NaN and inf rows' moments
        for size in (1, 2, 100, 1, 100, 2):
            block = rng.normal(size=(size, d))
            if nonfinite and size > 1:
                block[-1, 0] = np.nan
            rec.ingest_block(block)
            assert_table_is_the_samples(rec)
        rec.rules.budget_slots = 6
        rec.rebalance(reason="budget")
    assert_table_is_the_samples(rec)
    rec.validate()
