"""Property tests: random channels, budgets, statistics, rules and stream lengths."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfstore import container, spectrum, stats
from gfstore.curation import CurationRules
from gfstore.record import SummaryRecord

#: Relative tolerance of merged moments against ``summarize`` of the raw rows.
MOMENT_RTOL = 2.0**-30

WEIGHTS = ("nonstationarity_w",)


@st.composite
def streams(draw):
    """(record fed the rows in chunks, raw rows) for one drawn configuration."""
    d = draw(st.integers(1, 3))
    budget = draw(st.integers(1, 16))
    opts = stats.StatisticSet(
        covariance=draw(st.booleans()),
        hull=d == 2 and draw(st.booleans()),
        histogram_edges=tuple(np.linspace(-3.0, 3.0, 7)) if draw(st.booleans()) else None,
        swv=draw(st.booleans()),
    )
    tuned = draw(st.lists(st.sampled_from(WEIGHTS), unique=True, max_size=len(WEIGHTS)))
    rules = CurationRules(budget_slots=budget, **{w: 1.0 for w in tuned})
    n = draw(st.integers(0, 300))
    loc = draw(st.integers(-5, 5))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(loc, scale, size=(n, d))
    chunk = draw(st.integers(1, max(n, 1)))
    rec = SummaryRecord(channels=d, opts=opts, rules=rules)
    for start in range(0, n, chunk):
        rec.ingest_block(raw[start : start + chunk])
    return rec, raw


def planned_histogram_with_outliers():
    """An untuned 300-row block, planned, on a histogram of [-3, 3] that about a third of its rows fall outside."""
    raw = np.random.default_rng(5).normal(0.0, 3.0, size=(300, 1))
    rec = SummaryRecord(budget=8, opts=stats.StatisticSet(histogram_edges=tuple(np.linspace(-3.0, 3.0, 7)), swv=True))
    rec.ingest_block(raw)
    return rec, raw


def moments_close(got, want, scale=0.0) -> bool:
    """Within MOMENT_RTOL of ``want``, or of ``scale`` where ``want`` is near zero."""
    return np.allclose(got, want, rtol=MOMENT_RTOL, atol=MOMENT_RTOL * scale)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(streams())
@example(planned_histogram_with_outliers())
def test_record_invariants_round_trip_and_aggregate(case):
    rec, raw = case
    rec.validate()
    assert rec.slots() <= rec.budget
    if rec.opts.swv:
        assert all(s.swv.shape[0] == spectrum.depth(s.n) for s in rec.samples_in_time_order())

    blob = container.write(rec)
    back = container.read(blob)
    assert back == rec
    assert container.write(back) == blob

    agg = rec.aggregate()
    whole = stats.summarize(raw, opts=rec.opts)
    assert agg.n == whole.n == raw.shape[0]
    assert np.array_equal(agg.min_v, whole.min_v) and np.array_equal(agg.max_v, whole.max_v)
    assert agg.histogram == whole.histogram
    assert moments_close(agg.mean, whole.mean, float(np.abs(raw).max(initial=0.0)))
    assert moments_close(agg.variance, whole.variance)
    if rec.opts.covariance and raw.shape[0]:
        assert moments_close(agg.covariance, whole.covariance, float(whole.variance.max()))
    if rec.opts.swv and raw.shape[0]:
        assert moments_close(agg.swv.sum(axis=0), whole.variance)
