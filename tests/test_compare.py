import math

import numpy as np
import pytest

from gfstore import compare, stats
from gfstore.compare import (
    gaussian_model,
    kl_divergence,
    model_from_sample,
    piecewise_model,
    point_model,
    subset_verdict,
    symmetric_merge_score,
    uniform_model,
)
from gfstore.errors import EmptySample
from gfstore.record import SummaryRecord


def density_fn(m):
    """Vectorized density built straight from the one channel's parameters (oracle-side)."""
    ((fam, params),) = m.parts
    if fam == "gaussian":
        mu, s2 = params
        return lambda xs: np.exp(-0.5 * (xs - mu) ** 2 / s2) / np.sqrt(2 * np.pi * s2)
    if fam == "piecewise":
        e = np.array(params[0])
        dens = np.array(params[1]) / np.diff(e)

        def f(xs):
            i = np.clip(np.searchsorted(e, xs, side="right") - 1, 0, len(dens) - 1)
            return np.where((xs >= e[0]) & (xs <= e[-1]), dens[i], 0.0)

        return f
    raise ValueError(f"oracle cannot handle family {fam}")


def support_edges(m):
    ((fam, params),) = m.parts
    return np.array(params[0]) if fam == "piecewise" else None


def numeric_kl(ma, mb, n=100_000):
    """Oracle: piecewise-aware trapezoid quadrature of f log(f/g) over A's support."""
    edges = support_edges(ma)
    if edges is None:
        raise ValueError("oracle needs a bounded A support")
    more = support_edges(mb)
    if more is not None:
        edges = np.unique(np.concatenate([edges, more]))
        edges = edges[(edges >= support_edges(ma)[0]) & (edges <= support_edges(ma)[-1])]
    fa, fb = density_fn(ma), density_fn(mb)
    total = 0.0
    per_piece = max(64, n // max(1, len(edges) - 1))
    for x0, x1 in zip(edges[:-1], edges[1:]):
        if x1 <= x0:
            continue
        inset = 1e-12 * (x1 - x0)  # keep endpoints inside this smooth piece
        xs = np.linspace(x0 + inset, x1 - inset, per_piece)
        f = fa(xs)
        g = fb(xs)
        y = np.zeros_like(xs)
        mask = f > 0
        if np.any(mask & (g <= 0)):
            return math.inf
        y[mask] = f[mask] * np.log(f[mask] / g[mask])
        total += np.trapezoid(y, xs)
    return total


def test_identical_uniforms_zero():
    u = uniform_model([0.0], [1.0])
    assert kl_divergence(u, u) == 0.0


def test_uniform_in_uniform_closed_form():
    a = uniform_model([0.0], [1.0])
    b = uniform_model([0.0], [2.0])
    assert abs(kl_divergence(a, b) - math.log(2)) < 1e-12
    assert kl_divergence(b, a) == math.inf


def test_gaussian_closed_form():
    a = gaussian_model([0.0], [1.0])
    b = gaussian_model([1.0], [1.0])
    assert abs(kl_divergence(a, b) - 0.5) < 1e-12
    c = gaussian_model([0.0], [4.0])
    expected = 0.5 * ((1.0 + 0.0) / 4.0 - 1.0 + math.log(4.0))
    assert abs(kl_divergence(a, c) - expected) < 1e-12


def test_closed_forms_match_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(60):
        kind = rng.integers(0, 3)
        lo = float(rng.uniform(-2, 0))
        hi = lo + float(rng.uniform(0.5, 3))
        if kind == 0:
            ma = uniform_model([lo], [hi])
        else:
            edges = np.sort(rng.uniform(lo, hi, size=4))
            edges[0], edges[-1] = lo, hi
            if np.any(np.diff(edges) <= 1e-3):
                continue
            ma = piecewise_model(edges, rng.uniform(0.2, 1.0, size=3))
        which = rng.integers(0, 3)
        if which == 0:
            mb = uniform_model([lo - 0.5], [hi + 0.5])
        elif which == 1:
            mb = gaussian_model([rng.uniform(-1, 1)], [rng.uniform(0.5, 2.0)])
        else:
            edges = np.linspace(lo - 0.5, hi + 0.5, 6)
            mb = piecewise_model(edges, rng.uniform(0.2, 1.0, size=5))
        closed = kl_divergence(ma, mb)
        assert closed >= 0.0
        assert abs(closed - numeric_kl(ma, mb)) < 1e-6


def test_gaussian_vs_bounded_is_infinite():
    g = gaussian_model([0.0], [1.0])
    u = uniform_model([-10.0], [10.0])
    assert kl_divergence(g, u) == math.inf
    p = piecewise_model([0.0, 1.0, 2.0], [0.5, 0.5])
    assert kl_divergence(g, p) == math.inf


def test_point_mass_rules():
    pt = point_model([0.5])
    assert kl_divergence(pt, uniform_model([0.0], [1.0])) == 0.0
    assert kl_divergence(pt, uniform_model([1.0], [2.0])) == math.inf
    assert kl_divergence(pt, gaussian_model([3.0], [1.0])) == 0.0
    assert kl_divergence(uniform_model([0.0], [1.0]), pt) == math.inf
    assert kl_divergence(pt, point_model([0.5])) == 0.0


def test_piecewise_zero_bin_smoothing_vs_true_mismatch():
    a = piecewise_model([0.0, 1.0], [1.0])
    # empty bin inside B's declared support: smoothed, finite but large
    b = piecewise_model([0.0, 0.5, 1.0], [1.0, 0.0])
    assert math.isfinite(kl_divergence(a, b))
    # support truly ends before A's: genuinely infinite
    c = piecewise_model([0.0, 0.5], [1.0])
    assert kl_divergence(a, c) == math.inf


def test_model_from_sample_defaults():
    s = stats.summarize([0.0, 2.0])
    s.variance = None
    m = model_from_sample(s)
    assert m.parts == [("piecewise", ([0.0, 2.0], [1.0]))]  # the uniform on the extrema

    g = model_from_sample(stats.summarize(np.random.default_rng(0).normal(size=50)))
    assert g.parts[0][0] == "gaussian"

    opts = stats.StatisticSet(histogram_edges=(0.0, 1.0, 2.0))
    h = stats.summarize([0.5, 0.5, 0.5, 1.5], opts=opts)
    p = model_from_sample(h)
    assert p.parts[0][0] == "piecewise"
    assert np.allclose(p.parts[0][1][1], [0.75, 0.25])

    # no in-range count: the histogram falls through to the next statistic
    out = stats.summarize([5.0, 7.0], opts=opts)
    assert model_from_sample(out).parts[0][0] == "gaussian"
    out.variance = None
    assert model_from_sample(out).parts == [("piecewise", ([5.0, 7.0], [1.0]))]
    out.min_v = out.max_v = None
    assert model_from_sample(out).parts == [("point", 6.0)]


def test_model_from_empty_sample():
    with pytest.raises(EmptySample):
        model_from_sample(stats.empty(1))


def test_family_hint_and_override():
    # the family follows from the statistics alone; samples carry no hint
    s = stats.summarize([0.0, 1.0, 2.0])
    assert not hasattr(s, "family_hint")
    assert not hasattr(stats.StatisticSet(), "family_hint")
    assert model_from_sample(s).parts[0][0] == "gaussian"


def test_subset_verdict_equal():
    s = stats.summarize(np.linspace(0, 1, 32))
    v = subset_verdict(s, s)
    assert v.verdict == compare.VERDICT_EQUAL
    assert v.d_ab == 0.0 and v.d_ba == 0.0
    assert "corroborated" in v.note


def test_subset_verdict_uniform_nesting():
    a = stats.summarize([0.0, 1.0])
    b = stats.summarize([0.0, 2.0], t_start=2)
    a.variance = b.variance = None  # extrema only -> uniform models
    v = subset_verdict(a, b, tau=1.0)
    assert v.verdict == compare.VERDICT_SUBSET
    assert abs(v.d_ab - math.log(2)) < 1e-12 and v.d_ba == math.inf
    back = subset_verdict(b, a, tau=1.0)
    assert back.verdict == compare.VERDICT_NOT_SUBSET


def test_subset_verdict_disjoint():
    a = stats.summarize([0.0, 1.0])
    b = stats.summarize([5.0, 6.0], t_start=2)
    a.variance = b.variance = None
    assert subset_verdict(a, b).verdict == compare.VERDICT_NOT_SUBSET
    assert subset_verdict(b, a).verdict == compare.VERDICT_NOT_SUBSET


def test_verdict_monotone_in_tau():
    rng = np.random.default_rng(13)
    order = {
        compare.VERDICT_NOT_SUBSET: 0,
        compare.VERDICT_DISTINCT: 1,
        compare.VERDICT_SUBSET: 2,
        compare.VERDICT_EQUAL: 3,
    }
    for _ in range(25):
        a = stats.summarize(rng.normal(loc=rng.uniform(-1, 1), size=40))
        b = stats.summarize(rng.normal(loc=rng.uniform(-1, 1), size=40), t_start=40)
        last = None
        for tau in (0.01, 0.1, 1.0, 10.0):
            v = subset_verdict(a, b, tau=tau)
            if last is not None:
                assert order[v.verdict] >= order[last]
            last = v.verdict


def test_symmetric_merge_score():
    s = stats.summarize(np.linspace(0, 1, 16))
    assert symmetric_merge_score(s, s) == 0.0
    a = stats.summarize(np.random.default_rng(0).normal(0, 1, 50))
    b = stats.summarize(np.random.default_rng(1).normal(1, 1, 50), t_start=50)
    assert abs(symmetric_merge_score(a, b) - (kl_divergence(model_from_sample(a), model_from_sample(b)) + kl_divergence(model_from_sample(b), model_from_sample(a)))) < 1e-12


def test_merge_score_overlapping_below_disjoint():
    rng = np.random.default_rng(2)
    overlapping = symmetric_merge_score(
        stats.summarize(rng.normal(0, 1, 100)),
        stats.summarize(rng.normal(0.1, 1, 100), t_start=100),
    )
    disjoint = symmetric_merge_score(
        stats.summarize(rng.normal(0, 0.1, 100)),
        stats.summarize(rng.normal(10, 0.1, 100), t_start=100),
    )
    assert overlapping < disjoint


def test_asymmetry_is_reported():
    a = gaussian_model([0.0], [0.5])
    b = gaussian_model([0.0], [2.0])
    assert kl_divergence(a, b) != kl_divergence(b, a)


def test_uniform_is_the_one_cell_piecewise_density():
    rng = np.random.default_rng(53)
    for _ in range(300):
        lo = float(rng.uniform(-3, 2))
        hi = lo + float(rng.uniform(0.05, 4))
        u = uniform_model([lo], [hi])
        cell = piecewise_model([lo, hi], [1.0])
        e = np.sort(rng.uniform(-3, 6, size=4))
        refs = [
            point_model([rng.uniform(-3, 6)]),
            gaussian_model([rng.uniform(-3, 3)], [rng.uniform(0.05, 4)]),
            uniform_model([lo - rng.uniform(0, 1)], [lo + rng.uniform(0.05, 5)]),
            piecewise_model(e, rng.uniform(0, 1, size=3) + [0.1, 0.0, 0.0]),
        ]
        for ref in refs:
            assert kl_divergence(u, ref).hex() == kl_divergence(cell, ref).hex()
            assert kl_divergence(ref, u).hex() == kl_divergence(ref, cell).hex()
        for x in (lo, hi, rng.uniform(lo - 1, hi + 1)):
            assert compare.pdf(u, x).hex() == compare.pdf(cell, x).hex()


def test_uniform_without_a_finite_width_has_no_density():
    # extrema of a stream with an inf or NaN row
    spread = [gaussian_model([0.0], [1.0]), uniform_model([0.0], [1.0]), piecewise_model([0.0, 1.0, 2.0], [0.5, 0.5])]
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)):
        u = uniform_model([lo], [hi])
        assert kl_divergence(u, u) == math.inf
        assert kl_divergence(point_model([0.5]), u) == math.inf
        for m in spread:
            assert kl_divergence(u, m) == kl_divergence(m, u) == math.inf
            assert compare.symmetric_kl(u, m) == 2 * compare.KL_CAP
        assert compare.pdf(u, 0.5) == 0.0


def test_a_nan_divergence_scores_the_cap_and_nan_edges_are_refused():
    nan_variance = gaussian_model([0.0], [math.nan])  # a sample that covers an inf row
    spread = [gaussian_model([0.0], [1.0]), uniform_model([0.0], [1.0]), piecewise_model([0.0, 1.0, 2.0], [0.5, 0.5])]
    for m in (nan_variance, *spread):  # a gaussian without a finite variance has no density: inf, never NaN
        assert kl_divergence(nan_variance, m) == kl_divergence(m, nan_variance) == math.inf
        assert compare.symmetric_kl(nan_variance, m) == 2 * compare.KL_CAP
    point = point_model([0.5])  # a gaussian without a finite variance has no density at the point either
    assert kl_divergence(point, nan_variance) == math.inf
    assert compare.symmetric_kl(point, nan_variance) == 2 * compare.KL_CAP
    for edges in ([0.0, math.nan, 2.0], [math.nan, 1.0, 2.0], [0.0, 1.0, math.nan], [0.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            piecewise_model(edges, [0.5, 0.5])


def test_covariance_kl_closed_form_point_rules_and_non_finite_entries():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([[1.0, -0.2], [-0.2, 3.0]])
    want = 0.5 * (np.trace(np.linalg.inv(b) @ a) - 2 + math.log(np.linalg.det(b) / np.linalg.det(a)))
    assert abs(compare.covariance_kl(a, b) - want) < 1e-9
    assert compare.covariance_kl(a, a) < 1e-12
    point = np.zeros((2, 2))  # all rows equal: the point mass at the mean
    assert compare.covariance_kl(point, b) == compare.covariance_kl(point, point) == 0.0
    assert compare.covariance_kl(b, point) == math.inf
    # a covariance over an inf row has no density: it matches nothing, itself included
    for bad in ([[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.nan], [math.nan, 1.0]], [[math.inf, 0.0], [0.0, 1.0]]):
        bad = np.array(bad)
        for other in (np.eye(2), point, bad):
            assert compare.covariance_kl(bad, other) == compare.covariance_kl(other, bad) == math.inf
            assert compare.symmetric_kl(bad, other) == 2 * compare.KL_CAP


def test_kl_nonnegative_fuzz():
    rng = np.random.default_rng(47)
    for _ in range(200):
        pick = rng.integers(0, 3, size=2)
        models = []
        for which in pick:
            if which == 0:
                lo = rng.uniform(-2, 0)
                models.append(uniform_model([lo], [lo + rng.uniform(0.1, 3)]))
            elif which == 1:
                models.append(gaussian_model([rng.uniform(-2, 2)], [rng.uniform(0.1, 3)]))
            else:
                e = np.sort(rng.uniform(-2, 2, size=4))
                if np.any(np.diff(e) <= 1e-6):
                    e = np.linspace(-2, 2, 4)
                models.append(piecewise_model(e, rng.uniform(0.1, 1, size=3)))
        assert kl_divergence(models[0], models[1]) >= 0.0


def aggregate_of(rows):
    rec = SummaryRecord(budget=64)
    rec.ingest_block(rows)
    return rec.aggregate()


def test_subset_verdict_on_aggregates_with_infinite_moments_is_inf():
    high, low = aggregate_of([1e155, 1.5e155, 2e155]), aggregate_of([-1e155, -1.5e155, -2e155])
    spread, small = aggregate_of([-1e155, 1e155, 3e154, 0.0]), aggregate_of([1.0, 2.0, 3.0])
    assert not math.isfinite(spread.variance[0])
    for a, b in ((high, low), (spread, small), (small, spread), (spread, spread)):
        v = compare.subset_verdict(a, b)
        assert v.d_ab == v.d_ba == math.inf
        assert v.verdict == compare.VERDICT_NOT_SUBSET
    d = 2e300  # finite moments whose squared difference overflows a float
    assert kl_divergence(gaussian_model([d], [1.0]), gaussian_model([-d], [1.0])) == math.inf
    assert kl_divergence(gaussian_model([0.0], [1e300]), gaussian_model([0.0], [1e-300])) == math.inf
    assert kl_divergence(piecewise_model([d, 2 * d], [1.0]), gaussian_model([-d], [1.0])) == math.inf
    for mean, var in ((math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf)):  # a gaussian with no density
        off = gaussian_model([mean], [var])
        for m in (point_model([0.0]), uniform_model([0.0], [1.0]), gaussian_model([0.0], [1.0]), off):
            assert kl_divergence(m, off) == kl_divergence(off, m) == math.inf
