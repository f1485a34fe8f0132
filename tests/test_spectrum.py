import numpy as np
import pytest

from gfstore import spectrum
from gfstore.errors import EmptySeries
from gfstore.spectrum import swv_ladder
from gfstore.stats import StatisticSet, merge, summarize

SWV = StatisticSet(swv=True)


def haar_scale_terms(x):
    """Independent oracle: per-scale terms from block-mean differences.

    The scale-k term is the average over blocks of size 2^k of
    ((left half mean - right half mean) / 2)^2.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    k_max = int(np.log2(n))
    assert 2 ** k_max == n
    terms = []
    means = x.copy()
    for _ in range(k_max):
        left = means[0::2]
        right = means[1::2]
        terms.append(np.mean(((left - right) / 2.0) ** 2))
        means = (left + right) / 2.0
    return np.array(terms)


def pairwise_ladder(x):
    """Reference ladder: one pool_terms call per adjacent pair, odd leftovers carried."""
    rung = [(np.zeros((0, x.shape[1])), row, 1.0) for row in x]
    while len(rung) > 1:
        nxt = []
        for (ta, ma, na), (tb, mb, nb) in zip(rung[0:-1:2], rung[1::2]):
            n = na + nb
            mean = (na * ma + nb * mb) / n
            nxt.append((spectrum.pool_terms(ta, ma, na, tb, mb, nb, mean), mean, n))
        if len(rung) % 2:
            nxt.append(rung[-1])
        rung = nxt
    return rung[0][0]


def test_worked_example_1234():
    terms = swv_ladder([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(terms.ravel(), [0.25, 1.0])
    assert np.allclose(terms.sum(axis=0), [1.25])
    assert np.allclose(terms.sum(axis=0), np.var([1.0, 2.0, 3.0, 4.0]))


def test_parseval_example_1234():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    terms = swv_ladder(x)
    lhs = np.sum(x**2) / 4.0
    rhs = terms.sum() + x.mean() ** 2
    assert np.isclose(lhs, 7.5) and np.isclose(rhs, 7.5)


def test_constant_signal_all_zero():
    assert np.allclose(swv_ladder(np.full(4, 3.7)), 0.0)
    with pytest.raises(EmptySeries):
        swv_ladder([])


def test_matches_haar_oracle_on_random_blocks():
    rng = np.random.default_rng(17)
    for _ in range(40):
        k = int(rng.integers(1, 8))
        x = rng.normal(size=2**k)
        terms = swv_ladder(x)
        assert np.allclose(terms.ravel(), haar_scale_terms(x), rtol=1e-9, atol=1e-12)
        assert np.allclose(terms.sum(axis=0), np.var(x), rtol=1e-9)


def test_terms_nonnegative_and_sum_to_variance_after_merges():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 200))  # arbitrary N, odd leftovers included
        x = rng.normal(size=n)
        terms = swv_ladder(x)
        assert np.all(terms >= 0)
        assert np.allclose(terms.sum(axis=0), np.var(x), rtol=1e-9, atol=1e-12)


def test_ladder_bitwise_equals_pairwise_reference():
    rng = np.random.default_rng(41)
    for n in list(range(1, 40)) + [255, 257, 1000]:
        x = rng.normal(size=(n, 2)) * 10.0
        got, want = swv_ladder(x), pairwise_ladder(x)
        assert got.shape == want.shape == ((n - 1).bit_length(), 2)
        assert np.array_equal(got, want), n


def test_merge_equal_depth():
    a = summarize([1.0, 2.0], opts=SWV)
    b = summarize([3.0, 4.0], t_start=2, opts=SWV)
    m = merge(a, b)
    assert m.swv.shape == (2, 1)
    assert np.allclose(m.swv.ravel(), [0.25, 1.0])


def test_merge_unequal_depth_pads():
    a = summarize([1.0, 2.0, 3.0, 4.0], opts=SWV)
    b = summarize([5.0, 6.0], t_start=4, opts=SWV)
    m = merge(a, b)
    assert m.swv.shape == (3, 1)
    assert np.allclose(m.swv.sum(axis=0), np.var([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), rtol=1e-9)


def test_merge_unequal_counts_preserves_variance_sum():
    rng = np.random.default_rng(29)
    x = rng.normal(size=9)
    m = merge(summarize(x[:6], opts=SWV), summarize(x[6:], t_start=6, opts=SWV))
    assert np.allclose(m.swv.sum(axis=0), np.var(x), rtol=1e-9)
    assert np.all(m.swv >= 0)


def test_dominant_scale_tracks_oscillation_period():
    # a pure oscillation of period 2^p concentrates energy in term p-1
    # (index p - 1 because terms are stored finest-first)
    n = 64
    t = np.arange(n)
    for p in (1, 2, 3):
        x = np.where((t // 2 ** (p - 1)) % 2 == 0, 1.0, -1.0)
        terms = swv_ladder(x)
        assert int(np.argmax(terms[:, 0])) == p - 1
