"""Histogram merges: bin counts add key by key, and bins must share edges.

The per-sample histogram (bin index -> count, with ``OUTLIER_BIN`` for rows
outside the edges) is the store's one dictionary of values; a merge of
histograms over different bin edges raises ``DictionaryMismatch``.
"""

import numpy as np
import pytest

from gfstore import stats
from gfstore.errors import DictionaryMismatch
from gfstore.stats import OUTLIER_BIN, StatisticSet, merge, summarize

EDGES = StatisticSet(histogram_edges=(0.0, 1.0, 2.0, 3.0))


def test_histogram_merge_identity_and_doubling():
    block = [0.2, 0.5, 0.8, 1.5]
    h = summarize(block, t_start=0, opts=EDGES)
    assert h.histogram == {0: 3, 1: 1}
    m = merge(h, stats.empty(1, t=4))
    assert m.histogram == {0: 3, 1: 1} and OUTLIER_BIN not in m.histogram
    m2 = merge(h, summarize(block, t_start=4, opts=EDGES))
    assert m2.histogram == {0: 6, 1: 2}
    assert (m2.t_start, m2.t_end) == (0, 8)
    assert np.array_equal(m2.hist_edges, h.hist_edges)


def test_histogram_merge_requires_same_dictionary():
    h1 = summarize([0.5], t_start=0, opts=EDGES)
    h2 = summarize([0.5], t_start=1, opts=StatisticSet(histogram_edges=(0.0, 2.0, 4.0)))
    with pytest.raises(DictionaryMismatch):
        merge(h1, h2)
    # same edges, disjoint bins: the merged histogram holds both keys
    m = merge(h1, summarize([1.5], t_start=1, opts=EDGES))
    assert m.histogram == {0: 1, 1: 1}
