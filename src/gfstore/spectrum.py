"""Scale-wise variance: a mergeable log-frequency power decomposition.

An interval's population variance is split into one non-negative term per
binary scale, stored as a ``(depth, channels)`` array.  Term 0 (finest)
carries the energy of the most rapid fluctuations, the last term the
slowest.  The terms sum to the interval variance exactly, and the
decomposition merges: combining two adjacent intervals averages the
existing terms (cardinality-weighted) and adds the spread of the two
interval means to the union's scale, so n rows keep :func:`depth` (n) terms.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySeries


def _pad_depth(terms: np.ndarray, depth: int) -> np.ndarray:
    """Append zero coarse terms (axis -2) up to ``depth``."""
    missing = depth - terms.shape[-2]
    if missing == 0:
        return terms
    zeros = np.zeros(terms.shape[:-2] + (missing, terms.shape[-1]))
    return np.concatenate([terms, zeros], axis=-2)


def depth(n: int) -> int:
    """Terms of an interval of ``n`` >= 1 rows: ⌈log2 n⌉, one per binary scale up to the interval's own."""
    return (n - 1).bit_length()


def depths(n: np.ndarray) -> np.ndarray:
    """:func:`depth` of each count of an integer array, exactly (0 for a count below 1)."""
    x = np.maximum(np.asarray(n, dtype=np.int64) - 1, 0).astype(np.uint64)
    e = np.frexp(x.astype(np.float64))[1]  # the bit length of x, or one more where the float rounded x up to 2^e
    return e - ((x > 0) & (x < np.left_shift(np.uint64(1), np.maximum(e - 1, 0).astype(np.uint64))))


def pool_terms(terms_a, mean_a, n_a, terms_b, mean_b, n_b, merged_mean):
    """Merge two term stacks into the ``depth(n_a + n_b)`` terms of the union.

    Both stacks are padded with zero coarse terms and averaged by count, and
    the spread of the two means is added to the last term, the union's
    scale.  The sum of the output terms equals the pooled population
    variance of the union whenever each input satisfies the same identity.

    Takes one pair (terms ``(depth, channels)``, means ``(channels,)``,
    scalar counts) or a batch of m pairs (terms ``(m, depth, channels)``,
    means ``(m, channels)``, counts ``(m,)``) whose unions share one depth.
    Counts must be positive.
    """
    n = n_a + n_b
    top = depth(int(n.max() if isinstance(n, np.ndarray) else n)) - 1  # the union's scale
    terms_a, terms_b = _pad_depth(terms_a, top + 1), _pad_depth(terms_b, top + 1)
    # transposed views put the batch axis last, where the counts broadcast
    pooled = (n_a * terms_a.T + n_b * terms_b.T) / n
    pooled[:, top] += (n_a * (mean_a - merged_mean).T ** 2 + n_b * (mean_b - merged_mean).T ** 2) / n
    return pooled.T


def swv_ladder(raw) -> np.ndarray:
    """Build the ``(depth, channels)`` terms of a raw block by pairwise merging.

    Each round merges adjacent pairs with one batched :func:`pool_terms`
    call.  Accepts any N >= 1: an odd leftover is carried to the next round
    and merged with padding, exactly like the record does.
    """
    x = np.asarray(raw, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if x.shape[0] == 0:
        raise EmptySeries("cannot decompose an empty block")
    terms = np.zeros((x.shape[0], 0, x.shape[1]))
    mean = x
    n = np.ones(x.shape[0])
    while n.shape[0] > 1:
        paired = n.shape[0] - n.shape[0] % 2
        a, b = slice(0, paired, 2), slice(1, paired, 2)
        n_ab = n[a] + n[b]
        mean_ab = (n[a, np.newaxis] * mean[a] + n[b, np.newaxis] * mean[b]) / n_ab[:, np.newaxis]
        terms_ab = pool_terms(terms[a], mean[a], n[a], terms[b], mean[b], n[b], mean_ab)
        if paired < n.shape[0]:
            terms_ab = np.concatenate([terms_ab, _pad_depth(terms[-1:], terms_ab.shape[1])])
            mean_ab = np.concatenate([mean_ab, mean[-1:]])
            n_ab = np.concatenate([n_ab, n[-1:]])
        terms, mean, n = terms_ab, mean_ab, n_ab
    return terms[0]
