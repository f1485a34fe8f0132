"""Distribution models over summaries and KL-divergence comparison.

Summaries are turned into parametric distributions (uniform from extrema,
gaussian from mean+variance, piecewise-uniform from a histogram) and
compared with closed-form Kullback-Leibler divergences.  Per channel the
closed forms know three families, point, gaussian and piecewise: a
uniform on [lo, hi] is the one-cell piecewise density, so both spellings
of one density give the same bits.  An infinite divergence is a
legitimate answer: it certifies that one dataset cannot be a subset of
the other.  Finite small values only *corroborate* a subset or equality
relation; raw data would be needed to confirm it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, EmptySample
from .stats import SummarySample, in_range_counts

#: Finite stand-in for infinite divergences when ranking merge candidates.
KL_CAP = 1e9

#: Probability floor applied to empirical (piecewise) reference cells that
#: are inside the reference support but empty; guards numerical noise while
#: keeping genuine support mismatches infinite.
EPS_FLOOR = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class DistributionModel:
    """One parametric family fitted from summary statistics.

    family is one of "uniform", "gaussian", "piecewise", "point".
    Uniform and gaussian models may span several channels (treated as a
    product of independent channels, or a full-covariance gaussian when
    ``cov`` is set).  Piecewise models are single-channel.  A uniform
    channel is compared as the one-cell piecewise density on [lo, hi].
    """

    family: str
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    mean: np.ndarray | None = None
    var: np.ndarray | None = None
    cov: np.ndarray | None = None
    edges: np.ndarray | None = None
    probs: np.ndarray | None = None
    loc: np.ndarray | None = None

    @property
    def channels(self) -> int:
        if self.family == "uniform":
            return self.lo.shape[0]
        if self.family == "gaussian":
            return self.mean.shape[0]
        if self.family == "point":
            return self.loc.shape[0]
        return 1


def uniform_model(lo, hi) -> DistributionModel:
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if np.any(hi < lo):
        raise ValueError("uniform requires hi >= lo")
    if np.all(hi == lo):
        return DistributionModel(family="point", loc=lo.copy())
    return DistributionModel(family="uniform", lo=lo, hi=hi)


def gaussian_model(mean, var=None, cov=None) -> DistributionModel:
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    if cov is not None:
        cov = np.asarray(cov, dtype=np.float64)
        if mean.shape[0] == 1:  # scalar covariance is just a variance
            var, cov = cov.reshape(1), None
        else:
            var = np.diag(cov).copy()
    elif var is None:
        raise ValueError("gaussian needs var or cov")
    else:
        var = np.atleast_1d(np.asarray(var, dtype=np.float64))
    if np.any(var < 0):
        raise ValueError("variance must be >= 0")
    if np.all(var == 0):
        return DistributionModel(family="point", loc=mean.copy())
    return DistributionModel(family="gaussian", mean=mean, var=var, cov=cov)


def piecewise_model(edges, probs) -> DistributionModel:
    edges = np.asarray(edges, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if edges.ndim != 1 or edges.shape[0] != probs.shape[0] + 1:
        raise ValueError("need K+1 edges for K probabilities")
    if not np.all(np.diff(edges) > 0):  # a NaN edge fails this too
        raise ValueError("edges must be strictly increasing")
    if np.any(probs < 0):
        raise ValueError("probabilities must be >= 0")
    total = probs.sum()
    if total <= 0:
        raise ValueError("piecewise model has no mass")
    probs = probs / total
    return DistributionModel(family="piecewise", edges=edges, probs=probs)


def point_model(loc) -> DistributionModel:
    loc = np.atleast_1d(np.asarray(loc, dtype=np.float64))
    return DistributionModel(family="point", loc=loc)


def model_from_sample(s: SummarySample) -> DistributionModel:
    """Parametrize the sample's empirical distribution.

    The first model the statistics support wins: a histogram with in-range
    counts -> piecewise (single channel), mean+variance -> gaussian,
    extrema -> uniform, bare mean -> point mass.
    """
    if s.n == 0:
        raise EmptySample("cannot model an empty sample")
    if s.histogram is not None and s.hist_edges is not None and s.channels == 1:
        counts = in_range_counts(s)
        if counts.sum() > 0:
            return piecewise_model(s.hist_edges, counts)
    if s.variance is not None:
        return gaussian_model(s.mean, s.variance)
    if s.min_v is not None and s.max_v is not None:
        return uniform_model(s.min_v, s.max_v)
    return point_model(s.mean)


# --- scalar (single channel) closed forms --------------------------------

def _kl_scalar(fa, pa, fb, pb) -> float:
    """KL between two scalar channel models given as (family, params)."""
    if fa == "point":
        if fb == "point":
            return 0.0 if pa == pb else math.inf
        if fb == "gaussian":
            return 0.0  # positive density everywhere
        return 0.0 if _piecewise_density(pb[0], pb[1], pa) > 0 else math.inf
    if fb == "point":
        return math.inf  # a spread distribution never fits inside a point
    if fa == "gaussian":
        mu1, s1 = pa
        if fb == "gaussian":
            mu2, s2 = pb
            return 0.5 * ((s1 + (mu1 - mu2) ** 2) / s2 - 1.0 + math.log(s2 / s1))
        return math.inf  # unbounded support cannot fit a bounded model
    ea, qa = pa
    if not math.isfinite(ea[-1] - ea[0]) or (fb == "piecewise" and not math.isfinite(pb[0][-1] - pb[0][0])):
        return math.inf  # an unbounded or NaN interval has no density
    if fb == "gaussian":
        mu, sg2 = pb
        ent = 0.0
        quad = 0.0
        for x0, x1, q in zip(ea, ea[1:], qa):
            w = x1 - x0
            if q > 0:
                ent += q * math.log(q / w)
            quad += q * ((0.5 * (x0 + x1) - mu) ** 2 + w * w / 12.0)
        return ent + 0.5 * math.log(2.0 * math.pi * sg2) + quad / (2.0 * sg2)
    return _kl_piecewise(ea, qa, pb[0], pb[1])


def _piecewise_density(edges, probs, x) -> float:
    if not edges[0] <= x <= edges[-1]:
        return 0.0
    i = min(bisect.bisect_right(edges, x), len(probs)) - 1  # the last cell is closed on the right
    return probs[i] / (edges[i + 1] - edges[i])


def _kl_piecewise(ea, qa, eb, qb) -> float:
    """Exact divergence between piecewise-constant densities on a common refinement."""
    grid = sorted({x for x in ea + eb if ea[0] <= x <= ea[-1]})
    total = 0.0
    for x0, x1 in zip(grid, grid[1:]):
        mid = 0.5 * (x0 + x1)
        ia = bisect.bisect_right(ea, mid) - 1
        pa = qa[ia]
        if pa <= 0:
            continue
        da = pa / (ea[ia + 1] - ea[ia])
        mass = da * (x1 - x0)
        if not eb[0] <= mid <= eb[-1]:
            return math.inf
        ib = bisect.bisect_right(eb, mid) - 1
        pb = qb[ib]
        if pb <= 0:
            pb = EPS_FLOOR
        db = pb / (eb[ib + 1] - eb[ib])
        total += mass * math.log(da / db)
    return max(total, 0.0)


# --- model level dispatch -------------------------------------------------

def _scalar_channels(m: DistributionModel):
    """Split a product model into per-channel (family, params) tuples."""
    out = []
    for c in range(m.channels):
        if m.family == "point":
            out.append(("point", float(m.loc[c])))
        elif m.family == "uniform":
            lo, hi = float(m.lo[c]), float(m.hi[c])
            if hi == lo:
                out.append(("point", lo))
            else:
                out.append(("piecewise", ([lo, hi], [1.0])))  # the one-cell histogram
        elif m.family == "gaussian":
            v = float(m.var[c])
            if v == 0:
                out.append(("point", float(m.mean[c])))
            else:
                out.append(("gaussian", (float(m.mean[c]), v)))
        elif m.family == "piecewise":
            out.append(("piecewise", (m.edges.tolist(), m.probs.tolist())))
        else:
            raise ValueError(f"unknown family {m.family!r}")
    return out


def _kl_full_cov(a: DistributionModel, b: DistributionModel) -> float:
    """Closed forms involving a full-covariance gaussian reference."""
    d = b.mean.shape[0]
    cov_b = b.cov + np.eye(d) * (EPS_FLOOR * max(np.trace(b.cov) / d, 1.0))
    sign, logdet_b = np.linalg.slogdet(cov_b)
    if sign <= 0:
        return math.inf
    inv_b = np.linalg.inv(cov_b)
    if a.family == "point":
        return 0.0
    if a.family == "gaussian":
        cov_a = a.cov if a.cov is not None else np.diag(a.var)
        if np.all(np.diag(cov_a) == 0):
            return 0.0
        cov_a = cov_a + np.eye(d) * (EPS_FLOOR * max(np.trace(cov_a) / d, 1.0))
        sign_a, logdet_a = np.linalg.slogdet(cov_a)
        if sign_a <= 0:
            return math.inf
        delta = b.mean - a.mean
        return max(0.0, 0.5 * (np.trace(inv_b @ cov_a) + delta @ inv_b @ delta - d + logdet_b - logdet_a))
    if a.family == "uniform":
        w = a.hi - a.lo
        vol = float(np.prod(w[w > 0]))
        delta = 0.5 * (a.lo + a.hi) - b.mean
        c_box = np.diag(w * w / 12.0)
        quad = float(np.trace(inv_b @ c_box) + delta @ inv_b @ delta)
        return -math.log(vol) + 0.5 * (d * _LOG_2PI + logdet_b) + 0.5 * quad
    raise ValueError(f"unsupported pair {a.family!r} || gaussian(cov)")


def kl_divergence(a: DistributionModel, b: DistributionModel) -> float:
    """D(a || b) in nats; >= 0, and +inf exactly when a's support exceeds b's."""
    if a.channels != b.channels:
        raise ChannelMismatch(f"model channels {a.channels} != {b.channels}")
    if b.family == "gaussian" and b.cov is not None:
        return _kl_full_cov(a, b)
    if a.family == "gaussian" and a.cov is not None:
        if b.family != "gaussian":
            return math.inf  # unbounded support vs a point or bounded reference
        return _kl_full_cov(a, gaussian_model(b.mean, cov=np.diag(b.var)))
    total = 0.0
    for (fa, pa), (fb, pb) in zip(_scalar_channels(a), _scalar_channels(b)):
        term = _kl_scalar(fa, pa, fb, pb)
        if term == math.inf:
            return math.inf
        total += term
    return max(total, 0.0)


def pdf(m: DistributionModel, x) -> float:
    """Density of the model at x (product over channels)."""
    q = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if q.shape[0] != m.channels:
        raise ChannelMismatch(f"point has {q.shape[0]} channels, model {m.channels}")
    if m.family == "gaussian" and m.cov is not None:
        d = m.channels
        cov = m.cov + np.eye(d) * (EPS_FLOOR * max(np.trace(m.cov) / d, 1.0))
        delta = q - m.mean
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            return 0.0
        quad = delta @ np.linalg.solve(cov, delta)
        return float(math.exp(-0.5 * (d * _LOG_2PI + logdet + quad)))
    out = 1.0
    for (fam, params), xc in zip(_scalar_channels(m), q):
        if fam == "point":
            out *= 1.0 if xc == params else 0.0
        elif fam == "gaussian":
            mu, s2 = params
            out *= math.exp(-0.5 * (xc - mu) ** 2 / s2) / math.sqrt(2.0 * math.pi * s2)
        else:
            out *= _piecewise_density(params[0], params[1], xc)
    return out


# --- verdicts and merge scores --------------------------------------------

VERDICT_EQUAL = "plausibly_equal"
VERDICT_SUBSET = "plausible_subset"
VERDICT_NOT_SUBSET = "not_subset"
VERDICT_DISTINCT = "distinct"


@dataclass
class Verdict:
    verdict: str
    d_ab: float
    d_ba: float
    note: str = ""


def subset_verdict(a: SummarySample, b: SummarySample, tau: float = 0.1) -> Verdict:
    """Judge whether dataset A plausibly sits inside dataset B."""
    ma = model_from_sample(a)
    mb = model_from_sample(b)
    d_ab = kl_divergence(ma, mb)
    d_ba = kl_divergence(mb, ma)
    if d_ab == math.inf:
        v, note = VERDICT_NOT_SUBSET, "support of A exceeds B"
    elif d_ab <= tau and d_ba <= tau:
        v, note = VERDICT_EQUAL, "corroborated, not confirmed: raw data are gone"
    elif d_ab <= tau < d_ba:
        v, note = VERDICT_SUBSET, "A plausibly fits within B"
    else:
        v, note = VERDICT_DISTINCT, ""
    return Verdict(v, d_ab, d_ba, note)


def symmetric_kl(ma: DistributionModel, mb: DistributionModel) -> float:
    """D(a||b) + D(b||a) with inf and NaN clamped to ``KL_CAP`` for ranking (NaN is no evidence of likeness)."""
    d_ab, d_ba = kl_divergence(ma, mb), kl_divergence(mb, ma)
    return (d_ab if d_ab < KL_CAP else KL_CAP) + (d_ba if d_ba < KL_CAP else KL_CAP)


def symmetric_merge_score(a: SummarySample, b: SummarySample) -> float:
    """:func:`symmetric_kl` of the two samples' models."""
    return symmetric_kl(model_from_sample(a), model_from_sample(b))
