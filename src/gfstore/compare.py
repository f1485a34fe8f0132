"""Distribution models over summaries and KL-divergence comparison.

A summary is modelled per channel as a point mass, a gaussian (mean and
variance) or a piecewise-uniform density (a histogram, or the extrema as
its one cell), and divergences sum over channels in closed form.  Only
:func:`covariance_kl` sees a full covariance, for statistic drop ranking.
An infinite divergence is a legitimate answer: it certifies that one
dataset cannot be a subset of the other.  Finite small values only
*corroborate* a subset or equality relation; raw data would be needed to
confirm it.
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


@dataclass
class DistributionModel:
    """A product of independent channels: one ``(family, params)`` per channel, in Python floats and lists.

    The parts are ``("point", x)``, ``("gaussian", (mean, var))`` or
    ``("piecewise", (edges, probs))``, built by the constructors below: a
    uniform on [lo, hi] is the one-cell ``([lo, hi], [1.0])``, and a zero
    width or variance is a point.
    """

    parts: list[tuple[str, object]]

    @property
    def channels(self) -> int:
        return len(self.parts)


def uniform_model(lo, hi) -> DistributionModel:
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if np.any(hi < lo):
        raise ValueError("uniform requires hi >= lo")
    return DistributionModel(
        [("point", a) if a == b else ("piecewise", ([a, b], [1.0])) for a, b in zip(lo.tolist(), hi.tolist())]
    )


def gaussian_model(mean, var) -> DistributionModel:
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    var = np.atleast_1d(np.asarray(var, dtype=np.float64))
    if np.any(var < 0):
        raise ValueError("variance must be >= 0")
    return DistributionModel(
        [("point", m) if v == 0 else ("gaussian", (m, v)) for m, v in zip(mean.tolist(), var.tolist())]
    )


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
    return DistributionModel([("piecewise", (edges.tolist(), (probs / total).tolist()))])


def point_model(loc) -> DistributionModel:
    return DistributionModel([("point", x) for x in np.atleast_1d(np.asarray(loc, dtype=np.float64)).tolist()])


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
            return 0.0 if math.isfinite(pb[1]) else math.inf  # a finite variance has density everywhere
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

def kl_divergence(a: DistributionModel, b: DistributionModel) -> float:
    """D(a || b) in nats; >= 0, and +inf exactly when a's support exceeds b's."""
    if a.channels != b.channels:
        raise ChannelMismatch(f"model channels {a.channels} != {b.channels}")
    total = 0.0
    for (fa, pa), (fb, pb) in zip(a.parts, b.parts):
        term = _kl_scalar(fa, pa, fb, pb)
        if term == math.inf:
            return math.inf
        total += term
    return max(total, 0.0)


def covariance_kl(cov_a: np.ndarray, cov_b: np.ndarray) -> float:
    """D(N(0, cov_a) || N(0, cov_b)) in nats; +inf when either holds an inf or NaN entry.

    An all-zero diagonal is the point mass at 0, which fits inside every
    reference.  Any other covariance gets a ridge of ``EPS_FLOOR`` times its
    mean variance (at least 1), and is +inf unless then positive definite.
    """
    if np.any(np.diag(cov_a) < 0) or np.any(np.diag(cov_b) < 0):
        raise ValueError("variance must be >= 0")
    if not (np.isfinite(cov_a).all() and np.isfinite(cov_b).all()):
        return math.inf
    a_point = not np.diag(cov_a).any()
    if not np.diag(cov_b).any():
        return 0.0 if a_point else math.inf
    d = len(cov_a)
    lifted_a, lifted_b = (c + np.eye(d) * (EPS_FLOOR * max(np.trace(c) / d, 1.0)) for c in (cov_a, cov_b))
    (sign_a, logdet_a), (sign_b, logdet_b) = np.linalg.slogdet(lifted_a), np.linalg.slogdet(lifted_b)
    if sign_b <= 0 or (sign_a <= 0 and not a_point):
        return math.inf
    if a_point:
        return 0.0
    return max(0.0, 0.5 * (np.trace(np.linalg.inv(lifted_b) @ lifted_a) - d + logdet_b - logdet_a))


def pdf(m: DistributionModel, x) -> float:
    """Density of the model at x (product over channels)."""
    q = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if q.shape[0] != m.channels:
        raise ChannelMismatch(f"point has {q.shape[0]} channels, model {m.channels}")
    out = 1.0
    for (fam, params), xc in zip(m.parts, q):
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


def symmetric_kl(a, b) -> float:
    """D(a||b) + D(b||a) of two models, or of two covariances by :func:`covariance_kl`, for ranking.

    Inf and NaN are each clamped to ``KL_CAP`` (NaN is no evidence of likeness).
    """
    divergence = covariance_kl if isinstance(a, np.ndarray) else kl_divergence
    d_ab, d_ba = divergence(a, b), divergence(b, a)
    return (d_ab if d_ab < KL_CAP else KL_CAP) + (d_ba if d_ba < KL_CAP else KL_CAP)


def symmetric_merge_score(a: SummarySample, b: SummarySample) -> float:
    """:func:`symmetric_kl` of the two samples' models."""
    return symmetric_kl(model_from_sample(a), model_from_sample(b))
