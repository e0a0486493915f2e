"""Distance and diameter estimators on empirical data.

Kolmogorov-Smirnov statistics, the Ky Fan distance, and partial
diameters of samples and of the continuous radial laws.  An
observable-diameter estimate is the partial diameter of a 1-Lipschitz
witness's values, which its caller computes on native arrays.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import gaussian, special
from .errors import DomainError

# The smallest sample size at which ks_critical trusts the asymptotic
# Kolmogorov law.
KS_MIN_SAMPLES = 1000
# The absolute tolerance to which law_partial_diameter finds its window.
PARTIAL_DIAMETER_TOL = 1e-13


def _values(sample):
    return np.sort(np.asarray(sample, dtype=np.float64).reshape(-1))


def partial_diameter(sample, kappa):
    """Shortest length of a window holding a (1 - kappa) fraction.

    Exact for empirical measures: the optimal set is a run of
    consecutive sorted points; ties go to the leftmost window.
    """
    vals = _values(sample)
    S = vals.size
    if kappa >= 1.0:
        warnings.warn("kappa >= 1 leaves an empty mass requirement; returning 0")
        return 0.0
    if kappa <= 0.0:
        return float(vals[-1] - vals[0])
    w = int(math.ceil((1.0 - kappa) * S))
    if w <= 1:
        return 0.0
    return float(np.min(vals[w - 1 :] - vals[: S - w + 1]))


def ky_fan(values):
    """Smallest eps with at most an eps fraction of distances above it.

    Exact by sorting: with d_(k+1) the (k+1)-th largest distance, the
    answer is min over k of max(d_(k+1), k/S).
    """
    d = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))[::-1]
    S = d.size
    if S == 0:
        return 0.0
    d_next = np.append(d[1:], 0.0)
    ks = np.arange(1, S + 1) / S
    # eps = d_(1) with zero exceedances is always feasible.
    best = min(float(d[0]), float(np.min(np.maximum(d_next, ks))))
    return max(0.0, best)


def ks_statistic(values, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable."""
    v = _values(values)
    n = v.size
    F = np.asarray(cdf(v), dtype=np.float64)
    up = np.max(np.arange(1, n + 1) / n - F)
    down = np.max(F - np.arange(0, n) / n)
    return float(max(up, down))


def ks_two_sample(x, y):
    """Two-sample Kolmogorov-Smirnov statistic of the two EDFs."""
    x = _values(x)
    y = _values(y)
    allv = np.concatenate([x, y])
    allv.sort(kind="mergesort")
    fx = np.searchsorted(x, allv, side="right") / x.size
    fy = np.searchsorted(y, allv, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def kolmogorov_critical(alpha):
    """c with Q(c) = alpha for the asymptotic Kolmogorov law."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")

    def q(c):
        total = 0.0
        for k in range(1, 101):
            term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * c * c)
            total += term
            if abs(term) < 1e-16:
                break
        return total

    # The alternating series is only usable away from 0; Q(0.2) is
    # already > 1 - 1e-4, which covers every practical alpha.
    if q(0.2) < alpha:
        raise DomainError("alpha too close to 1 for the asymptotic series")
    return special.bisect(lambda c: q(c) - alpha, 0.2, 5.0, tol=1e-12)


def ks_critical(n, m, alpha=0.01):
    """Asymptotic critical value for the two-sample KS test of sizes n, m."""
    if n < KS_MIN_SAMPLES or m < KS_MIN_SAMPLES:
        raise DomainError(
            "asymptotic critical values need sample sizes >= %d" % KS_MIN_SAMPLES
        )
    return kolmogorov_critical(alpha) * math.sqrt((n + m) / (n * m))


def law_partial_diameter(dim, kappa):
    """Exact partial diameter of the radial law in the given dimension.

    The chi density is log-concave, so the shortest window of mass
    1 - kappa is a level set of it.  In dimension 1 the density
    decreases and the window is [0, Q(1 - kappa)].  In dimension m >= 2
    the window [a, b] has equal density at both ends, a below and b
    above the mode r0 = sqrt(m - 1): h(a) = h(b) for the log-density
    h(r) = (m - 1) log(r / r0) - (r^2 - r0^2) / 2 relative to the mode.
    Bisection on a finds F(b(a)) - F(a) = 1 - kappa, each b(a) from a
    bisection on h, which needs no CDF call.
    """
    if not 0.0 < kappa < 1.0:
        raise DomainError("kappa must lie in (0, 1)")
    law = gaussian.RadialLaw.of(dim)
    mass = 1.0 - kappa
    if law.m == 1:
        return law.quantile(mass, tol=PARTIAL_DIAMETER_TOL)
    r0 = math.sqrt(law.m - 1.0)

    def h(r):
        return (law.m - 1) * math.log(r / r0) - 0.5 * (r * r - r0 * r0)

    def right_end(a):
        level = h(a)
        # h'' <= -1, so h(r0 + s) <= -s^2 / 2 brackets the right end.
        hi = r0 + math.sqrt(-2.0 * level)
        return special.bisect(lambda r: h(r) - level, r0, hi, tol=PARTIAL_DIAMETER_TOL)

    def excess(a):
        if a == 0.0:
            return kappa  # the window [0, inf) holds all the mass
        F = law.cdf(np.array([a, right_end(a)]))
        return float(F[1] - F[0]) - mass

    a = special.bisect(excess, 0.0, r0, tol=PARTIAL_DIAMETER_TOL)
    return right_end(a) - a
