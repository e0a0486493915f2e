"""Distance and diameter estimators on empirical data.

Kolmogorov-Smirnov statistics, the Ky Fan distance, partial diameters
of samples and of the continuous radial laws, and witness-family lower
bounds for the observable diameter.  A witness is built by its caller
as `Witness(name, fn)` from any 1-Lipschitz function of batched
component arrays; this module supplies no fixed family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import gaussian, special
from .errors import DomainError


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


def ks_critical(n, m=None, alpha=0.01):
    """Asymptotic critical value for one- or two-sample KS tests."""
    if n < 1000 or (m is not None and m < 1000):
        raise DomainError("asymptotic critical values need sample sizes >= 1000")
    c = kolmogorov_critical(alpha)
    if m is None:
        return c / math.sqrt(n)
    return c * math.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# Witness families for observable-diameter lower bounds.


@dataclass(frozen=True)
class Witness:
    """A named 1-Lipschitz real function on batched component arrays."""

    name: str
    fn: object

    def __call__(self, comps):
        return np.asarray(self.fn(comps), dtype=np.float64)


@dataclass(frozen=True)
class WitnessFamily:
    witnesses: tuple

    @classmethod
    def of(cls, *witnesses):
        return cls(tuple(witnesses))

    def verify_lipschitz(self, pair_comps, tol=1e-9):
        """Check the 1-Lipschitz property on random pairs.

        pair_comps is a pair (Zs, Ws) of batched component arrays.
        """
        Zs, Ws = pair_comps
        dists = np.sqrt(np.sum(np.square(Zs - Ws), axis=(-3, -2, -1)))
        ok = {}
        for w in self.witnesses:
            gaps = np.abs(w(Zs) - w(Ws))
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(dists > 0, gaps / np.where(dists > 0, dists, 1.0), 0.0)
            ok[w.name] = float(np.max(ratio)) <= 1.0 + tol
        return ok


@dataclass(frozen=True)
class ObsDiamReport:
    per_witness: dict
    max_value: float


def obs_diam_lower(comps, witnesses, kappa):
    """Witness-family lower bound for the observable diameter.

    The true invariant takes a sup over all 1-Lipschitz functions; the
    max over this finite family only certifies the lower side.
    """
    if isinstance(witnesses, WitnessFamily):
        family = witnesses.witnesses
    else:
        family = tuple(witnesses)
    per = {}
    for w in family:
        per[w.name] = partial_diameter(w(comps), kappa)
    return ObsDiamReport(per_witness=per, max_value=max(per.values()) if per else 0.0)


def law_partial_diameter(dim, kappa, tol=1e-13):
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
        return law.quantile(mass)
    r0 = math.sqrt(law.m - 1.0)

    def h(r):
        return (law.m - 1) * math.log(r / r0) - 0.5 * (r * r - r0 * r0)

    def right_end(a):
        level = h(a)
        # h'' <= -1, so h(r0 + s) <= -s^2 / 2 brackets the right end.
        hi = r0 + math.sqrt(-2.0 * level)
        return special.bisect(lambda r: h(r) - level, r0, hi, tol=tol)

    def excess(a):
        if a == 0.0:
            return kappa  # the window [0, inf) holds all the mass
        F = law.cdf(np.array([a, right_end(a)]))
        return float(F[1] - F[0]) - mass

    a = special.bisect(excess, 0.0, r0, tol=tol)
    return right_end(a) - a
