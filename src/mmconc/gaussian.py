"""Analytic machinery for the radial law of high-dimensional Gaussians.

Covers the radial density, CDF and quantile, the normal CDF, annulus
and ball masses with their explicit upper bounds, the root of the
deficiency function G, and the Stirling remainder bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import DomainError

norm_cdf = special.norm_cdf


@dataclass(frozen=True)
class RadialLaw:
    """The law of the Euclidean norm of an m-dimensional standard Gaussian.

    Density g_m(r) = 2^((2-m)/2) / Gamma(m/2) * r^(m-1) * exp(-r^2/2);
    the normalization is stored as a log so m up to ~1e6 stays finite.
    """

    m: int
    log_norm: float

    @classmethod
    def of(cls, m):
        m = int(m)
        if m < 1:
            raise DomainError("dimension must be >= 1")
        log_norm = (2.0 - m) / 2.0 * math.log(2.0) - special.lgamma(m / 2.0)
        return cls(m, log_norm)

    def log_density(self, r):
        r = np.asarray(r, dtype=np.float64)
        with np.errstate(divide="ignore"):
            logr = np.where(r > 0.0, np.log(np.maximum(r, 1e-300)), -np.inf)
        out = self.log_norm + (self.m - 1) * logr - 0.5 * np.square(r)
        if self.m == 1:
            out = np.where(r >= 0.0, self.log_norm - 0.5 * np.square(r), out)
        return out

    def density(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = np.where(r >= 0.0, np.exp(self.log_density(np.abs(r))), 0.0)
        return out if out.shape else float(out)

    def peak(self):
        """Value at the mode sqrt(m-1), computed in log space."""
        m = self.m
        if m == 1:
            return math.exp(self.log_norm)
        log_peak = self.log_norm + 0.5 * (m - 1) * (math.log(m - 1.0) - 1.0)
        return math.exp(log_peak)

    def cdf(self, r):
        """Chi CDF via the regularized incomplete gamma."""
        r = np.asarray(r, dtype=np.float64)
        return special.reg_gamma_p(self.m / 2.0, 0.5 * np.square(np.maximum(r, 0.0)))

    def quantile(self, p, tol=1e-12):
        """Inverse of the chi CDF on (0, 1) by bracketed bisection."""
        if not 0.0 < p < 1.0:
            raise DomainError("quantile requires 0 < p < 1")
        hi = math.sqrt(self.m) + 2.0
        while self.cdf(hi) < p:
            hi *= 2.0
        return special.bisect(lambda r: float(self.cdf(r)) - p, 0.0, hi, tol=tol)


def radial_density(m, r):
    return RadialLaw.of(m).density(r)


def radial_peak(m):
    return RadialLaw.of(m).peak()


def chi_cdf(m, t):
    return RadialLaw.of(m).cdf(t)


@dataclass(frozen=True)
class AnnulusMass:
    mass: float
    upper_bound: float


def annulus_upper_bound(m, eps):
    """Explicit bound: peak density times the annulus width 2*eps*sqrt(m-1).

    The peak factor is evaluated through the Stirling remainder form
    e^(-rho(m/2)) / sqrt(pi) * e^(1/2) * (1 - 1/m)^((m-1)/2).
    """
    if m < 2:
        raise DomainError("annulus bound requires m >= 2")
    rho = stirling_check(m / 2.0).rho
    log_peak = (
        -rho
        - 0.5 * math.log(math.pi)
        + 0.5
        + 0.5 * (m - 1) * math.log1p(-1.0 / m)
    )
    return math.exp(log_peak) * 2.0 * eps * math.sqrt(m - 1.0)


def annulus_mass(m, eps):
    """Mass of the annulus of radii (1 +- eps) * sqrt(m-1), with its bound.

    The mass is one minus the two chi tails, 1 - Q(m/2, hi^2/2) -
    P(m/2, lo^2/2), so no quadrature runs over a peak that narrows with
    m; the bound is the width-times-peak estimate returned alongside for
    comparison.
    """
    m = int(m)
    if m < 2:
        raise DomainError("annulus mass requires m >= 2")
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
    root = math.sqrt(m - 1.0)
    lo = max(0.0, (1.0 - eps) * root)
    hi = (1.0 + eps) * root
    a = m / 2.0
    mass = 1.0 - special.reg_gamma_q(a, 0.5 * hi * hi) - special.reg_gamma_p(a, 0.5 * lo * lo)
    return AnnulusMass(
        mass=min(max(mass, 0.0), 1.0), upper_bound=annulus_upper_bound(m, eps)
    )


def ball_mass(dim, T):
    """Gaussian mass of the centered ball of radius T in dimension dim."""
    if dim not in (1, 2, 4):
        raise DomainError("ball mass supports dim in {1, 2, 4}")
    if T < 0.0:
        raise DomainError("radius must be >= 0")
    return float(special.reg_gamma_p(dim / 2.0, 0.5 * T * T))


def g_func(t):
    """G(t) = exp(-t^2/2) - integral_t^inf exp(-s^2/2) ds."""
    t = np.asarray(t, dtype=np.float64)
    tail = np.sqrt(math.pi / 2.0) * special.erfc(t / math.sqrt(2.0))
    out = np.asarray(np.exp(-0.5 * np.square(t)) - tail)
    return out if out.shape else float(out)


def g_root(tol=1e-10):
    """The unique zero of G in (0, 1), by bisection on [0, 1]."""
    return special.bisect(lambda t: g_func(t), 0.0, 1.0, tol=tol)


@dataclass(frozen=True)
class StirlingCheck:
    rho: float
    in_bracket: bool


def stirling_check(x):
    """Remainder rho(x) = log Gamma(x) - log(sqrt(2 pi / x) (x/e)^x).

    Returns the remainder and whether it lies in (0, 1/(12 x)).
    """
    if x <= 0.0:
        raise DomainError("stirling_check requires x > 0")
    rho = special.lgamma(x) - (
        0.5 * (math.log(2.0 * math.pi) - math.log(x)) + x * (math.log(x) - 1.0)
    )
    return StirlingCheck(rho=float(rho), in_bracket=bool(0.0 < rho < 1.0 / (12.0 * x)))
