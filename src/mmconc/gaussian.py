"""Analytic machinery for the radial law of high-dimensional Gaussians.

Covers the radial (chi) density, CDF and quantile, the normal CDF, and
the exact Gaussian masses of a centered annulus and a centered ball,
both through the regularized incomplete gamma.
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
        log_norm = (2.0 - m) / 2.0 * math.log(2.0) - math.lgamma(m / 2.0)
        return cls(m, log_norm)

    def log_density(self, r):
        """log g_m(r); -inf for r < 0, and at r = 0 unless m = 1."""
        r = np.asarray(r, dtype=np.float64)
        out = self.log_norm - 0.5 * np.square(r)
        if self.m > 1:  # r^0 = 1 at m = 1, also at r = 0
            with np.errstate(divide="ignore"):
                out = out + (self.m - 1) * np.log(np.maximum(r, 0.0))
        return np.where(r < 0.0, -np.inf, out)

    def density(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = np.where(r >= 0.0, np.exp(self.log_density(np.abs(r))), 0.0)
        return out if out.shape else float(out)

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


def annulus_mass(m, eps):
    """Gaussian mass of the annulus of radii (1 +- eps) * sqrt(m-1) in
    dimension m, as a float.

    The mass is one minus the two chi tails, 1 - Q(m/2, hi^2/2) -
    P(m/2, lo^2/2), so no quadrature runs over a peak that narrows with
    m.
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
    return min(max(mass, 0.0), 1.0)


def ball_mass(dim, T):
    """Gaussian mass of the centered ball of radius T in dimension dim."""
    if dim not in (1, 2, 4):
        raise DomainError("ball mass supports dim in {1, 2, 4}")
    if T < 0.0:
        raise DomainError("radius must be >= 0")
    return float(special.reg_gamma_p(dim / 2.0, 0.5 * T * T))
