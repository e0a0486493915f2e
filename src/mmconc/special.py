"""In-repo special functions: the regularized incomplete gamma, the
standard normal CDF, adaptive quadrature and bisection.

erfc and log-gamma are the standard library's `math.erfc` and
`math.lgamma`.  The incomplete gamma has one path, a series and a
continued fraction on Python floats mapped elementwise over arrays; it
is within 2.9e-13 relative of scipy's near x = a (see _STIRLING_A).
The quadrature targets 1e-10 absolute; its Gauss-Legendre nodes are
built on its first call, so importing this module loads no
`numpy.polynomial`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
# The standard library's erfc, elementwise on arrays.
_erfc = np.frompyfunc(math.erfc, 1, 1)
# adaptive_quad accepts a panel bisected this many times, and bisect ends
# after this many halvings, whatever their error.
QUAD_MAX_DEPTH = 48
BISECT_MAX_ITER = 200


# From this shape on, the prefactor x^a e^-x / Gamma(a + 1) is taken in
# the Stirling form of _log_prefactor.  Against scipy's gammainc and
# gammaincc for a in [50, 1500], x/a in [0.9, 1.1], P and Q are then
# within 2.9e-13 relative; the direct form alone loses 2e-12 near
# a = 950, the Stirling form alone 3e-12 at a = 50.
_STIRLING_A = 150.0


def _log_prefactor(a, x, c):
    """log(x^a e^-x / Gamma(a + c)) for x > 0, c = 0 or 1.

    At large a the direct form a log x - x - lgamma(a + c) subtracts
    terms of size a log a and loses about a log a ulps: 4e-11 relative
    at a = 5e4.  There it is a (log1p(t) - t) - log(2 pi a) / 2 - s(a)
    (plus log a for c = 0) with t = (x - a) / a and s(a) = 1/(12 a) -
    1/(360 a^3) the Stirling correction of lgamma(a + 1), which is exact
    at x = a and loses only about |x - a| ulps elsewhere.
    """
    if a < _STIRLING_A:
        return a * math.log(x) - x - math.lgamma(a + c)
    t = (x - a) / a
    return (
        a * (math.log1p(t) - t)
        - 0.5 * math.log(2.0 * math.pi * a)
        - (1.0 / 12.0 - 1.0 / (360.0 * a * a)) / a
        + (1 - c) * math.log(a)
    )


def _iterations(base, a, per_root):
    """Iteration cap base + per_root * sqrt(a): near x = a the series
    needs about 8.3 sqrt(a) terms and the continued fraction about
    sqrt(a) steps once a is large.  Both stop earlier on convergence."""
    return base + int(per_root * math.sqrt(a))


def _gamma_p_series(a, x):
    """Series for the regularized lower incomplete gamma; good for x < a+1."""
    if x == 0.0:
        return 0.0
    term = total = 1.0
    denom = a
    for k in range(_iterations(300, a, 10.0)):
        denom += 1.0
        term *= x / denom
        total += term
        if k % 8 == 7 and term <= 1e-17 * total:
            break
    return math.exp(_log_prefactor(a, x, 1.0)) * total


_TINY = 1e-300


def _floor_tiny(v):
    """v, or _TINY when v is smaller than that in magnitude."""
    return _TINY if abs(v) < _TINY else v


def _gamma_q_cf(a, x):
    """Continued fraction (modified Lentz) for the regularized upper gamma;
    good for x >= a + 1, so x > 0 and the first b is at least 2."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    h = d = 1.0 / b
    for i in range(1, _iterations(200, a, 4.0) + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _floor_tiny(an * d + b)
        c = _floor_tiny(b + an / c)
        delta = d * c
        h *= delta
        if i % 8 == 0 and abs(delta - 1.0) < 1e-16:
            break
    return math.exp(_log_prefactor(a, x, 0.0)) * h


def _reg_gamma_one(a, x, upper):
    """P(a, x), or Q(a, x) when upper is set, of one pair of floats: the
    series below x = a + 1 and the continued fraction from there on."""
    if x < a + 1.0:
        p = _gamma_p_series(a, x)
        return 1.0 - p if upper else p
    q = _gamma_q_cf(a, x)
    return q if upper else 1.0 - q


_reg_gamma_each = np.frompyfunc(_reg_gamma_one, 3, 1)


def _reg_gamma(a, x, upper):
    """_reg_gamma_one over broadcast arrays; a float for 0-d a and x."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if np.any(a <= 0.0):
        raise DomainError("incomplete gamma requires a > 0")
    if np.any(x < 0.0):
        raise DomainError("incomplete gamma requires x >= 0")
    if a.shape or x.shape:
        return _reg_gamma_each(a, x, upper).astype(np.float64)
    return _reg_gamma_one(a.item(), x.item(), upper)


def reg_gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x), vectorized, a > 0, x >= 0."""
    return _reg_gamma(a, x, upper=False)


def reg_gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    return _reg_gamma(a, x, upper=True)


def norm_cdf(r):
    """Standard normal cumulative distribution function, 0.5 erfc(-r/sqrt 2);
    a float gives a float."""
    r = np.asarray(r, dtype=np.float64)
    out = 0.5 * np.asarray(_erfc(-r / _SQRT2), dtype=np.float64)
    return out if out.shape else float(out)


@functools.cache
def _gauss_legendre():
    """The 10- and 21-point Gauss-Legendre (nodes, weights), built on the
    first quadrature rather than at import: `leggauss` loads all of
    `numpy.polynomial`, which no experiment reads."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(10), leggauss(21)


def _panel(f, a, b, rules):
    """Low- and high-order Gauss estimates on one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    (x10, w10), (x21, w21) = rules
    lo = half * float(np.dot(w10, f(mid + half * x10)))
    hi = half * float(np.dot(w21, f(mid + half * x21)))
    return lo, hi


def adaptive_quad(f, a, b, tol=1e-10):
    """Adaptive Gauss quadrature with an embedded error estimate.

    f must accept numpy arrays.  Panels are bisected until the
    difference of the two Gauss estimates is below the local share of
    the absolute tolerance.
    """
    if b <= a:
        return 0.0
    rules = _gauss_legendre()
    total = 0.0
    stack = [(float(a), float(b), tol, 0)]
    while stack:
        lo_x, hi_x, t, depth = stack.pop()
        lo, hi = _panel(f, lo_x, hi_x, rules)
        if abs(hi - lo) <= t or depth >= QUAD_MAX_DEPTH:
            total += hi
        else:
            mid = 0.5 * (lo_x + hi_x)
            stack.append((lo_x, mid, 0.5 * t, depth + 1))
            stack.append((mid, hi_x, 0.5 * t, depth + 1))
    return total


def bisect(f, lo, hi, tol=1e-10):
    """Root of a scalar function on a sign-changing bracket."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise DomainError("bisect requires a sign change on [lo, hi]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo <= tol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
