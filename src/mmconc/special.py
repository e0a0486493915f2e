"""In-repo special functions: the regularized incomplete gamma, the
standard normal CDF, adaptive quadrature and bisection.

erfc and log-gamma are the standard library's `math.erfc` and
`math.lgamma`, applied elementwise to arrays.  The rest is pure numpy,
since neither numpy nor the standard library has it.  Accuracy
targets: <= 1e-12 relative for the regularized incomplete gamma on its
tested ranges, 1e-10 absolute for the quadrature.  The quadrature's
Gauss-Legendre nodes are built on its first call, so importing this
module loads no `numpy.polynomial`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
# The standard library's erfc and lgamma, elementwise on arrays.
_erfc = np.frompyfunc(math.erfc, 1, 1)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


# From this shape on, the prefactor x^a e^-x / Gamma(a + 1) is taken in
# the Stirling form of _log_prefactor; below it the direct form loses
# less than 2e-13 (relative, against scipy's gammainc at a = x = 1000).
_STIRLING_A = 1000.0


def _log_prefactor(a, x, c):
    """log(x^a e^-x / Gamma(a + c)) for x > 0, c = 0 or 1.

    At large a the direct form a log x - x - lgamma(a + c) subtracts
    terms of size a log a and loses about a log a ulps: 4e-11 relative
    at a = 5e4.  There it is a (log1p(t) - t) - log(2 pi a) / 2 - s(a)
    (plus log a for c = 0) with t = (x - a) / a and s(a) = 1/(12 a) -
    1/(360 a^3) the Stirling correction of lgamma(a + 1), which is exact
    at x = a and loses only about |x - a| ulps elsewhere.
    """
    large = a >= _STIRLING_A
    with np.errstate(divide="ignore"):
        if np.all(large):
            return _log_prefactor_stirling(a, x, c)
        logx = np.where(x > 0.0, np.log(np.maximum(x, 1e-300)), -np.inf)
        direct = a * logx - x - np.asarray(_lgamma(a + c), dtype=np.float64)
        if not np.any(large):
            return direct
        stirling = _log_prefactor_stirling(np.where(large, a, _STIRLING_A), x, c)
        return np.where(large, stirling, direct)


def _log_prefactor_stirling(a, x, c):
    """The Stirling form of _log_prefactor, for a >= _STIRLING_A."""
    t = (x - a) / a
    return (
        a * (np.log1p(t) - t)
        - 0.5 * np.log(2.0 * np.pi * a)
        - (1.0 / 12.0 - 1.0 / (360.0 * a * a)) / a
        + (1 - c) * np.log(a)
    )


def _iterations(base, a, per_root):
    """Iteration cap base + per_root * sqrt(max a): near x = a the series
    needs about 8.3 sqrt(a) terms and the continued fraction about
    sqrt(a) steps once a is large.  Both stop earlier on convergence."""
    return base + int(per_root * np.sqrt(np.max(a)))


def _gamma_p_series(a, x):
    """Series for the regularized lower incomplete gamma; good for x < a+1.

    a and x are floats or broadcastable arrays.  Floats run the loop on
    Python floats, which costs a tenth of the same loop on one-element
    arrays and rounds the same way."""
    if isinstance(x, float):
        term, denom, done = 1.0, a, bool
    else:
        a = np.asarray(a, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        term = np.ones(np.broadcast(a, x).shape)
        denom = np.broadcast_to(a, term.shape).astype(np.float64)
        done = np.all
    total = term
    for k in range(_iterations(300, a, 10.0)):
        denom = denom + 1.0
        term = term * (x / denom)
        total = total + term
        if k % 8 == 7 and done(term <= 1e-17 * total):
            break
    return np.where(x > 0.0, np.exp(_log_prefactor(a, x, 1.0)) * total, 0.0)


_TINY = 1e-300


def _floor_tiny(v):
    """v with the entries of magnitude below _TINY replaced by _TINY."""
    if isinstance(v, float):
        return _TINY if abs(v) < _TINY else v
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _gamma_q_cf(a, x):
    """Continued fraction (modified Lentz) for the regularized upper gamma;
    floats or arrays, as in _gamma_p_series."""
    if isinstance(x, float):
        c, done = 1.0 / _TINY, bool
    else:
        a = np.asarray(a, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        c, done = np.full(np.broadcast(a, x).shape, 1.0 / _TINY), np.all
    b = x + 1.0 - a
    d = 1.0 / _floor_tiny(b)
    h = d
    for i in range(1, _iterations(200, a, 4.0) + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = _floor_tiny(an * d + b)
        c = _floor_tiny(b + an / c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if i % 8 == 0 and done(abs(delta - 1.0) < 1e-16):
            break
    return np.where(x > 0.0, np.exp(_log_prefactor(a, x, 0.0)) * h, 1.0)


def _reg_gamma(a, x, upper):
    """P(a, x), or Q(a, x) = 1 - P(a, x) when upper is set.

    The series runs only on the elements with x < a + 1 and the
    continued fraction only on the rest.
    """
    a, x = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64)
    )
    if np.any(a <= 0.0):
        raise DomainError("incomplete gamma requires a > 0")
    if np.any(x < 0.0):
        raise DomainError("incomplete gamma requires x >= 0")
    shape = x.shape
    if x.size == 1:  # one value: the loops run on floats
        a, x = a.item(), x.item()
        if x < a + 1.0:
            p = float(_gamma_p_series(a, x))
            out = 1.0 - p if upper else p
        else:
            q = float(_gamma_q_cf(a, x))
            out = q if upper else 1.0 - q
        return np.full(shape, out) if shape else out
    a, x = a.reshape(-1), x.reshape(-1)
    out = np.empty_like(x)
    series = x < a + 1.0
    if np.any(series):
        p = _gamma_p_series(a[series], x[series])
        out[series] = 1.0 - p if upper else p
    cf = ~series
    if np.any(cf):
        q = _gamma_q_cf(a[cf], x[cf])
        out[cf] = q if upper else 1.0 - q
    out = out.reshape(shape)
    return out if out.shape else float(out)


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


def adaptive_quad(f, a, b, tol=1e-10, max_depth=48):
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
        if abs(hi - lo) <= t or depth >= max_depth:
            total += hi
        else:
            mid = 0.5 * (lo_x + hi_x)
            stack.append((lo_x, mid, 0.5 * t, depth + 1))
            stack.append((mid, hi_x, 0.5 * t, depth + 1))
    return total


def bisect(f, lo, hi, tol=1e-10, max_iter=200):
    """Root of a scalar function on a sign-changing bracket."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise DomainError("bisect requires a sign change on [lo, hi]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo <= tol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
