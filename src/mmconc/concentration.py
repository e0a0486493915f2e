"""The approximation space, the projection-then-polar map, and the Monte
Carlo experiments built on them: batched Lipschitz ratios of the
projection, the pushforward distribution test, and the Prohorov-style
concentration estimate for the distance to the scaled frame manifold.

The statistics run on the native arrays of `algebra` (R (..., N, n), C
(..., N, n), H (..., 2N, n)): `phi_native` and the `decomp` kernels they
call (`membership_native`, prok's `dist_to_scaled_stiefel_native`) take
native batches straight from the samplers.  Membership and the distance
read only the Gram matrix, so fullmeas and prok hand them the compressed
draws of `sampling.gaussian_blocks` with p = 0, n rows at every N; N, or
the radius it sets, is therefore an argument of theirs, not read off the
row count.  `membership_mask` is one conversion around
`decomp.membership_native` for batches in the (..., N, n, 4) interchange
layout.  Prok's distances and pushforward's Haar reference sample take
the threads of an enclosing `sampling.worker_pool` block through
`sampling.draws`; the rejection sampler runs on the calling thread.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds, decomp, sampling, stats
from .algebra import _frobenius, _real_view, _to_native, field_dim, frame_radius
from .errors import DomainError


@dataclass(frozen=True)
class ApproxSpaceParams:
    """Parameters of the good set of Gaussian draws: every column norm in
    the open band (1 -/+ eps) * sqrt(N^F - 1) and every normalized pair
    overlap strictly below theta."""

    field: str
    N: int
    n: int
    eps: float
    theta_val: float = None

    def __post_init__(self):
        field_dim(self.field)
        if not 1 <= self.n <= self.N:
            raise DomainError("need 1 <= n <= N")
        if not 0.0 < self.eps < 1.0:
            raise DomainError("eps must lie in (0, 1)")
        if self.theta_val is None:
            object.__setattr__(self, "theta_val", bounds.theta(self.eps))
        if not 0.0 < self.theta_val < 1.0:
            raise DomainError("theta must lie in (0, 1)")


def membership_mask(comps, field, eps, theta_val):
    """Boolean membership of each entry of a batch (S, N, n, 4)."""
    X = _to_native(comps, field)
    return decomp.membership_native(X, field, eps, theta_val, comps.shape[-3])


def _dp_lower(d):
    """Smallest eps with a (1 - eps) fraction of the distances d strictly
    below it.  That is the Ky Fan level, except where the level is itself
    a distance: the strict fraction then falls one draw short, and the
    answer is the next float up."""
    eps = stats.ky_fan(d)
    if np.count_nonzero(d < eps) / d.size < 1.0 - eps:
        eps = float(np.nextafter(eps, np.inf))
    return eps


def phi_native(X, field):
    """Polar frames scaled to the manifold radius for a native batch."""
    q, _ = decomp.polar_q_native(X, field)
    q *= frame_radius(X.shape[-2] // (2 if field == "H" else 1), field)
    return q


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float
    pairs_used: int
    certificate: float


def lipschitz_experiment(params, pair_count=2000, seed=0):
    """Batched estimate of the Lipschitz ratio of the projection map on
    restricted Gaussian pairs.

    The certificate field carries the analytic bound at the infimum
    recursion offset for comparison (it may exceed 1, in which case the
    hypothesis of the contraction statement simply fails).
    """
    cfg = sampling.SamplerConfig(
        params.field, params.N, params.n, seed=seed, count=2 * pair_count
    )
    rs = sampling.sample_restricted_gaussian(cfg, params.eps, params.theta_val)
    Zs = rs.native[:pair_count]
    Ws = rs.native[pair_count : 2 * pair_count]
    dist_in = _frobenius(Zs - Ws)
    dist_out = _frobenius(phi_native(Zs, params.field) - phi_native(Ws, params.field))
    good = dist_in > 1e-12
    if not np.all(good):
        warnings.warn("skipping %d coincident pairs" % int((~good).sum()))
    ratio = dist_out[good] / dist_in[good]
    return LipschitzReport(
        max_ratio=float(np.max(ratio)),
        pairs_used=int(good.sum()),
        certificate=bounds.l_bound_min(params.n, params.eps),
    )


@dataclass(frozen=True)
class PushforwardReport:
    ks: dict
    critical: float
    passed: bool
    acceptance_rate: float
    sample_size: int


def _panel_direction(field, N, n, seed):
    """A fixed native unit direction for the linear statistic, drawn from
    a reserved stream that never collides with sample chunks."""
    gen = sampling.chunk_generator(seed, 1 << 62)
    z = gen.standard_normal((N, n, field_dim(field)))
    return _to_native(z / math.sqrt(float(np.sum(np.square(z)))), field)


def _panel_statistics(X, field, direction):
    """The panel statistics of a native batch: the real inner product
    with the direction, the top singular value of the first (N + 1) // 2
    rows, and the real part of the first entry."""
    rows = X.shape[-2]
    if field == "H":
        N = rows // 2
        h = (N + 1) // 2
        half = np.concatenate([X[..., :h, :], X[..., N : N + h, :]], axis=-2)
    else:
        half = X[..., : (rows + 1) // 2, :]
    flat = _real_view(X).reshape(X.shape[:-2] + (-1,))
    return {
        "linear": flat @ _real_view(direction).ravel(),
        "top_singular_half": decomp.singular_values_native(half, field)[..., 0],
        "first_entry": X[..., 0, 0].real,
    }


def pushforward_test(
    N,
    n,
    params,
    sample_size=10000,
    seed=0,
    scaled_reference=True,
):
    """Two-sample KS panel: phi of restricted Gaussians against Haar frames.

    With scaled_reference=False the reference frames stay unit-scaled, a
    deliberately wrong law that the panel must reject (negative control).
    """
    if (N, n) != (params.N, params.n):
        raise DomainError("N, n must match the space parameters")
    cfg = sampling.SamplerConfig(
        params.field, params.N, params.n, seed=seed, count=sample_size
    )
    rs = sampling.sample_restricted_gaussian(cfg, params.eps, params.theta_val)
    pushed = phi_native(rs.native, params.field)
    ref_cfg = sampling.SamplerConfig(
        params.field,
        params.N,
        params.n,
        scaled=scaled_reference,
        seed=seed + 1,
        count=sample_size,
    )
    reference = np.concatenate(list(sampling.draws(ref_cfg, sampling.haar_blocks)))
    direction = _panel_direction(params.field, params.N, params.n, seed)
    sa = _panel_statistics(pushed, params.field, direction)
    sb = _panel_statistics(reference, params.field, direction)
    crit = stats.ks_critical(sample_size, sample_size)
    ks = {name: stats.ks_two_sample(sa[name], sb[name]) for name in sa}
    return PushforwardReport(
        ks=ks,
        critical=crit,
        passed=all(v < crit for v in ks.values()),
        acceptance_rate=rs.acceptance_rate,
        sample_size=sample_size,
    )


@dataclass(frozen=True)
class ProkReport:
    dP_lower: float
    quantiles: dict
    sample_size: int
    mean_distance: float


def _sorted_quantile(d, q):
    """np.quantile(d, q) of a sorted 1-d array d, bit for bit: numpy's
    default linear rule (Hyndman-Fan type 7) in its own rounding.  With
    h = (S - 1) q and t its fractional part, the value between a = d[floor h]
    and the next b is b - (b - a)(1 - t) for t >= 0.5, else a + (b - a) t;
    from h >= S - 1 on it is d[-1]."""
    h = (d.size - 1) * q
    i = math.floor(h)
    if i >= d.size - 1:
        return float(d[-1])
    a, b = float(d[i]), float(d[i + 1])
    t = h - i
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def prok_report(d):
    """The prok statistics of an array of distances to the scaled frame
    manifold: dP_lower, the 5, 25, 50, 75 and 95 percent quantiles, the
    sample size and the mean.

    The quantiles are read off the sorted distances by `_sorted_quantile`
    rather than `np.quantile`, which sorts again and, through `np.unique`,
    imports all of `numpy.ma` on its first call: about a third of a short
    run's CPU.  The values are the same bytes."""
    d = np.sort(d)
    return ProkReport(
        dP_lower=_dp_lower(d),
        quantiles={p: _sorted_quantile(d, p / 100.0) for p in (5, 25, 50, 75, 95)},
        sample_size=d.size,
        mean_distance=float(np.mean(d)),
    )


def prok_experiment(N, n, field, sample_size=100000, seed=0):
    """Concentration of the distance to the scaled frame manifold.

    dP_lower is the smallest eps with an empirical (1 - eps) fraction of
    Gaussian draws within distance eps of the manifold; it bounds the
    Prohorov gap between the Gaussian law and its projection from below.
    The distances are those of compressed draws (p = 0): the singular
    values of the n x n Bartlett factor have the law of the full draw's.
    """
    cfg = sampling.SamplerConfig(field, N, n, seed=seed, count=sample_size)
    d = sampling.draws(
        cfg,
        functools.partial(sampling.gaussian_blocks, p=0),
        functools.partial(decomp.dist_to_scaled_stiefel_native, field=field, r=cfg.radius),
    )
    return prok_report(np.concatenate(list(d)))
