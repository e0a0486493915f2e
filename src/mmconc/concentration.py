"""Approximation-space membership, the projection-then-polar map, and the
Monte Carlo experiments built on them: empirical Lipschitz ratios, the
pushforward distribution test, and the Prohorov-style concentration
estimate for the distance to the scaled frame manifold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds, sampling, stats
from .algebra import FMatrix, comp_adjoint, comp_matmul, comp_norm, field_dim
from .decomp import polar_q_batched, singular_values_batched
from .errors import DomainError, MembershipError, PreconditionError


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

    @property
    def radius(self):
        return math.sqrt(self.N * field_dim(self.field) - 1.0)


def column_norms(comps):
    """Column norms of a batch (..., N, n, 4), shape (..., n)."""
    return np.sqrt(np.sum(np.square(comps), axis=(-3, -1)))


def pair_overlaps(comps):
    """Normalized pairwise overlaps |<z_l/|z_l|, z_m/|z_m|>|, (..., n, n)."""
    norms = column_norms(comps)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = comps / safe[..., None, :, None]
    G = comp_matmul(comp_adjoint(unit), unit)
    return comp_norm(G)


def membership_mask(comps, field, eps, theta_val):
    """Boolean membership of each entry of a batch (S, N, n, 4)."""
    comps = np.asarray(comps, dtype=np.float64)
    N, n = comps.shape[-3], comps.shape[-2]
    r = math.sqrt(N * field_dim(field) - 1.0)
    norms = column_norms(comps)
    ok = np.all((norms > (1.0 - eps) * r) & (norms < (1.0 + eps) * r), axis=-1)
    if n > 1:
        ov = pair_overlaps(comps)
        off = ~np.eye(n, dtype=bool)
        ok &= np.all(ov[..., off] < theta_val, axis=-1)
    return ok


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    column_norms: np.ndarray
    max_overlap: float
    violations: tuple

    def __bool__(self):
        return self.ok


def membership(Z, params):
    """Detailed membership check of a single matrix."""
    if isinstance(Z, FMatrix):
        if Z.field != params.field or Z.shape != (params.N, params.n):
            raise DomainError("matrix does not match the space parameters")
        comps = Z.comps
    else:
        comps = np.asarray(Z, dtype=np.float64)
    r = params.radius
    norms = column_norms(comps)
    violations = []
    lo, hi = (1.0 - params.eps) * r, (1.0 + params.eps) * r
    for l, v in enumerate(norms):
        if not lo < v < hi:
            violations.append(
                "column %d norm %.6g outside (%.6g, %.6g)" % (l, v, lo, hi)
            )
    max_overlap = 0.0
    if params.n > 1:
        ov = pair_overlaps(comps)
        for l in range(params.n):
            for m in range(l + 1, params.n):
                if ov[l, m] >= max_overlap:
                    max_overlap = float(ov[l, m])
                if ov[l, m] >= params.theta_val:
                    violations.append(
                        "overlap (%d, %d) = %.6g >= theta = %.6g"
                        % (l, m, ov[l, m], params.theta_val)
                    )
    return MembershipResult(
        ok=not violations,
        column_norms=norms,
        max_overlap=max_overlap,
        violations=tuple(violations),
    )


def phi_project(Z, params, require_certificate=False):
    """Map a good draw to the scaled frame manifold via the polar factor.

    With require_certificate=True the call additionally demands that the
    best available Lipschitz certificate for these parameters is valid,
    i.e. the infimum bound over admissible recursion offsets is < 1.
    """
    result = membership(Z, params)
    if not result:
        raise MembershipError(
            "matrix is outside the approximation space", diagnostics=result
        )
    if require_certificate:
        L = bounds.l_bound_min(params.n, params.eps)
        if not L < 1.0:
            raise PreconditionError(
                "no Lipschitz certificate: infimum bound %.6g >= 1" % L
            )
    if isinstance(Z, FMatrix):
        return FMatrix(Z.field, phi_batched(Z.comps, Z.field))
    return phi_batched(Z, params.field)


def _frame_distances(comps, field):
    """Distance of each draw of a batch (..., N, n, 4) to the frames
    scaled by sqrt(N^F - 1): | |z| - r | for one column, otherwise from
    the singular values."""
    N, n = comps.shape[-3], comps.shape[-2]
    r = math.sqrt(N * field_dim(field) - 1.0)
    if n == 1:
        return np.abs(column_norms(comps)[..., 0] - r)
    lam = singular_values_batched(comps, field)
    return np.sqrt(np.sum(np.square(lam - r), axis=-1))


def _dp_lower(d):
    """Smallest eps with a (1 - eps) fraction of the distances d strictly
    below it.  That is the Ky Fan level, except where the level is itself
    a distance: the strict fraction then falls one draw short, and the
    answer is the next float up."""
    eps = stats.ky_fan(d)
    if np.count_nonzero(d < eps) / d.size < 1.0 - eps:
        eps = float(np.nextafter(eps, np.inf))
    return eps


def phi_batched(comps, field):
    """Polar frames scaled to the manifold radius for a batch."""
    comps = np.asarray(comps, dtype=np.float64)
    r = math.sqrt(comps.shape[-3] * field_dim(field) - 1.0)
    q, _ = polar_q_batched(comps, field)
    return q * r


def empirical_lipschitz(f, pairs):
    """Max of ||f(Z) - f(W)|| / ||Z - W|| over a list of matrix pairs.

    Coincident pairs are skipped with a warning.
    """
    best = 0.0
    skipped = 0
    for Z, W in pairs:
        gap = (Z - W).norm
        if gap <= 1e-14:
            skipped += 1
            continue
        fz, fw = f(Z), f(W)
        best = max(best, (fz - fw).norm / gap)
    if skipped:
        warnings.warn("skipping %d coincident pairs" % skipped)
    return best


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
    Zs = rs.comps[:pair_count]
    Ws = rs.comps[pair_count : 2 * pair_count]
    dist_in = np.sqrt(np.sum(np.square(Zs - Ws), axis=(-3, -2, -1)))
    out_z = phi_batched(Zs, params.field)
    out_w = phi_batched(Ws, params.field)
    dist_out = np.sqrt(np.sum(np.square(out_z - out_w), axis=(-3, -2, -1)))
    good = dist_in > 1e-12
    if not np.all(good):
        warnings.warn("skipping %d coincident pairs" % int((~good).sum()))
    ratio = dist_out[good] / dist_in[good]
    try:
        cert = bounds.l_bound_min(params.n, params.eps)
    except PreconditionError:
        cert = math.inf
    return LipschitzReport(
        max_ratio=float(np.max(ratio)),
        pairs_used=int(good.sum()),
        certificate=cert,
    )


@dataclass(frozen=True)
class PushforwardReport:
    ks: dict
    critical: float
    passed: bool
    acceptance_rate: float
    sample_size: int


def _panel_direction(field, N, n, seed):
    """A fixed unit direction for the linear statistic, drawn from a
    reserved stream that never collides with sample chunks."""
    gen = sampling.chunk_generator(seed, 1 << 62)
    d = field_dim(field)
    comps = np.zeros((N, n, 4))
    comps[..., :d] = gen.standard_normal((N, n, d))
    return comps / math.sqrt(float(np.sum(np.square(comps))))


def _panel_statistics(comps, field, direction):
    N = comps.shape[-3]
    half = comps[..., : (N + 1) // 2, :, :]
    return {
        "linear": np.sum(comps * direction, axis=(-3, -2, -1)),
        "top_singular_half": singular_values_batched(half, field)[..., 0],
        "first_entry": comps[..., 0, 0, 0],
    }


def pushforward_test(
    N,
    n,
    params,
    sample_size=10000,
    seed=0,
    alpha=0.01,
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
    pushed = phi_batched(rs.comps, params.field)
    ref_cfg = sampling.SamplerConfig(
        params.field,
        params.N,
        params.n,
        scaled=scaled_reference,
        seed=seed + 1,
        count=sample_size,
    )
    reference = sampling.haar_comps(ref_cfg)
    direction = _panel_direction(params.field, params.N, params.n, seed)
    sa = _panel_statistics(pushed, params.field, direction)
    sb = _panel_statistics(reference, params.field, direction)
    crit = stats.ks_critical(sample_size, sample_size, alpha=alpha)
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


def prok_experiment(N, n, field, sample_size=100000, seed=0):
    """Concentration of the distance to the scaled frame manifold.

    dP_lower is the smallest eps with an empirical (1 - eps) fraction of
    Gaussian draws within distance eps of the manifold; it bounds the
    Prohorov gap between the Gaussian law and its projection from below.
    """
    cfg = sampling.SamplerConfig(field, N, n, seed=seed, count=sample_size)
    chunks = sampling.iter_gaussian_chunks(cfg)
    d = np.sort(np.concatenate([_frame_distances(c, field) for c in chunks]))
    S = d.size
    qs = {p: float(np.quantile(d, p / 100.0)) for p in (5, 25, 50, 75, 95)}
    return ProkReport(
        dP_lower=_dp_lower(d),
        quantiles=qs,
        sample_size=S,
        mean_distance=float(np.mean(d)),
    )
