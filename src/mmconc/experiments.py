"""Named Monte Carlo experiments behind the CLI.

Each experiment resolves a config into deterministic CSV rows plus
per-(N, n, field) summary lines.  Six of them are a function of one
(field, N, n) point that `_grid` calls over cfg.fields x cfg.N_list,
prefixing its rows and summaries with the point; bounds walks N alone
and decomp-props fields alone.  A sampling experiment hands
`sampling.draws` a per-draw reduction (a coordinate, a membership mask, a
distance); `sampling` alone walks the fixed grid of 1024-draw chunks keyed
by (seed, chunk) and reduces each sub-block as it draws it, so memory
does not grow with N.  fullmeas, prok, mbdist and obsdiam read only the
Gram matrix or the top row of a Haar frame, so they reduce compressed
draws (`sampling.gaussian_blocks` with p), whose cost does not grow
with N at all.  A run with w workers starts at most w - 1 threads, once:
`run_experiment` opens `sampling.worker_pool(w)`, whose pool every
`draws` call of the run uses, the calling thread being the other worker,
and no thread outlives the run.  The pool only changes who reduces a
chunk, never its content, so output bytes are independent of the worker
count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import bounds, concentration, gaussian, sampling, stats
from .algebra import FIELDS, FMatrix, _to_native, field_dim, frame_radius
from .decomp import dist_to_scaled_stiefel, membership_native, polar
from .errors import ConfigError, DomainError, PreconditionError

# The experiments that build a bounds.make_schedule for each (N, n), so
# that each (N, n) of their config must have one.
SCHEDULED = ("fullmeas", "lipschitz", "bounds")

# A run with w workers reduces chunks on its calling thread and on at
# most w - 1 threads it starts once (run_experiment), each drawing its
# own sub-blocks; past the machine's cores more of them add only memory
# and scheduling.  So a worker count above MAX_WORKERS is refused rather
# than started, and the CLI's default, the core count, is capped at it.
# Criterion 12 runs 4.
MAX_WORKERS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one run, checked once, on construction, for the CLI
    and in-process callers alike (a bad value is a ConfigError).  It also
    resolves `rule`, the bounds.Rule of n_rule, `points`, the (N, n) of
    each N under it, and `growth`, the bounds.Condition of condition and
    a; none of them is a field."""

    experiment: str = ""
    fields: tuple = ("R",)
    N_list: tuple = (100,)
    n_rule: str = "const:1"
    kappa_list: tuple = (0.5,)
    samples: int = 10000
    seed: int = 0
    eps: float = 0.5
    condition: str = "condi"
    a: float = 0.5
    workers: int = 1
    out: str = "."

    def __post_init__(self):
        # A `validate` file without an experiment key gives the empty
        # name: a record that is checked but never run.
        if self.experiment and self.experiment not in EXPERIMENTS:
            raise ConfigError(
                "unknown experiment %r (choose from %s)"
                % (self.experiment, ", ".join(sorted(EXPERIMENTS)))
            )
        if not self.fields or not self.N_list or not self.kappa_list:
            raise ConfigError("fields, N and kappa must each list at least one value")
        for f in self.fields:
            if f not in FIELDS:
                raise ConfigError("unknown field tag %r (expected R, C or H)" % (f,))
        rule = bounds.parse_rule(self.n_rule)
        points = []
        for N in self.N_list:
            n = rule(N)
            if not 1 <= n <= N:
                raise ConfigError(
                    "rule %s gives n = %d at N = %d; need 1 <= n <= N" % (self.n_rule, n, N)
                )
            if self.experiment in SCHEDULED:
                try:
                    bounds.check_dimensions(N, n)
                except PreconditionError as exc:
                    raise ConfigError("%s at N = %d, n = %d: %s" % (self.experiment, N, n, exc))
            elif self.experiment in ("mbdist", "obsdiam", "prok", "pushforward"):
                # They sample frames of radius sqrt(N^F - 1), 0 only at R, N = 1.
                if N == 1 and "R" in self.fields:
                    raise ConfigError(
                        "%s at field R, N = 1: the scaled frame radius sqrt(N^F - 1) is 0"
                        % self.experiment
                    )
            points.append((N, n))
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "growth", self._growth())
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.experiment == "pushforward" and self.samples < stats.KS_MIN_SAMPLES:
            raise ConfigError(
                "pushforward needs samples >= %d for its KS critical value" % stats.KS_MIN_SAMPLES
            )
        if not 0.0 < self.eps < 1.0:
            raise ConfigError("eps must lie in (0, 1)")
        if not all(0.0 < kappa < 1.0 for kappa in self.kappa_list):
            raise ConfigError("kappa must lie in (0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.workers > MAX_WORKERS:
            raise ConfigError("workers must be <= %d" % MAX_WORKERS)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def _growth(self):
        if self.condition == "condi":
            return bounds.condi()
        if self.condition == "ass":
            try:
                return bounds.ass(self.a)
            except DomainError as exc:
                raise ConfigError(str(exc))
        raise ConfigError("unknown condition %r" % self.condition)

    def settings(self):
        """Every setting that determines output bytes, under its manifest
        name; the workers and the output directory do not."""
        return {
            "fields": list(self.fields),
            "N": list(self.N_list),
            "n": self.n_rule,
            "kappa": list(self.kappa_list),
            "samples": self.samples,
            "seed": self.seed,
            "eps": self.eps,
            "condition": self.condition,
            "a": self.a,
        }

    def digest(self):
        """Content hash of the stream, the experiment and its settings."""
        payload = {"stream": sampling.STREAM, "experiment": self.experiment, **self.settings()}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ExperimentResult:
    name: str
    header: list
    rows: list
    summaries: list
    extra_json: dict = dc_field(default_factory=dict)


def _haar_coordinates(cfg, field, N):
    """Real part of the first entry z_11 of cfg.samples scaled Haar frames
    in F^N.

    z_11 reads only the frame's first column, and the first column of a
    Haar frame, whatever its n, is uniform on the sphere of F^N (of radius
    sqrt(N^F - 1) once scaled).  So one column suffices, and its top entry
    comes from the top row of a compressed one-column frame (haar_blocks
    with p = 1): a draw of two numbers at every N and n.
    """
    scfg = sampling.SamplerConfig(field, N, 1, seed=cfg.seed, count=cfg.samples)
    coords = sampling.draws(
        scfg,
        functools.partial(sampling.haar_blocks, p=1),
        lambda Q: Q[:, 0, 0].real,
    )
    return np.concatenate(list(coords))


def _grid(cfg, name, header, point):
    """Walk cfg.fields x cfg.N_list: point(field, N, n) returns the row
    tails and summary tails of one (field, N, n), which become rows
    [N, n, field, *tail] under header ["N", "n", "field", *header] and
    summaries "<name> field=... N=... n=... <tail>"."""
    rows, summaries = [], []
    for field in cfg.fields:
        for N, n in cfg.points:
            tails, notes = point(field, N, n)
            rows += [[N, n, field, *tail] for tail in tails]
            summaries += ["%s field=%s N=%d n=%d %s" % (name, field, N, n, note) for note in notes]
    return ExperimentResult(name, ["N", "n", "field", *header], rows, summaries)


def run_mbdist(cfg):
    """First retained coordinate of row-projected scaled Haar frames
    against the standard normal CDF."""

    def point(field, N, n):
        ks = stats.ks_statistic(_haar_coordinates(cfg, field, N), gaussian.norm_cdf)
        return [[cfg.samples, "ks_vs_normal", ks]], ["ks=%.5f" % ks]

    return _grid(cfg, "mbdist", ["samples", "stat_name", "value"], point)


def run_fullmeas(cfg):
    """Monte Carlo Gaussian mass of the approximation space against the
    analytic product lower bound."""

    def point(field, N, n):
        sch = bounds.make_schedule(N, n, cfg.growth)
        scfg = sampling.SamplerConfig(field, N, n, seed=cfg.seed, count=cfg.samples)
        hits = sampling.draws(
            scfg,
            functools.partial(sampling.gaussian_blocks, p=0),
            lambda X: membership_native(X, field, sch.eps_N, sch.theta_N, N),
        )
        mass = float(np.concatenate(list(hits)).mean())
        lower = bounds.v_bound(N, n, sch, field=field).product_lower
        rows = [[sch.eps_N, sch.theta_N, "mc_mass", mass],
                [sch.eps_N, sch.theta_N, "product_lower", lower]]
        return rows, ["mass=%.4f lower=%.4f" % (mass, lower)]

    return _grid(cfg, "fullmeas", ["epsilon", "theta", "stat_name", "value"], point)


def run_prok(cfg):
    def point(field, N, n):
        rep = concentration.prok_experiment(N, n, field, sample_size=cfg.samples, seed=cfg.seed)
        named = [("dP_lower", rep.dP_lower)] + [("q%02d" % p, q) for p, q in rep.quantiles.items()]
        rows = [[rep.sample_size, stat, value] for stat, value in named]
        return rows, ["dP_lower=%.4f" % rep.dP_lower]

    return _grid(cfg, "prok", ["samples", "stat_name", "value"], point)


def run_lipschitz(cfg):
    def point(field, N, n):
        sch = bounds.make_schedule(N, n, cfg.growth)
        params = concentration.ApproxSpaceParams(field, N, n, sch.eps_N, sch.theta_N)
        rep = concentration.lipschitz_experiment(params, pair_count=cfg.samples, seed=cfg.seed)
        analytic = 1.0 / (1.0 - rep.certificate) if rep.certificate < 1.0 else math.inf
        named = (("max_ratio", rep.max_ratio), ("certificate", rep.certificate),
                 ("analytic_bound", analytic))
        rows = [[sch.eps_N, sch.theta_N, stat, value] for stat, value in named]
        return rows, ["ratio=%.4f bound=%.4f" % (rep.max_ratio, analytic)]

    return _grid(cfg, "lipschitz", ["epsilon", "theta", "stat_name", "value"], point)


def run_pushforward(cfg):
    def point(field, N, n):
        params = concentration.ApproxSpaceParams(field, N, n, cfg.eps)
        rep = concentration.pushforward_test(N, n, params, sample_size=cfg.samples, seed=cfg.seed)
        named = [("ks_" + name, value) for name, value in sorted(rep.ks.items())]
        named += [("ks_critical", rep.critical), ("passed", int(rep.passed))]
        rows = [[cfg.eps, params.theta_val, stat, value] for stat, value in named]
        return rows, ["passed=%s" % rep.passed]

    return _grid(cfg, "pushforward", ["epsilon", "theta", "stat_name", "value"], point)


def run_obsdiam(cfg):
    """Coordinate-witness lower bound of the observable diameter on
    scaled Haar frames, with the dimension-free analytic target: the
    partial diameter of the standard normal law, the limit law of a
    scaled coordinate, which is twice its 1 - kappa / 2 quantile and so
    twice the half-normal window of law_partial_diameter(1, kappa)."""

    def point(field, N, n):
        coords = _haar_coordinates(cfg, field, N)
        # Samples carry the sqrt(N^F - 1) radius; dividing it out and
        # multiplying by sqrt(N^F) lands on the dimension-free target.
        NF = N * field_dim(field)
        scale = math.sqrt(NF / (NF - 1.0))
        rows, notes = [], []
        for kappa in cfg.kappa_list:
            value = stats.partial_diameter(coords, kappa)
            target = 2.0 * stats.law_partial_diameter(1, kappa)
            rows.append([kappa, "coordinate", value, scale * value, target])
            notes.append("kappa=%g scaled=%.5f target=%.5f" % (kappa, scale * value, target))
        return rows, notes

    return _grid(
        cfg, "obsdiam", ["kappa", "witness", "value", "scaled_value", "target"], point
    )


def run_bounds(cfg):
    rows, summaries = [], []
    schedules = []
    for N, n in cfg.points:
        sch = bounds.make_schedule(N, n, cfg.growth)
        schedules.append(sch.to_json())
        for key in ("p_N", "a_N", "eps_N", "b_N", "theta_N", "q_N", "sigma_N", "L_bound"):
            rows.append([N, n, cfg.condition, key, getattr(sch, key)])
        for l, (e, t) in enumerate(zip(sch.eps_l, sch.T_l), start=1):
            rows.append([N, n, cfg.condition, "eps_%d" % l, e])
            rows.append([N, n, cfg.condition, "T_%d" % l, t])
        summaries.append(
            "bounds N=%d n=%d eps=%.5f theta=%.5f L=%.5f"
            % (N, n, sch.eps_N, sch.theta_N, sch.L_bound)
        )
    return ExperimentResult(
        "bounds",
        ["N", "n", "condition", "stat_name", "value"],
        rows,
        summaries,
        extra_json={"schedules": schedules},
    )


def run_decomp_props(cfg):
    """Property sweep: reconstruction errors, frame orthonormality, the
    polar perturbation inequality, and nearest-frame optimality."""
    rows, summaries = [], []
    for field in cfg.fields:
        gen = sampling.chunk_generator(cfg.seed, 0)
        d = field_dim(field)
        worst_recon = 0.0
        worst_frame = 0.0
        li_violations = 0
        nearest_gap = 0.0
        for _ in range(cfg.samples):
            N = int(gen.integers(2, 21))
            n = int(gen.integers(1, min(N, 5) + 1))
            X = _to_native(gen.standard_normal((2, N, n, d)), field)
            Z1, Z2 = FMatrix._wrap(field, X[0]), FMatrix._wrap(field, X[1])
            p1, p2 = polar(Z1), polar(Z2)
            recon = (p1.q @ p1.h - Z1).norm / max(1.0, Z1.norm)
            worst_recon = max(worst_recon, recon)
            dev = (p1.q.adjoint() @ p1.q - FMatrix.identity(field, n)).norm
            worst_frame = max(worst_frame, dev)
            lam1, lam2 = p1.lam[-1], p2.lam[-1]
            if min(lam1, lam2) > 1e-6:
                lhs = (Z1 - Z2).norm
                rhs = min(lam1, lam2) * (p1.q - p2.q).norm
                if lhs < rhs * (1.0 - 1e-9):
                    li_violations += 1
            r = frame_radius(N, field)
            closed = dist_to_scaled_stiefel(Z1, r)
            direct = (Z1 - p1.q.scale(r)).norm
            nearest_gap = max(nearest_gap, abs(closed - direct))
        for stat, value in (
            ("max_reconstruction", worst_recon),
            ("max_frame_deviation", worst_frame),
            ("li_violations", li_violations),
            ("max_nearest_gap", nearest_gap),
        ):
            rows.append([field, cfg.samples, stat, value])
        summaries.append(
            "decomp-props field=%s recon=%.2e frame=%.2e li_viol=%d nearest=%.2e"
            % (field, worst_recon, worst_frame, li_violations, nearest_gap)
        )
    return ExperimentResult(
        "decomp-props", ["field", "samples", "stat_name", "value"], rows, summaries
    )


EXPERIMENTS = {
    "mbdist": run_mbdist,
    "fullmeas": run_fullmeas,
    "prok": run_prok,
    "lipschitz": run_lipschitz,
    "pushforward": run_pushforward,
    "obsdiam": run_obsdiam,
    "bounds": run_bounds,
    "decomp-props": run_decomp_props,
}


def run_experiment(cfg):
    """Run cfg.experiment.  Every sampling.draws call of the run shares
    one pool of cfg.workers - 1 threads, started at most once and joined
    before this returns or raises."""
    if not cfg.experiment:
        raise ConfigError("the run record names no experiment")
    with sampling.worker_pool(cfg.workers):
        return EXPERIMENTS[cfg.experiment](cfg)
