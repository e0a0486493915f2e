"""Output checks for the benchmark's operations.

Every expected value is computed here, with numpy and the standard
library only, from the law the method must follow; none is a stored copy
of program output.  Each check returns a list of failure messages; an
empty list means the operation passed.

Statistical checks use bands at ALPHA = 1e-6, so a correct program fails
one of them on about one seed in 10^5.  The one-sample KS bands use the
Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant,
P(sup |F_S - F| > e) <= 2 exp(-2 S e^2), which holds at every sample
size; the two-sample band uses the same first term of the Kolmogorov
series at sqrt(S / 2).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os

import numpy as np

ALPHA = 1e-6
Z_BINOMIAL = 5.33  # two-sided normal tail 1e-7
FIELD_DIM = {"R": 1, "C": 2, "H": 4}
FIELDS = {"r": "R", "c": "C", "h": "H"}
TOL_DECOMP = 1e-8
TOL_FRAME = 1e-12

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _fields(text):
    return [FIELDS[t] for t in text.split(",")]


def _gauss_legendre(f, a, b, panels):
    """Composite 48-point Gauss-Legendre rule; a and b may be arrays."""
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    t = (np.arange(panels)[:, None] + 0.5 * (_GL_X + 1.0)) / panels  # (panels, 48)
    x = a[..., None, None] + (b - a)[..., None, None] * t
    w = np.broadcast_to(_GL_W / (2.0 * panels), t.shape)
    return np.sum(f(x) * w, axis=(-2, -1)) * (b - a)


def norm_cdf(x):
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.ravel(x)]).reshape(np.shape(x))


def dkw(S, alpha=ALPHA):
    """Half-width e of the DKW band: P(sup |F_S - F| > e) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * S))


def kolmogorov_c(alpha):
    """c with 2 sum_k (-1)^(k-1) exp(-2 k^2 c^2) = alpha, by bisection."""

    def q(c):
        k = np.arange(1, 101)
        return float(np.sum(2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * k * k * c * c)))

    lo, hi = 0.3, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if q(mid) > alpha else (lo, mid)
    return 0.5 * (lo + hi)


def sphere_coordinate_cdf(m, x):
    """P(sqrt(m-1) u_1 <= x) for u uniform on the unit sphere of R^m.

    u_1 = sin(t) with t distributed with density proportional to
    cos(t)^(m-2) on (-pi/2, pi/2); the integrand is smooth in t.
    """
    t = np.arcsin(np.clip(np.asarray(x, float) / math.sqrt(m - 1.0), -1.0, 1.0))
    log_c = math.lgamma(m / 2.0) - 0.5 * math.log(math.pi) - math.lgamma((m - 1.0) / 2.0)
    return math.exp(log_c) * _gauss_legendre(lambda s: np.cos(s) ** (m - 2), -0.5 * math.pi, t, 4)


@functools.lru_cache(maxsize=None)
def sphere_ks_to_normal(m):
    """sup_x |Phi(x) - P(sqrt(m-1) u_1 <= x)|: the exact KS distance the
    mbdist statistic estimates."""
    r = math.sqrt(m - 1.0)
    x = np.union1d(np.linspace(-8.0, 8.0, 16001), [-r, r])
    return float(np.max(np.abs(norm_cdf(x) - sphere_coordinate_cdf(m, x))))


def chi_mass(m, lo, hi):
    """P(lo < |z| < hi) for z standard normal in R^m (lo, hi may be arrays)."""
    mode = math.sqrt(m - 1.0)
    lo = np.maximum(np.asarray(lo, float), max(0.0, mode - 14.0))
    hi = np.maximum(np.minimum(np.asarray(hi, float), mode + 14.0), lo)
    log_norm = (m / 2.0 - 1.0) * math.log(2.0) + math.lgamma(m / 2.0)

    def density(r):
        safe = np.where(r > 0.0, r, 1.0)
        return np.where(r > 0.0, np.exp((m - 1.0) * np.log(safe) - 0.5 * r * r - log_norm), 0.0)

    return _gauss_legendre(density, lo, hi, 16)


def distance_cdf(m, t):
    """P(| |z| - sqrt(m-1) | <= t) for z standard normal in R^m."""
    r = math.sqrt(m - 1.0)
    t = np.asarray(t, float)
    return chi_mass(m, np.maximum(r - t, 0.0), r + t)


@functools.lru_cache(maxsize=None)
def prokhorov_level(m):
    """The eps in (0, 2) with P(distance <= eps) = 1 - eps."""
    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if float(distance_cdf(m, mid)) + mid >= 1.0 else (mid, hi)
    return 0.5 * (lo + hi)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _by_field(rows, fields):
    """{field: {stat_name: row}} for the requested fields."""
    out = {f: {} for f in fields}
    for row in rows:
        if row["field"] in out:
            out[row["field"]][row["stat_name"]] = row
    return out


def check_manifest(op, seed):
    """manifest.json names each CSV with its sha256 and the requested seed."""
    errors = []
    path = os.path.join(op.out, "manifest.json")
    if not os.path.isfile(path):
        return ["no manifest.json"]
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest["config"]["seed"] != seed:
        errors.append("manifest seed %r, requested %d" % (manifest["config"]["seed"], seed))
    for name, digest in manifest["outputs"].items():
        actual = sha256_file(os.path.join(op.out, name))
        if actual != digest:
            errors.append("manifest digest of %s is %s, file is %s" % (name, digest[:12], actual[:12]))
    return errors


def check_mbdist(op):
    p = op.params
    fields = _fields(p["field"])
    per = _by_field(_read_rows(os.path.join(op.out, "mbdist.csv")), fields)
    errors = []
    for f in fields:
        row = per[f].get("ks_vs_normal")
        if row is None:
            errors.append("mbdist: no row for field %s" % f)
            continue
        m = int(row["N"]) * FIELD_DIM[f]
        S = int(row["samples"])
        ks, exact, band = float(row["value"]), sphere_ks_to_normal(m), dkw(S)
        if S != p["samples"] or abs(ks - exact) > band:
            errors.append(
                "mbdist %s: ks %.5f, exact %.5f +- %.5f (S=%d)" % (f, ks, exact, band, S)
            )
    return errors


def check_pushforward(op):
    p = op.params
    S = p["samples"]
    fields = _fields(p["field"])
    per = _by_field(_read_rows(os.path.join(op.out, "pushforward.csv")), fields)
    critical_01 = kolmogorov_c(0.01) * math.sqrt(2.0 / S)
    critical = math.sqrt(math.log(2.0 / ALPHA) / 2.0) * math.sqrt(2.0 / S)
    errors = []
    for f in fields:
        stats = {k: float(r["value"]) for k, r in per[f].items()}
        ks = {k: v for k, v in stats.items() if k.startswith("ks_") and k != "ks_critical"}
        if len(ks) != 3 or "passed" not in stats or "ks_critical" not in stats:
            errors.append("pushforward %s: rows %s" % (f, sorted(stats)))
            continue
        if abs(stats["ks_critical"] - critical_01) > 1e-9 * critical_01:
            errors.append("pushforward %s: ks_critical %.8f, expected %.8f" % (f, stats["ks_critical"], critical_01))
        if stats["passed"] != float(all(v < stats["ks_critical"] for v in ks.values())):
            errors.append("pushforward %s: passed=%g disagrees with its ks rows" % (f, stats["passed"]))
        for name, v in ks.items():
            if not v < critical:
                errors.append("pushforward %s: %s = %.5f >= %.5f" % (f, name, v, critical))
    return errors


def check_fullmeas(op):
    p = op.params
    S = p["samples"]
    fields = _fields(p["field"])
    per = _by_field(_read_rows(os.path.join(op.out, "fullmeas.csv")), fields)
    errors = []
    for f in fields:
        if not {"mc_mass", "product_lower"} <= set(per[f]):
            errors.append("fullmeas %s: rows %s" % (f, sorted(per[f])))
            continue
        row = per[f]["mc_mass"]
        m = int(row["N"]) * FIELD_DIM[f]
        eps = float(row["epsilon"])
        r = math.sqrt(m - 1.0)
        exact = min(1.0, float(chi_mass(m, (1.0 - eps) * r, (1.0 + eps) * r)))
        noise = Z_BINOMIAL * math.sqrt(exact * (1.0 - exact) / S) + 1.0 / S
        mass = float(row["value"])
        lower = float(per[f]["product_lower"]["value"])
        if abs(mass - exact) > noise:
            errors.append("fullmeas %s: mc_mass %.6f, exact %.6f +- %.2e" % (f, mass, exact, noise))
        if mass < lower - noise:
            errors.append("fullmeas %s: mc_mass %.6f below product_lower %.6f" % (f, mass, lower))
    return errors


def check_prok(op):
    p = op.params
    fields = _fields(p["field"])
    per = _by_field(_read_rows(os.path.join(op.out, "prok.csv")), fields)
    errors = []
    for f in fields:
        stats = {k: float(r["value"]) for k, r in per[f].items()}
        need = {"dP_lower", "q05", "q25", "q50", "q75", "q95"}
        if not need <= set(stats):
            errors.append("prok %s: rows %s" % (f, sorted(stats)))
            continue
        row = per[f]["dP_lower"]
        m = int(row["N"]) * FIELD_DIM[f]
        S = int(row["samples"])
        band = dkw(S) + 2.0 / S
        for k in sorted(need - {"dP_lower"}):
            level = float(distance_cdf(m, stats[k]))
            if abs(level - int(k[1:]) / 100.0) > band:
                errors.append("prok %s: %s = %.5f has exact level %.5f" % (f, k, stats[k], level))
        exact = prokhorov_level(m)
        if abs(stats["dP_lower"] - exact) > dkw(S) + 1.0 / S + 1e-12:
            errors.append("prok %s: dP_lower %.5f, exact %.5f" % (f, stats["dP_lower"], exact))
    return errors


def check_decomp_props(op):
    p = op.params
    fields = _fields(p["field"])
    per = _by_field(_read_rows(os.path.join(op.out, "decomp-props.csv")), fields)
    errors = []
    for f in fields:
        stats = {k: float(r["value"]) for k, r in per[f].items()}
        samples = {int(r["samples"]) for r in per[f].values()}
        if samples != {p["samples"]} or len(stats) != 4:
            errors.append("decomp-props %s: rows %s, samples %s" % (f, sorted(stats), samples))
            continue
        for k in ("max_reconstruction", "max_frame_deviation", "max_nearest_gap"):
            if not stats[k] <= TOL_DECOMP:
                errors.append("decomp-props %s: %s = %.3e" % (f, k, stats[k]))
        if stats["li_violations"] != 0:
            errors.append("decomp-props %s: li_violations = %g" % (f, stats["li_violations"]))
    return errors


def check_sample(op):
    """Re-read the sample CSV: shape, empty slots, frames, sidecar digest."""
    p = op.params
    field = FIELDS[p["field"]]
    d, N, n, count = FIELD_DIM[field], p["N"], p["n"], p["count"]
    width = 4 * N * n
    path = op.out
    errors = []
    with open(path + ".json") as fh:
        side = json.load(fh)
    if side["csv_sha256"] != sha256_file(path):
        errors.append("sample: sidecar csv_sha256 differs from the file's digest")
    frames = np.empty((count, N * n, d))
    filled = np.arange(width) % 4 < d
    rows = 0
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != ["idx", "field", "N", "n"] + ["comp_%d" % k for k in range(width)]:
            errors.append("sample: unexpected header")
        for i, line in enumerate(fh):
            tok = line.rstrip("\n").split(",")
            if i >= count or tok[:4] != [str(i), field, str(N), str(n)] or len(tok) != 4 + width:
                errors.append("sample: bad row %d" % i)
                break
            vals = np.array(tok[4:], dtype=object)
            if any(vals[~filled]) or not all(vals[filled]):
                errors.append("sample: row %d fills the wrong slots" % i)
                break
            frames[i] = vals[filled].astype(float).reshape(N * n, d)
            rows += 1
    if rows != count:
        return errors + ["sample: %d rows, expected %d" % (rows, count)]
    z = frames.reshape(count, N, n, d) / math.sqrt(N * d - 1.0)
    q = z[..., 0] + 1j * z[..., 1] if d == 2 else z[..., 0]
    gram = np.conj(np.swapaxes(q, -1, -2)) @ q
    dev = float(np.max(np.abs(gram - np.eye(n))))
    if not dev <= TOL_FRAME:
        errors.append("sample: frame deviation %.3e > %.0e" % (dev, TOL_FRAME))
    return errors


def check_same_csv(op):
    """The CSV at this worker count is byte-identical to the one at `like`."""
    names = [n for n in os.listdir(op.out) if n.endswith(".csv")]
    if not names:
        return ["determinism: no CSV written"]
    return [
        "determinism: %s differs between worker counts" % n
        for n in names
        if sha256_file(os.path.join(op.out, n)) != sha256_file(os.path.join(op.params["like"], n))
    ]


CHECKS = {
    "mbdist": check_mbdist,
    "pushforward": check_pushforward,
    "fullmeas": check_fullmeas,
    "prok": check_prok,
    "decomp-props": check_decomp_props,
    "sample": check_sample,
    "same-csv": check_same_csv,
}


def output_digest(op):
    """The digests the operation recorded for its outputs."""
    if op.argv[0] == "run":
        with open(os.path.join(op.out, "manifest.json")) as fh:
            return json.dumps(json.load(fh)["outputs"], sort_keys=True)
    with open(op.out + ".json") as fh:
        return json.load(fh)["csv_sha256"]


def check_op(op, rc, seed):
    """All checks of one operation: exit code, manifest, outputs.

    Returns (failure messages, output digest).
    """
    if rc != 0:
        return ["exit code %r" % rc], None
    try:
        errors = [] if op.argv[0] != "run" else check_manifest(op, seed)
        return errors + CHECKS[op.check](op), output_digest(op)
    except (OSError, KeyError, ValueError) as exc:
        return ["%s: unreadable output (%s: %s)" % (op.check, type(exc).__name__, exc)], None
