"""Explicit scalar schedules and certified bounds.

Implements the near-orthogonality angle theta(eps), the growth-condition
checkers, the per-N schedule (p_N, a_N, eps_N, the truncated annuli
eps_{N,l} and ball radii T_{N,l}, theta_N, q_N, sigma_N), the sigma
recursion that controls how many nearly-orthonormal columns fit before
degeneracy, the frame-distance bound L(n, eps, theta), and the product
lower bound for the Gaussian mass of the approximation space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import gaussian
from .algebra import field_dim
from .errors import ConfigError, DomainError, PreconditionError


def theta(eps):
    """Angle bound (5 eps^2 (1+eps) / ((1-eps) + 5 eps^2 (1+eps)))^(1/2)."""
    if not 0.0 < eps < 1.0:
        raise DomainError("theta requires 0 < eps < 1")
    t = 5.0 * eps * eps * (1.0 + eps)
    return math.sqrt(t / ((1.0 - eps) + t))


@dataclass(frozen=True)
class Condition:
    """Growth condition on n_N: kind 'ass' carries (a, a_prime), kind
    'condi' only a_prime.  The constant named c in the headline
    condition and a' in the explicit one are the same parameter; a
    single a_prime is exposed for both."""

    kind: str
    a: float | None = None
    a_prime: float = 0.5

    def __post_init__(self):
        if self.kind not in ("ass", "condi"):
            raise DomainError("condition kind must be 'ass' or 'condi'")
        if not 0.0 < self.a_prime < 1.0:
            raise DomainError("a_prime must lie in (0, 1)")
        if self.kind == "ass":
            if self.a is None or not 0.0 < self.a < 1.0:
                raise DomainError("'ass' needs a in (0, 1)")

    def exponent_a(self, p_N):
        if self.kind == "condi":
            return (1.0 + p_N) / 4.0
        return 0.5 * self.a * (1.0 - p_N)

    def expression(self, N, n):
        """The supremand whose boundedness the condition asserts."""
        if self.kind == "condi":
            return 2.0 * math.log(n) - 0.25 * self.a_prime * math.sqrt(N / n**3)
        return 2.0 * math.log(n) - 0.25 * self.a_prime * (N / n) ** (1.0 - self.a)


def condi(a_prime=0.5):
    return Condition("condi", None, a_prime)


def ass(a, a_prime=0.5):
    return Condition("ass", a, a_prime)


@dataclass(frozen=True)
class Schedule:
    N: int
    n_N: int
    condition: Condition
    p_N: float
    a_N: float
    eps_N: float
    b_N: float
    eps_l: np.ndarray
    T_l: np.ndarray
    theta_N: float
    q_N: float
    sigma_N: float
    L_bound: float

    def to_json(self):
        """Every field, with the arrays eps_l and T_l as lists."""
        return {**asdict(self), "eps_l": self.eps_l.tolist(), "T_l": self.T_l.tolist()}


def check_dimensions(N, n_N):
    """PreconditionError unless (N, n_N) has a schedule: N >= 3 and
    1 <= n_N <= N - 1."""
    if N < 3:
        raise PreconditionError("need N >= 3")
    if not 1 <= n_N <= N - 1:
        raise PreconditionError("need 1 <= n_N <= N - 1")


def make_schedule(N, n_N, condition):
    """All derived scalars for one (N, n_N) under a growth condition."""
    check_dimensions(N, n_N)
    logN1 = math.log(N - 1.0)
    p_N = math.log(n_N) / logN1
    a_N = condition.exponent_a(p_N)
    eps_N = math.exp(-a_N * logN1)
    b_N = 1.0 - eps_N
    ls = np.arange(1, n_N)
    root_full = math.sqrt(N - 1.0)
    root_part = np.sqrt(N - ls - 1.0)
    # Cancellation-free form of 1 - (1 - b eps) sqrt((N-1)/(N-l-1)).
    eps_l = (b_N * eps_N * root_full - ls / (root_full + root_part)) / root_part
    T_l = np.sqrt(
        np.maximum(
            (N - ls - 1.0) / ls * (eps_N - eps_l) * (eps_N + eps_l + 2.0), 0.0
        )
    )
    theta_N = theta(eps_N)
    q_N = 2.0 / (1.0 + p_N) * (p_N + 1.0 / 3.0)
    sigma_N = theta_N ** (2.0 - q_N)
    try:
        L_bound = l_bound(n_N, eps_N, sigma_N)
    except PreconditionError:
        L_bound = math.inf
    return Schedule(
        N=N,
        n_N=n_N,
        condition=condition,
        p_N=p_N,
        a_N=a_N,
        eps_N=eps_N,
        b_N=b_N,
        eps_l=eps_l,
        T_l=T_l,
        theta_N=theta_N,
        q_N=q_N,
        sigma_N=sigma_N,
        L_bound=L_bound,
    )


def phi_step(delta, s):
    """One recursion step (delta + s)^2 / (1 - s)."""
    return (delta + s) ** 2 / (1.0 - s)


def r_factor(delta, s):
    return 2.0 * (delta + s) / (1.0 - s)


@dataclass(frozen=True)
class SigmaRecursion:
    delta: float
    sigma: float
    s: np.ndarray
    c: np.ndarray
    n_sigma: int


def sigma_recursion(delta, sigma):
    """Run s_l = s_{l-1} + phi(s_{l-1}) until it reaches sigma.

    Returns all s_0 .. s_{n_sigma} together with the coefficients c_l
    computed from their own running-sum display (the closed relation
    delta^2 sum c_m^2 = s_l is left to cross-checks).
    """
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    if not 0.0 <= sigma <= 1.0:
        raise DomainError("sigma must lie in [0, 1]")
    s = [0.0]
    while s[-1] < sigma:
        s.append(s[-1] + phi_step(delta, s[-1]))
    if len(s) == 1:
        # sigma <= 0 leaves the set in the max empty; one step is still
        # defined and the count is 1.
        s.append(s[0] + phi_step(delta, s[0]))
    n_sigma = len(s) - 1
    c = [0.0]
    sum_sq = 0.0
    for _ in range(1, n_sigma + 1):
        c_l = (1.0 + delta * sum_sq) / math.sqrt(1.0 - delta * delta * sum_sq)
        c.append(c_l)
        sum_sq += c_l * c_l
    return SigmaRecursion(
        delta=delta, sigma=sigma, s=np.array(s), c=np.array(c), n_sigma=n_sigma
    )


def _frame_distance_bound(n, eps, sigma):
    """The closed form of l_bound, also l_bound_min's at sigma = s_{n-1}."""
    val = n * eps * eps + 2.0 * n * (1.0 + eps) * sigma / (1.0 + math.sqrt(1.0 - sigma))
    return math.sqrt(val)


def l_bound(n, eps, sigma):
    """Certified upper bound on the worst frame distance of n nearly
    orthonormal columns: sqrt(n eps^2 + 2 n (1+eps) sigma / (1 + sqrt(1-sigma))).

    Valid only when n <= n_sigma(theta(eps)); violating that raises.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if not 0.0 <= sigma <= 1.0:
        raise DomainError("sigma must lie in [0, 1]")
    # s is strictly increasing, so n <= n_sigma exactly when n = 1 or
    # s_{n-1} < sigma.
    if n > 1 and not _offset(theta(eps), n - 1) < sigma:
        rec = sigma_recursion(theta(eps), sigma)
        raise PreconditionError(
            "n = %d exceeds n_sigma = %d for theta(eps) = %.6g"
            % (n, rec.n_sigma, rec.delta)
        )
    return _frame_distance_bound(n, eps, sigma)


def _offset(delta, m):
    """s_m of the recursion s_l = s_{l-1} + phi(s_{l-1}) from s_0 = 0, or
    inf once a step would start from s >= 1, where phi has no value."""
    s = 0.0
    for _ in range(m):
        if s >= 1.0:
            return math.inf
        s = s + phi_step(delta, s)
    return s


def l_bound_min(n, eps):
    """The bound at the smallest admissible sigma for this n.

    The bound grows with sigma and every sigma > s_{n-1}(theta(eps)) is
    admissible, so the limiting value at s_{n-1} is also valid.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    s = _offset(theta(eps), n - 1)
    if s >= 1.0:
        return math.inf
    return _frame_distance_bound(n, eps, s)


@dataclass(frozen=True)
class Rule:
    """A parsed column-count rule, n = rule(N): const:k, power:p,
    powerlog:p or table:path.  arg is k or p; a table rule gives an n
    only at the N of its table."""

    text: str
    kind: str
    arg: float | None = None
    table: dict | None = None

    def __call__(self, N):
        if self.kind == "const":
            return self.arg
        if self.kind == "table":
            if N not in self.table:
                raise ConfigError("rule table has no entry for N = %d" % N)
            return self.table[N]
        if self.kind == "powerlog" and N < 2:  # N / log N has no value at N = 1
            raise ConfigError("powerlog rule needs N >= 2, got N = %d" % N)
        try:
            if self.kind == "power":
                return max(1, int(math.floor(N**self.arg)))
            return max(1, int(math.floor((N / math.log(N)) ** self.arg + 1.0)))
        except OverflowError:
            raise ConfigError("rule %s overflows a float at N = %d" % (self.text, N))


def parse_rule(text):
    """The Rule of const:k, power:p, powerlog:p or table:path."""
    text = str(text).strip()
    if ":" not in text:
        raise ConfigError("rule %r is not of the form kind:value" % text)
    kind, arg = text.split(":", 1)
    if kind == "const":
        try:
            k = int(arg)
        except ValueError:
            raise ConfigError("const rule needs an integer, got %r" % arg)
        if k < 1:
            raise ConfigError("const rule needs k >= 1")
        return Rule(text, kind, k)
    if kind in ("power", "powerlog"):
        return Rule(text, kind, _rule_float(arg))
    if kind == "table":
        table = {}
        try:
            with open(arg) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    parts = line.replace(",", " ").split()
                    table[int(parts[0])] = int(parts[1])
        except OSError as exc:
            raise ConfigError("cannot read rule table %r: %s" % (arg, exc))
        except (ValueError, IndexError):
            raise ConfigError("rule table %r needs integer pairs per line" % arg)
        return Rule(text, kind, table=table)
    raise ConfigError("unknown rule kind %r" % kind)


@dataclass(frozen=True)
class ConditionReport:
    sup_value: float
    sup_at: int
    trend: str
    grid: np.ndarray
    values: np.ndarray


def condition_check(rule, N_max, condition):
    """Evaluate the growth-condition supremand of a parsed Rule over N up
    to N_max, from 3 on; a table rule, at its own N.

    Reports the running sup and a heuristic tail trend ('increasing' or
    'bounded').  Boundedness of a sup over all N is not decidable
    numerically; this never claims a proof.
    """
    N_max = int(N_max)
    if N_max < 4:
        raise DomainError("need N_max >= 4")
    if rule.table is not None:
        grid = np.array(sorted(N for N in rule.table if 3 <= N <= N_max), dtype=np.int64)
        if len(grid) < 2:
            raise DomainError("rule table has fewer than two N from 3 to %d" % N_max)
    else:
        grid = np.arange(3, min(N_max, 2000) + 1)
        if N_max > 2000:
            # Both parts are nondecreasing and meet at 2000, so dropping
            # repeats of the previous point gives np.unique's grid.
            grid = np.concatenate([grid, np.geomspace(2000, N_max, 400).astype(np.int64)])
            grid = grid[np.concatenate(([True], np.diff(grid) > 0))]
    vals = np.array(
        [condition.expression(int(N), max(1, int(rule(int(N))))) for N in grid]
    )
    k = int(np.argmax(vals))
    if len(vals) < 16:  # the windows below would leave prev short or empty
        tail, prev = vals[len(vals) // 2 :], vals[: len(vals) // 2]
    else:
        tail = vals[-max(8, len(vals) // 10) :]
        prev = vals[-max(16, len(vals) // 5) : -max(8, len(vals) // 10)]
    trend = "increasing" if tail.mean() > prev.mean() + 1e-9 else "bounded"
    return ConditionReport(
        sup_value=float(vals[k]),
        sup_at=int(grid[k]),
        trend=trend,
        grid=grid,
        values=vals,
    )


def _rule_float(arg):
    try:
        p = float(arg)
    except ValueError:
        raise ConfigError("rule needs a numeric argument, got %r" % arg)
    if not math.isfinite(p):
        raise ConfigError("rule needs a finite exponent, got %r" % arg)
    return p


@dataclass(frozen=True)
class VBound:
    v: np.ndarray
    product_lower: float


def v_bound(N, n, schedule, field="R"):
    """Per-level defect masses and the certified product lower bound.

    v_0 is the Gaussian mass outside the full annulus; level l >= 1
    combines l small-ball factors with the truncated annulus.  The
    product of (1 - v_l) bounds the Gaussian mass of the approximation
    space from below.
    """
    if schedule.N != N or schedule.n_N != n:
        raise PreconditionError("schedule does not match (N, n)")
    d = field_dim(field)
    v = np.empty(n)
    v[0] = 1.0 - gaussian.annulus_mass(N * d, schedule.eps_N)
    for l in range(1, n):
        e = float(schedule.eps_l[l - 1])
        if e <= 0.0:
            v[l] = 1.0
            continue
        ball = gaussian.ball_mass(d, float(schedule.T_l[l - 1]))
        ann = gaussian.annulus_mass((N - l) * d, e)
        v[l] = 1.0 - ball**l * ann
    return VBound(v=v, product_lower=float(np.prod(1.0 - v)))
