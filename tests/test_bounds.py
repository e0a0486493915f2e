import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mmconc.bounds import (
    Condition,
    ass,
    condi,
    condition_check,
    l_bound,
    l_bound_min,
    make_schedule,
    parse_rule,
    phi_step,
    r_factor,
    sigma_recursion,
    theta,
    v_bound,
)
from mmconc.errors import ConfigError, DomainError, PreconditionError


class TestTheta:
    def test_pinned_value(self):
        assert theta(0.1) == pytest.approx(0.23998254735844691, rel=1e-14, abs=0)

    def test_defining_equation(self):
        # theta^2 / (1 - theta^2) = 5 eps^2 (1 + eps) / (1 - eps)
        for eps in (0.01, 0.1, 0.3, 0.7):
            t = theta(eps)
            lhs = t * t / (1.0 - t * t)
            rhs = 5.0 * eps * eps * (1.0 + eps) / (1.0 - eps)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_monotone_in_eps(self):
        eps = np.linspace(0.01, 0.9, 50)
        vals = [theta(float(e)) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_dominates_eps(self):
        for eps in (0.05, 0.2, 0.5):
            assert eps <= theta(eps) <= 3.0 * eps


class TestSchedule:
    def test_frozen_example(self):
        sch = make_schedule(101, 2, condi())
        assert sch.p_N == pytest.approx(0.15051499783199057, rel=1e-14, abs=0)
        assert sch.a_N == pytest.approx(0.28762874945799766, rel=1e-14, abs=0)
        assert sch.eps_N == pytest.approx(0.2659147948472494, rel=1e-12, abs=0)
        assert sch.b_N == pytest.approx(1.0 - sch.eps_N, rel=1e-14, abs=0)

    def test_level_eps_ordering(self):
        sch = make_schedule(400, 5, condi())
        levels = np.concatenate([[sch.eps_N], sch.eps_l])
        assert np.all(np.diff(levels) < 0.0)  # strictly decreasing
        assert np.all(sch.T_l > 0.0)

    def test_ass_exponent(self):
        c = ass(0.8)
        sch = make_schedule(500, 3, c)
        want = 0.4 * (1.0 - sch.p_N)
        assert sch.a_N == pytest.approx(want, rel=1e-14, abs=0)

    def test_condition_expressions(self):
        # Growth margin at N = 1e4, n = 10, a' = 0.9 stays positive.
        c = Condition(kind="condi", a=0.0, a_prime=0.9)
        val = c.expression(10**4, 10)
        assert 2.0 * math.log(10) >= (0.9 / 4.0) * math.sqrt(10**4 / 10**3)
        assert val == pytest.approx(
            2.0 * math.log(10) - 0.225 * math.sqrt(10.0), rel=1e-12, abs=0
        )

    def test_lip_bound_requires_contraction(self):
        # At sigma_N the bound is above 1 at N = 200: the schedule gives
        # no Lipschitz constant 1 / (1 - L_bound) there.
        sch = make_schedule(200, 2, condi())
        assert sch.L_bound == pytest.approx(1.2042, abs=1e-3)
        assert not sch.L_bound < 1.0

    def test_domain(self):
        with pytest.raises(PreconditionError):
            make_schedule(2, 1, condi())
        with pytest.raises(PreconditionError):
            make_schedule(10, 10, condi())


class TestSigmaRecursion:
    def test_frozen_example(self):
        rec = sigma_recursion(0.1, 0.05)
        np.testing.assert_allclose(
            rec.s,
            [0.0, 0.01, 0.022222222222222223, 0.0375, 0.05714285714285714],
            rtol=1e-12,
        )
        assert rec.n_sigma == 4

    def test_s1_is_delta_squared(self):
        for delta in (0.05, 0.3, 0.9):
            rec = sigma_recursion(delta, 1.0)
            assert rec.s[1] == pytest.approx(delta * delta, rel=1e-14, abs=0)

    def test_running_sum_identity(self):
        # delta^2 sum_{m<=l} c_m^2 = s_l, for 100 random delta.
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = float(rng.uniform(0.02, 0.6))
            sigma = float(rng.uniform(delta**2, 1.0))
            rec = sigma_recursion(delta, sigma)
            partial = delta * delta * np.cumsum(rec.c**2)
            np.testing.assert_allclose(partial, rec.s[: len(partial)], atol=1e-12)

    def test_count_sandwich_on_grid(self):
        # log_{1+R(sigma)}(1 + R(sigma) sigma/delta^2) <= n_sigma
        #   < log_{1+R(0)}(1 + R(0) sigma/delta^2) + 1
        for delta in np.linspace(0.05, 0.6, 20):
            for sigma in np.linspace(0.01, 0.95, 20):
                rec = sigma_recursion(float(delta), float(sigma))
                r0 = r_factor(delta, 0.0)
                rs = r_factor(delta, sigma)
                lower = math.log1p(rs * sigma / delta**2) / math.log1p(rs)
                upper = math.log1p(r0 * sigma / delta**2) / math.log1p(r0) + 1.0
                assert lower <= rec.n_sigma < upper

    def test_count_upper_bound_on_grid(self):
        # sigma <= delta^2 forces one step; otherwise n_sigma < 1 + sigma/delta^2.
        for delta in np.linspace(0.05, 0.6, 20):
            for sigma in np.linspace(0.0, 1.0, 20):
                rec = sigma_recursion(float(delta), float(sigma))
                if sigma <= delta * delta:
                    assert rec.n_sigma == 1
                else:
                    assert rec.n_sigma < 1.0 + sigma / (delta * delta)

    def test_bracket_property(self):
        rec = sigma_recursion(0.1, 0.05)
        assert rec.s[rec.n_sigma - 1] < rec.sigma <= rec.s[rec.n_sigma]

    def test_phi_step_values(self):
        assert phi_step(0.1, 0.0) == pytest.approx(0.01, rel=1e-14, abs=0)
        assert phi_step(0.1, 0.01) == pytest.approx(0.11**2 / 0.99, rel=1e-14, abs=0)


class TestLBound:
    def test_frozen_example(self):
        assert l_bound(2, 0.01, 0.02) == pytest.approx(0.20200011289325362, rel=1e-12, abs=0)

    def test_precondition(self):
        # sigma far above s_{n-1} is fine; sigma below delta^2 caps n_sigma at 1.
        with pytest.raises(PreconditionError):
            l_bound(3, 0.01, 1e-6)

    def test_precondition_is_n_sigma(self):
        # l_bound raises exactly when n > n_sigma of the whole recursion,
        # sigma = 0 and sigma = 1 included, and keeps its message.
        for eps in (0.01, 0.1, 0.3, 0.6):
            delta = theta(eps)
            for sigma in np.linspace(0.0, 1.0, 21):
                n_sigma = sigma_recursion(delta, float(sigma)).n_sigma
                for n in range(1, n_sigma + 3):
                    if n <= n_sigma:
                        assert l_bound(n, eps, float(sigma)) > 0.0
                        continue
                    with pytest.raises(PreconditionError) as info:
                        l_bound(n, eps, float(sigma))
                    want = "n = %d exceeds n_sigma = %d for theta(eps) = %.6g" % (n, n_sigma, delta)
                    assert str(info.value) == want

    def test_min_is_infimum(self):
        n, eps = 2, 0.1
        base = l_bound_min(n, eps)
        delta = theta(eps)
        s1 = phi_step(delta, 0.0)
        for sigma in (s1 + 1e-9, s1 * 1.5, 0.9):
            assert l_bound(n, eps, sigma) >= base - 1e-12

    def test_frozen_n200_value(self):
        eps = make_schedule(200, 2, condi()).eps_N
        assert l_bound_min(2, eps) == pytest.approx(0.9226226895053089, rel=1e-10, abs=0)

    def test_blows_up_for_large_eps(self):
        assert l_bound_min(8, 0.5) == math.inf or l_bound_min(8, 0.5) > 1.0

    def test_min_is_inf_once_no_sigma_is_admissible(self):
        # s_{n-1} >= 1, so l_bound raises even at sigma = 1, and l_bound_min
        # returns inf rather than raising: s_2 is finite at (3, 0.9), the
        # recursion ends before s_{n-1} at the other three.
        for n, eps in ((3, 0.9), (4, 0.9), (50, 0.9), (8, 0.5)):
            with pytest.raises(PreconditionError):
                l_bound(n, eps, 1.0)
            assert l_bound_min(n, eps) == math.inf


class TestClaimChain:
    def test_first_valid_N_frozen(self):
        # Smallest N with n_N <= sigma_N / (2 theta_N^2) <= n_sigma for
        # the constant rule n = 2.
        def holds(N):
            sch = make_schedule(N, 2, condi())
            mid = sch.sigma_N / (2.0 * sch.theta_N**2)
            rec = sigma_recursion(sch.theta_N, sch.sigma_N)
            return sch.n_N <= mid <= rec.n_sigma

        assert not holds(24732)
        assert holds(24733)

    def test_chain_at_reported_N(self):
        sch = make_schedule(24733, 2, condi())
        assert sch.eps_N <= sch.theta_N <= 3.0 * sch.eps_N
        assert sch.q_N <= 1.0
        # a_N (q_N - 1) = (p_N - 1/3) / 4 and a_N q_N = (p_N + 1/3) / 2
        assert sch.a_N * (sch.q_N - 1.0) == pytest.approx(
            0.25 * (sch.p_N - 1.0 / 3.0), rel=1e-12, abs=0
        )
        assert sch.a_N * sch.q_N == pytest.approx(0.5 * (sch.p_N + 1.0 / 3.0), rel=1e-12, abs=0)


class TestRules:
    def test_const(self):
        rule = parse_rule("const:3")
        assert rule(10) == 3 and rule(10**6) == 3

    def test_power(self):
        rule = parse_rule("power:0.5")
        assert rule(100) == 10
        assert rule(101) == 10  # floor

    def test_powerlog(self):
        rule = parse_rule("powerlog:0.5")
        assert rule(100) >= 1

    def test_table(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("10,2\n100,5\n")
        rule = parse_rule("table:%s" % path)
        assert rule(10) == 2 and rule(100) == 5
        with pytest.raises(ConfigError):
            rule(50)

    def test_malformed(self):
        for text in ("bogus:1", "const:x", "power", ""):
            with pytest.raises(ConfigError):
                parse_rule(text)


class TestConditionCheck:
    def test_const_rule_bounded(self):
        report = condition_check(parse_rule("const:1"), 10**5, condi())
        assert report.trend == "bounded"
        assert math.isfinite(report.sup_value)

    def test_power_quarter_sup_modest(self):
        # The margin expression stays uniformly small up to 1e6 even
        # though its maximum sits far beyond any testable N.
        report = condition_check(parse_rule("power:0.25"), 10**6, condi())
        assert math.isfinite(report.sup_value)
        assert report.sup_value < 10.0

    def test_divergent_rule_flagged(self):
        report = condition_check(parse_rule("power:0.5"), 10**6, condi())
        assert report.trend == "increasing"

    def test_loglog_rule_flagged_for_ass(self):
        report = condition_check(parse_rule("powerlog:1.0"), 10**6, ass(0.5))
        assert report.trend in ("increasing", "bounded")
        assert math.isfinite(report.sup_value)

    def test_table_rule_reads_its_own_N(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("2,1\n10,2\n20,3\n50,4\n")
        report = condition_check(parse_rule("table:%s" % path), 30, condi())
        assert report.grid.tolist() == [10, 20]
        assert report.values.tolist() == [condi().expression(10, 2), condi().expression(20, 3)]
        with pytest.raises(DomainError):
            condition_check(parse_rule("table:%s" % path), 15, condi())

    @pytest.mark.parametrize("N_max", [2001, 10**5, 10**6, 10**9])
    def test_grid_is_the_unique_grid(self, N_max):
        report = condition_check(parse_rule("const:1"), N_max, condi())
        dense = np.arange(3, 2001)
        coarse = np.unique(np.geomspace(2000, N_max, 400).astype(np.int64))
        want = np.unique(np.concatenate([dense, coarse]))
        assert report.grid.dtype == want.dtype
        assert np.array_equal(report.grid, want)

    @pytest.mark.parametrize("N_max", [4, 10, 17])
    def test_short_grid_compares_two_halves(self, N_max):
        # Below 16 grid points the fixed windows leave the earlier one
        # short, and at N_max <= 10 empty: its mean of nothing warned,
        # and every trend read bounded.
        up = SimpleNamespace(expression=lambda N, n: N)
        down = SimpleNamespace(expression=lambda N, n: -N)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = condition_check(parse_rule("const:2"), N_max, condi())
            rising = condition_check(parse_rule("const:1"), N_max, up)
            falling = condition_check(parse_rule("const:1"), N_max, down)
        assert len(flat.grid) == N_max - 2
        assert math.isfinite(flat.sup_value)
        assert rising.trend == "increasing"
        assert falling.trend == "bounded"


class TestVBound:
    def test_product_in_unit_interval(self):
        for N in (100, 200, 400):
            sch = make_schedule(N, 2, condi())
            vb = v_bound(N, 2, sch, field="R")
            assert 0.0 <= vb.product_lower <= 1.0
            assert np.all(vb.v >= 0.0) and np.all(vb.v <= 1.0)

    def test_frozen_n200(self):
        sch = make_schedule(200, 2, condi())
        vb = v_bound(200, 2, sch, field="R")
        assert vb.product_lower == pytest.approx(0.9993332895749373, rel=1e-9, abs=0)

    def test_increasing_along_desk_list(self):
        vals = []
        for N in (100, 200, 400, 800):
            sch = make_schedule(N, 2, condi())
            vals.append(v_bound(N, 2, sch, field="R").product_lower)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_N_returns_fast(self):
        # The annulus mass at dimension 2 * 10^5 comes from two incomplete
        # gamma tails, not from quadrature over a peak of width O(1).
        N = 100000
        sch = make_schedule(N, 2, condi())
        started = time.monotonic()
        vb = v_bound(N, 2, sch, field="R")
        assert time.monotonic() - started < 1.0
        assert 0.0 <= vb.product_lower <= 1.0

    def test_schedule_mismatch(self):
        sch = make_schedule(100, 2, condi())
        with pytest.raises(PreconditionError):
            v_bound(200, 2, sch)
