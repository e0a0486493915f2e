import math
from statistics import NormalDist

import numpy as np
import pytest

from mmconc.errors import DomainError
from mmconc.gaussian import RadialLaw, norm_cdf
from mmconc.sampling import SamplerConfig, draws, gaussian_blocks
from mmconc.stats import (
    kolmogorov_critical,
    ks_critical,
    ks_statistic,
    ks_two_sample,
    ky_fan,
    law_partial_diameter,
    partial_diameter,
)


class TestPartialDiameter:
    def test_hand_case(self):
        vals = [0.0, 1.0, 2.0, 3.0]
        # Dropping one point leaves a best window of three consecutive
        # points, length 2.
        assert partial_diameter(vals, 0.25) == pytest.approx(2.0)
        assert partial_diameter(vals, 0.0) == pytest.approx(3.0)

    def test_outlier_robustness(self):
        vals = np.concatenate([np.linspace(0, 1, 99), [100.0]])
        assert partial_diameter(vals, 0.0) > 99.0
        assert partial_diameter(vals, 0.02) <= 1.0

    def test_monotone_in_kappa(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(500)
        ks = np.linspace(0.01, 0.9, 30)
        out = [partial_diameter(vals, float(k)) for k in ks]
        assert all(b <= a + 1e-12 for a, b in zip(out, out[1:]))

    def test_kappa_one_warns(self):
        with pytest.warns(UserWarning):
            assert partial_diameter([1.0, 2.0], 1.0) == 0.0

    def test_coordinate_close_to_normal_width(self):
        # A fixed coordinate of a Gaussian matrix is standard normal, so
        # its partial diameter approaches the exact dim-1 partial diameter.
        cfg = SamplerConfig("R", 50, 1, seed=13, count=40000)
        coords = np.concatenate(list(draws(cfg, gaussian_blocks, lambda X: X[:, 3, 0])))
        want = 2.0 * 0.67448975019608174  # central half-mass window
        assert partial_diameter(coords, 0.5) == pytest.approx(want, rel=0.05, abs=0)


class TestKyFan:
    def test_hand_cases(self):
        assert ky_fan([]) == 0.0
        assert ky_fan([0.0, 0.0]) == 0.0
        # One large distance among ten: eps = 1/10 suffices once the
        # remaining values sit below it.
        vals = [0.01] * 9 + [5.0]
        assert ky_fan(vals) == pytest.approx(0.1)

    def test_matches_bisection_oracle(self):
        def oracle(vals):
            vals = np.asarray(vals, dtype=np.float64)

            def feasible(eps):
                return np.mean(vals > eps) <= eps

            lo, hi = 0.0, float(vals.max() + 1.0)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            return hi

        rng = np.random.default_rng(5)
        for _ in range(30):
            vals = rng.uniform(0.0, 2.0, int(rng.integers(1, 60)))
            assert ky_fan(vals) == pytest.approx(oracle(vals), abs=1e-9)

    def test_feasibility_of_result(self):
        rng = np.random.default_rng(6)
        vals = np.abs(rng.standard_normal(1000))
        eps = ky_fan(vals)
        assert np.mean(vals > eps) <= eps + 1e-12
        assert np.mean(vals > eps * 0.99) > eps * 0.99


class TestKs:
    def test_one_sample_uniform(self):
        v = (np.arange(10) + 0.5) / 10.0
        assert ks_statistic(v, lambda x: x) == pytest.approx(0.05)

    def test_one_sample_against_normal(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(50000)
        assert ks_statistic(v, norm_cdf) < 0.01

    def test_two_sample_hand_case(self):
        assert ks_two_sample([0.0, 1.0], [0.5]) == pytest.approx(0.5)

    def test_two_sample_symmetric(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(100), rng.standard_normal(80)
        assert ks_two_sample(x, y) == pytest.approx(ks_two_sample(y, x))

    def test_kolmogorov_critical_frozen(self):
        assert kolmogorov_critical(0.01) == pytest.approx(1.627623611519175, abs=1e-9)
        assert kolmogorov_critical(0.05) == pytest.approx(1.3580986393223613, abs=1e-9)

    def test_critical_values(self):
        two = ks_critical(10000, 10000, alpha=0.01)
        assert two == pytest.approx(1.627623611519175 * math.sqrt(2.0 / 10000.0), rel=1e-9, abs=0)
        with pytest.raises(DomainError):
            ks_critical(100, 10000)
        with pytest.raises(DomainError):
            ks_critical(10000, 100)
        with pytest.raises(DomainError):
            kolmogorov_critical(1.5)

    def test_rejection_calibration(self):
        # Two equal normal samples almost always sit under the 1% critical
        # value; a shifted one almost always exceeds it.
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        crit = ks_critical(5000, 5000, alpha=0.01)
        assert ks_two_sample(x, y) < crit
        assert ks_two_sample(x, y + 0.2) > crit


class TestLawPartialDiameter:
    def test_frozen_values(self):
        assert law_partial_diameter(1, 0.5) == pytest.approx(
            0.6744897501966989, abs=1e-7
        )
        assert law_partial_diameter(2, 0.5) == pytest.approx(
            0.8783574372860055, abs=1e-7
        )
        assert law_partial_diameter(4, 0.5) == pytest.approx(
            0.9246303581776374, abs=1e-7
        )

    def test_dim1_is_folded_normal_window(self):
        # In dimension one the radial law is the half-normal; its shortest
        # half-mass window starts at 0 and ends at the median.
        law = RadialLaw.of(1)
        want = law.quantile(0.5) - 0.0
        assert law_partial_diameter(1, 0.5) == pytest.approx(want, abs=1e-7)

    def test_beats_any_fixed_window(self):
        law = RadialLaw.of(4)
        best = law_partial_diameter(4, 0.3)
        for u in np.linspace(1e-6, 0.3 - 1e-6, 50):
            assert best <= law.quantile(u + 0.7) - law.quantile(u) + 1e-7

    def test_matches_empirical(self):
        rng = np.random.default_rng(14)
        vals = np.sqrt(np.sum(rng.standard_normal((200000, 4)) ** 2, axis=1))
        emp = partial_diameter(vals, 0.5)
        assert emp == pytest.approx(law_partial_diameter(4, 0.5), rel=0.02, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            law_partial_diameter(2, 0.0)
        with pytest.raises(DomainError):
            law_partial_diameter(2, 1.0)

    def test_cdf_call_budget(self, monkeypatch):
        # The equal-density solve needs about a hundred CDF calls; the
        # golden section over bisected quantiles needed thousands.
        calls = []
        cdf = RadialLaw.cdf

        def counted(self, r):
            calls.append(1)
            return cdf(self, r)

        monkeypatch.setattr(RadialLaw, "cdf", counted)
        for m in (2, 4, 8):
            for kappa in (0.1, 0.5, 0.9):
                calls.clear()
                law_partial_diameter(m, kappa)
                assert len(calls) <= 300, (m, kappa, len(calls))

    def test_dim1_matches_stdlib_normal_quantile(self):
        # The half-normal window [0, Q(1 - kappa)] ends at the normal
        # quantile of 1 - kappa / 2.
        for kappa in (0.1, 0.3, 0.5, 0.9):
            want = NormalDist().inv_cdf(1.0 - kappa / 2.0)
            assert law_partial_diameter(1, kappa) == pytest.approx(want, abs=1e-11)
