import math
import warnings

import numpy as np
import pytest

from mmconc.errors import DomainError
from mmconc.gaussian import RadialLaw, annulus_mass, ball_mass, norm_cdf
from mmconc.special import adaptive_quad

# Frozen reference values from a 30-digit arbitrary precision run.
DENSITY_CASES = [
    (1, 0.5, 0.70413065352859896),
    (3, 1.7, 0.54360366723840644),
    (10, 3.0, 0.56942286162037323),
    (200, 14.0, 0.5580159953144887),
]
PEAK_CASES = [
    (2, 0.60653065971263342),
    (5, 0.57590364280733922),
    (50, 0.56514981265548614),
]
CHI_CDF_CASES = [
    (4, 2.2, 0.69588806828889882),
    (100, 10.5, 0.77282332585077563),
]
ANNULUS_CASES = [
    (100, 0.2, 0.9950518372819097),
    (200, 0.1, 0.95404751854511149),
    (2, 0.5, 0.55784443522624567),
]
# scipy.special.gammainc(m/2, hi^2/2) - gammainc(m/2, lo^2/2), pinned,
# up to m = 10^6.
ANNULUS_SCIPY_CASES = [
    (10, 0.05, 0.169553787362846),
    (1000, 0.01, 0.3451462977700404),
    (40000, 0.01, 0.9953216047845527),
    (60000, 0.003, 0.7012992647515828),
    (200000, 0.005, 0.998434526904538),
    (1000000, 0.001, 0.8427006315188843),
]
BALL_CASES = [
    (1, 0.8, 0.57628920283320667),
    (2, 1.1, 0.45392557336029064),
    (4, 2.0, 0.59399415029016192),
]


class TestRadialLaw:
    def test_density_frozen(self):
        for m, r, want in DENSITY_CASES:
            assert RadialLaw.of(m).density(r) == pytest.approx(want, rel=1e-12, abs=0)

    def test_density_normalized(self):
        for m in (1, 2, 7, 40):
            law = RadialLaw.of(m)
            hi = math.sqrt(m) + 12.0
            assert adaptive_quad(law.density, 0.0, hi, tol=1e-11) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_peak_location_and_value(self):
        for m, want in PEAK_CASES:
            law = RadialLaw.of(m)
            # The mode sits at sqrt(m - 1).
            mode = math.sqrt(m - 1.0)
            assert law.density(mode) == pytest.approx(want, rel=1e-12, abs=0)
            assert law.density(mode) >= law.density(mode * 0.99)
            assert law.density(mode) >= law.density(mode * 1.01)

    def test_peak_m1_half_normal(self):
        # The half-normal density peaks at 0, where it is its normalization.
        peak = math.exp(RadialLaw.of(1).log_norm)
        assert peak == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_log_density_off_support_is_minus_inf_without_warnings(self, m):
        law = RadialLaw.of(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = law.density(0.0)
            logs = law.log_density(np.array([-1.0, -0.0, 0.0, 0.5]))
            assert law.log_density(-1.0) == -np.inf
        assert logs[0] == -np.inf
        if m == 1:
            assert at_zero == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13, abs=0)
            assert list(logs[1:3]) == [law.log_norm] * 2
        else:
            assert at_zero == 0.0
            assert list(logs[1:3]) == [-np.inf] * 2
        assert logs[3] == pytest.approx(math.log(law.density(0.5)), rel=1e-13, abs=0)

    def test_cdf_frozen_and_quantile_roundtrip(self):
        for m, t, want in CHI_CDF_CASES:
            assert RadialLaw.of(m).cdf(t) == pytest.approx(want, rel=1e-12, abs=0)
        law = RadialLaw.of(5)
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_cdf_matches_quadrature(self):
        law = RadialLaw.of(9)
        for t in (1.0, 2.5, 3.5):
            direct = adaptive_quad(law.density, 0.0, t, tol=1e-11)
            assert law.cdf(t) == pytest.approx(direct, abs=1e-10)


class TestAnnulus:
    def test_mass_frozen(self):
        for m, eps, want in ANNULUS_CASES:
            assert annulus_mass(m, eps) == pytest.approx(want, rel=1e-9, abs=0)

    def test_mass_matches_scipy(self):
        for m, eps, want in ANNULUS_SCIPY_CASES:
            assert annulus_mass(m, eps) == pytest.approx(want, rel=1e-11, abs=0)

    def test_mass_matches_quadrature(self):
        # The incomplete-gamma closed form against the chi_m density
        # integrated over the annulus (lo, hi).
        for m, eps in ((50, 0.15), (300, 0.08)):
            root = math.sqrt(m - 1.0)
            lo, hi = (1.0 - eps) * root, (1.0 + eps) * root
            quad = adaptive_quad(RadialLaw.of(m).density, lo, hi, tol=1e-13)
            assert annulus_mass(m, eps) == pytest.approx(quad, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            annulus_mass(1, 0.1)
        with pytest.raises(DomainError):
            annulus_mass(10, -0.1)


class TestBall:
    def test_frozen(self):
        for dim, T, want in BALL_CASES:
            assert ball_mass(dim, T) == pytest.approx(want, rel=1e-12, abs=0)

    def test_dim_one_matches_erf_route(self):
        for T in (0.3, 1.0, 2.5):
            want = 2.0 * norm_cdf(T) - 1.0
            assert ball_mass(1, T) == pytest.approx(want, rel=1e-12, abs=0)

    def test_monotone_and_limits(self):
        Ts = np.linspace(0.0, 6.0, 40)
        vals = [ball_mass(2, float(T)) for T in Ts]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-7)

    def test_unsupported_dim(self):
        with pytest.raises(DomainError):
            ball_mass(3, 1.0)
