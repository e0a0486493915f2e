import math

import numpy as np
import pytest

from mmconc.errors import DomainError
from mmconc.gaussian import (
    RadialLaw,
    annulus_mass,
    annulus_upper_bound,
    ball_mass,
    chi_cdf,
    g_func,
    g_root,
    norm_cdf,
    radial_density,
    radial_peak,
    stirling_check,
)
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
            assert radial_density(m, r) == pytest.approx(want, rel=1e-12)

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
            assert law.peak() == pytest.approx(want, rel=1e-12)
            # The mode sits at sqrt(m - 1).
            mode = math.sqrt(m - 1.0)
            assert law.density(mode) >= law.density(mode * 0.99)
            assert law.density(mode) >= law.density(mode * 1.01)

    def test_peak_m1_half_normal(self):
        assert radial_peak(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_cdf_frozen_and_quantile_roundtrip(self):
        for m, t, want in CHI_CDF_CASES:
            assert chi_cdf(m, t) == pytest.approx(want, rel=1e-12)
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
            assert annulus_mass(m, eps).mass == pytest.approx(want, rel=1e-9)

    def test_mass_matches_scipy(self):
        for m, eps, want in ANNULUS_SCIPY_CASES:
            assert annulus_mass(m, eps).mass == pytest.approx(want, rel=1e-11)

    def test_mass_matches_quadrature(self):
        # The incomplete-gamma closed form against the chi_m density
        # integrated over the annulus (lo, hi).
        for m, eps in ((50, 0.15), (300, 0.08)):
            root = math.sqrt(m - 1.0)
            lo, hi = (1.0 - eps) * root, (1.0 + eps) * root
            quad = adaptive_quad(RadialLaw.of(m).density, lo, hi, tol=1e-13)
            assert annulus_mass(m, eps).mass == pytest.approx(quad, abs=1e-11)

    def test_upper_bound_dominates(self):
        for m, eps in ((10, 0.05), (100, 0.02), (1000, 0.01), (100, 0.2)):
            am = annulus_mass(m, eps)
            assert am.mass <= am.upper_bound + 1e-12
            assert am.upper_bound == pytest.approx(annulus_upper_bound(m, eps))

    def test_domain(self):
        with pytest.raises(DomainError):
            annulus_mass(1, 0.1)
        with pytest.raises(DomainError):
            annulus_mass(10, -0.1)


class TestBall:
    def test_frozen(self):
        for dim, T, want in BALL_CASES:
            assert ball_mass(dim, T) == pytest.approx(want, rel=1e-12)

    def test_dim_one_matches_erf_route(self):
        for T in (0.3, 1.0, 2.5):
            want = 2.0 * norm_cdf(T) - 1.0
            assert ball_mass(1, T) == pytest.approx(want, rel=1e-12)

    def test_monotone_and_limits(self):
        Ts = np.linspace(0.0, 6.0, 40)
        vals = [ball_mass(2, float(T)) for T in Ts]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-7)

    def test_unsupported_dim(self):
        with pytest.raises(DomainError):
            ball_mass(3, 1.0)


class TestGRoot:
    def test_pinned_root(self):
        t0 = g_root()
        assert t0 == pytest.approx(0.30263084071157274, abs=1e-9)
        assert g_func(t0) == pytest.approx(0.0, abs=1e-9)

    def test_sign_change(self):
        assert g_func(0.0) < 0.0
        assert g_func(1.0) > 0.0

    def test_g_matches_quadrature(self):
        for t in (0.2, 0.7):
            tail = adaptive_quad(lambda s: np.exp(-0.5 * s * s), t, 40.0, tol=1e-12)
            assert g_func(t) == pytest.approx(math.exp(-0.5 * t * t) - tail, abs=1e-10)


class TestStirling:
    def test_frozen_rho(self):
        assert stirling_check(1.0).rho == pytest.approx(0.081061466795327258, rel=1e-10)
        assert stirling_check(5.0).rho == pytest.approx(0.016644691189821192, rel=1e-9)

    def test_bracket(self):
        for x in (0.5, 1.0, 3.0, 10.0, 250.0):
            chk = stirling_check(x)
            assert chk.in_bracket
            assert 0.0 < chk.rho < 1.0 / (12.0 * x)

