import math
import timeit

import numpy as np
import pytest

from mmconc.errors import DomainError
from mmconc.special import (
    adaptive_quad,
    bisect,
    norm_cdf,
    reg_gamma_p,
    reg_gamma_q,
)

# Frozen reference values from a 30-digit arbitrary precision run.
GAMMA_CASES = [
    # (a, x, P(a, x))
    (2.5, 1.3, 0.2386347321549861),
    (50.0, 48.0, 0.40540439500476144),
]
# Large shapes: (a, x, P(a, x), Q(a, x)) from scipy.special.gammainc and
# gammaincc in a one-off run.  Near x = a the series needs several times
# sqrt(a) terms, and the direct prefactor loses about a log a ulps.
LARGE_GAMMA_CASES = [
    (2000.0, 2000.0, 0.5029735484442025, 0.49702645155579744),
    (5000.0, 5000.0, 0.5018806340338173, 0.49811936596618267),
    (50000.0, 50000.0, 0.5005947081047933, 0.4994052918952067),
    (50000.0, 49000.0, 3.3847542280794866e-06, 0.9999966152457719),
    (50000.0, 50300.0, 0.9099515642088312, 0.09004843579116882),
    (1e6, 1e6, 0.5001329807608725, 0.4998670192391274),
    # Below a = 1000, where the direct prefactor lost up to 2e-12 when
    # the Stirling form took over only from there.
    (998.0, 988.02, 0.37964622959615796, 0.620353770403842),
    (918.0, 918.0, 0.5043890455938737, 0.4956109544061264),
    (869.0, 877.69, 0.6198586617410925, 0.38014133825890745),
]
# erf and erfc, read through erfc(x) = 2 Phi(-x sqrt 2).
ERF_CASES = [
    (0.3, 0.32862675945912742),
    (2.1, 0.99702053334366702),
]
ERFC_CASES = [
    (3.5, 7.4309837234141275e-7),
    (7.0, 4.1838256077794144e-23),
]


class TestGamma:
    def test_reg_gamma_frozen(self):
        for a, x, want in GAMMA_CASES:
            assert reg_gamma_p(a, x) == pytest.approx(want, rel=1e-12, abs=0)
            assert reg_gamma_q(a, x) == pytest.approx(1.0 - want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("a, x, p, q", LARGE_GAMMA_CASES)
    def test_reg_gamma_large_shape(self, a, x, p, q):
        assert reg_gamma_p(a, x) == pytest.approx(p, rel=1e-12, abs=0)
        assert reg_gamma_q(a, x) == pytest.approx(q, rel=1e-12, abs=0)

    def test_reg_gamma_q_tail(self):
        assert reg_gamma_q(0.7, 3.1) == pytest.approx(0.022940193509827092, rel=1e-12, abs=0)

    def test_complementarity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.2, 80.0))
            x = float(rng.uniform(0.0, 120.0))
            assert reg_gamma_p(a, x) + reg_gamma_q(a, x) == pytest.approx(1.0, abs=1e-12)

    def test_arrays_map_the_one_value_path(self):
        # An array maps the one-value loops over its entries: each entry
        # is the scalar call bit for bit, shapes broadcast, and one bad
        # entry raises.
        rng = np.random.default_rng(3)
        a = np.exp(rng.uniform(np.log(0.1), np.log(2e5), 300))
        x = a * np.exp(rng.normal(0.0, 1.0, 300))
        x[::50] = 0.0
        for f in (reg_gamma_p, reg_gamma_q):
            out = f(a, x)
            assert out.dtype == np.float64 and out.shape == (300,)
            for ai, xi, got in zip(a.tolist(), x.tolist(), out.tolist()):
                one = f(ai, xi)
                assert isinstance(one, float)
                assert one.hex() == got.hex()
            assert isinstance(f(np.float64(a[0]), np.array(x[0])), float)
            assert f(np.array([a[0]]), np.array([x[0]])).shape == (1,)
            grid = f(a[:4, None], x[None, :5])
            assert grid.shape == (4, 5) and grid.dtype == np.float64
            assert grid[2, 3].hex() == f(a[2], x[3]).hex()
            with pytest.raises(DomainError):
                f(np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 2.0]))
            with pytest.raises(DomainError):
                f(np.array([1.0, 0.0]), 1.0)

    def test_annulus_mass_call_is_fast(self):
        # A Gamma tail of one value must not pay numpy's per-call cost
        # on every term: 0.1 to 0.2 ms a call on a 2-vCPU VM, about
        # 1.5 ms when the loops ran on one-element arrays.
        from mmconc.gaussian import annulus_mass

        for m in (20, 2000, 20000):
            best = min(timeit.repeat(lambda: annulus_mass(m, 0.1), number=20, repeat=5)) / 20
            assert best < 0.6e-3, "annulus_mass(%d) took %.2f ms" % (m, best * 1e3)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_gamma_p(-1.0, 2.0)
        with pytest.raises(DomainError):
            reg_gamma_p(1.0, -2.0)


def erfc_of_norm_cdf(x):
    return 2.0 * norm_cdf(-np.asarray(x) * math.sqrt(2.0))


class TestErf:
    def test_frozen(self):
        for x, want in ERF_CASES:
            assert erfc_of_norm_cdf(x) == pytest.approx(1.0 - want, rel=1e-12, abs=0)
        for x, want in ERFC_CASES:
            assert erfc_of_norm_cdf(x) == pytest.approx(want, rel=1e-12, abs=0)

    def test_symmetry(self):
        for x in (0.1, 0.9, 2.5, 4.0):
            assert norm_cdf(x) == pytest.approx(1.0 - norm_cdf(-x), rel=1e-14, abs=0)

    def test_vectorized(self):
        x = np.linspace(-5, 5, 101)
        out = norm_cdf(x)
        assert out.shape == x.shape
        assert np.all(np.diff(out) > 0)
        assert isinstance(norm_cdf(0.3), float)


class TestNormal:
    def test_cdf_frozen(self):
        assert norm_cdf(-1.2) == pytest.approx(0.11506967022170828, rel=1e-13, abs=0)
        assert norm_cdf(2.7) == pytest.approx(0.99653302619695933, rel=1e-13, abs=0)
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        # scipy.special.ndtr(-2.8), pinned.  approx's default abs=1e-12
        # would swamp rel here.
        assert norm_cdf(-2.8) == pytest.approx(0.002555130330427932, rel=1e-14, abs=0)

    def test_pdf_normalization(self):
        def density(x):
            return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)

        total = adaptive_quad(density, -12.0, 12.0, tol=1e-12)
        assert total == pytest.approx(1.0, abs=1e-11)

class TestQuadrature:
    def test_sin(self):
        assert adaptive_quad(np.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(
            2.0, abs=1e-11
        )

    def test_gaussian_half_line(self):
        got = adaptive_quad(lambda x: np.exp(-x * x), 0.0, 5.0, tol=1e-12)
        assert got == pytest.approx(0.88622692545139548, abs=1e-12)

    def test_narrow_spike(self):
        # A spike much narrower than the integration interval; the
        # embedded pair disagrees there and forces subdivision.
        got = adaptive_quad(lambda x: np.exp(-((x - 0.3) ** 2) * 1e4), 0.0, 1.0, tol=1e-12)
        assert got == pytest.approx(math.sqrt(math.pi) * 1e-2, rel=1e-9, abs=0)

    def test_values_pinned(self):
        # The bytes of two integrals from when the Gauss-Legendre nodes
        # were built at import; building them on first use keeps them.
        got = adaptive_quad(lambda x: np.exp(-x * x), 0.0, 3.0)
        assert got.hex() == "0x1.c5bcf8347fc1ep-1"
        assert adaptive_quad(np.sin, 0.0, 2.5, tol=1e-12).hex() == "0x1.cd17bf7c2c5c5p+0"

    def test_bisect(self):
        root = bisect(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-14)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
        with pytest.raises(DomainError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)
