import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from componentwise import comp_adjoint, comp_matmul, comp_norm
from mmconc.algebra import FMatrix, _from_native, _to_native, field_dim, frame_radius
from mmconc.bounds import theta
from mmconc.concentration import (
    ApproxSpaceParams,
    _sorted_quantile,
    lipschitz_experiment,
    membership_mask,
    phi_native,
    prok_experiment,
    pushforward_test,
)
from mmconc.decomp import _norms_overlaps, dist_to_scaled_stiefel_native, membership_native, polar
from mmconc.errors import DomainError
from mmconc.sampling import (
    SamplerConfig,
    draws,
    gaussian_blocks,
    gaussian_chunk,
    haar_blocks,
    haar_comps,
    sample_restricted_gaussian,
)


def unitary_comps(field, k, seed):
    cfg = SamplerConfig(field, k, k, scaled=False, seed=seed, count=1)
    return haar_comps(cfg)[0]


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ApproxSpaceParams("R", 5, 6, 0.1)
        with pytest.raises(DomainError):
            ApproxSpaceParams("R", 5, 1, 1.5)
        with pytest.raises(DomainError):
            ApproxSpaceParams("R", 5, 1, 0.1, theta_val=2.0)

    def test_default_theta(self):
        p = ApproxSpaceParams("C", 20, 2, 0.1)
        assert p.theta_val == pytest.approx(theta(0.1), rel=1e-14, abs=0)


class TestMembership:
    def test_haar_frames_are_members(self):
        # Exact column norms and zero overlaps sit inside any band.
        for field in ("R", "C", "H"):
            cfg = SamplerConfig(field, 20, 2, seed=1, count=40)
            mask = membership_mask(haar_comps(cfg), field, 0.2, theta(0.2))
            assert mask.all()

    def test_zero_matrix_rejected(self):
        comps = np.zeros((1, 10, 2, 4))
        norms, _ = _norms_overlaps(_to_native(comps, "R"), "R")
        np.testing.assert_array_equal(norms, 0.0)  # both column norms out of band
        assert not membership_mask(comps, "R", 0.3, theta(0.3)).any()

    def test_overlap_violation_reported(self):
        r = math.sqrt(10 - 1.0)  # the radius at N = 10 over R
        comps = np.zeros((1, 10, 2, 4))
        comps[0, 0, 0, 0] = r
        comps[0, 0, 1, 0] = r  # identical direction: overlap 1
        norms, ov = _norms_overlaps(_to_native(comps, "R"), "R")
        np.testing.assert_allclose(norms, r, rtol=1e-15)
        assert ov[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert not membership_mask(comps, "R", 0.9, 0.05).any()

    def test_mask_invariant_under_isometries(self):
        # Left multiplication by a unitary preserves all column norms and
        # overlaps; so does flipping the sign of a single column (a unit
        # scalar acting on the right of that column).
        for field in ("R", "C", "H"):
            cfg = SamplerConfig(field, 12, 2, seed=2, count=100)
            comps = gaussian_chunk(cfg, 0)[: cfg.count]
            mask = membership_mask(comps, field, 0.2, theta(0.2))
            U = unitary_comps(field, 12, 3)
            left = comp_matmul(U[None], comps)
            flipped = comps.copy()
            flipped[:, :, 1, :] *= -1.0
            np.testing.assert_array_equal(
                membership_mask(left, field, 0.2, theta(0.2)), mask
            )
            np.testing.assert_array_equal(
                membership_mask(flipped, field, 0.2, theta(0.2)), mask
            )


def _componentwise_stats(comps):
    """Column norms and normalized pair overlaps through the 16-product
    componentwise matrix product: the reference for the native Gram."""
    norms = np.sqrt(np.sum(np.square(comps), axis=(-3, -1)))
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = comps / safe[..., None, :, None]
    return norms, comp_norm(comp_matmul(comp_adjoint(unit), unit))


@st.composite
def _membership_cases(draw):
    field = draw(st.sampled_from("RCH"))
    d = field_dim(field)
    N = draw(st.integers(1, 12))
    n = draw(st.integers(1, min(N, 5)))
    batch = draw(st.sampled_from(((), (3,))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = np.zeros(batch + (N, n, 4))
    comps[..., :d] = rng.standard_normal(batch + (N, n, d))
    eps = draw(st.floats(0.05, 0.95))
    theta_val = draw(st.floats(0.05, 0.95))
    return field, comps, eps, theta_val


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_membership_cases())
def test_native_membership_matches_componentwise_reference(case):
    field, comps, eps, theta_val = case
    N, n = comps.shape[-3], comps.shape[-2]
    ref_norms, ref_ov = _componentwise_stats(comps)
    norms, ov = _norms_overlaps(_to_native(comps, field), field)
    np.testing.assert_allclose(norms, ref_norms, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ov, ref_ov, rtol=0, atol=1e-12)
    # The masks agree wherever no statistic lies within round-off of a
    # threshold.
    r = math.sqrt(N * field_dim(field) - 1.0)
    lo, hi = (1.0 - eps) * r, (1.0 + eps) * r
    off = ~np.eye(n, dtype=bool)
    ref_mask = np.all((ref_norms > lo) & (ref_norms < hi), axis=-1)
    ref_mask &= np.all(ref_ov[..., off] < theta_val, axis=-1)
    margin = np.min(np.minimum(np.abs(ref_norms - lo), np.abs(ref_norms - hi)), axis=-1)
    if n > 1:
        margin = np.minimum(margin, np.min(np.abs(ref_ov[..., off] - theta_val), axis=-1))
    decided = margin > 1e-9 * max(1.0, r)
    mask = membership_native(_to_native(comps, field), field, eps, theta_val, N)
    assert mask.shape == comps.shape[:-3]
    np.testing.assert_array_equal(mask[decided], ref_mask[decided])
    np.testing.assert_array_equal(membership_mask(comps, field, eps, theta_val), mask)


class TestPhiProject:
    """phi_native: the polar frame scaled to the manifold radius."""

    def test_fixes_scaled_frames(self):
        for field in ("R", "C", "H"):
            cfg = SamplerConfig(field, 15, 2, seed=5)
            Q = next(haar_blocks(cfg, 0))[:3]
            np.testing.assert_allclose(phi_native(Q, field), Q, rtol=0, atol=1e-8)

    def test_array_input_matches_fmatrix(self):
        # phi_native on a batch is the per-matrix polar frame of each
        # entry, scaled to the radius.
        p = ApproxSpaceParams("C", 12, 2, 0.4)
        cfg = SamplerConfig("C", 12, 2, seed=6, count=50)
        X = sample_restricted_gaussian(cfg, p.eps, p.theta_val).native[:3]
        out = phi_native(X, "C")
        for x, q in zip(_from_native(X, "C"), out):
            ref = polar(FMatrix("C", x)).q.scale(math.sqrt(2 * 12 - 1.0))
            np.testing.assert_allclose(q, ref.native, rtol=0, atol=1e-10)

    def test_equivariance(self):
        # Phi commutes with left isometries: Phi(U Z) = U Phi(Z).
        for field in ("R", "C", "H"):
            cfg = SamplerConfig(field, 10, 2, seed=9)
            comps = gaussian_chunk(cfg, 0)[:20]
            U = unitary_comps(field, 10, 10)

            def phi(comps):
                return _from_native(phi_native(_to_native(comps, field), field), field)

            a = phi(comp_matmul(U[None], comps))
            b = comp_matmul(U[None], phi(comps))
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_output_on_manifold(self):
        r = math.sqrt(8 * 4 - 1.0)  # the radius at N = 8 over H
        cfg = SamplerConfig("H", 8, 2, seed=11)
        out = phi_native(next(gaussian_blocks(cfg, 0))[:30], "H")
        norms, ov = _norms_overlaps(out, "H")
        np.testing.assert_allclose(norms, r, atol=1e-8)
        assert np.abs(ov[:, 0, 1]).max() < 1e-8


class TestEmpiricalLipschitz:
    def test_experiment_report(self):
        p = ApproxSpaceParams("R", 100, 2, 0.2)
        rep = lipschitz_experiment(p, pair_count=200, seed=3)
        assert rep.pairs_used == 200
        assert 0.5 < rep.max_ratio < 3.0
        assert rep.certificate < 1.0
        assert rep.max_ratio <= 1.0 / (1.0 - rep.certificate)

    def test_no_certificate_for_coarse_band(self):
        # eps = 0.3 is too coarse for a contraction certificate.
        p = ApproxSpaceParams("R", 50, 2, 0.3)
        rep = lipschitz_experiment(p, pair_count=100, seed=6)
        assert rep.certificate > 1.0 or rep.certificate == math.inf

    def test_experiment_with_certificate(self):
        p = ApproxSpaceParams("R", 200, 2, 0.01)
        rep = lipschitz_experiment(p, pair_count=100, seed=4)
        assert rep.certificate < 1.0
        bound = 1.0 / (1.0 - rep.certificate)
        assert rep.max_ratio <= bound


class TestPushforward:
    def test_positive_and_negative_control(self):
        p = ApproxSpaceParams("R", 30, 1, 0.3)
        rep = pushforward_test(30, 1, p, sample_size=2000, seed=7)
        assert rep.passed
        assert set(rep.ks) == {"linear", "top_singular_half", "first_entry"}
        assert all(v < rep.critical for v in rep.ks.values())
        bad = pushforward_test(30, 1, p, sample_size=2000, seed=7, scaled_reference=False)
        assert not bad.passed
        assert max(bad.ks.values()) > 0.5

    def test_shape_mismatch(self):
        p = ApproxSpaceParams("R", 30, 1, 0.3)
        with pytest.raises(DomainError):
            pushforward_test(40, 1, p, sample_size=2000)

    def test_deterministic(self):
        p = ApproxSpaceParams("C", 20, 1, 0.3)
        a = pushforward_test(20, 1, p, sample_size=1000, seed=5)
        b = pushforward_test(20, 1, p, sample_size=1000, seed=5)
        assert a.ks == b.ks and a.acceptance_rate == b.acceptance_rate


class TestProk:
    def test_n1_distance_is_norm_gap(self):
        # For one column the manifold distance collapses to | ||Z|| - r |.
        rep = prok_experiment(25, 1, "R", sample_size=2000, seed=1)
        cfg = SamplerConfig("R", 25, 1, seed=1, count=2000)
        Z = np.concatenate(list(draws(cfg, partial(gaussian_blocks, p=0))))
        d = np.abs(np.sqrt(np.sum(np.square(Z), axis=(1, 2))) - cfg.radius)
        assert rep.mean_distance == pytest.approx(float(d.mean()), rel=1e-12, abs=0)
        assert rep.quantiles[50] == pytest.approx(float(np.quantile(d, 0.5)), rel=1e-10, abs=0)

    def test_defect_definition(self):
        # At the reported level the empirical mass within eps reaches 1 - eps;
        # slightly below it does not.
        rep = prok_experiment(25, 1, "R", sample_size=2000, seed=1)
        cfg = SamplerConfig("R", 25, 1, seed=1, count=2000)
        # The distances prok sorts, bit for bit: the level can be one of
        # them, and a route that rounds it an ulp higher puts it on the
        # other side.  test_n1_distance_is_norm_gap checks the values.
        blocks = draws(cfg, partial(gaussian_blocks, p=0))
        r = frame_radius(25, "R")
        d = np.sort(np.concatenate([dist_to_scaled_stiefel_native(X, "R", r) for X in blocks]))
        eps = rep.dP_lower
        frac = np.searchsorted(d, eps, side="left") / d.size
        assert frac >= 1.0 - eps
        frac_lo = np.searchsorted(d, eps * 0.99, side="left") / d.size
        assert frac_lo < 1.0 - eps * 0.99 + 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=5000),
            # few distinct values, so ties and long runs of repeats
            st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.5]), min_size=1, max_size=5000),
            st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2),
        )
    )
    def test_sorted_quantile_is_numpys_bit_for_bit(self, values):
        d = np.sort(np.array(values, dtype=np.float64))
        for p in (5, 25, 50, 75, 95):
            got = _sorted_quantile(d, p / 100.0)
            want = float(np.quantile(d, p / 100.0))
            assert got.hex() == want.hex(), (d.size, p)

    def test_quantiles_ordered(self):
        rep = prok_experiment(30, 2, "C", sample_size=1000, seed=2)
        q = [rep.quantiles[p] for p in (5, 25, 50, 75, 95)]
        assert all(b >= a for a, b in zip(q, q[1:]))
        assert rep.sample_size == 1000
        assert 0.0 < rep.dP_lower < 2.0
