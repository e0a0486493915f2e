import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from componentwise import comp_adjoint, comp_matmul
from mmconc import decomp
from mmconc.algebra import FMatrix, _frobenius, _to_native, comp_mul, realify_comps
from mmconc.decomp import (
    dist_to_scaled_stiefel,
    grassmann_dist,
    hopf_dist,
    polar,
    polar_q_batched,
    polar_q_native,
    singular_values,
    singular_values_native,
    svd,
)
from mmconc.errors import ShapeMismatchError
from mmconc.sampling import SamplerConfig, haar_comps

FIELDS = (("R", 1), ("C", 2), ("H", 4))


def rand_matrix(rng, field, d, N, n):
    comps = np.zeros((N, n, 4))
    comps[..., :d] = rng.standard_normal((N, n, d))
    return FMatrix(field, comps)


def diag_fmatrix(field, vals, N):
    n = len(vals)
    comps = np.zeros((N, n, 4))
    comps[np.arange(n), np.arange(n), 0] = vals
    return FMatrix(field, comps)


def haar_frames(cfg):
    """The cfg.count Haar frames of cfg as FMatrix."""
    return [FMatrix(cfg.field, q) for q in haar_comps(cfg)]


def scalar_left(t, Z):
    """t Z for a scalar t given by its components (4,)."""
    return FMatrix(Z.field, comp_mul(t, Z.comps))


def assert_close(A, B, tol):
    np.testing.assert_allclose(A.native, B.native, rtol=0, atol=tol)


class TestHermitianEig:
    """The Hermitian eigensolve inside svd: V diag(lam^2) V* is the
    eigendecomposition of Z* Z, V unitary over F, lam non-increasing."""

    def test_reconstruction_all_fields(self):
        rng = np.random.default_rng(0)
        for field, d in FIELDS:
            A = rand_matrix(rng, field, d, 6, 6)
            H = A.adjoint() @ A
            t = svd(A)
            P, sig = t.v, t.lam**2
            rec = P @ diag_fmatrix(field, sig, 6) @ P.adjoint()
            assert_close(rec, H, 1e-9 * max(1.0, H.norm))
            eye = FMatrix.identity(field, 6)
            assert_close(P.adjoint() @ P, eye, 1e-9)
            assert P.norm == pytest.approx(np.sqrt(6.0))
            assert np.all(np.diff(sig) <= 1e-12)  # non-increasing

    def test_matches_realified_spectrum(self):
        rng = np.random.default_rng(1)
        A = rand_matrix(rng, "H", 4, 5, 5)
        H = A.adjoint() @ A
        sig = svd(A).lam ** 2
        w = np.linalg.eigvalsh(realify_comps(H.comps, "H"))[::-1]
        # Quadruple degeneracy in the realified picture.
        np.testing.assert_allclose(np.repeat(sig, 4), w, atol=1e-9 * max(1.0, w[0]))

    def test_degenerate_spectrum(self):
        eye = FMatrix.identity("C", 4)
        t = svd(eye)
        np.testing.assert_allclose(t.lam, np.ones(4), atol=1e-12)
        assert_close(t.v.adjoint() @ t.v, eye, 1e-10)

    def test_repeated_quaternion_eigenvalue(self):
        # Each eigenvalue of Z* Z fills a 4-dimensional eigenspace of the
        # complex adjoint; the eigenvectors picked from it must stay
        # orthonormal over H, not merely over C.
        U = haar_frames(SamplerConfig("H", 5, 5, scaled=False, seed=3, count=1))[0]
        lam = np.sqrt([2.0, 2.0, 1.0, 1.0, 0.0])
        Z = diag_fmatrix("H", lam, 5) @ U.adjoint()
        t = svd(Z)
        np.testing.assert_allclose(t.lam, lam, atol=1e-12)
        H = Z.adjoint() @ Z
        rec = t.v @ diag_fmatrix("H", t.lam**2, 5) @ t.v.adjoint()
        assert_close(rec, H, 1e-12)
        assert_close(t.v.adjoint() @ t.v, FMatrix.identity("H", 5), 1e-12)


def _rank_deficient_inputs():
    """8 x 3 matrices over R, C and H whose third column depends on the
    first, and one over H where it does so with a right coefficient."""
    rng = np.random.default_rng(5)
    inputs = []
    for field, d in FIELDS:
        comps = np.zeros((8, 3, 4))
        comps[..., :d] = rng.standard_normal((8, 3, d))
        comps[:, 2, :] = comps[:, 0, :]  # exactly dependent columns
        inputs.append((field, comps))
    # Over H the span of a column is a right module: column 2 = column
    # 0 * s for a non-real s is dependent only with coefficients on
    # the right.
    comps = comps.copy()
    comps[:, 2, :] = comp_mul(comps[:, 0, :], np.array([0.3, -1.2, 0.5, 0.9]))
    inputs.append(("H", comps))
    return inputs


class TestSvdPolar:
    def test_reconstruction_and_frames(self):
        rng = np.random.default_rng(3)
        for field, d in FIELDS:
            for _ in range(10):
                N = int(rng.integers(2, 12))
                n = int(rng.integers(1, min(N, 5) + 1))
                Z = rand_matrix(rng, field, d, N, n)
                t = svd(Z)
                rec = t.u @ diag_fmatrix(field, t.lam, N) @ t.v.adjoint()
                assert_close(rec, Z, 1e-8 * max(1.0, Z.norm))
                assert_close(t.u.adjoint() @ t.u, FMatrix.identity(field, N), 1e-8)
                assert_close(t.v.adjoint() @ t.v, FMatrix.identity(field, n), 1e-8)
                p = polar(Z)
                assert_close(p.q @ p.h, Z, 1e-8 * max(1.0, Z.norm))
                assert_close(p.q.adjoint() @ p.q, FMatrix.identity(field, n), 1e-8)

    def test_singular_values_match_gram(self):
        rng = np.random.default_rng(4)
        for field, d in FIELDS:
            Z = rand_matrix(rng, field, d, 9, 4)
            lam = singular_values(Z)
            G = realify_comps((Z.adjoint() @ Z).comps, field)
            w = np.sqrt(np.clip(np.linalg.eigvalsh(G), 0.0, None))[::-1]
            np.testing.assert_allclose(np.repeat(lam, d), w, atol=1e-9)

    def test_rank_deficient_polar_is_frame(self):
        for field, comps in _rank_deficient_inputs():
            Z = FMatrix(field, comps)
            p = polar(Z)
            dev = (p.q.adjoint() @ p.q - FMatrix.identity(field, 3)).norm
            assert dev < 1e-8
            assert_close(p.q @ p.h, Z, 1e-8 * max(1.0, Z.norm))
            # The SVD completes U past the collapsed column.
            t = svd(Z)
            assert_close(t.u.adjoint() @ t.u, FMatrix.identity(field, 8), 1e-12)
            rec = t.u @ diag_fmatrix(field, t.lam, 8) @ t.v.adjoint()
            assert_close(rec, Z, 1e-8 * max(1.0, Z.norm))

    def test_rank_deficient_svd_reconstructs(self):
        # The collapsed singular value comes out at round-off size, so
        # U Lambda V* meets Z to round-off, not to sqrt(eps) ||Z||.
        for field, comps in _rank_deficient_inputs():
            Z = FMatrix(field, comps)
            t = svd(Z)
            assert np.all(np.diff(t.lam) <= 0.0)
            assert t.lam[-1] <= 1e-12 * Z.norm
            rec = t.u @ diag_fmatrix(field, t.lam, 8) @ t.v.adjoint()
            assert (rec - Z).norm <= 1e-12 * Z.norm

    def test_polar_of_frame_is_identity_factor(self):
        for field in ("R", "C", "H"):
            cfg = SamplerConfig(field, 7, 3, scaled=False, seed=9, count=1)
            Q = haar_frames(cfg)[0]
            p = polar(Q)
            assert_close(p.q, Q, 1e-9)
            assert_close(p.h, FMatrix.identity(field, 3), 1e-9)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeMismatchError):
            svd(FMatrix("R", np.zeros((2, 3, 4))))


class TestDistances:
    def test_dist_to_scaled_stiefel_consistency(self):
        rng = np.random.default_rng(8)
        for field, d in FIELDS:
            Z = rand_matrix(rng, field, d, 10, 3)
            r = 2.5
            closed = dist_to_scaled_stiefel(Z, r)
            direct = (Z - polar(Z).q.scale(r)).norm
            assert closed == pytest.approx(direct, abs=1e-9)

    def test_nearest_frame_optimality(self):
        rng = np.random.default_rng(9)
        for field, d in FIELDS:
            Z = rand_matrix(rng, field, d, 8, 2)
            r = 3.0
            best = dist_to_scaled_stiefel(Z, r)
            cfg = SamplerConfig(field, 8, 2, scaled=False, seed=13, count=50)
            for Q in haar_frames(cfg):
                assert best <= (Z - Q.scale(r)).norm + 1e-9

    def test_quotient_distances_beat_search(self):
        rng = np.random.default_rng(10)
        for field, d in FIELDS:
            Z = rand_matrix(rng, field, d, 6, 2)
            W = rand_matrix(rng, field, d, 6, 2)
            g = grassmann_dist(Z, W)
            h = hopf_dist(Z, W)
            assert g <= (Z - W).norm + 1e-12
            assert h <= (Z - W).norm + 1e-12
            # Right-unitary search can only stay above the closed form.
            cfg = SamplerConfig(field, 2, 2, scaled=False, seed=17, count=200)
            for U in haar_frames(cfg):
                assert g <= (Z - W @ U).norm + 1e-9
            # Unit-scalar search for the Hopf distance.
            for _ in range(200):
                s = rng.standard_normal(4)
                s[d:] = 0.0
                s /= np.sqrt(np.sum(s**2))
                assert h <= (scalar_left(s, Z) - W).norm + 1e-9

    def test_quotient_invariances(self):
        rng = np.random.default_rng(11)
        field, d = "C", 2
        Z = rand_matrix(rng, field, d, 6, 2)
        W = rand_matrix(rng, field, d, 6, 2)
        U = haar_frames(SamplerConfig(field, 2, 2, scaled=False, seed=19, count=1))[0]
        assert grassmann_dist(Z @ U, W) == pytest.approx(grassmann_dist(Z, W), abs=1e-9)
        t = np.array([np.cos(0.7), np.sin(0.7), 0.0, 0.0])
        assert hopf_dist(scalar_left(t, Z), W) == pytest.approx(hopf_dist(Z, W), abs=1e-9)

    def test_zero_distance_on_same_orbit(self):
        rng = np.random.default_rng(12)
        Z = rand_matrix(rng, "H", 4, 5, 2)
        U = haar_frames(SamplerConfig("H", 2, 2, scaled=False, seed=23, count=1))[0]
        assert grassmann_dist(Z, Z @ U) == pytest.approx(0.0, abs=1e-6)
        s = np.full(4, 0.5)
        assert hopf_dist(Z, scalar_left(s, Z)) == pytest.approx(0.0, abs=1e-6)


class TestBatchedKernels:
    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(13)
        for field, d in FIELDS:
            comps = np.zeros((6, 7, 3, 4))
            comps[..., :d] = rng.standard_normal((6, 7, 3, d))
            lam_b = singular_values_native(_to_native(comps, field), field)
            assert lam_b.shape == (6, 3)
            assert np.all(np.diff(lam_b, axis=-1) <= 1e-12)  # non-increasing
            q_b, lam_min = polar_q_batched(comps, field)
            for i in range(6):
                Z = FMatrix(field, comps[i])
                lam_s = singular_values(Z)
                np.testing.assert_allclose(lam_b[i], lam_s, atol=1e-8)
                assert lam_min[i] == pytest.approx(lam_s[-1], abs=1e-8)
                np.testing.assert_allclose(q_b[i], polar(Z).q.comps, atol=1e-8)

    def test_batched_n1(self):
        rng = np.random.default_rng(14)
        comps = np.zeros((5, 9, 1, 4))
        comps[..., :2] = rng.standard_normal((5, 9, 1, 2))
        q, lam = polar_q_batched(comps, "C")
        norms = np.sqrt(np.sum(q**2, axis=(-3, -2, -1)))
        np.testing.assert_allclose(norms, np.ones(5), atol=1e-12)
        np.testing.assert_allclose(
            lam, np.sqrt(np.sum(comps**2, axis=(-3, -2, -1))), atol=1e-12
        )


@st.composite
def _gaussian_batches(draw):
    field, d = draw(st.sampled_from(FIELDS))
    N = draw(st.integers(1, 12))
    n = draw(st.integers(1, min(N, 5)))
    batch = draw(st.sampled_from(((), (3,))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = np.zeros(batch + (N, n, 4))
    comps[..., :d] = rng.standard_normal(batch + (N, n, d))
    return field, d, comps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_gaussian_batches())
def test_kernels_match_componentwise_reference(sample):
    # The componentwise products and the realified spectrum, with each
    # singular value repeated d times, are the reference for every kernel.
    field, d, comps = sample
    n = comps.shape[-2]
    eye = np.zeros((n, n, 4))
    eye[np.arange(n), np.arange(n), 0] = 1.0
    q_b, lam_min = polar_q_batched(comps, field)
    lam_b = singular_values_native(_to_native(comps, field), field)
    for idx in np.ndindex(comps.shape[:-3]):
        Zc = comps[idx]
        tol = 1e-10 * max(1.0, float(np.sqrt(np.sum(Zc**2))))
        Z = FMatrix(field, Zc)
        G = comp_matmul(comp_adjoint(Zc), Zc)
        w = np.linalg.eigvalsh(realify_comps(G, field))[::-1]
        ref = np.sqrt(np.clip(w, 0.0, None))
        np.testing.assert_allclose(np.repeat(singular_values(Z), d), ref, rtol=0, atol=tol)
        np.testing.assert_allclose(np.repeat(lam_b[idx], d), ref, rtol=0, atol=tol)
        assert abs(lam_min[idx] - ref[-1]) <= tol
        np.testing.assert_allclose((Z.adjoint() @ Z).comps, G, rtol=0, atol=tol)
        p = polar(Z)
        np.testing.assert_allclose((Z @ p.h).comps, comp_matmul(Zc, p.h.comps), rtol=0, atol=tol)
        np.testing.assert_allclose(comp_matmul(p.q.comps, p.h.comps), Zc, rtol=0, atol=tol)
        np.testing.assert_allclose(
            comp_matmul(comp_adjoint(p.q.comps), p.q.comps), eye, rtol=0, atol=tol
        )
        np.testing.assert_allclose(q_b[idx], p.q.comps, rtol=0, atol=tol)


@st.composite
def _frames_with_repeats(draw):
    field, d = draw(st.sampled_from(FIELDS))
    N = draw(st.integers(1, 20))
    n = draw(st.integers(1, min(N, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = np.zeros((N, n, 4))
    comps[..., :d] = rng.standard_normal((N, n, d))
    if n > 1 and draw(st.booleans()):
        comps[:, n - 1] = comps[:, 0]  # a repeated column: rank n - 1
    return field, FMatrix(field, comps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_frames_with_repeats())
def test_svd_and_polar_spectrum_properties(sample):
    field, Z = sample
    N, n = Z.shape
    t = svd(Z)
    assert (t.u.adjoint() @ t.u - FMatrix.identity(field, N)).norm <= 1e-12 * N
    rec = t.u @ diag_fmatrix(field, t.lam, N) @ t.v.adjoint()
    assert (rec - Z).norm <= 1e-8 * max(1.0, Z.norm)
    lam = polar(Z).lam
    assert np.all(np.diff(lam) <= 0.0)
    # Squares, since the root amplifies round-off near a zero singular value.
    gap = np.abs(lam**2 - singular_values(Z) ** 2).max()
    assert gap <= 1e-12 * max(1.0, Z.norm**2)


@st.composite
def _nearly_repeated_columns(draw):
    field, d = draw(st.sampled_from(FIELDS))
    N = draw(st.integers(2, 20))
    n = draw(st.integers(2, min(N, 5)))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    delta = 10.0 ** -draw(st.integers(4, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = np.zeros((N, n, 4))
    comps[..., :d] = rng.standard_normal((N, n, d))
    comps[:, j, :d] = comps[:, i, :d] + delta * rng.standard_normal((N, d))
    return field, FMatrix(field, comps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_nearly_repeated_columns())
def test_polar_frame_orthonormal_near_rank_deficiency(sample):
    # Column j is column i perturbed by 1e-4 to 1e-17: condition numbers
    # from about 1e4 up to exact rank deficiency in floating point, where
    # the Gram route Q = Z (Z* Z)^(-1/2) lost orthonormality (2.6e-4 over
    # H at N = 5, n = 4 and a 1e-5 perturbation).  The batched kernel,
    # on a batch of one, must keep the frame orthonormal too.
    field, Z = sample
    q = polar(Z).q
    assert (q.adjoint() @ q - FMatrix.identity(field, Z.n)).norm <= 1e-8
    q_b = FMatrix._wrap(field, polar_q_native(Z.native[None], field)[0][0])
    assert (q_b.adjoint() @ q_b - FMatrix.identity(field, Z.n)).norm <= 1e-8


def _fallback_batch(field, N, n, seed):
    """A native batch of 8 draws whose odd entries fail the RANK_TOL test.
    Entries 1 and 5 have column j = column i (1 + 1e-6), entry 3 a zero
    column and entry 7 only one nonzero column; at n = 1, entries 1 and 5
    are columns shorter than RANK_TOL and entries 3 and 7 zero."""
    d = dict(FIELDS)[field]
    X = _to_native(np.random.default_rng(seed).standard_normal((8, N, n, d)), field)
    if n == 1:
        X[[1, 5]] *= 1e-5  # columns shorter than RANK_TOL
        X[[3, 7]] = 0.0
        return X
    X[1, :, n - 1] = X[1, :, 0] * (1.0 + 1e-6)
    X[5, :, 0] = X[5, :, 1] * (1.0 + 1e-6)
    X[3, :, 1] = 0.0
    X[7, :, : n - 1] = 0.0
    return X


# sha256 of the frames of polar_q_native on _fallback_batch(field, 6, n, 31),
# and of polar(Z).q for each of its SVD-route entries Z, at n = 3 and n = 1:
# the frame bytes of the rank policy's fallback must not move when its
# code does.  The digests pin the bytes of one BLAS and LAPACK build.
FALLBACK_PINS = {
    ("R", 3): (
        "7d9bcef4e6092fcef33f9c5c30a72979a4ae01f59e011014754734c3cd90ff96",
        "16bb5858025acada1b1b005dcea52fe11e9188e7d4c898cbc72247034ab77d99",
    ),
    ("C", 3): (
        "2d11f599beba0d3bb4807e418bd56873ad077d5e33b0bef476d83fe06ac65c95",
        "e576631c44d27228f9eaefa8d7a93cf44f51edccb1d0917456a1624555c5e055",
    ),
    ("H", 3): (
        "e8ba075ba7e52a5a8819d6c17662371f1c9cedee41933aede64a388e343c93d2",
        "f0ca8784c4ec18241f297ea8554308a313cc586efa5f58ea7261c00714f6f42d",
    ),
    ("R", 1): (
        "b0285acfef0f506e30558cfb31d130715d26c3e8a9a0aa26d77c7f10be0b4b1d",
        "827c9b3e880a204ed4907406cae38f8893096a763794ca4aa4ae82d27f27058c",
    ),
    ("C", 1): (
        "567d4fdd16fa4deeb2c15a17bbde05c5e4b6e69f5b3f239485d05d4cf8b23850",
        "85f7af3d9f9a682c91524f127fa48788e64e2ade531e7a7478f2b3db6984e6c3",
    ),
    ("H", 1): (
        "4ae63821c6f6158562fcf936d42430d818696a9e74cdf85ec30439d7054a2e21",
        "277ae0f56afdfa3a17942030c44df48be5d0793b284a924fee71efdf16e6ba17",
    ),
}


@pytest.mark.parametrize("field, n", sorted(FALLBACK_PINS))
def test_fallback_frames_are_pinned(field, n):
    X = _fallback_batch(field, 6, n, 31)
    q, lam_min = polar_q_native(X, field)
    per_matrix = b"".join(polar(FMatrix._wrap(field, Z)).q.native.tobytes() for Z in X[1::2])
    got = (hashlib.sha256(q.tobytes()).hexdigest(), hashlib.sha256(per_matrix).hexdigest())
    assert got == FALLBACK_PINS[field, n]
    # The odd entries take the SVD route, the even ones the Gram route.
    assert np.all(lam_min[1::2] <= 1e-3 * np.maximum(1.0, _frobenius(X[1::2])))
    assert np.all(lam_min[0::2] > 1e-1)


def test_one_eigensolve_per_ill_conditioned_frame(monkeypatch):
    # The SVD route of the rank policy reuses the eigenpairs the rank
    # test solved for: one Gram eigensolve for polar, one for a batch.
    calls = []
    gram_eig = decomp._gram_eig
    monkeypatch.setattr(decomp, "_gram_eig", lambda *a, **k: calls.append(1) or gram_eig(*a, **k))
    for field, _ in FIELDS:
        X = _fallback_batch(field, 6, 3, 31)
        calls.clear()
        polar(FMatrix._wrap(field, X[1]))
        assert len(calls) == 1
        calls.clear()
        polar_q_native(X, field)
        assert len(calls) == 1


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_svd_route_lam_min_is_the_svds(field):
    # An entry that takes the SVD route reports the SVD's smallest
    # singular value, batched and per matrix alike, not the root of its
    # Gram eigenvalue, which sits near sqrt(eps) ||Z||.
    X = _fallback_batch(field, 6, 3, 31)
    _, lam_min = polar_q_native(X, field)
    for i in (1, 3, 5, 7):
        Z = FMatrix._wrap(field, X[i])
        assert lam_min[i] == svd(Z).lam[-1] == polar(Z).lam[-1]
