import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from componentwise import comp_adjoint, comp_conj, comp_matmul, comp_norm
from mmconc.algebra import FMatrix, comp_mul, field_dim, realify_comps
from mmconc.errors import DomainError, FieldMismatchError, ShapeMismatchError
from mmconc.sampling import SamplerConfig, haar_chunk


def rand_comps(rng, shape, d):
    out = np.zeros(shape + (4,))
    out[..., :d] = rng.standard_normal(shape + (d,))
    return out


class TestScalar:
    def test_field_dims(self):
        assert field_dim("R") == 1
        assert field_dim("C") == 2
        assert field_dim("H") == 4
        with pytest.raises(DomainError):
            field_dim("Q")

    def test_hamilton_table(self):
        # i*j = k, j*k = i, k*i = j, i*i = -1
        i = np.array([0.0, 1, 0, 0])
        j = np.array([0.0, 0, 1, 0])
        k = np.array([0.0, 0, 0, 1])
        np.testing.assert_allclose(comp_mul(i, j), k)
        np.testing.assert_allclose(comp_mul(j, k), i)
        np.testing.assert_allclose(comp_mul(k, i), j)
        np.testing.assert_allclose(comp_mul(i, i), -np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(comp_mul(j, i), -k)

    def test_associativity_and_norm(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            comp_mul(comp_mul(a, b), c), comp_mul(a, comp_mul(b, c)), atol=1e-12
        )
        assert comp_norm(comp_mul(a, b)) == pytest.approx(comp_norm(a) * comp_norm(b))

    def test_conj_involution_and_product_rule(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 4))
        np.testing.assert_allclose(comp_conj(comp_conj(a)), a)
        # conj(ab) = conj(b) conj(a)
        np.testing.assert_allclose(
            comp_conj(comp_mul(a, b)), comp_mul(comp_conj(b), comp_conj(a)), atol=1e-12
        )
        # Re(ab) = Re(ba)
        assert comp_mul(a, b)[0] == pytest.approx(comp_mul(b, a)[0])

    def test_scalar_arithmetic(self):
        # A field scalar is a 1 x 1 FMatrix.
        z = FMatrix("C", np.array([[[1.0, 2.0, 0.0, 0.0]]]))
        w = FMatrix("C", np.array([[[3.0, -1.0, 0.0, 0.0]]]))
        assert (z @ w).comps[0, 0, 0] == pytest.approx(5.0)
        assert (z @ w).comps[0, 0, 1] == pytest.approx(5.0)
        assert (z - w).comps[0, 0, 0] == pytest.approx(-2.0)
        assert z.adjoint().comps[0, 0, 1] == pytest.approx(-2.0)
        assert z.norm == pytest.approx(np.sqrt(5.0))
        with pytest.raises(FieldMismatchError):
            z @ FMatrix("R", np.array([[[1.0, 0.0, 0.0, 0.0]]]))

    def test_component_purity_enforced(self):
        with pytest.raises(DomainError):
            FMatrix("R", np.array([[[1.0, 0.5, 0.0, 0.0]]]))
        with pytest.raises(DomainError):
            FMatrix("C", np.array([[[1.0, 0.0, 0.3, 0.0]]]))
        FMatrix("H", np.ones((1, 1, 4)))  # fine

    def test_scalars_are_one_by_one_matrices(self):
        rng = np.random.default_rng(4)
        for field, d in (("R", 1), ("C", 2), ("H", 4)):
            a = rand_comps(rng, (3, 3), d)
            Z = FMatrix(field, a)
            for t in (Z.trace(), (Z.adjoint() @ Z).trace()):
                assert isinstance(t, FMatrix)
                assert (t.field, t.shape) == (field, (1, 1))
            np.testing.assert_allclose(
                Z.trace().comps[0, 0], a[0, 0] + a[1, 1] + a[2, 2], rtol=0, atol=1e-12
            )
            with pytest.raises(ShapeMismatchError):
                FMatrix.tall_identity(field, 2, 1).trace()


class TestFMatrix:
    def test_shapes_and_identity(self):
        eye = FMatrix.identity("C", 3)
        assert eye.shape == (3, 3)
        np.testing.assert_allclose((eye @ eye).native, eye.native, rtol=0, atol=1e-10)
        tall = FMatrix.tall_identity("H", 5, 2)
        assert tall.shape == (5, 2)
        eye2 = FMatrix.identity("H", 2)
        np.testing.assert_allclose((tall.adjoint() @ tall).native, eye2.native, rtol=0, atol=1e-10)

    def test_matmul_vs_realified(self):
        rng = np.random.default_rng(2)
        for field, d in (("R", 1), ("C", 2), ("H", 4)):
            A = FMatrix(field, rand_comps(rng, (4, 3), d))
            B = FMatrix(field, rand_comps(rng, (3, 2), d))
            left = realify_comps((A @ B).comps, field)
            right = realify_comps(A.comps, field) @ realify_comps(B.comps, field)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_adjoint_realifies_to_transpose(self):
        rng = np.random.default_rng(3)
        Z = FMatrix("H", rand_comps(rng, (4, 2), 4))
        np.testing.assert_allclose(
            realify_comps(Z.adjoint().comps, "H"),
            realify_comps(Z.comps, "H").T,
            atol=1e-12,
        )

    def test_frobenius_inner(self):
        # tr(Z* W) is the Frobenius inner product; its real part is the
        # realified Euclidean one.
        rng = np.random.default_rng(5)
        Z = FMatrix("C", rand_comps(rng, (4, 2), 2))
        inner = (Z.adjoint() @ Z).trace().comps[0, 0]
        assert inner[0] == pytest.approx(Z.norm**2)
        assert abs(inner[1]) < 1e-12
        W = FMatrix("C", rand_comps(rng, (4, 2), 2))
        # <Z, W> = conj(<W, Z>)
        np.testing.assert_allclose(
            (Z.adjoint() @ W).trace().comps,
            (W.adjoint() @ Z).trace().adjoint().comps,
            atol=1e-12,
        )

    def test_norm_matches_realified(self):
        rng = np.random.default_rng(6)
        Z = FMatrix("H", rand_comps(rng, (3, 2), 4))
        assert Z.norm == pytest.approx(np.linalg.norm(realify_comps(Z.comps, "H")) / 2.0)

    def test_construction_checks_components(self):
        # FMatrix(field, comps) is the checked boundary: the layout is
        # (N, n, 4) and components beyond the field dimension vanish.
        comps = np.zeros((3, 2, 4))
        comps[1, 0, 1] = 0.5
        with pytest.raises(DomainError):
            FMatrix("R", comps)
        FMatrix("C", comps)  # fine
        comps[2, 1, 3] = -0.25
        with pytest.raises(DomainError):
            FMatrix("C", comps)
        np.testing.assert_array_equal(FMatrix("H", comps).comps, comps)
        for shape in ((3, 2), (3, 2, 3), (2, 3, 2, 4)):
            with pytest.raises(ShapeMismatchError):
                FMatrix("H", np.zeros(shape))
        with pytest.raises(DomainError):
            FMatrix("Q", np.zeros((3, 2, 4)))

    def test_field_and_shape_guards(self):
        Z = FMatrix("R", np.zeros((3, 2, 4)))
        W = FMatrix("C", np.zeros((3, 2, 4)))
        with pytest.raises(FieldMismatchError):
            Z - W
        with pytest.raises(ShapeMismatchError):
            Z @ FMatrix("R", np.zeros((3, 2, 4)))

    def test_comp_matmul_associative(self):
        rng = np.random.default_rng(7)
        A = rand_comps(rng, (2, 3, 2), 4)
        B = rand_comps(rng, (2, 2, 4), 4)
        C = rand_comps(rng, (2, 4, 2), 4)
        np.testing.assert_allclose(
            comp_matmul(comp_matmul(A, B), C),
            comp_matmul(A, comp_matmul(B, C)),
            atol=1e-12,
        )


@st.composite
def _operands(draw):
    field, d = draw(st.sampled_from((("R", 1), ("C", 2), ("H", 4))))
    N, n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rand_comps(rng, (2, N, n), d)
    c = rand_comps(rng, (n, m), d)
    return field, a, b, c, draw(st.floats(-3.0, 3.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operands())
def test_arithmetic_matches_componentwise_oracle(case):
    # Differences, real scaling and the adjoint move components exactly;
    # products, traces and norms agree to round-off.
    field, a, b, c, r = case
    A, B, C = FMatrix(field, a), FMatrix(field, b), FMatrix(field, c)
    np.testing.assert_array_equal(A.comps, a)
    np.testing.assert_array_equal((A - B).comps, a - b)
    np.testing.assert_array_equal(A.scale(r).comps, r * a)
    np.testing.assert_array_equal(A.adjoint().comps, comp_adjoint(a))
    np.testing.assert_allclose((A @ C).comps, comp_matmul(a, c), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        (A.adjoint() @ B).trace().comps[0, 0],
        comp_mul(comp_conj(a), b).sum(axis=(0, 1)),
        rtol=0,
        atol=1e-12,
    )
    assert A.norm == pytest.approx(np.sqrt(np.sum(a**2)), rel=1e-14, abs=0)


class TestRealify:
    def test_unitary_roundtrip(self):
        # The real picture of a unitary over F is orthogonal of size d N.
        for field in ("R", "C", "H"):
            cfg = SamplerConfig(field, 5, 5, scaled=False, seed=11)
            R = realify_comps(haar_chunk(cfg, 0)[0], field)
            np.testing.assert_allclose(R.T @ R, np.eye(R.shape[0]), atol=1e-8)
