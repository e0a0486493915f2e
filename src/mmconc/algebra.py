"""Matrix arithmetic over the real, complex and quaternion fields.

A matrix is held as its native array: R float64 (N, n), C complex128
(N, n), and for H = Z1 + Z2 j the first block column [Z1; -conj Z2]
(2N, n) of the complex adjoint [[Z1, Z2], [-conj Z2, conj Z1]] (F.
Zhang, Linear Algebra Appl. 251, 1997).  FMatrix stores that array and
runs all of its arithmetic on it; a field scalar is a 1 x 1 FMatrix,
as `trace` returns it.  The samplers draw, and the batched kernels and
statistics compute, on native arrays too, from the draw to the
statistic.  Every helper accepts extra leading batch axes so hot loops
stay vectorized.

The componentwise interchange layout is read and written only at the
boundary: `FMatrix(field, comps)` and `.comps`, the public batched
interchange functions and the sample CSVs.  There a scalar is four
reals (z0, z1, z2, z3) with z = z0 + z1*i + z2*j + z3*k and the unused
components pinned at zero for R and C, and a matrix is a float64 array
(N, n, 4).  Only this module converts between the two layouts
(`_to_native`, and back `_components` and `_from_native`);
`realify_comps` gives the real matrix of a component array, the
reference the tests check the native arithmetic against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FieldMismatchError, ShapeMismatchError

FIELDS = {"R": 1, "C": 2, "H": 4}


def field_dim(field):
    """Real dimension of the scalar field: 1, 2 or 4."""
    try:
        return FIELDS[field]
    except KeyError:
        raise DomainError("unknown field tag %r (expected R, C or H)" % (field,))


def frame_radius(N, field):
    """Column radius sqrt(N^F - 1) of the scaled frame manifold in F^N."""
    return math.sqrt(N * field_dim(field) - 1.0)


def _check_comps(field, comps):
    d = field_dim(field)
    if comps.shape[-1] != 4:
        raise ShapeMismatchError("component axis must have length 4")
    if d < 4 and np.any(comps[..., d:] != 0.0):
        raise DomainError("components beyond dim %d must vanish for field %s" % (d, field))


def comp_mul(a, b):
    """Componentwise product of scalar arrays shaped (..., 4).

    Real and complex values are quaternions with vanishing upper
    components, so the single Hamilton formula covers all three fields.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.float64)
    out[..., 0] = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    out[..., 1] = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    out[..., 2] = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    out[..., 3] = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    return out


def _to_native(z, field):
    """Native array, C-contiguous, of the field components z (..., N, n, d')
    for any d' >= d = field_dim(field): components past d are dropped, so a
    component array (d' = 4) and a draw of d components both convert.

    R gives the real (..., N, n) matrix and C the complex one.  H gives
    the first block column [Z1; -conj Z2] (..., 2N, n) of the complex
    adjoint [[Z1, Z2], [-conj Z2, conj Z1]] of Z = Z1 + Z2 j.
    """
    z = np.asarray(z, dtype=np.float64)[..., : field_dim(field)]
    if field == "R":
        return np.ascontiguousarray(z[..., 0])
    if z.strides[-1] != z.itemsize:
        z = np.ascontiguousarray(z)
    w = z.view(np.complex128)
    if field == "C":
        return np.ascontiguousarray(w[..., 0])
    N = w.shape[-3]
    out = np.empty(w.shape[:-3] + (2 * N, w.shape[-2]), dtype=np.complex128)
    out[..., :N, :] = w[..., 0]
    lower = out[..., N:, :]
    np.negative(np.conj(w[..., 1], out=lower), out=lower)
    return out


def _components(X, field):
    """Inverse of _to_native: the field components (..., N, n, d) of a
    native array, a view of X for R and C."""
    if field == "R":
        return X[..., None]
    if field == "C":
        return X[..., None].view(np.float64)
    N = X.shape[-2] // 2
    return np.stack([X[..., :N, :], -np.conj(X[..., N:, :])], axis=-1).view(np.float64)


def _from_native(X, field):
    """Inverse of _to_native: the component array (..., N, n, 4)."""
    z = _components(X, field)
    if field == "H":
        return z
    out = np.zeros(z.shape[:-1] + (4,))
    out[..., : z.shape[-1]] = z
    return out


def _real_view(X):
    """The float64 entries of a native array: X itself over R, its
    (real, imaginary) pairs along the last axis over C and H.  Sums of
    squares and real inner products of native arrays read this view."""
    return X if X.dtype == np.float64 else X.view(np.float64)


def _frobenius(X):
    """Frobenius norm of each entry of a native batch, shape (...)."""
    return np.sqrt(np.square(_real_view(X)).sum(axis=(-2, -1)))


def _partner(X):
    """Partner columns [-conj x2; conj x1] of complex-adjoint columns.

    The partner is the second column of the complex adjoint of the same
    quaternion column, i.e. up to sign its right multiple by j.
    """
    N = X.shape[-2] // 2
    return np.concatenate([-np.conj(X[..., N:, :]), np.conj(X[..., :N, :])], axis=-2)


def _lift(X, field):
    """The matrix a native array stands for in products.

    R and C arrays are their own matrices; over H the lift is the whole
    complex adjoint [X, JX], so lift(A) @ native(B) is native(A B).
    """
    if field == "H":
        return np.concatenate([X, _partner(X)], axis=-1)
    return X


@dataclass(frozen=True, init=False)
class FMatrix:
    """A dense N x n matrix over R, C or H, held as its native array.

    FMatrix(field, comps) checks a component array (N, n, 4) and
    converts it once; every operation then computes on `native`, which
    is C-contiguous, and wraps its result unchecked.
    """

    field: str
    native: np.ndarray

    def __init__(self, field, comps):
        comps = np.asarray(comps, dtype=np.float64)
        if comps.ndim != 3:
            raise ShapeMismatchError("FMatrix components must be (N, n, 4)")
        _check_comps(field, comps)
        self.__post_init__(field, _to_native(comps, field))

    def __post_init__(self, field, native):
        # Every FMatrix, checked or wrapped, is filled in here once, so
        # a profiler that hooks this method counts each one built.
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "native", native)

    @classmethod
    def _wrap(cls, field, native):
        """The matrix of a native array computed from checked matrices."""
        Z = object.__new__(cls)
        Z.__post_init__(field, np.ascontiguousarray(native))
        return Z

    @classmethod
    def identity(cls, field, n):
        return cls.tall_identity(field, n, n)

    @classmethod
    def tall_identity(cls, field, N, n):
        """The N x n matrix with ones on the diagonal, zeros elsewhere."""
        if n > N:
            raise ShapeMismatchError("need n <= N")
        field_dim(field)
        rows = 2 * N if field == "H" else N
        return cls._wrap(field, np.eye(rows, n, dtype=float if field == "R" else complex))

    @property
    def comps(self):
        """The component array (N, n, 4), a fresh copy."""
        return _from_native(self.native, self.field)

    @property
    def N(self):
        return self.shape[0]

    @property
    def n(self):
        return self.native.shape[1]

    @property
    def shape(self):
        rows, n = self.native.shape
        return (rows // 2 if self.field == "H" else rows, n)

    @property
    def norm(self):
        return float(_frobenius(self.native))

    def _check_like(self, other, shapes=True):
        if not isinstance(other, FMatrix):
            raise TypeError("expected FMatrix")
        if other.field != self.field:
            raise FieldMismatchError(
                "mixed fields %s and %s" % (self.field, other.field)
            )
        if shapes and other.shape != self.shape:
            raise ShapeMismatchError(
                "shape %r vs %r" % (self.shape, other.shape)
            )

    def adjoint(self):
        X = self.native
        if self.field == "H":
            # The first block column of the adjoint of the complex
            # adjoint [[Z1, Z2], [-conj Z2, conj Z1]] is [Z1*; Z2*].
            N = self.N
            return FMatrix._wrap(self.field, np.concatenate([X[:N].conj().T, -X[N:].T]))
        return FMatrix._wrap(self.field, X.conj().T)

    def __matmul__(self, other):
        self._check_like(other, shapes=False)
        if self.n != other.N:
            raise ShapeMismatchError(
                "inner dimensions %d and %d differ" % (self.n, other.N)
            )
        return FMatrix._wrap(self.field, _lift(self.native, self.field) @ other.native)

    def __sub__(self, other):
        self._check_like(other)
        return FMatrix._wrap(self.field, self.native - other.native)

    def scale(self, r):
        """Multiply by a real number."""
        return FMatrix._wrap(self.field, float(r) * self.native)

    def trace(self):
        if self.N != self.n:
            raise ShapeMismatchError("trace needs a square matrix")
        # The trace of each block of the native array: the native array
        # of the 1 x 1 matrix tr Z.
        blocks = self.native.reshape(-1, self.n, self.n)
        return FMatrix._wrap(self.field, np.trace(blocks, axis1=-2, axis2=-1)[:, None])


# _UNITS[k] is the real 4 x 4 matrix of left multiplication by the unit
# quaternion e_k (1, i, j, k): entry (r, c) is component r of e_k e_c.
_UNITS = np.swapaxes(comp_mul(np.eye(4)[:, None], np.eye(4)), -1, -2)


def realify_comps(comps, field):
    """Real matrix of left multiplication by the given component array.

    (..., N, n, 4) maps to (..., d*N, d*n) where d is the field dimension.
    Block (r, c) holds component r of Z e_c, e_c the c-th unit
    quaternion, so the first block column stacks the components and
    matrix-vector actions agree with component stacking.
    """
    comps = np.asarray(comps, dtype=np.float64)
    d = field_dim(field)
    N, n = comps.shape[-3], comps.shape[-2]
    out = np.einsum("krc,...ijk->...ricj", _UNITS[:d, :d, :d], comps[..., :d])
    return out.reshape(comps.shape[:-3] + (d * N, d * n))
