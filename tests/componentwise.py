"""Componentwise reference arithmetic for the tests.

A scalar is its four components (..., 4) and a matrix its component
array (..., N, n, 4); a product is the 16 real matrix products of the
Hamilton formula.  This is the oracle that
the native arithmetic of mmconc is checked against.
"""

import numpy as np


def comp_conj(a):
    """Conjugate of scalar arrays shaped (..., 4)."""
    out = np.array(a, dtype=np.float64, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def comp_norm(a):
    """Scalar norm sqrt(z0^2 + z1^2 + z2^2 + z3^2) over the last axis."""
    return np.sqrt(np.sum(np.square(a), axis=-1))


def comp_matmul(a, b):
    """Matrix product of component arrays (..., N, k, 4) x (..., k, n, 4)."""
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
            a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
            a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
            a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
        ],
        axis=-1,
    )


def comp_adjoint(a):
    """Conjugate transpose of a component array (..., N, n, 4)."""
    return comp_conj(np.swapaxes(a, -3, -2))
