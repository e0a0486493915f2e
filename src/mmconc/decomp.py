"""Matrix decompositions over R, C and H.

Hermitian eigendecomposition, SVD and polar factors, plus the distances
built on them: distance to a scaled frame manifold, and the two quotient
distances (right-unitary and unit-scalar orbits).

The FMatrix functions read the native array of each argument and wrap
native results, with no conversion or check on the way.  The native
batched functions (`polar_q_native`, `singular_values_native`) are what
the samplers and statistics call; `polar_q_batched` and
`singular_values_batched` are each one conversion around them for
batches in the (..., N, n, 4) interchange layout.  One kernel,
`_gram_eig`, lifts a native batch (over H to the complex adjoint of F.
Zhang, Linear Algebra Appl. 251, 1997), forms and solves its Gram
matrix, and serves the per-matrix functions as a batch of one as well as
the batched ones.  Over H every eigenvalue of a lifted matrix comes
twice, on the pair {x, Jx}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FMatrix,
    _from_native,
    _frobenius,
    _lift,
    _partner,
    _to_native,
)
from .errors import NotHermitianError, ShapeMismatchError


@dataclass(frozen=True)
class PolarFactors:
    q: FMatrix
    h: FMatrix


@dataclass(frozen=True)
class SingularTriple:
    u: FMatrix
    lam: np.ndarray
    v: FMatrix


def _gram_eig(X, field, vectors=True):
    """Eigensolve the Gram matrix Z* Z of a native batch X (..., rows, n).

    X is lifted to L and L* L is solved; eigh reads one triangle and the
    real diagonal, so round-off skew needs no symmetrization.  Returns
    (L, lam2, w, V): lam2 holds the ascending eigenvalues of Z* Z, one
    per eigenvalue over F, while w and V are all eigenpairs of L* L (V
    is None without vectors), so over H w holds every entry of lam2
    twice.
    """
    L = _lift(X, field)
    G = np.swapaxes(L, -1, -2).conj() @ L
    if vectors:
        w, V = np.linalg.eigh(G)
    else:
        w, V = np.linalg.eigvalsh(G), None
    # Only the H lift is wider than X; it doubles every eigenvalue.
    return L, w[..., :: 1 + (L.shape[-1] > X.shape[-1])], w, V


def _spectral(V, vals, n):
    """The first n columns of V diag(vals) V* over a batch of
    eigenvector matrices."""
    return (V * vals[..., None, :]) @ np.conj(np.swapaxes(V[..., :n, :], -1, -2))


def _polar_frame(L, w, V, n):
    """Native polar frame L (L* L)^(-1/2) of a full-rank lifted batch."""
    return L @ _spectral(V, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), n)


def _eig_desc(w, V, field):
    """Native eigenvectors over F and their eigenvalues, non-increasing.

    Over H, eigh returns an arbitrary basis of each eigenspace of the
    lifted matrix, so pick one column per pair and keep the picks
    orthonormal over H, which matters within a repeated eigenvalue.
    """
    order = np.argsort(-w)
    if field == "H":
        N = V.shape[0] // 2
        B = _pick_pairs(V[:, :0], V[:, order], N, ordered=True)
        return B[:, 0::2], w[order][0::2]
    return V[:, order], w[order]


def _with_partners(X):
    """Interleave columns x with their partners, [x1, Jx1, x2, Jx2, ...].

    Quaternion columns are orthonormal over H exactly when these complex
    columns are orthonormal over C.
    """
    out = np.empty((X.shape[0], 2 * X.shape[1]), dtype=complex)
    out[:, 0::2] = X
    out[:, 1::2] = _partner(X)
    return out


def _project_off(B, X):
    """Residual of X off the span of the orthonormal columns B, with a
    second pass to restore orthogonality lost to cancellation."""
    for _ in range(2):
        X = X - B @ (np.conj(B.T) @ X)
    return X


def _gram_schmidt(field, B, X, reject_tol):
    """Extend the orthonormal native basis B by the columns of X in order.

    A column whose residual off span(B) is shorter than reject_tol is
    dropped; an accepted one is normalized and appended, over H together
    with its partner, so coefficients act from the right.  Returns (B,
    accepted columns).
    """
    accepted = []
    for l in range(X.shape[1]):
        r = _project_off(B, X[:, l : l + 1])
        norm = float(np.linalg.norm(r))
        if norm < reject_tol:
            continue
        r = r / norm
        accepted.append(r)
        B = np.concatenate([B, _with_partners(r) if field == "H" else r], axis=1)
    return B, accepted


def _pick_pairs(B, E, count, ordered):
    """Extend the complex-adjoint basis B by count quaternionic columns.

    Step m takes the column of E with the longest residual off span(B),
    normalizes it and appends it with its partner.  Over orthonormal
    columns of E the squared residuals sum to at least their number
    minus dim span(B), which is at least 2 at every step here, so the
    pick never degenerates.  With ordered, step m looks only at the
    first 2m + 2 columns of E: for eigenvectors sorted by eigenvalue this
    keeps column m inside the m-th eigenvalue pair.
    """
    for m in range(count):
        R = _project_off(B, E[:, : 2 * m + 2] if ordered else E)
        norms = np.linalg.norm(R, axis=0)
        j = int(np.argmax(norms))
        B = np.concatenate([B, _with_partners(R[:, j : j + 1] / norms[j])], axis=1)
    return B


def hermitian_eig(H, tol=1e-10):
    """Eigendecomposition of a Hermitian matrix over F.

    Returns (P, sigma) with H = P diag(sigma) P*, sigma real and sorted
    non-increasing, P unitary over F.
    """
    if H.N != H.n:
        raise ShapeMismatchError("hermitian_eig needs a square matrix")
    defect = (H - H.adjoint()).norm
    if defect > tol * max(1.0, H.norm):
        raise NotHermitianError("matrix is not Hermitian (defect %.3e)" % defect)
    w, V = np.linalg.eigh(_lift(H.native, H.field))
    P, sigma = _eig_desc(w, V, H.field)
    return FMatrix._wrap(H.field, P), sigma


def singular_values(Z):
    """Non-increasing singular values, the root spectrum of Z* Z."""
    if Z.N < Z.n:
        raise ShapeMismatchError("need N >= n")
    return singular_values_native(Z.native, Z.field)


def svd(Z):
    """Z = U Lambda V* with U, V unitary and Lambda the (N, n) diagonal."""
    if Z.N < Z.n:
        raise ShapeMismatchError("need N >= n")
    N, n = Z.shape
    L, _, w, V = _gram_eig(Z.native, Z.field)
    P, _ = _eig_desc(w, V, Z.field)
    # The singular values are the column norms of Z P, which keep a
    # collapsed one near eps ||Z||, where the root of its Gram
    # eigenvalue would sit near sqrt(eps) ||Z||.
    ZP = L @ P
    lam = np.linalg.norm(ZP, axis=0)
    order = np.argsort(-lam, kind="stable")
    P, ZP, lam = P[:, order], ZP[:, order], lam[order]
    cut = max(1.0, lam[0] if n else 1.0) * 1e-13
    keep = lam > cut
    cands = ZP[:, keep] / lam[keep]
    # Columns of a numerically rank-deficient input collapse onto the
    # leading ones; Gram-Schmidt rejection filters them out and the
    # orthogonal complement completes the frame.
    B, cols = _gram_schmidt(Z.field, cands[:, :0], cands, 0.5)
    if Z.field == "H":
        B = _pick_pairs(B, np.eye(2 * N), N - len(cols), ordered=False)
        U = B[:, 0::2]
    else:
        Q, _ = np.linalg.qr(B, mode="complete")
        U = np.concatenate([B, Q[:, len(cols) :]], axis=1)
    return SingularTriple(
        u=FMatrix._wrap(Z.field, U), lam=lam, v=FMatrix._wrap(Z.field, P)
    )


def polar(Z, rank_tol=1e-6):
    """Z = Q H with Q an orthonormal frame and H Hermitian PSD.

    Full-rank inputs use H = (Z* Z)^(1/2) and Q = Z H^(-1); otherwise
    the frame comes from the SVD.
    """
    if Z.N < Z.n:
        raise ShapeMismatchError("need N >= n")
    n = Z.n
    L, lam2, w, V = _gram_eig(Z.native, Z.field)
    H = FMatrix._wrap(Z.field, _spectral(V, np.sqrt(np.clip(w, 0.0, None)), n))
    lam = np.sqrt(np.clip(lam2, 0.0, None))
    if n == 0 or lam[0] > rank_tol * max(1.0, lam[-1]):
        return PolarFactors(q=FMatrix._wrap(Z.field, _polar_frame(L, w, V, n)), h=H)
    t = svd(Z)
    Q = FMatrix._wrap(Z.field, t.u.native[:, :n]) @ t.v.adjoint()
    return PolarFactors(q=Q, h=H)


def dist_to_scaled_stiefel(Z, r):
    """Frobenius distance from Z to the frames scaled by r > 0."""
    if r <= 0:
        raise ShapeMismatchError("radius must be positive")
    lam = singular_values(Z)
    return float(np.sqrt(np.sum(np.square(lam - r))))


def grassmann_dist(Z, W):
    """min over unitary U of ||Z - W U|| (right-orbit quotient distance)."""
    Z._check_like(W)
    M = W.adjoint() @ Z
    lam = singular_values(M)
    d2 = Z.norm**2 + W.norm**2 - 2.0 * float(np.sum(lam))
    return float(np.sqrt(max(d2, 0.0)))


def hopf_dist(Z, W):
    """min over unit scalars t of ||t Z - W|| (scalar-orbit distance)."""
    Z._check_like(W)
    # max over unit t of Re tr(W (t Z)*) is |tr(W Z*)|.
    S = (W @ Z.adjoint()).trace()
    d2 = Z.norm**2 + W.norm**2 - 2.0 * S.norm
    return float(np.sqrt(max(d2, 0.0)))


# ---------------------------------------------------------------------------
# Batched functions (hot paths for the samplers and statistics).


def singular_values_native(X, field):
    """Non-increasing singular values of a native batch, shape (..., n)."""
    w = _gram_eig(X, field, vectors=False)[1]
    return np.sqrt(np.clip(w[..., ::-1], 0.0, None))


def polar_q_native(X, field):
    """Polar frames Q of a full-rank native batch.

    Returns (q, lam_min), q native like X, where lam_min is the smallest
    singular value per batch entry (callers guard rank with it).
    """
    n = X.shape[-1]
    if n == 1:
        total = _frobenius(X)
        safe = np.where(total > 0.0, total, 1.0)
        return X / safe[..., None, None], total
    L, lam2, w, V = _gram_eig(X, field)
    return _polar_frame(L, w, V, n), np.sqrt(np.clip(lam2[..., 0], 0.0, None))


def singular_values_batched(comps, field):
    """singular_values_native of a batch (..., N, n, 4)."""
    return singular_values_native(_to_native(comps, field), field)


def polar_q_batched(comps, field):
    """polar_q_native of a batch (..., N, n, 4); q comes back as
    (..., N, n, 4) too."""
    q, lam_min = polar_q_native(_to_native(comps, field), field)
    return _from_native(q, field), lam_min
