"""Matrix decompositions over R, C and H.

SVD and polar factors, both from one Hermitian eigensolve of the Gram
matrix, plus the distances built on them: distance to a scaled frame
manifold, and the two quotient distances (right-unitary and unit-scalar
orbits); and membership in the approximation space, off the Gram matrix.

The FMatrix functions read the native array of each argument and wrap
native results, with no conversion or check on the way.  The samplers
and statistics call the native batched functions (`polar_q_native`,
`singular_values_native`, `dist_to_scaled_stiefel_native`,
`membership_native`) on the draws of the one draw generator,
`sampling.gaussian_blocks`; `polar` and `dist_to_scaled_stiefel` call
them on a batch of one.  `_gram_eig` lifts a native batch (over H to the
complex adjoint of F. Zhang, Linear Algebra Appl. 251, 1997) and solves its
Gram matrix; over H every eigenvalue of a lifted matrix comes twice, on
the pair {x, Jx}.  Every polar frame comes from `_polar_native`, the one
home of the rank policy RANK_TOL: an ill-conditioned entry takes its
frame from the SVD of the eigenpairs already solved.  `svd` completes U
by Householder QR, over H with quaternion reflectors.
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
    frame_radius,
)
from .errors import ShapeMismatchError

# The rank policy of every polar frame, applied in `_polar_native`: a
# matrix whose smallest singular value is at most RANK_TOL max(1, largest)
# takes its frame from the SVD.  The Gram route Q = Z (Z* Z)^(-1/2) loses
# orthonormality as about 1e-16 cond^2, so it is kept to cond <= 1e3: over
# 204800 unscaled Haar frames at seed 1 the worst ||Q* Q - I||_F reads
# 3.1e-10 (R), 9.2e-11 (C) and 4.1e-12 (H) at 4 x 4, and 1.2e-14 at 20 x 4
# over R.
RANK_TOL = 1e-3


@dataclass(frozen=True)
class PolarFactors:
    """Z = Q H, with lam the singular values of Z, non-increasing."""

    q: FMatrix
    h: FMatrix
    lam: np.ndarray


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
    G = L.swapaxes(-1, -2).conj() @ L
    if vectors:
        w, V = np.linalg.eigh(G)
    else:
        w, V = np.linalg.eigvalsh(G), None
    # Only the H lift is wider than X; it doubles every eigenvalue.
    return L, w[..., :: 1 + (L.shape[-1] > X.shape[-1])], w, V


def _spectral(V, vals, n):
    """The first n columns of V diag(vals) V* over a batch of
    eigenvector matrices."""
    return (V * vals[..., None, :]) @ V[..., :n, :].swapaxes(-1, -2).conj()


def _polar_frame(L, w, V, n):
    """Native polar frame L (L* L)^(-1/2) of a full-rank lifted batch."""
    return L @ _spectral(V, 1.0 / np.sqrt(np.maximum(w, 1e-300)), n)


def _eig_desc(w, V, field):
    """Native eigenvectors over F and their eigenvalues, non-increasing.

    Over H, eigh returns an arbitrary basis of each eigenspace of the
    lifted matrix, so pick one column per pair and keep the picks
    orthonormal over H, which matters within a repeated eigenvalue.
    """
    order = np.argsort(-w)
    if field == "H":
        N = V.shape[0] // 2
        B = _pick_pairs(V[:, order], N)
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


def _column_norms(X):
    """np.linalg.norm(X, axis=0), the same bytes without its argument
    handling, which costs more than the sum on these small arrays."""
    return np.sqrt((X.conj() * X).real.sum(axis=0))


def _project_off(B, X):
    """Residual of X off the span of the orthonormal columns B, with a
    second pass to restore orthogonality lost to cancellation."""
    if not B.shape[1]:
        return X
    BH = B.conj().T
    for _ in range(2):
        X = X - B @ (BH @ X)
    return X


def _pick_pairs(E, count):
    """A complex-adjoint basis of count quaternionic columns picked from
    the orthonormal columns of E.

    Step m takes, among the first 2m + 2 columns of E, the one with the
    longest residual off the span B of the earlier picks, normalizes it
    and appends it with its partner.  For eigenvectors sorted by
    eigenvalue this keeps column m inside the m-th eigenvalue pair.  The
    squared residuals of those columns sum to at least
    2m + 2 - dim span(B) = 2, so the pick never degenerates.
    """
    B = np.empty((E.shape[0], 2 * count), dtype=complex)
    for m in range(count):
        R = _project_off(B[:, : 2 * m], E[:, : 2 * m + 2])
        norms = _column_norms(R)
        j = int(np.argmax(norms))
        B[:, 2 * m : 2 * m + 2] = _with_partners(R[:, j : j + 1] / norms[j])
    return B


def _householder_unitary(field, X):
    """A native unitary U over F whose first k columns are the k columns
    of X made orthonormal in order, and whose other columns complete them.
    The columns of X are unit vectors, orthonormal up to round-off, so no
    r_jj below vanishes.

    Householder QR X = Q R: column j of X off the span of the earlier
    ones is Q e_j r_jj, so U is Q with its first k columns scaled on the
    right by the unit scalars r_jj / |r_jj|.  R and C use LAPACK's QR.
    Over H the reflectors I - 2 w w* (A. Bunse-Gerstner, R. Byers and V.
    Mehrmann, Numer. Math. 55, 1989) act on native columns as
    I - 2(u u* + Ju (Ju)*), u the native array of w.  Reflector j is built
    from x, column j of X as reflected by the earlier ones and cut to
    quaternion rows j and below (native rows j and N + j).  It maps x
    onto row j times r_jj = -||x|| s, where s = x_j / |x_j| is the unit
    quaternion of the pivot: its vector is x with x_j scaled by
    1 + ||x|| / |x_j|, of squared norm 2 ||x|| (||x|| + |x_j|), so no
    quaternion product is needed.  Q comes from the reflectors applied to
    the identity in reverse order; its last N - k columns,
    H_1 ... H_k [0; I_{N-k}], complete the frame.
    """
    k = X.shape[1]
    if field != "H":
        Q, R = np.linalg.qr(X, mode="complete")
        r = R.diagonal()
        Q[:, :k] *= r / np.abs(r)
        return Q
    N = X.shape[0] // 2
    reflectors, phases = [], []
    for j in range(k):
        x = X[:, j].copy()
        x[:j] = 0.0
        x[N : N + j] = 0.0
        norm = np.sqrt(np.vdot(x, x).real)
        s1, s2 = x[j], x[N + j]
        pivot = np.sqrt(abs(s1) ** 2 + abs(s2) ** 2)
        s1, s2 = (s1 / pivot, s2 / pivot) if pivot > 0.0 else (1.0, 0.0)
        x[j] += norm * s1
        x[N + j] += norm * s2
        x /= np.sqrt(2.0 * norm * (norm + pivot))
        P = _with_partners(x[:, None])
        P2, PH = 2.0 * P, P.conj().T
        reflectors.append((P2, PH))
        phases.append((s1, s2))
        if j + 1 < k:
            X = X - P2 @ (PH @ X)
    U = np.eye(2 * N, N, dtype=complex)
    for P2, PH in reversed(reflectors):
        U = U - P2 @ (PH @ U)
    if k:
        s1, s2 = np.array(phases).T
        Y = U[:, :k]
        U[:, :k] = -(Y * s1 + _partner(Y) * s2)
    return U


def singular_values(Z):
    """Non-increasing singular values, the root spectrum of Z* Z."""
    if Z.N < Z.n:
        raise ShapeMismatchError("need N >= n")
    return singular_values_native(Z.native, Z.field)


def _svd_factors(L, w, V, field):
    """(U, lam, P) with Z = U Lambda P*, native, for the native matrix Z
    whose lift is L, from the eigenpairs (w, V) of L* L."""
    P, _ = _eig_desc(w, V, field)
    # The singular values are the column norms of Z P, which keep a
    # collapsed one near eps ||Z||, where the root of its Gram
    # eigenvalue would sit near sqrt(eps) ||Z||.
    ZP = L @ P
    lam = _column_norms(ZP)
    order = np.argsort(-lam, kind="stable")
    P, ZP, lam = P[:, order], ZP[:, order], lam[order]
    # Z P is accurate to about eps ||Z||, so a column with lam at most
    # 1e-13 max(1, lam_0) has collapsed onto round-off.  U takes the kept
    # columns made orthonormal in order and completes them.
    k = int(np.count_nonzero(lam > max(1.0, lam[0] if lam.size else 1.0) * 1e-13))
    return _householder_unitary(field, ZP[:, :k] / lam[:k]), lam, P


def svd(Z):
    """Z = U Lambda V* with U, V unitary and Lambda the (N, n) diagonal."""
    if Z.N < Z.n:
        raise ShapeMismatchError("need N >= n")
    L, _, w, V = _gram_eig(Z.native, Z.field)
    U, lam, P = _svd_factors(L, w, V, Z.field)
    return SingularTriple(
        u=FMatrix._wrap(Z.field, U), lam=lam, v=FMatrix._wrap(Z.field, P)
    )


def polar(Z):
    """Z = Q H with Q an orthonormal frame and H = (Z* Z)^(1/2): the
    frame and singular values lam of `_polar_native` on a batch of one,
    and H from its eigenpairs."""
    if Z.N < Z.n:
        raise ShapeMismatchError("need N >= n")
    q, lam, w, V = _polar_native(Z.native[None], Z.field)
    if V is None:  # one column, solved without eigenpairs: H = |z|
        H = FMatrix.identity(Z.field, 1).scale(lam[0, 0])
    else:
        H = FMatrix._wrap(Z.field, _spectral(V[0], np.sqrt(np.maximum(w[0], 0.0)), Z.n))
    return PolarFactors(q=FMatrix._wrap(Z.field, q[0]), h=H, lam=lam[0])


def dist_to_scaled_stiefel(Z, r):
    """Frobenius distance from Z to the frames scaled by r > 0."""
    if r <= 0:
        raise ShapeMismatchError("radius must be positive")
    if Z.N < Z.n:
        raise ShapeMismatchError("need N >= n")
    return float(dist_to_scaled_stiefel_native(Z.native[None], Z.field, r)[0])


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
    return np.sqrt(np.maximum(w[..., ::-1], 0.0))


def dist_to_scaled_stiefel_native(X, field, r):
    """Distance of each entry of a native batch to the frames scaled by r.

    It reads only the singular values, so X may be any batch with the
    Gram law of the draws, such as sampling.gaussian_blocks gives with p.
    """
    if X.shape[-1] == 1:
        return np.abs(_frobenius(X) - r)
    lam = singular_values_native(X, field)
    return np.sqrt(np.sum(np.square(lam - r), axis=-1))


def _gram(X, field):
    """The Gram block L* X (..., m, n) of a native batch X, with L its lift.

    R and C give X* X (m = n).  Over H the rows n + l hold the overlaps
    (JX)* X with the partner columns, so the quaternion inner product
    <z_l, z_m> has norm sqrt(|G[l, m]|^2 + |G[n + l, m]|^2) (m = 2n);
    those rows are A - A^T with A = X1^T X2 for the halves X = [X1; X2],
    so the lift itself is never formed.
    """
    G = np.swapaxes(X, -1, -2).conj() @ X
    if field != "H":
        return G
    N = X.shape[-2] // 2
    A = np.swapaxes(X[..., :N, :], -1, -2) @ X[..., N:, :]
    return np.concatenate([G, A - np.swapaxes(A, -1, -2)], axis=-2)


def _norms_overlaps(X, field):
    """Column norms (..., n) and normalized pair overlaps
    |<z_l/|z_l|, z_m/|z_m|>| (..., n, n) of a native batch, read off its
    Gram block (see _gram)."""
    G = _gram(X, field)
    n = X.shape[-1]
    norms = np.sqrt(np.diagonal(G[..., :n, :], axis1=-2, axis2=-1).real)
    mag = np.abs(G)
    if field == "H":
        mag = np.hypot(mag[..., :n, :], mag[..., n:, :])
    safe = np.where(norms > 0.0, norms, 1.0)
    return norms, mag / (safe[..., :, None] * safe[..., None, :])


def membership_native(X, field, eps, theta_val, N):
    """Boolean membership in the approximation space of F^{N x n} of each
    entry of a native batch.

    Membership reads only the column norms and overlaps, that is the Gram
    matrix, so X may be a full N-row draw or any batch with the same Gram
    law, such as the compressed draws of sampling.gaussian_blocks with p.  N is
    the caller's, never the row count of X, and sets the band's radius.
    """
    n = X.shape[-1]
    r = frame_radius(N, field)
    norms, ov = _norms_overlaps(X, field)
    ok = np.all((norms > (1.0 - eps) * r) & (norms < (1.0 + eps) * r), axis=-1)
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        ok &= np.all(ov[..., off] < theta_val, axis=-1)
    return ok


def _polar_native(X, field):
    """(q, lam, w, V): the polar frames of a native batch under RANK_TOL,
    the singular values, non-increasing, and the Gram eigenpairs of
    `_gram_eig`, None for one column, whose frame is z / |z|.  An entry
    that fails the test takes U[:, :n] P* and lam from its SVD U Lambda P*.
    """
    n = X.shape[-1]
    if n == 1:
        w = V = None
        lam = _frobenius(X)[..., None]
    else:
        L, lam2, w, V = _gram_eig(X, field)
        lam = np.sqrt(np.maximum(lam2, 0.0))[..., ::-1]
    ok = (lam[..., -1] > RANK_TOL * np.maximum(1.0, lam[..., 0]) if n
          else np.ones(lam.shape[:-1], bool))
    q = X / np.where(ok, lam[..., 0], 1.0)[..., None, None] if n == 1 else _polar_frame(L, w, V, n)
    for idx in () if ok.all() else map(tuple, np.argwhere(~ok)):
        Li, _, wi, Vi = _gram_eig(X[idx], field) if V is None else (L[idx], None, w[idx], V[idx])
        U, lam[idx], P = _svd_factors(Li, wi, Vi, field)
        q[idx] = _lift(U[:, :n], field) @ FMatrix._wrap(field, P).adjoint().native
    return q, lam, w, V


def polar_q_native(X, field):
    """(q, lam_min): the frames of `_polar_native` and each entry's
    smallest singular value, the SVD's where the RANK_TOL test fails."""
    q, lam, _, _ = _polar_native(X, field)
    return q, lam[..., -1]


def polar_q_batched(comps, field):
    """polar_q_native of a batch (..., N, n, 4); q comes back as
    (..., N, n, 4) too."""
    q, lam_min = polar_q_native(_to_native(comps, field), field)
    return _from_native(q, field), lam_min
