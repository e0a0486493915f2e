"""sampling.gaussian_blocks(cfg, chunk, p): the Bartlett-compressed draw
[X_p; R].

Its layout, its determinism (bytes independent of the sub-block size and
of the worker count, one pinned chunk per field, p = N the full draw) and
its law: the Gram statistics and the top row of its polar frame against
the full draw's.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from mmconc import sampling, stats
from mmconc.algebra import field_dim
from mmconc.decomp import (
    _norms_overlaps,
    dist_to_scaled_stiefel_native,
    membership_native,
    singular_values_native,
)
from mmconc.sampling import (
    CHUNK,
    STREAM,
    SamplerConfig,
    draws,
    gaussian_blocks,
    haar_blocks,
)

FIELDS = ["R", "C", "H"]


def whole(blocks):
    return np.concatenate(list(blocks))


def halves(X, field):
    """The two halves of a native batch: (Z1 rows, -conj Z2 rows) over H,
    and (X, no rows) over R and C."""
    if field != "H":
        return X, X[:, :0]
    rows = X.shape[-2] // 2
    return X[:, :rows], X[:, rows:]


class TestLayout:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("N, n, p", [(9, 3, 0), (9, 3, 1), (4, 4, 1), (5, 4, 2), (6, 3, 6)])
    def test_bartlett_factor_is_upper_trapezoidal(self, field, N, n, p):
        # m = min(N - p, n) rows of R under p rows of normals; R has zeros
        # below its diagonal and a positive real diagonal, and over H its
        # -conj Z2 half is zero on and below the diagonal too.  At p = N
        # there is no R: the draw is N (over H 2N) rows of normals.
        m = min(N - p, n)
        X = next(gaussian_blocks(SamplerConfig(field, N, n, seed=2), 0, p))
        top, low = halves(X, field)
        assert X.shape == (CHUNK, (p + m) * (2 if field == "H" else 1), n)
        R = top[:, p:]
        below, above = np.tril_indices(m, -1, n), np.triu_indices(m, 1, n)
        assert np.all(R[:, below[0], below[1]] == 0.0)
        assert np.all(R[:, above[0], above[1]] != 0.0)
        diag = R[:, np.arange(m), np.arange(m)]
        assert np.all(diag.real > 0.0) and np.all(diag.imag == 0.0)
        assert np.all(top[:, :p] != 0.0)
        if field == "H":
            i, j = np.tril_indices(m, 0, n)
            assert np.all(low[:, p:][:, i, j] == 0.0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_diagonal_moments(self, field):
        # R_ii^2 ~ chi^2_{d(N - p - i)}: mean d(N - p - i), variance twice
        # that; bounds of five standard errors over one chunk.
        N, n, p = 30, 3, 1
        d = field_dim(field)
        X = whole(gaussian_blocks(SamplerConfig(field, N, n, seed=4), 0, p))
        sq = np.abs(X[:, p + np.arange(n), np.arange(n)]) ** 2
        df = d * (N - p - np.arange(n))
        assert np.all(np.abs(sq.mean(axis=0) - df) < 5.0 * np.sqrt(2.0 * df / CHUNK))


class TestDeterminism:
    def test_compressed_pin(self):
        # Known answer, one chunk per field: any change to the compressed
        # draw must come with a new STREAM.
        got = {
            field: hashlib.sha256(
                whole(gaussian_blocks(SamplerConfig(field, 6, 3, seed=0), 0, 1)).tobytes()
            ).hexdigest()
            for field in FIELDS
        }
        assert (STREAM, got) == (
            "sfc64-bartlett-2",
            {
                "R": "dca9ec8f7fc70eeb56e38ae516e089a7ef20b55d5a1449073da776f0c78aa3ac",
                "C": "289dceb75706467548811aaf7f9f1e8184ac5cff969ea7be236c69f66f1c3fa6",
                "H": "2714494b963d414c92e81251cfec3a2facac864f6e6e881051c069861969f994",
            },
        )

    def test_normals_and_diagonal_keys(self):
        # The diagonal comes from the chunk's second stream, so it is no
        # entry of the chunk's normal stream; the normals are that stream.
        cfg = SamplerConfig("R", 50, 2, seed=3)
        X = next(gaussian_blocks(cfg, 1, 0))
        normals = sampling.chunk_generator(3, 1).standard_normal((CHUNK, 2, 2))
        assert X[:, 0, 1].tobytes() == normals[:, 0, 1].tobytes()
        assert not np.isin(X[:, 0, 0], normals).any()

    @pytest.mark.parametrize("field, N", [("R", 300), ("C", 150), ("H", 75)])
    def test_p_equal_N_is_the_full_draw(self, field, N, monkeypatch):
        # Five sub-blocks a chunk (see tests/test_sampling.py); the full
        # draw opens only the chunk's first stream.
        cfg = SamplerConfig(field, N, 2, seed=5)
        full = [X.tobytes() for X in gaussian_blocks(cfg, 3)]
        opened = []
        real = sampling.chunk_generator

        def counted(seed, chunk_index, stream=0):
            opened.append(stream)
            return real(seed, chunk_index, stream)

        monkeypatch.setattr(sampling, "chunk_generator", counted)
        assert [X.tobytes() for X in gaussian_blocks(cfg, 3, p=N)] == full
        assert len(full) == 5 and opened == [0]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("p", [0, 1])
    def test_bytes_independent_of_sub_block_size(self, field, p, monkeypatch):
        # A BLOCK_BYTES of 100 draws cuts each chunk into ten full
        # sub-blocks and a partial one of 24.
        N, n = 20, 3
        cfg = SamplerConfig(field, N, n, seed=5)
        d = field_dim(field)
        chunk = whole(gaussian_blocks(cfg, 2, p))
        frames = whole(haar_blocks(cfg, 2, p=p)) if p else None
        monkeypatch.setattr(sampling, "BLOCK_BYTES", 100 * 8 * (p + n) * n * d)
        blocks = list(gaussian_blocks(cfg, 2, p))
        assert [len(X) for X in blocks] == [100] * 10 + [24]
        assert np.concatenate(blocks).tobytes() == chunk.tobytes()
        if p:
            assert whole(haar_blocks(cfg, 2, p=p)).tobytes() == frames.tobytes()
        for stat in (
            lambda X: membership_native(X, field, 0.1, 0.3, N),
            lambda X: dist_to_scaled_stiefel_native(X, field, cfg.radius),
        ):
            assert np.concatenate([stat(X) for X in blocks]).tobytes() == stat(chunk).tobytes()

    @pytest.mark.parametrize("field", FIELDS)
    def test_reductions_independent_of_workers(self, field, monkeypatch):
        # Sub-blocks of 300 to 400 draws; the last chunk ends 37 draws in.
        N, n = 40, 3
        cfg = SamplerConfig(field, N, n, seed=9, count=2 * CHUNK + 37)
        d = field_dim(field)
        monkeypatch.setattr(sampling, "BLOCK_BYTES", 300 * 8 * 4 * n * d)
        for blocks, reduce in (
            (partial(gaussian_blocks, p=0),
             partial(dist_to_scaled_stiefel_native, field=field, r=cfg.radius)),
            (partial(gaussian_blocks, p=0), lambda X: membership_native(X, field, 0.1, 0.3, N)),
            (partial(haar_blocks, p=1), lambda Q: Q[:, 0, 0].real),
        ):
            one = list(draws(cfg, blocks, reduce))
            with sampling.worker_pool(3):
                three = list(draws(cfg, blocks, reduce))
            assert len(one) > 3  # several sub-blocks a chunk
            assert [x.tobytes() for x in one] == [x.tobytes() for x in three]


# Law test: written before its first run.  S draws a route, and each
# comparison at level ALPHA: the two-sample KS critical value, and a
# two-proportion z bound Z_ALPHA for the masses (two-sided 1e-4).
S = 20000
ALPHA = 1e-4
Z_ALPHA = 3.891


def _statistics(gram, frames, field):
    """Named 1-d samples of a route: each column norm, each pair overlap,
    each singular value, from its Gram draws; Re z_11 and Re z_1n from its
    frames (None for p = 0)."""
    norms, ov = _norms_overlaps(gram, field)
    n = gram.shape[-1]
    out = {"norm%d" % j: norms[:, j] for j in range(n)}
    out.update({"overlap%d%d" % (a, b): ov[:, a, b] for a in range(n) for b in range(a + 1, n)})
    lam = singular_values_native(gram, field)
    out.update({"sv%d" % j: lam[:, j] for j in range(n)})
    if frames is not None:
        out["re_z11"] = frames[:, 0, 0].real
        out["re_z1n"] = frames[:, 0, n - 1].real
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize(
    "N, n, p",
    [(40, 3, 0), (40, 3, 1), (4, 4, 1)],
    ids=["N40-n3-p0", "N40-n3-p1", "N4-n4-p1-singular"],
)
def test_compressed_law_matches_the_full_draw(field, N, n, p):
    # Independent seeds: the two routes read the same normal stream.
    full = SamplerConfig(field, N, n, seed=1, count=S)
    comp = SamplerConfig(field, N, n, seed=2, count=S)
    gram_a = whole(draws(full, gaussian_blocks))
    gram_b = whole(draws(comp, partial(gaussian_blocks, p=p)))
    a = _statistics(gram_a, whole(draws(full, haar_blocks)) if p else None, field)
    b = _statistics(gram_b, whole(draws(comp, partial(haar_blocks, p=p))) if p else None, field)
    crit = stats.ks_critical(S, S, alpha=ALPHA)
    ks = {name: stats.ks_two_sample(a[name], b[name]) for name in a}
    assert all(v < crit for v in ks.values()), (ks, crit)
    # Membership at the full route's median band and median overlap, so
    # the mass lies far from 0 and 1.
    r = np.sqrt(N * field_dim(field) - 1.0)
    dev = np.max(np.abs(np.stack([a["norm%d" % j] for j in range(n)]) / r - 1.0), axis=0)
    eps = float(np.median(dev))
    top = np.max(np.stack([a[k] for k in a if k.startswith("overlap")]), axis=0)
    theta = float(np.median(top))
    ma = membership_native(gram_a, field, eps, theta, N).mean()
    mb = membership_native(gram_b, field, eps, theta, N).mean()
    assert 0.1 < ma < 0.9
    pooled = (ma + mb) / 2.0
    assert abs(ma - mb) < Z_ALPHA * np.sqrt(2.0 * pooled * (1.0 - pooled) / S), (ma, mb)
