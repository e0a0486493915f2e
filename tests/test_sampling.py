import hashlib
import json
import threading
import time
from functools import partial

import numpy as np
import pytest

from componentwise import comp_matmul
from mmconc import sampling
from mmconc.algebra import FMatrix, _from_native, _lift, _to_native, field_dim, frame_radius
from mmconc.bounds import theta
from mmconc.decomp import dist_to_scaled_stiefel_native, membership_native, polar, polar_q_native
from mmconc.errors import DomainError, InfeasibleError, ShapeMismatchError
from mmconc.sampling import (
    CHUNK,
    STREAM,
    SamplerConfig,
    _prefetch,
    block_size,
    chunk_generator,
    draws,
    gaussian_blocks,
    gaussian_chunk,
    haar_blocks,
    haar_comps,
    sample_restricted_gaussian,
    write_native_samples_csv,
)


def gaussian_draws(cfg):
    """The cfg.count Gaussian draws of cfg as one (count, N, n, 4) array."""
    return np.concatenate(list(draws(cfg, gaussian_blocks, lambda X: _from_native(X, cfg.field))))


def whole_chunk(blocks, cfg, chunk_index):
    """The native sub-blocks of one chunk joined into one array."""
    return np.concatenate(list(blocks(cfg, chunk_index)))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            SamplerConfig("R", 3, 4)
        with pytest.raises(DomainError):
            SamplerConfig("R", 3, 1, count=0)
        with pytest.raises(DomainError):
            SamplerConfig("X", 3, 1)
        with pytest.raises(DomainError):
            SamplerConfig("R", 1, 1)  # scaled radius sqrt(1 - 1) = 0
        with pytest.raises(DomainError):
            SamplerConfig("R", 3, 1, seed=-1)  # SeedSequence takes no negative seed
        assert SamplerConfig("R", 1, 1, scaled=False).N == 1

    def test_radius(self):
        assert SamplerConfig("R", 10, 1).radius == pytest.approx(3.0)
        assert SamplerConfig("H", 5, 1).radius == pytest.approx(np.sqrt(19.0))


class TestDeterminism:
    def test_chunks_are_independent_of_count(self):
        # Drawing 10 or 2000 samples must agree on the shared prefix.
        a = gaussian_draws(SamplerConfig("C", 4, 2, seed=5, count=10))
        b = gaussian_draws(SamplerConfig("C", 4, 2, seed=5, count=2000))
        np.testing.assert_array_equal(a, b[:10])

    def test_seed_sensitivity(self):
        a = gaussian_draws(SamplerConfig("R", 4, 2, seed=1, count=8))
        b = gaussian_draws(SamplerConfig("R", 4, 2, seed=2, count=8))
        assert np.abs(a - b).max() > 0.1

    def test_stream_pin(self):
        # Known answer: any change to the draws must come with a new STREAM.
        # The chunks of all three fields cover the native H layout too.
        h = hashlib.sha256()
        for field in ("R", "C", "H"):
            h.update(gaussian_chunk(SamplerConfig(field, 4, 2, seed=0), 0).tobytes())
        assert (STREAM, h.hexdigest()) == (
            "sfc64-bartlett-2",
            "6555e3d850995bcf7c60bf6406a721e1ea2acc0b88104fe511ec021f2152a809",
        )

    def test_sub_blocks_are_bit_identical(self):
        # A chunk drawn whole equals the same chunk drawn in C-order
        # sub-blocks from its one generator.
        whole = chunk_generator(11, 3).standard_normal((1024, 5, 2, 4))
        gen = chunk_generator(11, 3)
        parts = [gen.standard_normal((256, 5, 2, 4)) for _ in range(4)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_native_draw_is_the_interchange_draw(self, field):
        # The native chunk holds the same values, bit for bit, as the
        # component chunk converted to native.
        cfg = SamplerConfig(field, 5, 3, seed=4)
        native = whole_chunk(gaussian_blocks, cfg, 2)
        ref = _to_native(gaussian_chunk(cfg, 2), field)
        assert native.dtype == ref.dtype and native.shape == ref.shape
        assert native.tobytes() == ref.tobytes()

    def test_repeat_bit_identical(self):
        cfg = SamplerConfig("H", 6, 2, seed=42, count=100)
        np.testing.assert_array_equal(gaussian_draws(cfg), gaussian_draws(cfg))
        np.testing.assert_array_equal(haar_comps(cfg), haar_comps(cfg))


class TestGaussian:
    def test_component_purity(self):
        for field, d in (("R", 1), ("C", 2), ("H", 4)):
            comps = gaussian_draws(SamplerConfig(field, 5, 2, seed=0, count=50))
            assert np.all(comps[..., d:] == 0.0)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_native_draw_components_are_standard(self, field):
        # Each sub-block is drawn straight into the native layout; read
        # back as interchange components, each real component has mean 0
        # and variance 1, and the slots beyond the field dimension stay 0.
        # Bounds: five standard errors of 2^18 values.
        cfg = SamplerConfig(field, 64, 4, seed=0)
        comps = gaussian_chunk(cfg, 0)
        d = field_dim(field)
        assert np.all(comps[..., d:] == 0.0)
        vals = comps[..., :d].reshape(-1, d)
        m = len(vals)
        assert np.abs(vals.mean(axis=0)).max() < 5.0 / np.sqrt(m)
        assert np.abs(vals.var(axis=0) - 1.0).max() < 5.0 * np.sqrt(2.0 / m)
        # Components of one entry are uncorrelated.
        corr = np.corrcoef(vals.T) if d > 1 else np.eye(1)
        assert np.abs(corr - np.eye(d)).max() < 5.0 / np.sqrt(m)

    def test_moments(self):
        comps = gaussian_chunk(SamplerConfig("R", 64, 4, seed=0), 0)
        vals = comps[..., 0].ravel()
        assert vals.mean() == pytest.approx(0.0, abs=0.01)
        assert vals.std() == pytest.approx(1.0, abs=0.01)
        # Fourth moment of a standard normal is 3.
        assert np.mean(vals**4) == pytest.approx(3.0, abs=0.1)


class TestHaar:
    def test_frames_on_manifold(self):
        for field in ("R", "C", "H"):
            cfg = SamplerConfig(field, 6, 2, seed=1)
            r = cfg.radius
            Q = next(haar_blocks(cfg, 0))[:5]
            L = _lift(Q, field)
            G = np.swapaxes(L, -1, -2).conj() @ L
            assert np.abs(G - r * r * np.eye(G.shape[-1])).max() <= 1e-8 * r * r

    def test_left_invariance_statistic(self):
        # The law of a fixed coordinate is invariant under a fixed
        # rotation; compare first-coordinate quantiles.
        cfg = SamplerConfig("R", 8, 1, seed=2, count=4000)
        comps = haar_comps(cfg)
        ucfg = SamplerConfig("R", 8, 8, scaled=False, seed=3, count=1)
        U = haar_comps(ucfg)[0]
        rotated = comp_matmul(U[None], comps)
        a = np.sort(comps[:, 0, 0, 0])
        b = np.sort(rotated[:, 0, 0, 0])
        # Same law: quantile gap at the 4000-sample noise scale.
        assert np.abs(a[200::400] - b[200::400]).max() < 0.12

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("N, n", [(12, 3), (10, 8)])
    def test_native_frames_orthonormal(self, field, N, n):
        # Over H the lift [Q, JQ] is orthonormal exactly when Q is over H.
        q = next(haar_blocks(SamplerConfig(field, N, n, scaled=False, seed=3), 0))
        L = _lift(q, field)
        G = np.swapaxes(L, -1, -2).conj() @ L
        assert np.abs(G - np.eye(G.shape[-1])).max() < 1e-12

    def test_unscaled_option(self):
        cfg = SamplerConfig("C", 5, 1, scaled=False, seed=4, count=3)
        norms = np.sqrt(np.sum(np.square(haar_comps(cfg)), axis=(1, 2, 3)))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_square_frames_orthonormal(self, field):
        # About 0.5 % of the 4 x 4 draws over R, and fewer over C and H,
        # have a condition number above 1e3, where the Gram route loses
        # orthonormality as 1e-16 cond^2; those draws take the SVD frame.
        cfg = SamplerConfig(field, 4, 4, scaled=False, seed=1, count=16 * CHUNK)
        L = _lift(np.concatenate(list(draws(cfg, haar_blocks))), field)
        G = np.swapaxes(L, -1, -2).conj() @ L
        assert np.linalg.norm(G - np.eye(L.shape[-1]), axis=(-2, -1)).max() <= 1e-9


def _whole_draw(cfg, chunk_index):
    """A chunk of Gaussian matrices drawn at once from its stream, in the
    native layout: (CHUNK, N, n) reals over R, and over C and H complex
    entries from (real, imaginary) pairs, 2N rows over H."""
    gen = chunk_generator(cfg.seed, chunk_index)
    rows = 2 * cfg.N if cfg.field == "H" else cfg.N
    if cfg.field == "R":
        return gen.standard_normal((CHUNK, rows, cfg.n))
    return gen.standard_normal((CHUNK, rows, cfg.n, 2)).view(np.complex128)[..., 0]


# 4800 component bytes a draw: sub-blocks of 218 matrices, so a chunk is
# four full sub-blocks and a partial one of 152.
SUB_BLOCKED = [("R", 300, 2), ("C", 150, 2), ("H", 75, 2), ("H", 150, 1)]
EPS, THETA = 0.05, 0.1  # a band and an overlap bound that some draws miss


class TestSubBlocks:
    @pytest.mark.parametrize("field, N, n", SUB_BLOCKED)
    def test_reductions_match_the_whole_chunk(self, field, N, n):
        cfg = SamplerConfig(field, N, n, seed=8)
        k = block_size(cfg)
        blocks = list(gaussian_blocks(cfg, 2))
        assert [len(X) for X in blocks] == [k] * (CHUNK // k) + [CHUNK % k]
        assert CHUNK % k
        whole = _whole_draw(cfg, 2)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        mask = membership_native(whole, field, EPS, THETA, N)
        assert mask.any() and not mask.all()
        for stat in (
            lambda X: membership_native(X, field, EPS, THETA, N),
            lambda X: dist_to_scaled_stiefel_native(X, field, cfg.radius),
        ):
            assert np.concatenate([stat(X) for X in blocks]).tobytes() == stat(whole).tobytes()
        q, _ = polar_q_native(whole, field)
        q *= cfg.radius
        assert np.concatenate(list(haar_blocks(cfg, 2))).tobytes() == q.tobytes()

    @pytest.mark.parametrize("field, N, n", SUB_BLOCKED)
    def test_rank_deficient_draw_in_the_last_block(self, field, N, n, monkeypatch):
        # A zero draw in the last, partial sub-block gets the frame of
        # polar, from its SVD, in its own place; no other frame moves.
        cfg = SamplerConfig(field, N, n, seed=8)
        k = block_size(cfg)
        last, i = CHUNK // k, 5
        at = last * k + i
        clean = whole_chunk(haar_blocks, cfg, 2)
        draw = sampling.gaussian_blocks

        def forced(cfg, chunk_index, p=None):
            for j, X in enumerate(draw(cfg, chunk_index, p)):
                if j == last:
                    X = X.copy()
                    X[i] = 0.0
                yield X

        monkeypatch.setattr(sampling, "gaussian_blocks", forced)
        frames = whole_chunk(haar_blocks, cfg, 2)
        zero = FMatrix._wrap(field, np.zeros_like(frames[at]))
        assert frames[at].tobytes() == (polar(zero).q.native * cfg.radius).tobytes()
        keep = np.arange(CHUNK) != at
        assert frames[keep].tobytes() == clean[keep].tobytes()

    @pytest.mark.parametrize("field, N, n", SUB_BLOCKED)
    def test_restricted_sample_matches_whole_chunks(self, field, N, n):
        cfg = SamplerConfig(field, N, n, seed=8, count=700)
        rs = sample_restricted_gaussian(cfg, EPS, THETA)
        taken, chunk_index = [], 0
        while sum(map(len, taken)) < cfg.count:
            X = _whole_draw(cfg, chunk_index)
            taken.append(X[membership_native(X, field, EPS, THETA, N)])
            chunk_index += 1
        assert rs.native.tobytes() == np.concatenate(taken)[: cfg.count].tobytes()
        assert rs.proposed == chunk_index * CHUNK

    @pytest.mark.parametrize("count", [3, CHUNK + 230])
    def test_draws_cuts_to_count(self, count):
        cfg = SamplerConfig("C", 150, 2, seed=8, count=count)
        blocks = list(draws(cfg, haar_blocks))
        assert max(map(len, blocks)) == min(count, block_size(cfg))
        whole = _to_native(haar_comps(cfg), "C")
        assert np.concatenate(blocks).tobytes() == whole.tobytes()


class TestDraws:
    """draws walks the (seed, chunk) grid: the same reductions at every
    worker count, and no sub-block drawn past cfg.count."""

    @pytest.mark.parametrize(
        "blocks, reduce",
        [
            (gaussian_blocks,
             partial(dist_to_scaled_stiefel_native, field="R", r=frame_radius(300, "R"))),
            (haar_blocks, lambda Q: Q[:, 0, 0].copy()),
        ],
        ids=["gaussian", "haar"],
    )
    def test_reductions_independent_of_workers(self, blocks, reduce):
        # Not a multiple of CHUNK: the last chunk ends 37 draws in, inside
        # its first sub-block of 218.
        cfg = SamplerConfig("R", 300, 2, seed=9, count=2 * CHUNK + 37)
        one = list(draws(cfg, blocks, reduce))
        with sampling.worker_pool(3):
            three = list(draws(cfg, blocks, reduce))
        assert [len(x) for x in one] == [218] * 4 + [152] + [218] * 4 + [152] + [37]
        assert [x.tobytes() for x in one] == [x.tobytes() for x in three]
        whole = np.concatenate(list(draws(cfg, blocks)))
        assert np.concatenate(one).tobytes() == reduce(whole).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("count, asked", [(3, [0]), (CHUNK + 3, [0] * 5 + [1])])
    def test_no_sub_block_past_count(self, workers, count, asked):
        cfg = SamplerConfig("R", 300, 2, seed=9, count=count)
        assert block_size(cfg) == 218  # five sub-blocks a chunk
        got = []

        def counted(cfg, chunk_index):
            for X in gaussian_blocks(cfg, chunk_index):
                got.append(chunk_index)
                yield X

        with sampling.worker_pool(workers):
            out = list(draws(cfg, counted))
        assert sorted(got) == asked  # two workers draw the chunks at once
        assert sum(map(len, out)) == count


class TestRestricted:
    def test_members_and_rate(self):
        cfg = SamplerConfig("R", 40, 2, seed=6, count=300)
        rs = sample_restricted_gaussian(cfg, 0.5, theta(0.5))
        assert membership_native(rs.native, "R", 0.5, theta(0.5), 40).all()
        assert rs.native.shape == (300, 40, 2)
        assert 0.0 < rs.acceptance_rate <= 1.0
        # Whole-chunk accounting: rate is a deterministic function of
        # the seed, never of scheduling.
        rs2 = sample_restricted_gaussian(cfg, 0.5, theta(0.5))
        assert rs2.acceptance_rate == rs.acceptance_rate

    def test_infeasible_raises(self, monkeypatch):
        monkeypatch.setattr(sampling, "MIN_PROPOSALS", 2048)
        cfg = SamplerConfig("R", 40, 2, seed=6, count=50)
        with pytest.raises(InfeasibleError):
            sample_restricted_gaussian(cfg, 0.01, theta(0.01))

    def test_eps_domain(self):
        cfg = SamplerConfig("R", 10, 1, seed=0, count=1)
        with pytest.raises(DomainError):
            sample_restricted_gaussian(cfg, 1.5, theta(0.5))


class TestPrefetch:
    """_prefetch computes the next item on one worker thread while the
    caller holds the current one."""

    @staticmethod
    def counted(n, produced, fail_at=None):
        for i in range(n):
            if i == fail_at:
                raise InfeasibleError("item %d" % i)
            produced.append(i)
            yield i

    def test_items_in_order(self):
        with _prefetch(iter(range(50))) as items:
            assert list(items) == list(range(50))
        with _prefetch([]) as items:
            assert list(items) == []

    def test_at_most_one_item_ahead(self):
        produced = []
        with _prefetch(self.counted(20, produced)) as items:
            for i, item in enumerate(items):
                assert item == i
                time.sleep(0.002)  # time for the worker to run ahead
                assert len(produced) <= i + 2
        assert len(produced) == 20

    def test_worker_exception_raised_where_it_occurred(self):
        got = []
        before = threading.enumerate()
        with pytest.raises(InfeasibleError, match="item 3"):
            with _prefetch(self.counted(10, [], fail_at=3)) as items:
                for item in items:
                    got.append(item)
        assert got == [0, 1, 2]
        assert threading.enumerate() == before

    def test_leaving_early_leaves_no_thread(self):
        before = threading.enumerate()
        produced = []
        with _prefetch(self.counted(100, produced)) as items:
            for item in items:
                if item == 4:
                    break
        assert threading.enumerate() == before
        assert len(produced) <= 6
        with pytest.raises(KeyError):
            with _prefetch(self.counted(100, [])) as items:
                next(items)
                raise KeyError("caller")
        assert threading.enumerate() == before


class TestCsv:
    def test_schema_and_sidecar(self, tmp_path):
        cfg = SamplerConfig("C", 3, 2, seed=7, count=4)
        comps = gaussian_draws(cfg)
        path = str(tmp_path / "s.csv")
        digest = write_native_samples_csv(path, cfg, [_to_native(comps, "C")], "gaussian")
        lines = open(path).read().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["idx", "field", "N", "n"]
        assert len(header) == 4 + 4 * 3 * 2
        row = lines[1].split(",")
        # Complex slots 2 and 3 stay empty.
        assert row[4 + 2] == "" and row[4 + 3] == ""
        assert row[4] != ""
        meta = json.load(open(path + ".json"))
        assert meta["csv_sha256"] == digest
        assert meta["stream"] == STREAM
        assert meta["N"] == 3 and meta["field"] == "C"

    def test_roundtrip_values(self, tmp_path):
        cfg = SamplerConfig("R", 2, 1, seed=8, count=2)
        comps = gaussian_draws(cfg)
        path = str(tmp_path / "s.csv")
        write_native_samples_csv(path, cfg, [_to_native(comps, "R")], "gaussian")
        row = open(path).read().splitlines()[1].split(",")
        assert float(row[4]) == comps[0, 0, 0, 0]

    @pytest.mark.parametrize(
        "kind, field, N, n, count, inject",
        [
            pytest.param("haar", "C", 3, 2, 5, False, id="C-3-2"),
            pytest.param("haar", "H", 3, 2, 5, False, id="H-3-2"),
            pytest.param("haar", "R", 6, 3, 7, False, id="haar-R-6-3"),
            pytest.param("gaussian", "C", 4, 2, 9, False, id="gaussian-C-4-2"),
            # 160 values a row: blocks of 51 rows, the last one cut short
            pytest.param("gaussian", "R", 40, 4, 250, False, id="row-blocks-R-40-4"),
            # two sampler chunks, and fallback values in the rendered block
            pytest.param("haar", "H", 2, 1, CHUNK + 3, True, id="chunks-fallback-H-2-1"),
            pytest.param("gaussian", "C", 5, 3, 12, True, id="fallback-C-5-3"),
            # lines wider than ROW_BLOCK_VALUES: 8800 values in two column
            # slices, and 8400 values with a header of three slices
            pytest.param("haar", "H", 1100, 2, 3, False, id="wide-lines-H-1100-2"),
            pytest.param("gaussian", "C", 4200, 1, 2, True, id="wide-lines-fallback-C-4200-1"),
        ],
    )
    def test_same_bytes_as_per_value_formatter(self, tmp_path, kind, field, N, n, count, inject):
        # Reference: the per-value formatter the block writer replaced.
        cfg = SamplerConfig(field, N, n, seed=10, count=count)
        comps = (haar_comps if kind == "haar" else gaussian_draws)(cfg)
        d, width = {"R": 1, "C": 2, "H": 4}[field], 4 * N * n
        if inject:
            specials = [0.0, -0.0, 1e-7, 1e20, np.inf, np.nan]
            flat = comps.reshape(count, -1)
            for j, v in enumerate(specials):
                flat[(7 * j) % count, 4 * j % width] = v
        lines = [",".join(["idx", "field", "N", "n"] + ["comp_%d" % k for k in range(width)])]
        for i, sample in enumerate(comps):
            flat = sample.reshape(-1)
            vals = ["" if k % 4 >= d else "%.17g" % flat[k] for k in range(width)]
            lines.append(",".join([str(i), field, str(N), str(n)] + vals))
        expected = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
        path = str(tmp_path / "s.csv")
        assert write_native_samples_csv(path, cfg, [_to_native(comps, field)], kind) == expected
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == expected
        if not inject:
            blocks = haar_blocks if kind == "haar" else gaussian_blocks
            assert write_native_samples_csv(path, cfg, draws(cfg, blocks), kind) == expected
