"""Seeded samplers: Gaussian matrices, compressed Gaussian draws, Haar
frames via the polar factor, and the rejection sampler for the Gaussian
law conditioned on the approximation space.

Determinism contract: output bytes depend on the seed and on STREAM,
never on the worker count or on how a chunk is sub-blocked.  The sample
index space is split into fixed-size chunks of 1024; chunk c draws its
standard normals, in C order, with `Generator.standard_normal` (the
ziggurat method of Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) from an
SFC64 generator seeded by SeedSequence(seed, spawn_key=(c,)).  One draw
of shape (1024, ...) equals, bit for bit, four consecutive (256, ...)
draws from the same generator, and which worker consumes a chunk never
changes it.

A chunk is drawn and reduced in sub-blocks, consecutive slices of its one
stream: `gaussian_blocks` draws k = BLOCK_BYTES // (8 N n d) matrices at a
time (at least one, at most a chunk), d = 1, 2, 4 the field dimension, so
memory does not grow with N.  Each sub-block is drawn straight into the
native array of `algebra`: R (k, N, n) float64, C (k, N, n) and H
(k, 2N, n) complex128 from consecutive (real, imaginary) pairs, the H
rows being [Z1; -conj Z2].  The samplers compute on native arrays from
there on: `haar_blocks` runs the polar factor per sub-block and the
rejection sampler tests membership (`decomp.membership_native`) per
sub-block.  A Haar frame is the polar frame of its draw under the one
rank policy of `decomp` (RANK_TOL): an ill-conditioned draw takes its
frame from the SVD.
`draws` is the one walk over the chunk grid: it yields the sub-blocks of
chunks 0, 1, ... cut to the sample count, each reduced by a per-draw
function such as a kernel of `decomp` or a statistic of `experiments`;
inside a `worker_pool(w)` block the calling thread reduces every w-th
chunk and the block's pool the others.
The interchange functions (`gaussian_chunk`, `haar_chunk`, `haar_comps`)
convert sub-blocks to component arrays (..., N, n, 4).

`gaussian_blocks` is the one draw generator.  A statistic that reads only
the Gram matrix X* X, or only the top p rows of the Haar frame, runs on
its compressed draw `gaussian_blocks(cfg, c, p)` instead: the (p + m) x n
draw [X_p; R], m = min(N - p, n), with X_p the first p rows of the
Gaussian matrix and R the upper-trapezoidal Bartlett factor of the other
N - p rows.  Its Gram matrix has the law of X* X, and the top p rows of
its polar frame (`haar_blocks` with p) the law of the Haar frame's, so a
draw costs the same at every N.  It fills its draws from the chunk's
stream as the full draw does, and the chi-square diagonal of R from the
chunk's second stream, spawn_key=(c, 0, 1), so its bytes do not depend
on the sub-block size either.  p = N is the full draw: it has no
Bartlett rows and opens no second stream.

STREAM names this construction: the generator, the normal transform, the
native draw layout, the compressed draw with its two keys, and the rank
policy of the Haar frames.  It is folded into the run digest and written
as "stream" to every manifest and sample sidecar, so output of one
stream cannot pass as output of another; any change to the draws or to
the frames made of them (including one inside numpy's SFC64,
standard_normal or standard_gamma) must bump it.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from . import csvio
from .algebra import _components, _from_native, field_dim, frame_radius
from .decomp import membership_native, polar_q_native
from .errors import DomainError, InfeasibleError, ShapeMismatchError

CHUNK = 1024
STREAM = "sfc64-bartlett-2"

# sample_restricted_gaussian gives up once its acceptance rate is below
# ACCEPTANCE_FLOOR after at least MIN_PROPOSALS proposals, so a space of
# negligible Gaussian mass cannot keep it drawing forever.
ACCEPTANCE_FLOOR = 1e-3
MIN_PROPOSALS = 4096

# Float64 components per sub-block of a chunk, in bytes: one sub-block's
# draw and the kernel temporaries stay near this size whatever N is.
BLOCK_BYTES = 1 << 20

# Values that write_native_samples_csv renders in one pass: enough to
# amortise the numpy calls, few enough that a pass, about 200 bytes a
# value at its peak, stays near 1.6 MB.  A line wider than this is
# rendered in column slices of this many values, so memory does not grow
# with N.  Passes fault no pages because cli.main fixes glibc's mmap and
# trim thresholds: at glibc's defaults, which start at 128 kB and rise
# only with the largest mapped block freed so far, each pass maps or
# trims its temporaries and faults them in again (360 faults a pass of
# 8192 values in a fresh process).
ROW_BLOCK_VALUES = 8192

# Bytes of rendered lines that write_native_samples_csv hands from its
# render thread to the writing thread at once: about half of one padded
# sub-block (BLOCK_BYTES of float64 values, about 28 bytes a value once
# rendered).  Two batches are alive, the one being rendered and the one
# being written, so this bounds what the pipeline adds to memory; fewer,
# larger batches cost fewer GIL switches between the threads (handing on
# each render pass alone made the export a third slower on 2 vCPUs).
HANDOFF_BYTES = 1 << 21

# (pool, workers) of the enclosing worker_pool block, per thread and context.
_RUN_POOL = contextvars.ContextVar("mmconc_run_pool", default=(None, 1))


@dataclass(frozen=True)
class SamplerConfig:
    field: str
    N: int
    n: int
    scaled: bool = True
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        field_dim(self.field)
        if not 1 <= self.n <= self.N:
            raise ShapeMismatchError("need 1 <= n <= N")
        if self.count < 1:
            raise DomainError("count must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.scaled and self.N * field_dim(self.field) == 1:
            raise DomainError(
                "the scaled frame radius sqrt(N^F - 1) is 0 at N^F = 1; "
                "need N^F >= 2 or unscaled frames"
            )

    @property
    def radius(self):
        """Column radius sqrt(N^F - 1) of the scaled frame manifold."""
        return frame_radius(self.N, self.field)


def chunk_generator(seed, chunk_index, stream=0):
    """The SFC64 generator of a chunk: spawn_key (c,) for its draw and
    (c, 0, s) for its second stream s = 1 (the chi-square diagonal of a
    compressed draw)."""
    key = (chunk_index, 0, stream) if stream else (chunk_index,)
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))


def block_size(cfg, rows=None):
    """Matrices per sub-block: as many as BLOCK_BYTES of components of
    rows x n matrices (rows = N by default) hold, at least one and at most
    a chunk."""
    d = field_dim(cfg.field)
    rows = cfg.N if rows is None else rows
    return min(CHUNK, max(1, BLOCK_BYTES // (8 * rows * cfg.n * d)))


def gaussian_blocks(cfg, chunk_index, p=None):
    """Yield one chunk of standard Gaussian draws over cfg.field as native
    sub-blocks (k, ., n), k = block_size(cfg, rows), in order from the
    chunk's stream: N x n matrices without p, and compressed draws
    [X_p; R], rows = p + m with m = min(N - p, n), with p.

    Each sub-block is drawn in its native layout: R (k, rows, n) reals, C
    (k, rows, n) and H (k, 2 rows, n) complex entries, each the (real,
    imaginary) pair of two consecutive normals.  Over H the lower half is
    -conj Z2 for Z = Z1 + Z2 j, and the negated conjugate of a standard
    complex normal is one too, so Z is standard Gaussian.

    X_p is p rows of standard F-normals.  R is the m x n upper-trapezoidal
    Bartlett factor of the other N - p rows Y: Y* Y has the law of R* R
    when R_ii^2 ~ chi^2_{d(N - p - i)} and the entries above the
    diagonal are standard F-normals, all independent, every real
    component of unit variance as in every draw here (R. J. Muirhead, Aspects of Multivariate
    Statistical Theory, Wiley 1982, Thm 3.2.14; I. Dumitriu and A.
    Edelman, J. Math. Phys. 43, 2002, for C and H).  With m = N - p < n,
    R is the first N - p rows of that triangle.  So the Gram matrix of
    [X_p; R] has the law of the full draw's, and the top p rows of its
    polar frame, X_p (X_p* X_p + W)^(-1/2) with W = Y* Y independent of
    X_p, have the law of the Haar frame's.  A draw costs O((p + n) n)
    numbers whatever N is.  p = N is the full draw: m = 0, no Bartlett
    rows and no second stream.

    The normals fill whole draws from the chunk's stream; the entries of
    R below its diagonal are then zeroed, and its diagonal is overwritten
    with the roots of 2 Gamma(d(N - p - i) / 2) draws, in (draw, i) order
    from the chunk's second stream, chunk_generator(seed, chunk, 1).  Both
    streams are read in draw order, so the bytes do not depend on the
    sub-block size.
    """
    p = cfg.N if p is None else p
    m = min(cfg.N - p, cfg.n)
    rows = p + m
    native_rows = 2 * rows if cfg.field == "H" else rows
    k = block_size(cfg, rows)
    gen = chunk_generator(cfg.seed, chunk_index)
    if m:
        half_df = field_dim(cfg.field) * (cfg.N - p - np.arange(m)) / 2.0
        below = np.tri(m, cfg.n, -1, dtype=bool)
        i = np.arange(m)
        chi = chunk_generator(cfg.seed, chunk_index, 1)
    for start in range(0, CHUNK, k):
        shape = (min(k, CHUNK - start), native_rows, cfg.n)
        if cfg.field == "R":
            X = gen.standard_normal(shape)
        else:
            X = gen.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
        if m:
            R = X[:, p:rows]
            R[:, below] = 0.0
            R[:, i, i] = np.sqrt(2.0 * chi.standard_gamma(half_df, (len(X), m)))
            if cfg.field == "H":
                # The -conj Z2 half of R: zero on and below the diagonal.
                R = X[:, rows + p :]
                R[:, below] = 0.0
                R[:, i, i] = 0.0
        yield X


def gaussian_chunk(cfg, chunk_index):
    """One full chunk of standard Gaussian matrices as component arrays
    (CHUNK, N, n, 4)."""
    X = np.concatenate(list(gaussian_blocks(cfg, chunk_index)))
    return _from_native(X, cfg.field)


def haar_blocks(cfg, chunk_index, p=None):
    """Yield one chunk of (scaled) Haar frames as native sub-blocks, the
    polar frames of gaussian_blocks(cfg, chunk_index, p).

    The Gaussian law is invariant under left unitaries and the polar
    frame is equivariant, so the frame law inherits left invariance and
    is the Haar measure.  With p < N the frames are (p + m)-row frames
    whose top p rows have the law of the top p rows of a Haar frame in
    F^N, and whose other rows mean nothing.  An ill-conditioned draw,
    a rank-deficient one included, gets the frame of decomp.polar from
    its SVD (see polar_q_native).
    """
    for X in gaussian_blocks(cfg, chunk_index, p):
        q, _ = polar_q_native(X, cfg.field)
        if cfg.scaled:
            q *= cfg.radius
        yield q


def haar_chunk(cfg, chunk_index):
    """One full chunk of (scaled) Haar frames as component arrays
    (CHUNK, N, n, 4)."""
    return _from_native(np.concatenate(list(haar_blocks(cfg, chunk_index))), cfg.field)


def draws(cfg, blocks, reduce=None):
    """Yield reduce(X) for each sub-block X of blocks(cfg, 0), then
    blocks(cfg, 1), ..., cut to cfg.count draws in all; without reduce,
    yield X.

    No sub-block past cfg.count is drawn.  Outside a worker_pool block,
    or with one chunk, the calling thread draws each sub-block as the
    caller consumes it.  Inside worker_pool(workers), with
    w = min(workers, chunks) > 1, the calling thread reduces chunks 0, w,
    2w, ... as it yields them, and the block's pool each of the others
    whole.  Chunk 0 starts before any chunk goes to the pool, so
    numpy.random, which numpy loads on first use, loads on this thread
    alone.  Results come in chunk order, so they never depend on the
    worker count.  Closing the iterator early, or an error in any chunk,
    cancels the chunks not yet started and waits for those running.
    """

    def chunk(chunk_index):
        left = cfg.count - chunk_index * CHUNK
        for X in blocks(cfg, chunk_index):
            yield X[:left] if reduce is None else reduce(X[:left])
            left -= len(X)
            if left <= 0:
                return

    chunks = -(-cfg.count // CHUNK)
    pool, workers = _RUN_POOL.get()
    workers = min(workers, chunks)
    if workers <= 1:
        yield from chain.from_iterable(map(chunk, range(chunks)))
        return
    first = chunk(0)
    head = next(first)
    pooled = {c: pool.submit(list, chunk(c)) for c in range(chunks) if c % workers}
    try:
        yield head
        yield from first
        for c in range(1, chunks):
            yield from pooled.pop(c).result() if c % workers else chunk(c)
    finally:
        for future in pooled.values():
            future.cancel()
        wait(pooled.values())


@contextlib.contextmanager
def worker_pool(workers):
    """Run the block with workers threads for every draws call it makes on
    this thread: a pool of workers - 1 threads, each started when a chunk
    first needs it and all joined when the block is left, and the calling
    thread.  With one worker the block starts no thread.  The pool is
    held in a context variable, so a block on another thread neither sees
    nor closes it."""
    if workers <= 1:
        yield
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        token = _RUN_POOL.set((pool, workers))
        try:
            yield
        finally:
            _RUN_POOL.reset(token)


def haar_comps(cfg):
    """cfg.count (scaled) Haar frames as component arrays (count, N, n, 4)."""
    return np.concatenate(list(draws(cfg, haar_blocks, lambda Q: _from_native(Q, cfg.field))))


@dataclass(frozen=True)
class RestrictedSample:
    native: np.ndarray
    acceptance_rate: float
    proposed: int


def sample_restricted_gaussian(cfg, eps, theta_val):
    """Gaussian law conditioned on the (eps, theta)-approximation space.

    Straight rejection sampling; the acceptance rate doubles as the
    Monte Carlo estimate of the space's Gaussian mass.  Aborts when the
    running rate drops below ACCEPTANCE_FLOOR after MIN_PROPOSALS
    proposals.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if not 0.0 < theta_val < 1.0:
        raise DomainError("theta must lie in (0, 1)")
    taken = []
    got = 0
    proposed = 0
    accepted = 0
    chunk_index = 0
    while got < cfg.count:
        for X in gaussian_blocks(cfg, chunk_index):
            mask = membership_native(X, cfg.field, eps, theta_val, cfg.N)
            accepted += int(mask.sum())
            good = X[mask][: cfg.count - got]
            if good.shape[0]:
                taken.append(good)
                got += good.shape[0]
        proposed += CHUNK
        if proposed >= MIN_PROPOSALS and accepted / proposed < ACCEPTANCE_FLOOR:
            raise InfeasibleError(
                "acceptance rate %.2e below floor %.2e after %d proposals at "
                "field %s, N = %d, n = %d, eps = %g; a larger eps is needed"
                % (accepted / proposed, ACCEPTANCE_FLOOR, proposed, cfg.field, cfg.N, cfg.n, eps)
            )
        chunk_index += 1
    return RestrictedSample(
        native=np.concatenate(taken, axis=0),
        acceptance_rate=accepted / proposed,
        proposed=proposed,
    )


@contextlib.contextmanager
def _prefetch(items):
    """Yield an iterator over items that computes each next item on a
    worker thread while the caller works on the current one.

    The worker runs at most one item ahead of the item the caller holds:
    the next item is queued when the caller asks for the current one, so
    at most two are alive.  The SFC64 fill, LAPACK, large numpy
    passes, file writes and hashing release the GIL, so the worker
    overlaps the caller's work.  An exception of the worker is raised by
    the iterator at the item where it occurred.  Leaving the block, for
    whatever reason, waits for the item in progress and joins the worker.
    """
    items = iter(items)
    done = object()
    with ThreadPoolExecutor(max_workers=1) as pool:

        def fetched():
            future = pool.submit(next, items, done)
            while True:
                # Queued before the wait: the worker goes on to it as soon
                # as the current item is done, not once the caller wakes.
                after = pool.submit(next, items, done)
                item = future.result()
                if item is done:
                    return
                future = after
                yield item
                del item  # the caller is done with it

        yield fetched()


def write_native_samples_csv(path, cfg, blocks, kind):
    """Dump samples: idx, field, N, n, comp_0 ... comp_{4Nn-1}.

    blocks is an iterable of native (k, ...) arrays, cfg.count samples in
    all, such as draws(cfg, haar_blocks), and kind names what they are
    ("gaussian" or "haar").  Component k belongs to entry
    (k // 4 // n, k // 4 % n), scalar slot k % 4; slots beyond the field
    dimension are left empty.  A JSON sidecar records the kind, the
    config and the stream.

    The file is written by three concurrent stages, each handing on only
    what the next has taken, so the samples are never held at once: a
    worker thread draws blocks, a second one renders them with
    csvio.render_rows, about ROW_BLOCK_VALUES values a pass, into batches
    of about HANDOFF_BYTES of lines, and the calling thread strips, hashes
    and writes each batch with csvio.write_csv (both workers run under
    _prefetch).  The bytes and their order are those of one thread.
    """
    d = field_dim(cfg.field)
    width = cfg.N * cfg.n * d  # values a line
    columns = 4 * cfg.N * cfg.n
    tag = (",%s,%d,%d," % (cfg.field, cfg.N, cfg.n)).encode()
    step = max(1, ROW_BLOCK_VALUES // width)
    # A line wider than ROW_BLOCK_VALUES, and its header, go out in column
    # slices, each continuing the one before; ROW_BLOCK_VALUES is a
    # multiple of d, so every slice starts an entry.  A comma follows each
    # value; the last value of an entry also closes its empty slots, and
    # the last one of a line ends it.
    seps = ([b","] * (d - 1) + [b"," * (5 - d)]) * (min(width, ROW_BLOCK_VALUES) // d)
    tail = width - (width - 1) // ROW_BLOCK_VALUES * ROW_BLOCK_VALUES
    last_seps = seps[: tail - 1] + [seps[tail - 1][:-1] + b"\n"]

    def header():
        text = "idx,field,N,n"
        for col in range(0, columns, ROW_BLOCK_VALUES):
            end = min(col + ROW_BLOCK_VALUES, columns)
            text += "".join(",comp_%d" % k for k in range(col, end)) + "\n" * (end == columns)
            yield np.frombuffer(text.encode(), np.uint8)
            text = ""

    def lines(drawn):
        idx = 0
        for block in drawn:
            for start in range(0, len(block), step):
                part = _components(block[start : start + step], cfg.field)
                k = len(part)
                part = part.reshape(k, -1)
                lead = [b"%d%s" % (i, tag) for i in range(idx, idx + k)]
                for col in range(0, width, ROW_BLOCK_VALUES):
                    last = col + ROW_BLOCK_VALUES >= width
                    cells = part[:, col : col + ROW_BLOCK_VALUES]
                    yield csvio.render_rows(lead, cells, last_seps if last else seps)
                    lead = None
                idx += k

    def batches(rows):
        batch, size = [], 0
        for row in rows:
            batch.append(row)
            size += row.nbytes
            if size >= HANDOFF_BYTES:
                yield batch
                batch, size = [], 0
        yield batch

    with _prefetch(blocks) as drawn, _prefetch(batches(chain(header(), lines(drawn)))) as rendered:
        digest = csvio.write_csv(path, None, chain.from_iterable(rendered))
    csvio.write_json(
        str(path) + ".json",
        {"kind": kind, **asdict(cfg), "stream": STREAM, "csv_sha256": digest},
    )
    return digest
