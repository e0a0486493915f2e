"""Memory of a run does not grow with N: every chunk is drawn and reduced
in sub-blocks of about sampling.BLOCK_BYTES.  fullmeas, prok, mbdist and
obsdiam draw compressed matrices of at most n + 1 rows, so neither their
memory nor their time grows with N at all.

tracemalloc sees numpy's data buffers, so the traced peak counts every
array a run holds at once.  At these shapes one whole chunk of draws is
160 MB (H, N = 5000, n = 1) or 320 MB (R, N = 20000, n = 2).  `mmconc
sample` also holds what its three stages hand on: a sub-block being drawn
and one being rendered, and a batch of rendered lines being filled and
one being written.
"""

import time
import tracemalloc

import pytest

from mmconc import cli

PEAK_BOUND = 16 << 20  # bytes
LARGE_N_SECONDS = 20.0  # the four compressed-draw experiments at N = 10^7


def _run(*args):
    return ["run", *args, "--samples", "1024", "--workers", "1"]


@pytest.mark.parametrize(
    "argv, out",
    [
        (_run("prok", "--field", "h", "--N", "5000", "--n", "const:1"), ""),
        (_run("fullmeas", "--field", "h", "--N", "5000", "--n", "const:1"), ""),
        (_run("obsdiam", "--field", "r", "--N", "20000", "--n", "const:2"), ""),
        *(
            (_run(name, "--field", "r,c,h", "--N", "10000000", "--n", "const:2"), "")
            for name in ("fullmeas", "prok", "obsdiam")
        ),
        # 128 frames: 22 sub-blocks of at most 6 frames, 20000 values a line
        (
            ["sample", "--kind", "haar", "--field", "h", "--N", "5000", "--n", "1",
             "--count", "128"],
            "samples.csv",
        ),
        # one frame a sub-block; lines of 80000 and 200000 values go out
        # in column slices of sampling.ROW_BLOCK_VALUES
        *(
            (
                ["sample", "--kind", "haar", "--field", "h", "--N", N, "--n", "1",
                 "--count", "12"],
                "samples.csv",
            )
            for N in ("20000", "50000")
        ),
    ],
    ids=[
        "prok-H-5000",
        "fullmeas-H-5000",
        "obsdiam-R-20000",
        "fullmeas-RCH-1e7",
        "prok-RCH-1e7",
        "obsdiam-RCH-1e7",
        "sample-haar-H-5000",
        "sample-haar-H-20000",
        "sample-haar-H-50000",
    ],
)
def test_traced_peak_is_bounded(argv, out, tmp_path, capsys):
    argv = argv + ["--out", str(tmp_path / out)]
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < PEAK_BOUND, "traced peak %.1f MB" % (peak / 2**20)


def test_large_n_runs_in_bounded_time(tmp_path, capsys):
    # Written with its bound before the first run: the four experiments
    # at N = 10^7 together, in one process.
    start = time.perf_counter()
    for name in ("fullmeas", "prok", "mbdist", "obsdiam"):
        argv = ["run", name, "--N", "10000000", "--n", "const:2", "--samples", "4096",
                "--workers", "1", "--out", str(tmp_path / name)]
        assert cli.main(argv) == 0
    took = time.perf_counter() - start
    assert took < LARGE_N_SECONDS, "%.1f s" % took
