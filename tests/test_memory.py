"""Memory of a run does not grow with N: every chunk is drawn and reduced
in sub-blocks of about sampling.BLOCK_BYTES.

tracemalloc sees numpy's data buffers, so the traced peak counts every
array a run holds at once.  At these shapes one whole chunk of draws is
160 MB (H, N = 5000, n = 1) or 320 MB (R, N = 20000, n = 2).  `mmconc
sample` also holds what its three stages hand on: a sub-block being drawn
and one being rendered, and a batch of rendered lines being filled and
one being written.
"""

import tracemalloc

import pytest

from mmconc import cli

PEAK_BOUND = 16 << 20  # bytes


def _run(*args):
    return ["run", *args, "--samples", "1024", "--workers", "1"]


@pytest.mark.parametrize(
    "argv, out",
    [
        (_run("prok", "--field", "h", "--N", "5000", "--n", "const:1"), ""),
        (_run("fullmeas", "--field", "h", "--N", "5000", "--n", "const:1"), ""),
        (_run("obsdiam", "--field", "r", "--N", "20000", "--n", "const:2"), ""),
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
