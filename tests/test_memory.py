"""Memory of a run does not grow with N: every chunk is drawn and reduced
in sub-blocks of about sampling.BLOCK_BYTES.

tracemalloc sees numpy's data buffers, so the traced peak counts every
array a run holds at once.  At these shapes one whole chunk of draws is
160 MB (H, N = 5000, n = 1) or 320 MB (R, N = 20000, n = 2).
"""

import tracemalloc

import pytest

from mmconc import cli

PEAK_BOUND = 16 << 20  # bytes


@pytest.mark.parametrize(
    "argv",
    [
        ["prok", "--field", "h", "--N", "5000", "--n", "const:1"],
        ["fullmeas", "--field", "h", "--N", "5000", "--n", "const:1"],
        ["obsdiam", "--field", "r", "--N", "20000", "--n", "const:2"],
    ],
    ids=["prok-H-5000", "fullmeas-H-5000", "obsdiam-R-20000"],
)
def test_traced_peak_is_bounded(argv, tmp_path, capsys):
    argv = ["run"] + argv + ["--samples", "1024", "--workers", "1", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < PEAK_BOUND, "traced peak %.1f MB" % (peak / 2**20)
