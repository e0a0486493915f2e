import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from mmconc.csvio import format_block, format_value, render_rows, write_csv


def _rendered(x):
    """What format_block writes for each value, NUL padding removed."""
    fields = format_block(x)
    assert fields.shape[:-1] == np.shape(x) and fields.shape[-1] % 4 == 0
    assert not fields[..., -4:].any()
    return [f.tobytes().replace(b"\0", b"") for f in fields.reshape(-1, fields.shape[-1])]


def _assert_same_as_per_value(values):
    x = np.array(values, dtype=np.float64)
    expected = [("%.17g" % v).encode() for v in x.tolist()]
    got = _rendered(x)
    bad = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
    assert not bad, bad[:5]


def _ties():
    # M / 2^(17 - X) with M odd has 18 significant digits, the last a 5:
    # an exact tie at the 17th digit, in each decade of the fast range.
    out = []
    for X in range(-4, 15):
        k = 17 - X
        lo = int(np.ceil(10.0**X * 2**k)) | 1
        hi = int(10.0 ** (X + 1) * 2**k)
        for M in (lo, lo + 2, lo + 4, (lo + hi) // 2 | 1, hi - 1 if hi % 2 == 0 else hi - 2):
            out.append(M / 2**k)
    return out


HARD = (
    _ties()
    + [
        v
        for k in range(-5, 17)
        for p in (float("1e%d" % k),)
        for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))
    ]
    + [0.99999999999999989, 9.9999999999999982e-05, 99999999999999.98]
    + [np.nextafter(m, 0.0) for m in (1.0, 2.0, 10.0, 100.0, 12346.0, 2.0**40, 2.0**49)]
    + [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-7, 1e20, np.inf, np.nan]
    + [0.5, 1.5, 2.5, 123.0, 1000.0, 1e-4, 0.1, 999.5, 12345678.9, 2.0**52, 2.0**-14]
)


class TestFormatBlock:
    def test_hard_cases(self):
        _assert_same_as_per_value(HARD + [-v for v in HARD])

    def test_ties_are_exact(self):
        # The tie values really are halfway at the 17th digit.
        for v in _ties():
            digits = ("%.30f" % v).replace(".", "").lstrip("0").rstrip("0")
            assert len(digits) == 18 and digits[-1] == "5", v

    def test_wide_integer_parts_share_a_block(self):
        # One value sets the integer width for the whole block.
        _assert_same_as_per_value([-0.5, 3.0, -12.0, 123.25, -98765.4321, 1.5e14, -7e-3])

    def test_shape_and_empty(self):
        x = np.arange(24.0).reshape(2, 3, 4) - 11.5
        assert format_block(x).shape[:-1] == (2, 3, 4)
        assert _rendered(x) == [("%.17g" % v).encode() for v in x.ravel().tolist()]
        assert format_block(np.zeros(0)).shape[0] == 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_matches_per_value_formatter(self, values):
        _assert_same_as_per_value(values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(min_value=1e-4, max_value=1e15, exclude_max=True))
    def test_fast_range(self, v):
        _assert_same_as_per_value([v, -v])


class TestRenderRows:
    def test_lines(self):
        x = np.array([[1.5, -0.25, 1e-9], [np.nan, 12.0, -3.0]])
        lead = [b"0,R,", b"17,R,"]
        seps = [b",", b",,,", b"\n"]
        expected = b"".join(
            lead[r] + b"".join(("%.17g" % x[r, j]).encode() + seps[j] for j in range(3))
            for r in range(2)
        )
        out = render_rows(lead, x, seps)
        assert out.dtype == np.uint8 and out.shape[0] == 2
        assert out.tobytes().replace(b"\0", b"") == expected
        assert out[1].tobytes().replace(b"\0", b"") == expected[expected.index(b"17,R,") :]


def test_write_csv_mixes_cells_and_rendered_lines(tmp_path):
    path = str(tmp_path / "t.csv")
    rendered = np.frombuffer(b"\0\0002,0.5\0\n\0\0", np.uint8)  # padded as by render_rows
    digest = write_csv(path, ["a", "b"], [[1, 0.1], rendered, ["x", -2.0]])
    body = b"a,b\n1,0.10000000000000001\n2,0.5\nx,-2\n"
    assert open(path, "rb").read() == body
    assert digest == hashlib.sha256(body).hexdigest()
    assert format_value(0.1) == "0.10000000000000001" and format_value(3) == "3"
