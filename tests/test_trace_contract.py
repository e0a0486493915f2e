"""The benchmark tracer still finds what it wraps.

perfbench/tracing.py patches mmconc from outside: module functions by
name, and FMatrix.__matmul__ and FMatrix.__post_init__ on the class.  A
refactor that moves them makes a traced benchmark run fail; this test
makes it fail here first.
"""

import importlib.util
import os

from mmconc import cli

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_decomp_props_records_fmatrix_spans(tmp_path):
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["run", "decomp-props", "--samples", "3", "--field", "r,c,h"]
        rc = cli.main(argv + ["--workers", "1", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    spans, counts = tracer.drain()
    names = {span[1] for span in spans}
    assert "algebra.fmatrix_matmul" in names
    assert "decomp.polar" in names
    metrics = tracing.layer_metrics(spans, counts, wall=1.0, workers=1)
    assert metrics["algebra.fmatrix_matmul_calls"] > 0
    assert metrics["algebra.fmatrix_created"] > 0
