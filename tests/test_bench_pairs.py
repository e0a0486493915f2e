"""tools/bench_pairs.py stops on the first run that fails."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_tree(tmp_path, result, code):
    """A tree whose perfbench/run.py prints result as its JSON line."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('FAILED run fullmeas: bad row', file=sys.stderr)\n"
        "print('  detail of the failure', file=sys.stderr)\n"
        "print(%r)\n"
        "sys.exit(%d)\n" % (json.dumps(result), code)
    )
    return str(tmp_path)


@pytest.mark.parametrize(
    "failed, correct, code",
    [(1, True, 1), (0, False, 1), (0, True, 1)],
    ids=["failed-ops", "incorrect", "exit-code"],
)
def test_failing_run_stops_the_script(tmp_path, failed, correct, code):
    result = {"correct": correct, "attempted": 4, "failed": failed, "metrics": {}}
    tree = _fake_tree(tmp_path, result, code)
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().bench(tree, "gaussian-mass", 3, 1, 0)
    message = str(exc.value.code)
    assert message.startswith("parent gaussian-mass seed 3 trace 0:")
    assert "FAILED run fullmeas: bad row\n  detail of the failure" in message


def test_passing_run_returns_its_result(tmp_path):
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}
    assert _bench_pairs().bench(_fake_tree(tmp_path, result, 0), "w", 1, 1, 0) == result
