"""tools/bench_pairs.py stops on the first run that fails and records the
parent commit it measured."""

import importlib.util
import json
import os
import subprocess

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


def _git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=cwd, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_parent_ref_resolves_to_its_commit(tmp_path):
    # HEAD is recorded as the commit it names, which stays the parent
    # measured after HEAD moves on.
    repo = str(tmp_path)
    _git(repo, "init", "-q")
    _git(repo, "commit", "-q", "--allow-empty", "-m", "parent")
    first = _git(repo, "log", "-1", "--format=%H")
    bench_pairs = _bench_pairs()
    assert bench_pairs.resolve_commit("HEAD", cwd=repo) == first
    _git(repo, "commit", "-q", "--allow-empty", "-m", "change")
    assert bench_pairs.resolve_commit("HEAD~1", cwd=repo) == first
    assert bench_pairs.resolve_commit("HEAD", cwd=repo) != first
    with pytest.raises(SystemExit, match="names no commit"):
        bench_pairs.resolve_commit("no-such-ref", cwd=repo)
