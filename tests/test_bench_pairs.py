"""tools/bench_pairs.py stops on the first run that fails, records the
parent commit it measured, and judges each end-to-end metric against its
bound."""

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


@pytest.mark.parametrize(
    "text, bad",
    [
        ("gaussian-mass=1", "gaussian-mass=1"),
        ("haar-polar=4,gaussian-mass", "gaussian-mass"),
        ("haar-polar=x", "haar-polar=x"),
        ("=3", "=3"),
    ],
)
def test_bad_pairs_item_is_named(text, bad):
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().parse_pairs(text)
    assert repr(bad) in str(exc.value.code)


def test_pairs_are_checked_before_any_run(tmp_path, monkeypatch):
    # A count of 1 used to run every pair and then fail in the quartiles,
    # writing no JSON; now main stops before it exports or runs anything.
    bench_pairs = _bench_pairs()
    ran = []
    monkeypatch.setattr(bench_pairs, "bench", lambda *a: ran.append(a))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(
        "sys.argv",
        ["bench_pairs.py", "--parent", "HEAD", "--scratch", str(tmp_path),
         "--pairs", "gaussian-mass=1", "--what", "x", "--out", str(tmp_path / "b.json")],
    )
    with pytest.raises(SystemExit, match="'gaussian-mass=1'"):
        bench_pairs.main()
    assert ran == [] and not (tmp_path / "b.json").exists()
    assert bench_pairs.parse_pairs("haar-polar=10,gaussian-mass=2") == [
        ("haar-polar", 10), ("gaussian-mass", 2)
    ]


def test_traced_items_are_checked_before_any_run(tmp_path, monkeypatch):
    bench_pairs = _bench_pairs()
    ran = []
    monkeypatch.setattr(bench_pairs, "bench", lambda *a: ran.append(a))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(
        "sys.argv",
        ["bench_pairs.py", "--parent", "HEAD", "--scratch", str(tmp_path),
         "--pairs", "gaussian-mass=2", "--traced", "gaussian-mass", "--what", "x",
         "--out", str(tmp_path / "b.json")],
    )
    with pytest.raises(SystemExit, match="--traced item 'gaussian-mass'"):
        bench_pairs.main()
    assert ran == [] and not (tmp_path / "b.json").exists()


def test_traced_pairs_carry_quartiles(monkeypatch):
    # Three traced pairs a side: each per-layer figure gets its median and
    # quartiles, seeds 1..3 alternating which side runs first.
    bench_pairs = _bench_pairs()
    ran = []

    def fake(tree, workload, seed, seconds, trace):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        ran.append((side, seed, trace))
        value = seed + (10.0 if side == "parent" else 0.0)
        return {"correct": True, "failed": 0, "attempted": 2,
                "metrics": {"trace.run_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "bench", fake)
    got = bench_pairs.pairs("/parent", "gaussian-mass", 3, 1, trace=1)
    assert ran == [("parent", 1, 1), ("change", 1, 1), ("change", 2, 1), ("parent", 2, 1),
                   ("parent", 3, 1), ("change", 3, 1)]
    metric = got["metrics"]["trace.run_s"]
    assert metric["change"] == bench_pairs.summary([1.0, 2.0, 3.0])
    assert metric["parent"] == bench_pairs.summary([11.0, 12.0, 13.0])
    assert {"median", "q1", "q3"} <= set(metric["parent"])
    assert "claim_met" not in metric


def _side(runs):
    return _bench_pairs().summary(runs)


@pytest.mark.parametrize(
    "parent, change, met",
    [
        # Ten wins out of ten, medians 0.20 against 0.08: met.
        ([0.20 + 0.001 * i for i in range(10)], [0.08 + 0.001 * i for i in range(10)], True),
        # Nine of ten, with a gap above the parent's quartile spread: met.
        ([0.20] * 9 + [0.05], [0.10] * 10, True),
        # Eight of ten: not met, whatever the gap.
        ([0.20] * 8 + [0.05] * 2, [0.10] * 10, False),
        # Every pair won, but by less than the parent's quartile spread.
        ([0.10, 0.20, 0.30, 0.40], [0.09, 0.19, 0.29, 0.39], False),
    ],
    ids=["all-wins", "nine-of-ten", "eight-of-ten", "inside-spread"],
)
def test_claim_met(parent, change, met):
    wins = sum(c < p for p, c in zip(parent, change))
    assert _bench_pairs().claim_met(_side(parent), _side(change), wins, len(parent)) is met


@pytest.mark.parametrize(
    "parent, change, within, unresolved",
    [
        # Median 0.10 against 0.12: 20 % slower, inside a 25 % bound.
        ([0.099, 0.100, 0.100, 0.101], [0.119, 0.120, 0.120, 0.121], True, False),
        # Median 0.10 against 0.13: 30 % slower, outside it.
        ([0.099, 0.100, 0.100, 0.101], [0.129, 0.130, 0.130, 0.131], False, False),
        # Parent quartiles 0.055 and 0.145 around 0.10: wider than the bound.
        ([0.05, 0.07, 0.13, 0.15], [0.10, 0.10, 0.10, 0.10], True, True),
    ],
    ids=["within", "regressed", "unresolved"],
)
def test_regression_against_the_bound(parent, change, within, unresolved):
    got = _bench_pairs().regression(_side(parent), _side(change), 0.25)
    assert got == {"bound": 0.25, "within_bound": within, "unresolved": unresolved}


def test_bounds_are_read_from_end_to_end_only(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({
        "end_to_end": [{"name": "run_s", "bound": 0.25}, {"name": "peak_rss_mb", "bound": 0.15}],
        "per_layer": [{"name": "decomp.self_s"}],
    }))
    assert _bench_pairs().end_to_end_bounds(str(path)) == {"run_s": 0.25, "peak_rss_mb": 0.15}
