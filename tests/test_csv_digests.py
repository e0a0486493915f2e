"""tools/csv_digests.py covers every experiment and prints stable digests."""

import hashlib
import importlib.util
import os
import re
import sys

from mmconc import experiments, sampling

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _csv_digests():
    spec = importlib.util.spec_from_file_location(
        "csv_digests", os.path.join(ROOT, "tools", "csv_digests.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_cover_every_experiment_and_sample_kind(tmp_path):
    argvs = list(_csv_digests().runs(str(tmp_path)))
    assert {argv[1] for argv in argvs if argv[0] == "run"} == set(experiments.EXPERIMENTS)
    samples = {
        (argv[argv.index("--kind") + 1], argv[argv.index("--field") + 1])
        for argv in argvs
        if argv[0] == "sample"
    }
    assert samples == {(kind, f) for kind in ("gaussian", "haar") for f in "rch"}
    square = [argv for argv in argvs if "square" in argv[-1]]
    assert [argv[argv.index("--field") + 1] for argv in square] == list("rch")
    assert all(argv[argv.index("--N") + 1] == argv[argv.index("--n") + 1] for argv in square)
    unscaled = [argv for argv in argvs if "--unscaled" in argv]
    assert [(argv[argv.index("--kind") + 1], argv[argv.index("--field") + 1])
            for argv in unscaled] == [("haar", f) for f in "rch"]
    assert all(argv[argv.index("--seed") + 1] == "7" for argv in argvs)
    # Every column rule kind, and the ass condition (condi is the default)
    # for both experiments that build schedules; the table is in place.
    run = [argv for argv in argvs if argv[0] == "run"]
    rules = {argv[argv.index("--n") + 1].split(":")[0] for argv in run}
    assert rules == {"const", "power", "powerlog", "table"}
    conditions = {(argv[1], argv[argv.index("--condition") + 1])
                  for argv in run if "--condition" in argv}
    assert conditions == {("fullmeas", "ass"), ("bounds", "ass")}
    assert (tmp_path / "rule-table.txt").read_text() == "10 2\n20, 3\n"


def test_digests_are_stable_and_skip_manifests(tmp_path, monkeypatch):
    monkeypatch.delenv("MMCONC_SEED", raising=False)
    module = _csv_digests()
    small = ["--field", "r,h", "--N", "6", "--n", "const:2", "--samples", "1000"]
    monkeypatch.setattr(module, "RUN_SETS", {"small": small})
    monkeypatch.setattr(module, "SAMPLES", ["--N", "4", "--n", "2", "--count", "30"])
    first = sorted(module.digests(str(tmp_path / "a")))
    second = sorted(module.digests(str(tmp_path / "b")))
    assert first == second
    names = [name for _, name in first]
    assert "run-mbdist-small/mbdist.csv" in names
    assert "sample-haar-h.csv" in names
    # The table: run names its table relative to the output directory, so
    # its manifest reads alike from a and from b.
    assert "run-fullmeas-table/manifest.json#values" in names
    assert "rule-table.txt" in names
    # A manifest holds its run's times: it is listed only by its values.
    assert not any(name.endswith("manifest.json") for name in names)
    assert "run-mbdist-small/manifest.json#values" in names
    assert all(len(digest) == 64 for digest, _ in first)
    # The summaries are listed; the last stdout line, which names the
    # output directory (a, then b), is not, or the listings would differ.
    stdout = dict((name, digest) for digest, name in first)["run-mbdist-small/stdout#values"]
    assert stdout != hashlib.sha256(b"").hexdigest()
    assert not any(name.startswith("sample-") and "stdout" in name for name in names)


def test_listing_starts_with_the_stream(monkeypatch, capsys):
    monkeypatch.delenv("MMCONC_SEED", raising=False)
    module = _csv_digests()
    small = ["--field", "c", "--N", "6", "--n", "const:2", "--samples", "1000"]
    monkeypatch.setattr(module, "RUN_SETS", {"small": small})
    monkeypatch.setattr(module, "SAMPLES", ["--N", "4", "--n", "2", "--count", "30"])
    monkeypatch.setattr(sys, "argv", ["csv_digests.py"])
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "stream  " + sampling.STREAM
    assert len(lines) > 1
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines[1:])


def test_values_lines_do_not_move_with_the_stream(tmp_path, monkeypatch):
    monkeypatch.delenv("MMCONC_SEED", raising=False)
    module = _csv_digests()
    small = ["--field", "c", "--N", "6", "--n", "const:2", "--samples", "1000"]
    monkeypatch.setattr(module, "RUN_SETS", {"small": small})
    monkeypatch.setattr(module, "SAMPLES", ["--N", "4", "--n", "2", "--count", "30"])
    before = dict((name, digest) for digest, name in module.digests(str(tmp_path / "a")))
    monkeypatch.setattr(sampling, "STREAM", sampling.STREAM + "-renamed")
    after = dict((name, digest) for digest, name in module.digests(str(tmp_path / "b")))
    assert before.keys() == after.keys()
    values = [name for name in before if name.endswith("#values")]
    assert "run-prok-small/prok.csv#values" in values
    assert "sample-haar-c.csv.json#values" in values
    assert "run-prok-small/manifest.json#values" in values
    assert "run-prok-small/stdout#values" in values
    assert all(before[name] == after[name] for name in values)
    # The whole files name the stream, so each of them moved; a manifest
    # has no whole-file line.
    moved = {name for name in before if before[name] != after[name]}
    assert moved == {name[: -len("#values")] for name in values} & before.keys()
