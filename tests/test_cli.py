import builtins
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from statistics import NormalDist

import numpy as np
import pytest

from mmconc import bounds, cli, csvio, experiments, sampling
from mmconc.algebra import _to_native
from mmconc.errors import ConfigError, DomainError, InfeasibleError


def run_cli(args):
    return cli.main(list(args))


# Another value for each ExperimentConfig field; a field added without
# one here fails test_run_digest_covers.
DIGEST_CHANGES = {
    "experiment": "obsdiam",
    "fields": ("C",),
    "N_list": (101,),
    "n_rule": "const:2",
    "kappa_list": (0.25,),
    "samples": 10001,
    "seed": 1,
    "eps": 0.25,
    "condition": "ass",
    "a": 0.25,
    "workers": 4,
    "out": "elsewhere",
}


class TestRun:
    def test_mbdist_outputs(self, tmp_path, capsys):
        out = str(tmp_path)
        code = run_cli(
            ["run", "mbdist", "--field", "r", "--N", "20", "--samples", "500",
             "--seed", "3", "--out", out]
        )
        assert code == 0
        text = open(os.path.join(out, "mbdist.csv")).read()
        lines = text.splitlines()
        assert lines[0].split(",") == [
            "N", "n", "field", "samples", "stat_name", "value", "run_digest",
        ]
        assert len(lines) == 2
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["experiment"] == "mbdist"
        assert manifest["config"]["seed"] == 3
        assert lines[1].endswith(manifest["run_digest"])
        assert manifest["stream"] == sampling.STREAM
        assert "mbdist.csv" in manifest["outputs"]
        assert "mbdist" in capsys.readouterr().out

    def test_worker_count_never_changes_bytes(self, tmp_path):
        texts = []
        for workers in ("1", "4"):
            out = str(tmp_path / ("w" + workers))
            assert run_cli(
                ["run", "prok", "--field", "c", "--N", "15", "--samples", "3000",
                 "--seed", "5", "--workers", workers, "--out", out]
            ) == 0
            texts.append(open(os.path.join(out, "prok.csv"), "rb").read())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("experiment", ["mbdist", "obsdiam", "fullmeas"])
    def test_worker_count_never_changes_chunked_bytes(self, experiment, tmp_path):
        texts = []
        for workers in ("1", "3"):
            out = str(tmp_path / ("w" + workers))
            assert run_cli(
                ["run", experiment, "--field", "r,c,h", "--N", "6", "--n", "const:2",
                 "--samples", "2500", "--seed", "5", "--workers", workers, "--out", out]
            ) == 0
            texts.append(open(os.path.join(out, experiment + ".csv"), "rb").read())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "name", ["stream"] + [f.name for f in dataclasses.fields(experiments.ExperimentConfig)]
    )
    def test_run_digest_covers(self, name, monkeypatch):
        """The digest moves with the stream and with every config field
        behind settings(), and not with workers or out."""
        cfg = experiments.ExperimentConfig(experiment="mbdist")
        before = cfg.digest()
        if name == "stream":
            monkeypatch.setattr(sampling, "STREAM", "another-stream")
        else:
            cfg = dataclasses.replace(cfg, **{name: DIGEST_CHANGES[name]})
        assert (cfg.digest() != before) == (name not in ("workers", "out"))

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out1 = str(tmp_path / "a")
        run_cli(["run", "mbdist", "--N", "12", "--samples", "400", "--seed", "1",
                 "--out", out1])
        monkeypatch.setenv("MMCONC_SEED", "99")
        out2 = str(tmp_path / "b")
        run_cli(["run", "mbdist", "--N", "12", "--samples", "400", "--seed", "1",
                 "--out", out2])
        a = open(os.path.join(out1, "mbdist.csv")).read()
        b = open(os.path.join(out2, "mbdist.csv")).read()
        assert a != b
        manifest = json.load(open(os.path.join(out2, "manifest.json")))
        assert manifest["config"]["seed"] == 99

    def test_bounds_extra_json(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(
            ["run", "bounds", "--N", "101", "--n", "const:2", "--out", out]
        ) == 0
        extra = json.load(open(os.path.join(out, "bounds.json")))
        sch = extra["schedules"][0]
        assert sch["eps_N"] == pytest.approx(0.2659147948472494, rel=1e-10, abs=0)

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert run_cli(["run", "mbdist", "--field", "z"]) == 2
        assert run_cli(["run", "mbdist", "--n", "bogus:1"]) == 2
        assert run_cli(["run", "mbdist", "--samples", "0"]) == 2
        assert run_cli(["run", "mbdist", "--eps", "1.5"]) == 2
        assert run_cli(["run", "mbdist", "--seed", "-1"]) == 2
        assert run_cli(["run", "bounds", "--seed", "-1"]) == 2
        assert run_cli(["run", "bounds", "--condition", "ass", "--a", "2"]) == 2
        assert run_cli(["sample", "--N", "4", "--n", "1", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 8 and "Traceback" not in err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        code = run_cli(
            ["run", "pushforward", "--field", "r", "--N", "20", "--n", "const:1",
             "--eps", "0.0001", "--samples", "1500", "--out", str(tmp_path)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "infeasible" in err
        # The run sampled at --eps; a mass bound of the condition's
        # schedule would describe another space.
        assert "analytic mass lower bound" not in err
        assert "field R, N = 20, n = 1, eps = 0.0001" in err

    def test_env_seed_must_be_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("MMCONC_SEED", "abc")
        assert run_cli(["run", "mbdist", "--N", "10", "--samples", "100"]) == 2
        assert "MMCONC_SEED" in capsys.readouterr().err
        # An integer, but not one a seed sequence takes.
        monkeypatch.setenv("MMCONC_SEED", "-3")
        assert run_cli(["run", "mbdist", "--N", "10", "--samples", "100"]) == 2
        assert run_cli(["sample", "--N", "4", "--n", "1", "--count", "4"]) == 2
        assert capsys.readouterr().err.count("config error: seed must be >= 0") == 2


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["run", "obsdiam", "--field", "r", "--N", "1", "--n", "const:1"], 2,
         "config error: obsdiam at field R, N = 1: the scaled frame radius sqrt(N^F - 1) is 0"),
        (["run", "mbdist", "--field", "r", "--N", "1", "--n", "const:1"], 2,
         "config error: mbdist at field R, N = 1: the scaled frame radius sqrt(N^F - 1) is 0"),
        (["run", "mbdist", "--N", "3", "--n", "const:5"], 2,
         "config error: rule const:5 gives n = 5 at N = 3"),
        (["sample", "--N", "5", "--n", "9"], 2, "config error: need 1 <= n <= N"),
        (["run", "mbdist", "--N", "1", "--n", "powerlog:0.2"], 2,
         "config error: powerlog rule needs N >= 2"),
        (["run", "mbdist", "--N", ","], 2,
         "config error: key 'N': expected comma-separated integers"),
        (["run", "obsdiam", "--kappa", "1.5"], 2, "config error: kappa must lie in (0, 1)"),
        (["run", "mbdist", "--workers", "0"], 2, "config error: workers must be >= 1"),
        (["run", "mbdist", "--workers", "-2"], 2, "config error: workers must be >= 1"),
        (["run", "mbdist", "--workers", str(experiments.MAX_WORKERS + 1)], 2,
         "config error: workers must be <= %d" % experiments.MAX_WORKERS),
        (["run", "prok", "--field", "c,r", "--N", "1", "--n", "const:1"], 2,
         "config error: prok at field R, N = 1: the scaled frame radius sqrt(N^F - 1) is 0"),
        (["run", "pushforward", "--field", "r", "--N", "1", "--n", "const:1"], 2,
         "config error: pushforward at field R, N = 1: the scaled frame radius sqrt(N^F - 1) "
         "is 0"),
    ],
)
def test_bad_shape_exit_codes(argv, code, message, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(argv + ["--out", out]) == code
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "rule, message",
    [
        ("power:nan", "rule needs a finite exponent, got 'nan'"),
        ("power:inf", "rule needs a finite exponent, got 'inf'"),
        ("power:400", "rule power:400 overflows a float at N = 100"),
        ("powerlog:nan", "rule needs a finite exponent, got 'nan'"),
        ("powerlog:400", "rule powerlog:400 overflows a float at N = 100"),
    ],
)
def test_unusable_exponent_is_config_error(command, rule, message, tmp_path, capsys):
    if command == "run":
        argv = ["run", "bounds", "--N", "100", "--n", rule, "--out", str(tmp_path / "out")]
    else:
        path = tmp_path / "cfg.ini"
        path.write_text("experiment = bounds\nN = 100\nn = %s\n" % rule)
        argv = ["validate", str(path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "options, message",
    [
        ({"experiment": "fullmeas", "N": "2"}, "fullmeas at N = 2, n = 1: need N >= 3"),
        ({"experiment": "bounds", "N": "50,2"}, "bounds at N = 2, n = 1: need N >= 3"),
        ({"experiment": "lipschitz", "N": "5", "n": "const:5"},
         "lipschitz at N = 5, n = 5: need 1 <= n_N <= N - 1"),
        ({"experiment": "pushforward", "N": "20", "n": "const:2", "eps": "0.3",
          "samples": "500"}, "pushforward needs samples >= 1000"),
        ({"experiment": "mbdist", "field": "r", "N": "1"},
         "mbdist at field R, N = 1: the scaled frame radius sqrt(N^F - 1) is 0"),
    ],
    ids=["fullmeas-N", "bounds-N", "lipschitz-n", "pushforward-samples", "mbdist-radius"],
)
def test_unrunnable_experiment_is_config_error(command, options, message, tmp_path, capsys):
    # Each of these used to pass validate and then fail its run with exit 1.
    if command == "run":
        argv = ["run", options["experiment"]]
        for key, value in options.items():
            if key != "experiment":
                argv += ["--" + key, value]
        argv += ["--out", str(tmp_path / "out")]
    else:
        path = tmp_path / "cfg.ini"
        path.write_text("".join("%s = %s\n" % item for item in options.items()))
        argv = ["validate", str(path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"experiment": "mbdist", "N_list": (3,), "n_rule": "const:5"},
         "rule const:5 gives n = 5 at N = 3"),
        ({"experiment": "fullmeas", "N_list": (2,)}, "fullmeas at N = 2, n = 1: need N >= 3"),
        ({"condition": "ass", "a": 2.0}, "'ass' needs a in (0, 1)"),
        ({"samples": 0}, "samples must be >= 1"),
        ({"experiment": "pushforward", "samples": 500}, "pushforward needs samples >= 1000"),
        ({"eps": 1.5}, "eps must lie in (0, 1)"),
        ({"kappa_list": (0.5, 1.5)}, "kappa must lie in (0, 1)"),
        ({"workers": 0}, "workers must be >= 1"),
        # Only the record is built, so no thread starts.
        ({"workers": experiments.MAX_WORKERS + 1},
         "workers must be <= %d" % experiments.MAX_WORKERS),
        ({"seed": -1}, "seed must be >= 0"),
        ({"experiment": "nope"}, "unknown experiment 'nope'"),
        ({"experiment": "mbdist", "fields": ("Z",), "N_list": (10,), "samples": 100},
         "unknown field tag 'Z'"),
        ({"experiment": "mbdist", "fields": (), "N_list": (10,), "samples": 100},
         "fields, N and kappa must each list at least one value"),
        ({"experiment": "mbdist", "N_list": (), "samples": 100},
         "fields, N and kappa must each list at least one value"),
        ({"experiment": "obsdiam", "kappa_list": (), "N_list": (10,), "samples": 100},
         "fields, N and kappa must each list at least one value"),
        # N^F = 1 only over R: C at N = 1 has radius 1.
        *[({"experiment": name, "fields": ("C", "R"), "N_list": (1,), "samples": 1000},
           "%s at field R, N = 1: the scaled frame radius sqrt(N^F - 1) is 0" % name)
          for name in ("mbdist", "obsdiam", "prok", "pushforward")],
    ],
    ids=["rule-n", "scheduled-N", "ass-a", "samples", "pushforward-samples", "eps", "kappa",
         "workers-0", "workers-max", "seed", "experiment", "field", "no-fields", "no-N",
         "no-kappa", "radius-mbdist", "radius-obsdiam", "radius-prok", "radius-pushforward"],
)
def test_config_record_checks_itself(settings, message):
    # An in-process caller gets the checks and messages of `mmconc run`.
    with pytest.raises(ConfigError) as info:
        experiments.ExperimentConfig(**settings)
    assert message in str(info.value)


def test_config_record_is_frozen_and_resolved():
    cfg = experiments.ExperimentConfig(
        experiment="bounds", N_list=(10, 50), n_rule="power:0.5", condition="ass", a=0.25
    )
    assert cfg.points == ((10, 3), (50, 7))
    assert cfg.growth == bounds.ass(0.25)
    assert (cfg.rule.kind, cfg.rule.arg) == ("power", 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.samples = 1
    # A validate file without an experiment key gives the empty name,
    # which builds but does not run.
    with pytest.raises(ConfigError, match="names no experiment"):
        experiments.run_experiment(experiments.ExperimentConfig())


def _count_opens(monkeypatch, path):
    """The list that gets one entry per open of path from here on."""
    opened = []
    real = builtins.open

    def counted(file, *args, **kwargs):
        if file == str(path):
            opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    return opened


def test_table_rule_is_read_once_per_run(tmp_path, monkeypatch):
    table = tmp_path / "rule.txt"
    table.write_text("10 2\n20 3\n30, 3\n")
    opened = _count_opens(monkeypatch, table)
    assert run_cli(["run", "mbdist", "--field", "r,c,h", "--N", "10,20,30",
                    "--n", "table:%s" % table, "--samples", "200", "--workers", "1",
                    "--out", str(tmp_path / "out")]) == 0
    assert len(opened) == 1


def test_obsdiam_target_is_the_normal_partial_diameter():
    kappas = (0.1, 0.25, 0.5, 0.75)
    cfg = experiments.ExperimentConfig(
        experiment="obsdiam", N_list=(10,), kappa_list=kappas, samples=100
    )
    result = experiments.run_experiment(cfg)
    assert [row[3] for row in result.rows] == list(kappas)
    for row, line in zip(result.rows, result.summaries):
        want = 2.0 * NormalDist().inv_cdf(1.0 - row[3] / 2.0)
        assert abs(row[-1] - want) <= 1e-12
        assert line.endswith("target=%.5f" % want)


class TestOutputPaths:
    def test_run_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(["run", "bounds", "--N", "101", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_sample_out_dir_missing(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert run_cli(["sample", "--N", "4", "--n", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.parent.exists()


class TestValidate:
    def write(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return str(path)

    def test_good_config(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "experiment = mbdist\nfield = r,c\nN = 50,100\nn = const:1\n"
            "samples = 2000  # inline comment\nseed = 4\n",
        )
        assert run_cli(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "fields=R,C" in out
        assert "condition check" in out

    def test_power_rule_warning(self, tmp_path, capsys):
        path = self.write(tmp_path, "experiment = mbdist\nn = power:0.5\n")
        assert run_cli(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "1/3" in out
        # Under ass, (N/n)^(1-a) grows for every p < 1: no 1/3 bound.
        path = self.write(
            tmp_path, "experiment = mbdist\nn = power:0.5\ncondition = ass\na = 0.2\n"
        )
        assert run_cli(["validate", path]) == 0
        assert "1/3" not in capsys.readouterr().out

    def test_table_rule_condition_check(self, tmp_path, capsys, monkeypatch):
        # The check reads the record's parsed table, at the table's own N.
        table = tmp_path / "rule.txt"
        table.write_text("10 2\n20 3\n")
        path = self.write(tmp_path, "experiment = fullmeas\nN = 10,20\nn = table:%s\n" % table)
        opened = _count_opens(monkeypatch, table)
        assert run_cli(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "condition check: sup=" in out and "skipped" not in out
        assert len(opened) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["validate", str(tmp_path / "nope.ini")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_line_number(self, tmp_path, capsys):
        path = self.write(tmp_path, "experiment = mbdist\nnot a pair\n")
        assert run_cli(["validate", path]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        path = self.write(tmp_path, "wibble = 3\n")
        assert run_cli(["validate", path]) == 2
        assert "wibble" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["experiment", "condition"])
    def test_unknown_choice(self, key, tmp_path, capsys):
        path = self.write(tmp_path, "%s = bogus\n" % key)
        assert run_cli(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bogus" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("condition = ass\na = 2\n", "'ass' needs a in (0, 1)"),
            ("seed = -1\n", "seed must be >= 0"),
        ],
        ids=["a", "seed"],
    )
    def test_out_of_range_value(self, text, message, tmp_path, capsys):
        path = self.write(tmp_path, "experiment = bounds\n" + text)
        assert run_cli(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


class TestSample:
    def test_gaussian_csv(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        code = run_cli(
            ["sample", "--kind", "gaussian", "--field", "c", "--N", "3",
             "--n", "2", "--count", "5", "--seed", "2", "--out", out]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 6
        assert lines[0].split(",")[:4] == ["idx", "field", "N", "n"]
        meta = json.load(open(out + ".json"))
        assert meta["field"] == "C" and meta["count"] == 5
        assert "wrote 5 gaussian samples" in capsys.readouterr().out

    def test_sidecars_record_the_kind(self, tmp_path):
        # The same config of both kinds: the sidecars differ in kind, and
        # otherwise only in the digest of their CSVs.
        meta = {}
        for kind in ("gaussian", "haar"):
            out = str(tmp_path / (kind + ".csv"))
            assert run_cli(["sample", "--kind", kind, "--field", "h", "--N", "3", "--n", "2",
                            "--count", "4", "--seed", "2", "--out", out]) == 0
            meta[kind] = json.load(open(out + ".json"))
        assert (meta["gaussian"]["kind"], meta["haar"]["kind"]) == ("gaussian", "haar")
        differ = {key for key in meta["haar"] if meta["haar"][key] != meta["gaussian"][key]}
        assert differ == {"kind", "csv_sha256"}

    def test_haar_unscaled_norm(self, tmp_path):
        out = str(tmp_path / "h.csv")
        assert run_cli(
            ["sample", "--kind", "haar", "--field", "r", "--N", "4", "--n", "1",
             "--count", "3", "--unscaled", "--out", out]
        ) == 0
        row = open(out).read().splitlines()[1].split(",")
        vals = np.array([float(v) for v in row[4:] if v != ""])
        assert np.sqrt(np.sum(vals**2)) == pytest.approx(1.0, abs=1e-10)

    def test_env_seed_changes_bytes(self, tmp_path, monkeypatch):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run_cli(["sample", "--N", "4", "--n", "1", "--count", "4", "--seed", "1",
                 "--out", a])
        monkeypatch.setenv("MMCONC_SEED", "2")
        run_cli(["sample", "--N", "4", "--n", "1", "--count", "4", "--seed", "1",
                 "--out", b])
        assert open(a).read() != open(b).read()

    def test_bad_shape_is_config_error(self, capsys):
        assert run_cli(["sample", "--N", "2", "--n", "5", "--count", "1"]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["haar", "gaussian"])
def test_sample_streams_the_same_bytes(kind, tmp_path, capsys):
    # `mmconc sample` writes chunk by chunk; the bytes are those of the
    # whole sample array written at once.
    out = str(tmp_path / "s.csv")
    argv = ["sample", "--kind", kind, "--field", "c", "--N", "4", "--n", "2",
            "--count", str(sampling.CHUNK + 5), "--seed", "3", "--out", out]
    assert run_cli(argv) == 0
    cfg = sampling.SamplerConfig("C", 4, 2, seed=3, count=sampling.CHUNK + 5)
    chunk = sampling.haar_chunk if kind == "haar" else sampling.gaussian_chunk
    comps = np.concatenate([chunk(cfg, 0), chunk(cfg, 1)[:5]])
    ref = sampling.write_native_samples_csv(
        str(tmp_path / "ref.csv"), cfg, [_to_native(comps, "C")], kind
    )
    assert json.load(open(out + ".json"))["csv_sha256"] == ref
    with open(out, "rb") as a, open(str(tmp_path / "ref.csv"), "rb") as b:
        assert a.read() == b.read()
    assert ref[:12] in capsys.readouterr().out


# C, N = 400, n = 2: sub-blocks of 81 frames, each rendered to about 3.6 MB
# of padded lines, so 400 frames pass through several handoffs per stage.
PIPELINE = ["sample", "--kind", "haar", "--field", "c", "--N", "400", "--n", "2",
            "--count", "400", "--seed", "5"]


def _main_joined(argv, timeout=60.0):
    """cli.main(argv) on a helper thread, joined with a timeout: a stage
    left blocked on a full queue shows as a call that never returns."""
    codes = []
    caller = threading.Thread(target=lambda: codes.append(cli.main(argv)), daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), "mmconc %s did not return" % " ".join(argv)
    return codes[0]


class TestSamplePipeline:
    """`mmconc sample` draws, renders and writes on three threads; none may
    outlive cli.main, and a stage that fails stops the other two."""

    def test_clean_calls_leave_no_thread(self, tmp_path):
        before = threading.enumerate()
        digests = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            for name in ("a.csv", "b.csv"):
                out = str(tmp_path / name)
                assert _main_joined(PIPELINE + ["--out", out]) == 0
                assert threading.enumerate() == before
                digests.append(json.load(open(out + ".json"))["csv_sha256"])
        finally:
            sys.setswitchinterval(interval)
        cfg = sampling.SamplerConfig("C", 400, 2, seed=5, count=400)
        ref = str(tmp_path / "ref.csv")
        whole = [np.concatenate(list(sampling.draws(cfg, sampling.haar_blocks)))]
        assert digests == [sampling.write_native_samples_csv(ref, cfg, whole, "haar")] * 2

    def test_draw_failure(self, tmp_path, monkeypatch, capsys):
        real = sampling.haar_blocks

        def failing(cfg, chunk_index):
            for j, X in enumerate(real(cfg, chunk_index)):
                if j == 2:
                    raise InfeasibleError("injected after two sub-blocks")
                yield X

        monkeypatch.setattr(sampling, "haar_blocks", failing)
        before = threading.enumerate()
        assert _main_joined(PIPELINE + ["--out", str(tmp_path / "s.csv")]) == 3
        assert threading.enumerate() == before
        assert "infeasible: injected after two sub-blocks" in capsys.readouterr().err
        assert not (tmp_path / "s.csv.json").exists()

    def test_render_failure(self, tmp_path, monkeypatch, capsys):
        real = csvio.render_rows
        calls = []

        def failing(lead, x, seps):
            calls.append(len(lead))
            if len(calls) == 5:
                raise DomainError("injected in the fifth render")
            return real(lead, x, seps)

        monkeypatch.setattr(csvio, "render_rows", failing)
        before = threading.enumerate()
        assert _main_joined(PIPELINE + ["--out", str(tmp_path / "s.csv")]) == 1
        assert threading.enumerate() == before
        assert "error: injected in the fifth render" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "device-full"])
    def test_unwritable_out(self, where, tmp_path, monkeypatch, capsys):
        if where == "missing-dir":
            out = str(tmp_path / "missing" / "s.csv")  # open fails
        else:
            out = "/dev/full"  # open succeeds, every write fails
            if not os.path.exists(out):
                pytest.skip("no /dev/full")
        real = csvio.render_rows
        calls = []

        def counted(lead, x, seps):
            calls.append(len(lead))
            return real(lead, x, seps)

        monkeypatch.setattr(csvio, "render_rows", counted)
        before = threading.enumerate()
        assert _main_joined(PIPELINE + ["--out", out]) == 1
        assert threading.enumerate() == before
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not os.path.exists(out + ".json")
        # The export takes 80 renders of 5 lines.  The renderer stops at
        # most two write batches (of about 10 renders each) after the
        # writer fails.
        assert len(calls) <= 30


@pytest.fixture
def started(monkeypatch):
    """The names of the threads started while the test runs."""
    names = []
    real = threading.Thread.start

    def counted(self):
        names.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return names


def test_one_worker_runs_start_no_thread(tmp_path, started):
    assert run_cli(["run", "bounds", "--field", "r", "--N", "50", "--n", "const:2",
                    "--out", str(tmp_path / "b")]) == 0
    assert run_cli(["run", "mbdist", "--field", "r", "--N", "20", "--samples", "2000",
                    "--workers", "1", "--out", str(tmp_path / "m")]) == 0
    assert started == []


# Two fields, two N and three chunks a point: six draws calls a run.
POOLED = ["--field", "r,c", "--N", "30,40", "--n", "const:2", "--samples", "3000",
          "--seed", "5"]


class TestRunPool:
    """A run hands every sampling.draws call to one pool of workers - 1
    threads, the calling thread being the other worker; none outlives
    the run."""

    @pytest.mark.parametrize("experiment",
                             ["mbdist", "obsdiam", "fullmeas", "prok", "pushforward"])
    def test_a_run_starts_its_threads_once(self, experiment, tmp_path, started):
        before = threading.enumerate()
        assert run_cli(["run", experiment, *POOLED, "--workers", "3",
                        "--out", str(tmp_path)]) == 0
        assert len(started) <= 2
        assert threading.enumerate() == before

    @staticmethod
    def _draw_four_chunks():
        """draws over 3 chunks and 5 draws; the threads that drew each chunk."""
        threads = {}

        def recorded(cfg, chunk_index):
            for X in sampling.gaussian_blocks(cfg, chunk_index):
                threads.setdefault(chunk_index, set()).add(threading.get_ident())
                yield X

        cfg = sampling.SamplerConfig("R", 30, 2, seed=5, count=3 * sampling.CHUNK + 5)
        got = list(sampling.draws(cfg, recorded, lambda X: X[:, 0, 0]))
        assert sum(map(len, got)) == cfg.count
        return threads

    def test_draws_outside_a_pool_starts_no_thread(self, started):
        threads = self._draw_four_chunks()
        assert started == []
        assert threads == {c: {threading.get_ident()} for c in range(4)}

    def test_draws_in_a_pool_shares_chunks_with_the_caller(self, started):
        before = threading.enumerate()
        with sampling.worker_pool(3):
            threads = self._draw_four_chunks()
        assert len(started) <= 2
        assert threading.enumerate() == before
        me = {threading.get_ident()}
        assert threads[0] == threads[3] == me
        assert not me & (threads[1] | threads[2])

    def test_pushforward_reference_sample_uses_the_pool(self, tmp_path, monkeypatch):
        # The reference Haar frames go through sampling.draws, so at two
        # workers the pool reduces every other chunk of them, with the
        # bytes of one worker.
        real = sampling.haar_blocks
        threads = set()

        def recorded(cfg, chunk_index, p=None):
            threads.add(threading.get_ident())
            yield from real(cfg, chunk_index, p)

        run = ["run", "pushforward", *POOLED]
        assert run_cli(run + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
        monkeypatch.setattr(sampling, "haar_blocks", recorded)
        assert run_cli(run + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 0
        assert threads - {threading.get_ident()}
        assert ((tmp_path / "w2" / "pushforward.csv").read_bytes()
                == (tmp_path / "w1" / "pushforward.csv").read_bytes())

    def test_concurrent_runs_keep_their_own_pools(self, tmp_path):
        before = threading.enumerate()
        run = ["run", "fullmeas", *POOLED, "--samples", "6000"]
        assert run_cli(run + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
        codes = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            callers = [
                threading.Thread(
                    target=lambda k=k: codes.update({k: cli.main(
                        run + ["--workers", "2", "--out", str(tmp_path / k)])}),
                    daemon=True,
                )
                for k in ("a", "b")
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert codes == {"a": 0, "b": 0}
        assert threading.enumerate() == before
        want = (tmp_path / "w1" / "fullmeas.csv").read_bytes()
        for k in ("a", "b"):
            assert (tmp_path / k / "fullmeas.csv").read_bytes() == want

    def test_pool_chunk_failure_cancels_the_rest(self, tmp_path, monkeypatch, capsys):
        # Chunk 1 is the pool's first; it fails at once, and each other
        # chunk takes at least 10 ms, so the caller sees the failure before
        # the pool has reached more than a few of the 15 others.
        real = sampling.gaussian_blocks
        begun = []

        def failing(cfg, chunk_index, p=None):
            begun.append(chunk_index)
            if chunk_index == 1:
                raise InfeasibleError("injected in chunk 1")
            time.sleep(0.01)
            yield from real(cfg, chunk_index, p)

        monkeypatch.setattr(sampling, "gaussian_blocks", failing)
        before = threading.enumerate()
        assert run_cli(["run", "fullmeas", "--field", "r", "--N", "30",
                        "--samples", str(16 * sampling.CHUNK), "--workers", "2",
                        "--out", str(tmp_path)]) == 3
        assert threading.enumerate() == before
        assert "infeasible: injected in chunk 1" in capsys.readouterr().err
        assert 1 in begun and len(begun) < 16


# Minor page faults of 50 format_block passes of 8192 values in a fresh
# process, after cli.main has run or not.
_PASS_FAULTS = """
import resource, sys
import numpy as np
from mmconc import cli, csvio
if sys.argv[1] == "main":
    cli.main(["validate", "missing.ini"])
x = np.random.default_rng(0).normal(size=8192)
csvio.format_block(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    csvio.format_block(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _pass_faults(mode, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", _PASS_FAULTS, mode],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(
    not (hasattr(os, "confstr") and "CS_GNU_LIBC_VERSION" in os.confstr_names),
    reason="glibc only",
)
def test_main_fixes_malloc_thresholds(tmp_path):
    # At glibc's default thresholds every pass maps or trims its
    # temporaries and faults them in again (19600 faults on a 2-vCPU VM);
    # cli.main fixes the thresholds, after which the passes fault none.
    assert _pass_faults("plain", tmp_path) > 5000
    assert _pass_faults("main", tmp_path) < 500
