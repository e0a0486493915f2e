"""The four benchmark workloads: the mmconc CLI arguments each one runs.

A workload is a list of operations.  One operation is one `mmconc`
invocation together with its output checks (named by `check`, see
checks.py).  A round runs every operation of the workload once; a run
repeats whole rounds.  Only operations with `timed=True` count towards
`run_s` and `cpu_s`.

This module imports nothing beyond the standard library, so building the
arguments stays a negligible part of the measured set-up time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    argv: list
    check: str
    params: dict = field(default_factory=dict)
    timed: bool = True

    @property
    def out(self):
        """The directory (or CSV file) the operation writes."""
        return self.argv[self.argv.index("--out") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    build: object  # (seed, out_dir) -> list of Op


def _run(experiment, seed, out, **opts):
    argv = ["run", experiment]
    for key, value in opts.items():
        argv += ["--" + key, str(value)]
    return argv + ["--seed", str(seed), "--out", out]


def haar_polar(seed, out):
    mb = dict(field="r,c,h", N=10, n="const:8", samples=4096, workers=1)
    pf = dict(field="r,c,h", N=20, n="const:4", eps=0.2, samples=2000, workers=1)
    return [
        Op(_run("mbdist", seed, os.path.join(out, "mbdist"), **mb), "mbdist", mb),
        Op(
            _run("pushforward", seed, os.path.join(out, "pushforward"), **pf),
            "pushforward",
            pf,
        ),
    ]


def gaussian_mass(seed, out):
    big = dict(field="r,c,h", N=500, n="const:1", samples=2048, workers=2)
    # Determinism probe, untimed: the same short configuration at one and
    # at two workers must write byte-identical CSVs.
    probe = dict(field="r,c,h", N=20, n="const:1", samples=3072)
    return [
        Op(_run("fullmeas", seed, os.path.join(out, "fullmeas"), **big), "fullmeas", big),
        Op(_run("prok", seed, os.path.join(out, "prok"), **big), "prok", big),
        Op(
            _run("fullmeas", seed, os.path.join(out, "probe-w1"), workers=1, **probe),
            "fullmeas",
            dict(probe, workers=1),
            timed=False,
        ),
        Op(
            _run("fullmeas", seed, os.path.join(out, "probe-w2"), workers=2, **probe),
            "same-csv",
            dict(probe, workers=2, like=os.path.join(out, "probe-w1")),
            timed=False,
        ),
    ]


def frame_decomp(seed, out):
    dp = dict(field="r,c,h", samples=300, workers=1)
    return [
        Op(
            _run("decomp-props", seed, os.path.join(out, "decomp-props"), **dp),
            "decomp-props",
            dp,
        )
    ]


def sample_export(seed, out):
    sp = dict(kind="haar", field="c", N=100, n=5, count=4096)
    argv = ["sample"]
    for key, value in sp.items():
        argv += ["--" + key, str(value)]
    argv += ["--seed", str(seed), "--out", os.path.join(out, "samples.csv")]
    return [Op(argv, "sample", sp)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("haar-polar", 1, haar_polar),
        Workload("gaussian-mass", 2, gaussian_mass),
        Workload("frame-decomp", 1, frame_decomp),
        Workload("sample-export", 1, sample_export),
    )
}
