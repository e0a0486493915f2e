"""Print the sha256 of every output of a fixed set of mmconc runs at seed 7.

    python3 tools/csv_digests.py

Runs every `mmconc run` experiment over R, C and H on small fixed
configurations, fullmeas under the `power:`, `powerlog:` and `table:`
column rules, fullmeas and bounds under the `ass` growth condition, plus
`mmconc sample` of both kinds over each field, one square Haar export
(N = n = 4) and one `--unscaled` Haar export a field, in a temporary
directory, and prints one
`sha256  file` line per output (the rule table it writes included),
sorted by file.  The
first line, `stream  <sampling.STREAM>`, names the random stream, so the
listings of two streams never diff as equal.  A bump of the stream
moves every run CSV (its `run_digest` column) and every sample sidecar
(its `stream` and `csv_sha256`), so each of those also gets a
`<file>#values` line: the digest of the file without those fields, which
moves only when the values do.  A run's `manifest.json` holds its start
and finish times, so it gets only the `#values` line, without `started`
and `finished` and without the fields that name the stream (`stream`,
`run_digest` and the `outputs` digests).  A run's summary lines, all
it prints but the last line, which names the temporary directory, get
a `<run-dir>/stdout#values` line.  It imports mmconc from the
`src/` of the checkout it sits in, so run it on two checkouts and diff
the output to see which bytes a change moves.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mmconc import cli, experiments, sampling  # noqa: E402

SEED = "7"
# Small, every field, one worker.  The second set runs fullmeas, whose
# product_lower reads the annulus masses, and bounds at larger dimension.
RUN_SETS = {
    "small": ["--field", "r,c,h", "--N", "10,20", "--n", "const:2", "--samples", "2000"],
    "large": ["--field", "r,c,h", "--N", "100,500", "--n", "const:2", "--samples", "2000"],
}
LARGE_ONLY = ("fullmeas", "bounds")
# The other column rules, and the ass growth condition under both
# experiments that build schedules, so that a change to how a run resolves
# its n or its condition moves bytes here.  The table: rule reads TABLE,
# which runs writes in the output directory; the name is relative, since
# the manifest records it, so the calls run there.  It is listed too.
TABLE = "rule-table.txt"
RULE_SET = ["--field", "r,c,h", "--N", "10,20", "--samples", "2000"]
RULE_RUNS = [
    ("fullmeas", "power", ["--n", "power:0.5"]),
    ("fullmeas", "powerlog", ["--n", "powerlog:0.5"]),
    ("fullmeas", "table", ["--n", "table:" + TABLE]),
    ("fullmeas", "ass", ["--n", "const:2", "--condition", "ass"]),
    ("bounds", "ass", ["--n", "const:2", "--condition", "ass"]),
]
SAMPLES = ["--N", "10", "--n", "3", "--count", "1500"]
# Square frames: about 0.5 % of the 4 x 4 draws over R are ill-conditioned
# enough to take the SVD frame, so a change to the polar rank policy moves
# these exports.
SQUARE = ["--N", "4", "--n", "4", "--count", "1500"]


def runs(out):
    """The mmconc arguments of every run, each writing under out, where it
    first writes the table of the table: rule."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, TABLE), "w") as fh:
        fh.write("10 2\n20, 3\n")
    for name in sorted(experiments.EXPERIMENTS):
        for tag, opts in RUN_SETS.items():
            if tag == "large" and name not in LARGE_ONLY:
                continue
            yield _run(out, name, tag, opts)
    for name, tag, opts in RULE_RUNS:
        yield _run(out, name, tag, [*RULE_SET, *opts])
    for kind in ("gaussian", "haar"):
        for field in "rch":
            where = os.path.join(out, "sample-%s-%s.csv" % (kind, field))
            yield ["sample", "--kind", kind, "--field", field, *SAMPLES,
                   "--seed", SEED, "--out", where]
    for field in "rch":
        where = os.path.join(out, "sample-haar-square-%s.csv" % field)
        yield ["sample", "--kind", "haar", "--field", field, *SQUARE,
               "--seed", SEED, "--out", where]
    # The frames before the radius is applied, as pushforward's negative
    # control reads them.
    for field in "rch":
        where = os.path.join(out, "sample-haar-unscaled-%s.csv" % field)
        yield ["sample", "--kind", "haar", "--unscaled", "--field", field, *SAMPLES,
               "--seed", SEED, "--out", where]


def _run(out, name, tag, opts):
    where = os.path.join(out, "run-%s-%s" % (name, tag))
    return ["run", name, *opts, "--workers", "1", "--seed", SEED, "--out", where]


def values(name, data):
    """The bytes of output name that do not name the stream, or None for an
    output that does not name it: a run CSV without its last column,
    `run_digest`, a sample sidecar without `stream` and `csv_sha256`, or
    a manifest without `stream`, `run_digest`, `outputs`, `started` and
    `finished`."""
    if name.startswith("run-") and name.endswith(".csv"):
        return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    if name.endswith(".csv.json"):
        drop = ("stream", "csv_sha256")
    elif name.endswith("manifest.json"):
        drop = ("stream", "run_digest", "outputs", "started", "finished")
    else:
        return None
    meta = {k: v for k, v in json.loads(data).items() if k not in drop}
    return json.dumps(meta, sort_keys=True).encode()


def digests(out):
    """(sha256, path relative to out) of every output but the manifests,
    (sha256, path#values) of its `values` where it has them, the
    manifests included, and (sha256, run-dir/stdout#values) of the
    summary lines each run prints."""
    os.environ.pop("MMCONC_SEED", None)  # it would override every seed
    for argv in runs(out):
        with contextlib.chdir(out), contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(argv)
        if code:
            sys.exit("mmconc %s exited with %d" % (" ".join(argv), code))
        if argv[0] == "run":
            # The last line, `wrote <path> (sha256 ...)`, names the
            # temporary directory; the summaries above it do not.
            summaries = "".join(stdout.getvalue().splitlines(True)[:-1]).encode()
            rel = os.path.relpath(argv[argv.index("--out") + 1], out)
            yield hashlib.sha256(summaries).hexdigest(), rel + "/stdout#values"
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            with open(path, "rb") as fh:
                data = fh.read()
            if name != "manifest.json":
                yield hashlib.sha256(data).hexdigest(), rel
            masked = values(rel, data)
            if masked is not None:
                yield hashlib.sha256(masked).hexdigest(), rel + "#values"


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    print("stream  %s" % sampling.STREAM)
    with tempfile.TemporaryDirectory() as tmp:
        lines = sorted(digests(tmp), key=lambda item: item[1])
    for digest, name in lines:
        print("%s  %s" % (digest, name))


if __name__ == "__main__":
    main()
