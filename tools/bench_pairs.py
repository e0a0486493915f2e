"""Benchmark a change against a parent commit and write one BENCH_*.json.

    python3 tools/bench_pairs.py --parent <git-ref> --scratch <dir> \
        --pairs sample-export=10,haar-polar=6 --traced sample-export=4 \
        --what "<one line>" --out BENCH_<tag>.json

The parent ref is resolved to its commit, which the JSON records as
`parent_commit`, so a ref such as HEAD still names the commit measured
once HEAD moves.  That commit's tree is exported with `git archive` into
<dir>/parent; the change is the checkout this script runs from.  For
each workload=P in --pairs, seeds 1..P run `perfbench/run.py --trace 0`
on both sides, the parent first on odd seeds and the change first on
even ones; each workload=P in --traced runs P pairs the same way with
`--trace 1`, for the per-layer figures.  The JSON keeps every run's
figures and their medians and quartiles per side.  For the untraced
pairs it also keeps how many pairs the change won (lower is better for
every end-to-end metric), and `claim_met`: whether the change won at
least nine tenths of the pairs and its median beats the parent's by
more than the parent's quartile spread.  Each end-to-end metric of
BENCHMARK.json (read, never written) also gets its `bound`, `within_bound`:
whether the change's median is at most the parent's times (1 + bound), and
`unresolved`: whether the parent's quartile spread exceeds bound times the
parent's median, so that the runs cannot tell a regression of that size.
--pairs and --traced are checked before any run: each item is
workload=count with count >= 2, as quartiles need two runs.  A run that
fails stops the script with exit code 1 and writes no JSON: one that
exits non-zero, reports failed operations or reads `correct: false`.
The script then prints the run's side, workload, seed and exit code with
its stderr from the first FAILED line on (or, when it printed no JSON
result, say after an import error, the end of its stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STDERR_TAIL = 20  # lines of a failed run's stderr to report


def bench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    side = "parent" if tree != ROOT else "change"
    where = "%s %s seed %d trace %d" % (side, workload, seed, trace)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_TAIL:])
        sys.exit("%s: perfbench/run.py exited with %d and printed no JSON result; "
                 "end of its stderr:\n%s" % (where, proc.returncode, tail))
    print("%-6s %-13s seed %d trace %d: correct %s, failed %d/%d" % (
        side, workload, seed, trace, result["correct"], result["failed"],
        result["attempted"]), flush=True)
    if proc.returncode or result["failed"] or not result["correct"]:
        err = proc.stderr.splitlines()
        first = next((i for i, line in enumerate(err) if line.startswith("FAILED")), len(err))
        sys.exit("%s: perfbench/run.py exited with %d, correct %s, failed %d/%d:\n%s" % (
            where, proc.returncode, result["correct"], result["failed"], result["attempted"],
            "\n".join(err[first:])))
    return result


def resolve_commit(ref, cwd=ROOT):
    """The full hash of the commit that ref names in the repository at cwd."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", ref + "^{commit}"],
                          cwd=cwd, capture_output=True, text=True)
    if proc.returncode:
        sys.exit("--parent %r names no commit" % ref)
    return proc.stdout.strip()


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def parse_pairs(text, option="--pairs"):
    """[(workload, count)] of a --pairs or --traced value; exits naming
    the first bad item."""
    out = []
    for item in text.split(","):
        workload, sep, count = item.partition("=")
        if not (workload and sep and count.isdigit() and int(count) >= 2):
            sys.exit("%s item %r is not workload=count with count >= 2" % (option, item))
        out.append((workload, int(count)))
    return out


def claim_met(parent, change, wins, count):
    """Whether a claimed gain holds: the change won at least nine tenths of
    the pairs, and the parent's median exceeds the change's by more than
    the parent's quartile spread."""
    gap = parent["median"] - change["median"]
    return 10 * wins >= 9 * count and gap > parent["q3"] - parent["q1"]


def end_to_end_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    """{name: bound} of the end-to-end metrics of BENCHMARK.json."""
    with open(path) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def regression(parent, change, bound):
    """Whether the change's median stays within the relative bound of the
    parent's, and whether the parent's quartile spread is wider than that
    bound, which leaves the comparison unresolved."""
    return {
        "bound": bound,
        "within_bound": change["median"] <= parent["median"] * (1.0 + bound),
        "unresolved": parent["q3"] - parent["q1"] > parent["median"] * bound,
    }


def pairs(parent, workload, count, seconds, trace=0):
    """count alternating pairs of runs; each metric's figures per side,
    and for untraced runs the pairs the change won and the bounds."""
    sides = {"parent": [], "change": []}
    for seed in range(1, count + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            sides[side].append(bench(parent if side == "parent" else ROOT, workload, seed, seconds, trace))
    everything = sides["parent"] + sides["change"]
    bounds = end_to_end_bounds()
    out = {
        "correct": all(r["correct"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": {},
    }
    for name, meta in sides["change"][0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        ps, cs = summary(p), summary(c)
        out["metrics"][name] = {"unit": meta["unit"], "parent": ps, "change": cs, "pairs": count}
        if trace:
            # Per-layer figures: some are better higher, and none carries a claim.
            continue
        wins = int(sum(b < a for a, b in zip(p, c)))
        out["metrics"][name].update(change_wins=wins, claim_met=claim_met(ps, cs, wins, count))
        if name in bounds:
            out["metrics"][name].update(regression(ps, cs, bounds[name]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--scratch", required=True, help="directory for the parent tree")
    ap.add_argument("--pairs", required=True, help="workload=count,...")
    ap.add_argument("--traced", default="", help="workload=count,... of traced pairs")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--what", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    todo = parse_pairs(args.pairs)
    traced = parse_pairs(args.traced, "--traced") if args.traced else []

    parent = os.path.join(os.path.abspath(args.scratch), "parent")
    shutil.rmtree(parent, ignore_errors=True)
    os.makedirs(parent)
    commit = resolve_commit(args.parent)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)

    result = {
        "what": args.what,
        "parent_commit": commit,
        "machine": "%d-CPU %s, Python %s, numpy %s; BLAS pinned to one thread by perfbench" % (
            os.cpu_count(), platform.machine(), platform.python_version(), np.__version__),
        # The scratch location does not affect the figures.
        "command": shlex.join(["python3", "tools/bench_pairs.py"]
                              + ["<dir>" if a == args.scratch else a for a in sys.argv[1:]]),
        "traced_command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds %g --trace 1, "
        "parent and change alternating which runs first" % args.seconds,
        "untraced_command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds %g --trace 0, "
        "parent and change alternating which runs first" % args.seconds,
        "traced_pairs": {},
        "untraced_pairs": {},
    }
    for workload, count in traced:
        result["traced_pairs"][workload] = pairs(parent, workload, count, args.seconds, 1)
    for workload, count in todo:
        result["untraced_pairs"][workload] = pairs(parent, workload, count, args.seconds)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
