"""mmconc benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload haar-polar --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  A round runs every operation of
the workload once, in a fresh child process (child.py) that calls
`mmconc.cli.main` in-process, with BLAS pinned to one thread and
MMCONC_SEED removed.  The run repeats whole rounds until `--seconds` have
passed and checks every operation's output (checks.py) after its round,
outside the timed calls.

--trace 0 reports the end-to-end metrics as medians over rounds: setup_s
(at least MIN_SETUPS processes), run_s, cpu_s and peak_rss_mb.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (tracing.py), plus the tracing
overhead.  The last line of standard output is one JSON object; the exit
code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_SETUPS = 5  # set-up samples per run; set-up-only processes make up the rest
MAX_SECONDS = 120.0  # start no round past this, whatever --seconds says
CHILD_TIMEOUT = 50.0
UNITS = (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("_acceptance", "ratio"), ("_bytes", "B"), ("_flops", "flop_computed"))


def _unit(name):
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def _child(workload, seed, out, setup_only=False, trace_file=None):
    """Run one fresh workload process to its end; return its JSON reply."""
    env = dict(os.environ)
    env.pop("MMCONC_SEED", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed), "--out", out]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace-file", trace_file] if trace_file else []
    shutil.rmtree(out, ignore_errors=True)
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


def run(workload_name, seed, seconds, trace):
    """Whole rounds for `seconds`; returns (result, rounds, failures)."""
    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tag = "%s-s%d" % (workload_name, seed)
    out = os.path.join(OUT, "%s-%d" % (tag, os.getpid()))
    ops = workload.build(seed, out)
    trace_file = os.path.join(OUT, "trace-%s.jsonl" % tag)
    if trace and os.path.exists(trace_file):
        os.remove(trace_file)
    rounds, failures, digests = [], [], {}
    attempted = failed = 0
    correct = True
    start = time.monotonic()
    try:
        while True:
            traced = bool(trace) and len(rounds) % 2 == 1
            reply = _child(workload_name, seed, out, trace_file=trace_file if traced else None)
            reply["traced"] = traced
            rounds.append(reply)
            for k, (op, rc) in enumerate(zip(ops, reply["rc"])):
                attempted += 1
                errors, digest = checks.check_op(op, rc, seed)
                if errors:
                    failed += 1
                    failures.append("%s: %s" % (" ".join(op.argv[:2]), "; ".join(errors)))
                    if rc:
                        failures.append(reply["stderr"][k].strip()[-2000:])
                elif digests.setdefault(k, digest) != digest:
                    correct = False
                    failures.append("%s: output bytes differ between rounds" % " ".join(op.argv[:2]))
            elapsed = time.monotonic() - start
            paired = not trace or len(rounds) % 2 == 0
            if paired and (elapsed >= seconds or elapsed >= MAX_SECONDS):
                break
        setups = [r["setup_s"] for r in rounds]
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(_child(workload_name, seed, out, setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(out, ignore_errors=True)

    def timed_sum(key, reply):
        return sum(v for v, op in zip(reply[key], ops) if op.timed)

    untraced = [r for r in rounds if not r["traced"]]
    run_s = statistics.median(timed_sum("wall", r) for r in untraced)
    if trace:
        layers = [r["layers"] for r in rounds if r["traced"]]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "cpu_s": statistics.median(timed_sum("cpu", r) for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }, rounds, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mmconc", "cli.py")):
        print("perfbench: no mmconc source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    result, rounds, failures = run(args.workload, args.seed, args.seconds, args.trace)
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    print("workload %s  seed %d  rounds %d  attempted %d  failed %d" % (
        args.workload, args.seed, len(rounds), result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    with open(os.path.join(OUT, "result-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, rounds=rounds), fh)
    print(json.dumps(result))
    return 0 if result["failed"] == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
