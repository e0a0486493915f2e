"""One round of a workload: its mmconc CLI calls, run in-process.

run.py starts a fresh process of this script for every round, with BLAS
pinned to one thread and MMCONC_SEED removed, so each round pays what a
fresh `mmconc` invocation pays.  The process prints one JSON line: its
set-up time, then the wall time, CPU time, exit code and captured output
of each call, its peak resident set and, with --trace, the layer figures
of tracing.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught program fault fails the operation only
        rc = 1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", help="trace this round and append its spans here")
    args = ap.parse_args()

    import mmconc.cli

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed, args.out)
    os.makedirs(args.out, exist_ok=True)
    reply = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(reply))
        return 0

    tracer = None
    if args.trace_file:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    calls = {"wall": [], "cpu": [], "rc": [], "stdout": [], "stderr": []}
    for op in ops:
        if tracer and op.timed:
            tracer.install()
        c0, t0 = _cpu(), time.perf_counter()
        rc, out, err = _call(mmconc.cli.main, op.argv)
        t1, c1 = time.perf_counter(), _cpu()
        if tracer and op.timed:
            tracer.uninstall()
        for key, value in zip(calls, (t1 - t0, c1 - c0, rc, out, err)):
            calls[key].append(value)
    reply.update(calls)
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        spans, counts = tracer.drain()
        wall = sum(w for w, op in zip(calls["wall"], ops) if op.timed)
        reply["layers"] = layer_metrics(spans, counts, wall, workload.workers)
        with open(args.trace_file, "a") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
