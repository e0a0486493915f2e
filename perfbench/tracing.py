"""Layer spans for mmconc, recorded from outside the package.

`Tracer.install()` replaces each traced function of each layer module by
a wrapper that records a span (name, start, end, depth, self time) in a
per-thread list, plus counts taken from the call's arguments or result.
A name bound with `from .x import f` is a separate binding, so the
wrapper is put into every mmconc module namespace (and module-level
dict, such as `experiments.EXPERIMENTS`) that holds the original.

Spans mark calls into a layer: a traced function called from inside its
own layer records no span of its own, and its time stays with the span
through which the layer was entered (its call is still counted).  The
KERNELS, the functions reported by name, always record a span.  Self
time is a span's duration minus the durations of the spans nested
directly inside it on the same thread.  Spans stay in memory until
`drain()`; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# Layer module -> traced names (None: every public module-level function
# the module defines).  cli and experiments are traced at their entry
# points only, so their self time covers argument handling, manifests,
# summaries and the per-experiment glue.  csvio.format_value runs once
# per written value; a wrapper there would cost more than the work.
LAYERS = {
    "special": None,
    "gaussian": None,
    "sampling": None,
    "decomp": None,
    "algebra": None,
    "concentration": None,
    "stats": None,
    "bounds": None,
    "csvio": ("write_csv", "write_json"),
    "experiments": ("run_experiment",),
    "cli": ("main",),
}


def _batch(shape, core):
    return math.prod(shape[: len(shape) - core])


def _matrices(args, kwargs, result):
    return {"matrices": _batch(args[0].shape, 3)}


def _norm_quantile(args, kwargs, result):
    return {"values": int(getattr(args[0], "size", 1))}


def _gaussian_chunk(args, kwargs, result):
    attempt = args[2] if len(args) > 2 else kwargs.get("attempt", 0)
    return {"resample_chunks": int(attempt >= 1)}


def _restricted(args, kwargs, result):
    proposed = int(result.proposed)
    return {
        "proposed": proposed,
        "accepted": int(round(result.acceptance_rate * proposed)),
    }


def _comp_matmul(args, kwargs, result):
    # 16 real products of (N x k)(k x n) per batch entry, 2 flops per
    # multiply-add: computed from the shapes, not measured.
    k = args[0].shape[-2]
    return {"flops": 32 * k * _batch(result.shape, 1)}


def _write_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "special.norm_quantile": _norm_quantile,
    "sampling.gaussian_chunk": _gaussian_chunk,
    "sampling.sample_restricted_gaussian": _restricted,
    "decomp.polar_q_batched": _matrices,
    "decomp.singular_values_batched": _matrices,
    "concentration.membership_mask": _matrices,
    "algebra.comp_matmul": _comp_matmul,
    "csvio.write_csv": _write_csv,
}


# Functions that always get a span of their own, even when called from
# inside their layer; their self time is reported as `<name>_s`.
KERNELS = (
    "special.norm_quantile",
    "sampling.gaussian_chunk",
    "sampling.haar_chunk",
    "sampling.sample_restricted_gaussian",
    "decomp.polar_q_batched",
    "decomp.singular_values_batched",
    "decomp.polar",
    "decomp.svd",
    "decomp.hermitian_eig",
    "decomp.singular_values",
    "decomp.dist_to_scaled_stiefel",
    "algebra.comp_matmul",
    "algebra.realify_comps",
    "algebra.fmatrix_matmul",
    "concentration.membership_mask",
    "concentration.phi_batched",
    "stats.ks_statistic",
    "stats.ks_two_sample",
    "bounds.make_schedule",
    "bounds.v_bound",
    "csvio.write_csv",
    "experiments.run_experiment",
    "cli.main",
)

# Spans whose call counts are reported as `<name>_calls`.
CALL_COUNTS = (
    "sampling.gaussian_chunk",
    "decomp.polar",
    "decomp.svd",
    "decomp.hermitian_eig",
    "decomp.singular_values",
    "decomp.dist_to_scaled_stiefel",
    "algebra.comp_matmul",
    "algebra.fmatrix_matmul",
)


class _ThreadRecord:
    __slots__ = ("spans", "stack", "counts", "main")

    def __init__(self, main):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.main = main


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records = []
        self._undo = []

    def _record(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecord(threading.current_thread() is threading.main_thread())
            self._local.rec = rec
            with self._lock:
                self._records.append(rec)
        return rec

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        calls = name + ".calls"
        kernel = name in KERNELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._record()
            rec.counts[calls] += 1
            stack = rec.stack
            if not kernel and stack and stack[-1][0] == layer:
                # A call within the layer it is already in crosses no
                # boundary; its time stays with the enclosing span.
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    if stack:
                        stack[-1][1] += end - start
                    rec.spans.append((name, start, end, len(stack), end - start - frame[1]))
            if counter is not None:
                rec.counts.update({name + "." + k: v for k, v in counter(args, kwargs, result).items()})
            return result

        return wrapper

    def _count_only(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._record().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function in every namespace binding it."""
        replace = {}
        for layer, names in LAYERS.items():
            mod = importlib.import_module("mmconc." + layer)
            if names is None:
                names = [
                    n
                    for n, v in vars(mod).items()
                    if inspect.isfunction(v) and not n.startswith("_") and v.__module__ == mod.__name__
                ]
            for n in names:
                fn = getattr(mod, n)
                replace[id(fn)] = (fn, self._wrap("%s.%s" % (layer, n), fn))
        fm = importlib.import_module("mmconc.algebra").FMatrix
        self._set(fm, "__matmul__", self._wrap("algebra.fmatrix_matmul", fm.__matmul__), True)
        self._set(fm, "__post_init__", self._count_only("algebra.fmatrix_created", fm.__post_init__), True)
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "mmconc":
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._set(mod, key, replace[id(value)][1], True)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if id(dval) in replace and replace[id(dval)][0] is dval:
                            self._set(value, dkey, replace[id(dval)][1], False)

    def _set(self, target, key, new, attr):
        if attr:
            self._undo.append((target, key, getattr(target, key), True))
            setattr(target, key, new)
        else:
            self._undo.append((target, key, target[key], False))
            target[key] = new

    def uninstall(self):
        for target, key, old, attr in reversed(self._undo):
            if attr:
                setattr(target, key, old)
            else:
                target[key] = old
        self._undo.clear()

    def drain(self):
        """Take every span and count recorded so far, from all threads.

        Returns (spans, counts); spans are (thread, name, start, end,
        depth, self) with thread 0 for the main thread.
        """
        with self._lock:
            records, self._records = self._records, []
        self._local = threading.local()
        spans, counts = [], Counter()
        for t, rec in enumerate(records):
            tid = 0 if rec.main else t + 1
            spans.extend((tid,) + s for s in rec.spans)
            counts.update(rec.counts)
        return spans, counts


def layer_metrics(spans, counts, wall, workers):
    """Per-layer figures of one traced round.

    `wall` is the round's traced wall time over its CLI calls.
    """
    self_s = defaultdict(float)
    busy = 0.0
    for tid, name, start, end, depth, own in spans:
        self_s[name] += own
        if tid != 0 and depth == 0:
            busy += end - start
    layer_self = defaultdict(float)
    for name, own in self_s.items():
        layer_self[name.split(".", 1)[0]] += own
    m = {}
    for layer in LAYERS:
        if layer not in ("experiments", "cli"):  # each is one span: run_experiment_s, main_s
            m[layer + ".self_s"] = layer_self[layer]
    for name in KERNELS:
        m[name + "_s"] = self_s[name]
    for name in CALL_COUNTS:
        m[name + "_calls"] = counts[name + ".calls"]
    m["special.norm_quantile_values"] = counts["special.norm_quantile.values"]
    m["sampling.resample_chunks"] = counts["sampling.gaussian_chunk.resample_chunks"]
    proposed = counts["sampling.sample_restricted_gaussian.proposed"]
    accepted = counts["sampling.sample_restricted_gaussian.accepted"]
    m["sampling.restricted_proposed"] = proposed
    m["sampling.restricted_accepted"] = accepted
    m["sampling.restricted_acceptance"] = accepted / proposed if proposed else 0.0
    for name in ("decomp.polar_q_batched", "decomp.singular_values_batched", "concentration.membership_mask"):
        m[name + "_matrices"] = counts[name + ".matrices"]
    m["algebra.comp_matmul_flops"] = counts["algebra.comp_matmul.flops"]
    m["algebra.fmatrix_created"] = counts["algebra.fmatrix_created"]
    m["csvio.write_csv_bytes"] = counts["csvio.write_csv.bytes"]
    run_wall = sum(end - start for _, name, start, end, _, _ in spans if name == "experiments.run_experiment")
    m["experiments.worker_busy_ratio"] = busy / (workers * run_wall) if workers > 1 and run_wall else 0.0
    m["trace.run_s"] = wall
    m["trace.self_sum_s"] = sum(own for tid, *_, own in spans if tid == 0)
    return m
