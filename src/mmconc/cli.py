"""Command line driver: `mmconc run`, `mmconc validate`, `mmconc sample`.

Exit codes: 0 success, 1 other input error (including a file that
cannot be written), 2 configuration error, 3 infeasible experiment.
The environment variable MMCONC_SEED overrides any configured seed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
import time

from . import __version__, bounds, csvio, experiments, sampling
from .errors import ConfigError, InfeasibleError, MmconcError

FIELD_NAMES = {"r": "R", "c": "C", "h": "H"}

# glibc's malloc serves a block above its mmap threshold with its own
# mapping, and gives the top of the heap back to the system once more
# than its trim threshold is free there.  By default both thresholds
# follow the largest mapped block freed so far (up to 32 MB and 64 MB),
# so the 1 to 2 MB sub-blocks of a run and the temporaries of its
# kernels and CSV passes are mapped, or trimmed, and faulted in again on
# every use.  Fixed values stop that: no block under 32 MB is mapped, and
# up to 64 MB stays free in the heap for the next sub-block.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from <malloc.h>
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20


@functools.cache
def _fix_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds, once per process; a no-op
    on any other C library."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _parse_fields(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok not in FIELD_NAMES:
            raise ConfigError("unknown field %r (choose from r, c, h)" % tok)
        out.append(FIELD_NAMES[tok])
    return tuple(out)


def _parse_list(text, key, cast, what):
    try:
        values = tuple(cast(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values:
        raise ConfigError("key %r: expected comma-separated %s" % (key, what))
    return values


def _apply_env_seed(seed):
    env = os.environ.get("MMCONC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("MMCONC_SEED must be an integer, got %r" % env)
    return seed


def build_config(args):
    """The run record of parsed arguments; the record checks its values."""
    return experiments.ExperimentConfig(
        experiment=args.experiment or "",
        fields=_parse_fields(args.field),
        N_list=_parse_list(args.N, "N", int, "integers"),
        n_rule=args.n,
        kappa_list=_parse_list(args.kappa, "kappa", float, "reals"),
        samples=args.samples,
        seed=_apply_env_seed(args.seed),
        eps=args.eps,
        condition=args.condition,
        a=args.a,
        workers=args.workers,
        out=args.out,
    )


def cmd_run(args):
    cfg = build_config(args)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result = experiments.run_experiment(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    digest = cfg.digest()
    header = result.header + ["run_digest"]
    rows = [row + [digest] for row in result.rows]
    csv_path = os.path.join(cfg.out, "%s.csv" % result.name)
    csv_digest = csvio.write_csv(csv_path, header, rows)
    if result.extra_json:
        csvio.write_json(os.path.join(cfg.out, "%s.json" % result.name), result.extra_json)
    manifest = {
        "experiment": result.name,
        "version": __version__,
        "config": {**cfg.settings(), "workers": cfg.workers},
        "stream": sampling.STREAM,
        "run_digest": digest,
        "outputs": {os.path.basename(csv_path): csv_digest},
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    csvio.write_json(os.path.join(cfg.out, "manifest.json"), manifest)
    for line in result.summaries:
        print(line)
    print("wrote %s (sha256 %s...)" % (csv_path, csv_digest[:12]))
    return 0


def parse_config_file(path):
    """Flat INI-style key = value lines; '#' starts a comment."""
    if not os.path.exists(path):
        raise ConfigError("config file %r does not exist" % path)
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    "%s:%d: expected 'key = value', got %r" % (path, lineno, raw.strip())
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError("%s:%d: empty key" % (path, lineno))
            values[key] = value
    return values


def resolve_config(values):
    """The run config of config-file values: each key is an option of
    `mmconc run`, parsed with its type, choices and default."""
    actions = _add_run_options(argparse.ArgumentParser())
    ns = argparse.Namespace(**{key: action.default for key, action in actions.items()})
    for key, text in values.items():
        if key not in actions:
            raise ConfigError("unknown config key %r" % key)
        cast = actions[key].type or str
        try:
            value = cast(text)
        except ValueError:
            raise ConfigError("key %r: cannot parse %r as %s" % (key, text, cast.__name__))
        choices = actions[key].choices
        if choices is not None and value not in choices:
            raise ConfigError(
                "key %r: unknown value %r (choose from %s)" % (key, value, ", ".join(choices))
            )
        setattr(ns, key, value)
    return build_config(ns)


def cmd_validate(args):
    values = parse_config_file(args.config)
    cfg = resolve_config(values)
    print("config OK:")
    for key in sorted(values):
        print("  %s = %s" % (key, values[key]))
    print("resolved: fields=%s N=%s n=%s seed=%d samples=%d" % (
        ",".join(cfg.fields), ",".join(map(str, cfg.N_list)), cfg.n_rule,
        cfg.seed, cfg.samples,
    ))
    warned = False
    rule = cfg.rule
    if cfg.condition == "condi" and rule.kind == "power" and rule.arg >= 1.0 / 3.0:
        print(
            "warning: n rule %s has exponent p = %g >= 1/3; the growth "
            "condition only holds for p < 1/3" % (cfg.n_rule, rule.arg)
        )
        warned = True
    try:
        report = bounds.condition_check(rule, max(cfg.N_list + (10**6,)), cfg.growth)
        print(
            "condition check: sup=%.4f at N=%d trend=%s"
            % (report.sup_value, report.sup_at, report.trend)
        )
        if report.trend == "increasing" and not warned:
            print("warning: condition expression still increasing at N_max")
    except MmconcError as exc:
        print("warning: condition check skipped (%s)" % exc)
    return 0


def cmd_sample(args):
    seed = _apply_env_seed(args.seed)
    fields = _parse_fields(args.field)
    if len(fields) != 1:
        raise ConfigError("sample takes exactly one field")
    try:
        cfg = sampling.SamplerConfig(
            fields[0], args.N, args.n, scaled=not args.unscaled, seed=seed,
            count=args.count,
        )
    except MmconcError as exc:
        raise ConfigError(str(exc))
    if args.kind == "gaussian":
        blocks = sampling.gaussian_blocks
    else:
        blocks = sampling.haar_blocks
    digest = sampling.write_native_samples_csv(
        args.out, cfg, sampling.draws(cfg, blocks), args.kind
    )
    print("wrote %d %s samples to %s (sha256 %s...)" % (
        args.count, args.kind, args.out, digest[:12],
    ))
    return 0


def _add_run_options(parser):
    """Add the arguments of `mmconc run`, which are also the keys of a
    config file, and return their actions by key."""
    actions = (
        parser.add_argument("experiment", choices=sorted(experiments.EXPERIMENTS)),
        parser.add_argument("--field", default="r", help="comma list from r, c, h"),
        parser.add_argument("--N", default="100", help="comma list of ambient dimensions"),
        parser.add_argument(
            "--n", default="const:1", help="rule const:k | power:p | powerlog:p | table:path"
        ),
        parser.add_argument("--kappa", default="0.5", help="comma list of mass defects"),
        parser.add_argument("--samples", type=int, default=10000),
        parser.add_argument("--seed", type=int, default=0),
        parser.add_argument("--eps", type=float, default=0.5),
        parser.add_argument("--condition", choices=("condi", "ass"), default="condi"),
        parser.add_argument("--a", type=float, default=0.5, help="exponent for the ass condition"),
        parser.add_argument(
            "--workers",
            type=int,
            default=min(os.cpu_count() or 1, experiments.MAX_WORKERS),
            help="threads that reduce chunks, the calling thread counted, in mbdist, obsdiam, "
            "fullmeas, prok and pushforward's reference sample (default: the core count)",
        ),
        parser.add_argument("--out", default="."),
    )
    return {action.dest: action for action in actions}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmconc",
        description="Monte Carlo experiments on matrix manifolds over R, C, H",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment")
    _add_run_options(run)
    run.set_defaults(fn=cmd_run)

    val = sub.add_parser("validate", help="validate a flat key = value config file")
    val.add_argument("config")
    val.set_defaults(fn=cmd_validate)

    samp = sub.add_parser("sample", help="dump raw samples as CSV")
    samp.add_argument("--kind", choices=("gaussian", "haar"), default="gaussian")
    samp.add_argument("--field", default="r")
    samp.add_argument("--N", type=int, required=True)
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--count", type=int, default=1024)
    samp.add_argument("--seed", type=int, default=0)
    samp.add_argument("--unscaled", action="store_true")
    samp.add_argument("--out", default="samples.csv")
    samp.set_defaults(fn=cmd_sample)
    return parser


def main(argv=None):
    _fix_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return 3
    except (MmconcError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
