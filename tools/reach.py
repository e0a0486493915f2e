"""Print every function of src/mmconc that no run, sample, validate or
acceptance test enters.

    python3 tools/reach.py

Profiles one process, with sys.setprofile and threading.setprofile, while
it runs:
- every `mmconc run` and `mmconc sample` of tools/csv_digests.py, the
  power:, powerlog: and table: column rules and the ass condition
  among them;
- obsdiam, prok and fullmeas on two workers;
- `mmconc validate` on a config file;
- tests/test_acceptance.py, under pytest (criteria 04 and 10 fail there
  on purpose; their verdicts go to stderr with the rest of its output).
Then prints `module:line  qualname` for each function defined in
src/mmconc that never ran, and their total.  A comprehension counts as
part of its function, and a function nested in an unreached one is not
listed on its own.  It imports mmconc from the `src/` of the checkout it
sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading
import types

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
SRC = os.path.join(ROOT, "src", "mmconc")

SMALL = ["--field", "r,c,h", "--N", "10,20", "--samples", "2000", "--seed", "7"]


def extra_runs():
    """The mmconc arguments beyond csv_digests.runs(), the runs on two
    workers, without --out."""
    for name in ("obsdiam", "prok", "fullmeas"):
        yield ["run", name, *SMALL, "--n", "const:2", "--workers", "2"]


def functions():
    """(code, parent) of every function defined in src/mmconc; parent is
    the enclosing function's code, or None."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as fh:
                yield from _nested(compile(fh.read(), path, "exec"), None)


def _nested(code, parent):
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        # Class bodies and comprehensions belong to what encloses them.
        own = const.co_flags & inspect.CO_NEWLOCALS and (
            const.co_name == "<lambda>" or not const.co_name.startswith("<")
        )
        if own:
            yield const, parent
        yield from _nested(const, const if own else parent)


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname


def reached():
    """The keys of every code object that ran during the workload."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w") as fh:
            fh.write("experiment = fullmeas\nfield = r,h\nN = 100\nn = power:0.2\n")
        os.environ.pop("MMCONC_SEED", None)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            # Imported under the profiler, so module-level calls count.
            sys.path.insert(0, TOOLS)
            import csv_digests  # puts src/ on sys.path
            from mmconc import cli

            argvs = list(csv_digests.runs(tmp))
            argvs += [argv + ["--out", os.path.join(tmp, "extra-%d" % i)]
                      for i, argv in enumerate(extra_runs())]
            argvs.append(["validate", config])
            for argv in argvs:
                # In tmp, where the table of csv_digests' table: rule is.
                with contextlib.chdir(tmp), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code:
                    sys.exit("mmconc %s exited with %d" % (" ".join(argv), code))
            with _stdout_to_stderr():
                import pytest

                pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                             os.path.join(ROOT, "tests", "test_acceptance.py")])
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return {_key(code) for code in seen}


@contextlib.contextmanager
def _stdout_to_stderr():
    """Send file descriptor 1 and sys.stdout to stderr for the block."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    ran = reached()
    missed = set()
    for code, parent in functions():
        if _key(code) not in ran and (parent is None or parent not in missed):
            missed.add(code)
    for code in sorted(missed, key=_key):
        where = "%s:%d" % (os.path.basename(code.co_filename), code.co_firstlineno)
        print("%-20s  %s" % (where, code.co_qualname))
    print("total  %d" % len(missed))


if __name__ == "__main__":
    main()
