"""Deterministic CSV / JSON emission shared by samplers and the CLI.

All floats are written with 17 significant digits, '.' decimal point and
LF line endings so that re-runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json


def format_value(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows):
    """Write rows (sequences) under a header; returns the body digest.

    Each line is encoded once and goes to both the file and the hash, so
    the body is never held in memory as a whole.
    """
    h = hashlib.sha256()
    with open(path, "wb") as fh:

        def emit(cells):
            line = (",".join(cells) + "\n").encode()
            fh.write(line)
            h.update(line)

        emit(header)
        for row in rows:
            emit(map(format_value, row))
    return h.hexdigest()


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
