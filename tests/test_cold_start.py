"""A fresh `mmconc` process imports no numpy module it never computes with.

`numpy.ma` (which `np.quantile` and `np.unique` load) and
`numpy.polynomial` (which `leggauss` loads) together cost a short run
about 20 ms of its CPU; prok, fullmeas and validate use neither.
"""

import json
import os
import subprocess
import sys

from mmconc import cli

_RUNS = """
import json, sys
from mmconc import cli
out = sys.argv[1]
for name in ("prok", "fullmeas"):
    code = cli.main(["run", name, "--field", "r,h", "--N", "40", "--n", "const:2",
                     "--samples", "3000", "--workers", "2", "--out", out + "/" + name])
    assert code == 0, (name, code)
with open(out + "/small.ini", "w") as fh:
    fh.write("experiment = prok\\nN = 40\\nsamples = 100\\n")
assert cli.main(["validate", out + "/small.ini"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] in
                        (["numpy", "ma"], ["numpy", "polynomial"]))))
"""


def test_runs_and_validate_import_no_ma_or_polynomial(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "MMCONC_SEED"}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", _RUNS, str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert "dP_lower" in proc.stdout and "condition check" in proc.stdout
