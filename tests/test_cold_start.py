"""numpy, dataclasses, inspect and csv stay off the default import and
evaluation paths.

Only the Rudin-Shapiro direct-sum oracle and ``probe`` import numpy, on
first use, and only ``--format csv`` imports csv.  Each case runs ``cli.main`` in a fresh interpreter, since the
test process itself has numpy loaded, and reads ``sys.modules`` after the
commands have run.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys
import digitprod
import digitprod.cli as cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(
    {"numpy", "dataclasses", "inspect", "csv"} & set(sys.modules))}))
"""

WR = "(2n+1)/(2n+2)"
GS = "(2n+1)^2/((4n+1)(n+1))"
PROBE = ["probe", "--a", "2", "--b", "1", "--n-max", "8"]


def fresh_run(*argvs):
    """Exit codes of ``cli.main`` on each argv in one new interpreter, and
    which of numpy, dataclasses, inspect and csv were imported by the end."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], set(result["loaded"])


def test_default_paths_never_import_numpy():
    # nor dataclasses, inspect or csv
    codes, loaded = fresh_run(
        ["verify", "WR"],
        ["eval", WR, "--digits", "60"],
        ["eval", GS, "--kind", "pm-v"],
        ["g", "--x", "3/4"],
        ["scan", "--lo", "0", "--hi", "2", "--steps", "5", "--digits", "25"],
        ["constants", "fm-phi"],
        ["reduce", WR, "--start", "0"],
    )
    assert codes == [0] * 7
    assert not loaded


def test_csv_is_imported_for_csv_output_only():
    codes, loaded = fresh_run(["seq", "t", "--count", "4", "--format", "csv"])
    assert codes == [0]
    assert loaded == {"csv"}


def test_direct_sum_oracle_and_probe_load_numpy_on_use():
    codes, loaded = fresh_run(
        ["eval", "(n+1)/(n+2)", "--kind", "pm-v", "--terms", "4096"],
        PROBE + ["--k", "1", "--tail", "65536"],
    )
    assert codes == [0, 0]
    assert "numpy" in loaded


def test_probe_refused_grid_never_imports_numpy():
    codes, loaded = fresh_run(PROBE + ["--k", "60"])
    assert codes == [3]
    assert "numpy" not in loaded
