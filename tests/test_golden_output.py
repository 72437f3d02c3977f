"""Byte-for-byte CLI output against stored golden files.

Each case runs ``cli.main(argv)`` with ``--format json`` and compares
stdout with ``tests/golden/<name>.json``.  A change that moves any printed
digit fails here.  After an intended output change, rewrite the files of
the named cases, and only those, with
``PYTHONPATH=src python tests/test_golden_output.py NAME [NAME ...]``;
it prints the old and the new JSON of every case it rewrites, so that a
record of the change can be copied from its output.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import mpmath
import pytest

from conftest import fm_phi_reference
from digitprod import numerics
from digitprod.cli import ENV_PRECISION, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

WR = "(2n+1)/(2n+2)"
CASES = {
    "eval-wr-60": ["eval", WR, "--digits", "60"],
    "eval-wr-200": ["eval", WR, "--digits", "200"],
    "eval-wr-500": ["eval", WR, "--digits", "500"],
    "eval-t5a-60": ["eval", "(4n+1)(4n+4)/((4n+2)(4n+3))", "--kind", "t",
                    "--digits", "60"],
    # tm-ladder's 0/1 call at 500 digits: the engine and Gamma
    "eval-t5a-500": ["eval", "(4n+1)(4n+4)/((4n+2)(4n+3))", "--kind", "t",
                     "--digits", "500"],
    # Gamma at 1, 5/4, 2 and 1/4
    "eval-t5b-200": ["eval", "(n+1)(4n+5)/((n+2)(4n+1))", "--kind", "t",
                     "--digits", "200"],
    # the Rudin-Shapiro 0/1 form: Gamma(3/4)^4, Gamma(1/2) and Gamma(3/2)
    "eval-t6b-60": ["eval", "4(n+2)(2n+1)^3(2n+3)^3/((n+3)(n+1)^2(4n+3)^4)",
                    "--kind", "v"],
    # integer arguments near 10^6: Stirling with no shift
    "eval-plain-big-offset": ["eval", "(n+1000000)(n+1000003)/((n+1000001)(n+1000002))",
                              "--kind", "plain"],
    # eighths: Gamma(1/8) Gamma(7/8) / (Gamma(3/8) Gamma(5/8)), two
    # reflection sines and no Stirling series; the value is sqrt(2) + 1
    "eval-plain-eighths-500": ["eval", "(8n+3)(8n+5)/((8n+1)(8n+7))", "--kind", "plain",
                               "--digits", "500"],
    "g-3-4": ["g", "--x", "3/4"],
    # max|a| = 64: Thue-Morse at its offset cap, M = 256
    "g-127-500": ["g", "--x", "127", "--digits", "500"],
    # D = 8: the engine's series runs to 477 terms at 500 digits
    "g-37-4-500": ["g", "--x", "37/4", "--digits", "500"],
    "constants-fm-phi-100": ["constants", "fm-phi", "--digits", "100"],
    # Euler's gamma from the backend, well past 100 digits
    "constants-fm-phi-300": ["constants", "fm-phi", "--digits", "300"],
    "eval-wr-unsplit-64": ["eval", WR, "--split-levels", "0", "--terms", "64"],
    # all 18 entries: GS, T6a and T6b's +-1 part on the Rudin-Shapiro
    # engine, and the symbolic column
    "verify-all": ["verify", "--all"],
    # the 6-level Rudin-Shapiro split chain
    "eval-gs-rs6": ["eval", "(2n+1)^2/((4n+1)(n+1))", "--kind", "pm-v",
                    "--start", "1", "--rs-split-levels", "6",
                    "--terms", "100000"],
    # terms < n0 after one split: no tail sum, and a bound of 1.42 on a
    # value of 0.72 that supports no digit, so it exits 3 and prints nothing
    "eval-rs-short-sum": ["eval", "(n+20)/(n+21)", "--kind", "pm-v",
                          "--rs-split-levels", "1", "--terms", "16"],
    # the default engine at tail start M = 32 (terms_used 32, no split)
    "eval-n1-n2": ["eval", "(n+1)/(n+2)"],
    # max|a| = 512: Rudin-Shapiro at its cap, M = 2048
    "eval-rs-cap-200": ["eval", "(n+511)/(n+512)", "--kind", "pm-v",
                        "--digits", "200"],
    # the Rudin-Shapiro engine at 500 digits
    "eval-gs-500": ["eval", "(2n+1)^2/((4n+1)(n+1))", "--kind", "pm-v",
                    "--start", "1", "--digits", "500"],
    # a negative offset: odd power sums are negative, and the series'
    # shifts and divisions floor toward minus infinity
    "eval-neg-offset-200": ["eval", "(2n-1)/(2n+1)", "--start", "1",
                            "--digits", "200"],
    "reduce-family-ii": ["reduce", "--family", "ii", "--a", "7/3"],
    # reduced at depth 3 with a 4-term certificate
    "reduce-c3l": ["reduce", "(8n+1)(8n+7)/((8n+3)(8n+5))", "--start", "0"],
    # searches the full depth-6 universe and finds no combination
    "reduce-probe-irreducible": ["reduce", "(n+1/5)/(n+2/5)"],
    # a 4-point target searched through the full depth-7 universe
    "reduce-probe-4pt-d7": ["reduce", "(n+1/5)(n+3/7)/((n+2/5)(n+4/7))",
                            "--depth", "7"],
}

# the cases that exit 3; every other case exits 0
EXIT_CODES = {"eval-rs-short-sum": 3}

# oracle and cross-check paths with no golden file, for
# test_output_ignores_the_callers_mpmath_precision
UNSTORED = {
    "scan": ["scan"],
    "g-third-split": ["g", "--x", "1/3", "--split-levels", "3", "--terms", "64"],
    "constants-fm-phi-split": ["constants", "fm-phi", "--split-levels", "2",
                               "--terms", "64"],
}


def run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, monkeypatch):
    monkeypatch.delenv(ENV_PRECISION, raising=False)
    code, out = run_json(CASES[name])
    assert code == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_fm_phi_300_against_independent_references():
    # each printed digit is within half a unit of phi from an
    # Euler-Maclaurin gamma and perfbench's Thue-Morse R, both at 320 digits
    value = json.loads((GOLDEN / "constants-fm-phi-300.json").read_text())["value"]
    assert len(value) == len("0.") + 300
    with mpmath.workdps(330):
        assert abs(mpmath.mpf(value) - fm_phi_reference()) <= mpmath.mpf(10) ** -300 / 2


def test_plain_eighths_500_against_sqrt_2_plus_1():
    # each printed digit is within half a unit of sqrt(2) + 1 from mpmath
    value = json.loads((GOLDEN / "eval-plain-eighths-500.json").read_text())["value"]
    assert len(value) == len("2.") + 499
    with mpmath.workdps(530):
        assert abs(mpmath.mpf(value) - (mpmath.sqrt(2) + 1)) <= mpmath.mpf(10) ** -499 / 2


@pytest.mark.parametrize("name", sorted(CASES) + sorted(UNSTORED))
def test_output_ignores_the_callers_mpmath_precision(name, monkeypatch):
    # the package computes in its own mpmath context, so a caller's global
    # precision, low or high, changes no printed byte; the Gamma memo is
    # cleared so that every run computes its values afresh
    monkeypatch.delenv(ENV_PRECISION, raising=False)
    argv = CASES.get(name) or UNSTORED[name]
    outputs = {}
    for dps in (15, 3, 300):
        numerics.gamma.cache_clear()
        numerics._bounded_gamma.cache_clear()
        with mpmath.workdps(dps):
            outputs[dps] = run_json(argv)
    assert outputs[3] == outputs[15] and outputs[300] == outputs[15]
    assert outputs[15][0] == EXIT_CODES.get(name, 0)


if __name__ == "__main__":
    names = sys.argv[1:]
    if not names or not set(names) <= set(CASES):
        sys.exit(f"usage: {sys.argv[0]} NAME [NAME ...], each NAME one of: "
                 f"{' '.join(sorted(CASES))}")
    os.environ.pop(ENV_PRECISION, None)
    for case in names:
        _, text = run_json(CASES[case])
        path = GOLDEN / f"{case}.json"
        old = path.read_text() if path.exists() else "(none)\n"
        print(f"== {case}\nold: {old}new: {text}", end="")
        path.write_text(text)
