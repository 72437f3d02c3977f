"""Workload inputs, their references, and the grading of every output.

A workload is a list of calls.  ``run.py`` builds it from the seed here,
sends the calls to a fresh interpreter (``pass_runner.py``), and grades
what comes back against references from ``oracle`` alone.

Why these four workloads:

* ``catalog``: ``symbolic.verify`` on all 18 identities at 60 digits, the
  paper's headline claim (``digitprod verify --all``).  GS dominates it
  through the 10-level Rudin-Shapiro split.
* ``tm-ladder``: ``cli.main(["eval", ...])`` for WR and T5a at 60, 200 and
  500 digits, the precision ladder.  The tail sums and ``exp`` grow with
  precision while the split algebra stays fixed; it is the only workload
  that goes through the CLI, and T5a brings in Gamma.
* ``scan``: many small +-1 Thue-Morse products in one process (a 41-point
  monotonicity scan on a seed-shifted grid, g at 1/2 and at seed-drawn
  points, Flajolet-Martin), so work shared across calls shows here.
* ``reduce``: exact reductions only (the 12 pm-t catalog entries,
  seed-drawn family instances and irreducible probes), so a change to
  ``reduce`` is visible; no numerical evaluation runs.

``catalog`` and ``tm-ladder`` are fixed by the paper; the seed draws the
``scan`` grid offset and g points and the ``reduce`` parameters.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import mpmath

import oracle

DIGITS = 60
LADDER_DIGITS = (60, 200, 500)
REFERENCE_GUARD = 20  # references are computed at requested + 20 digits
SCAN_STEPS = 41
SCAN_WIDTH = 10
G_DRAWN = 3
FAMILY_DRAWS = 2  # instances per family (i)-(iv)
PROBE_COUNT = 3
REDUCE_DEPTH = 6
# Probes (n+p)/(n+q) over denominator 5 that each run the full depth-6
# universe in about the same time (within 5 %; the pairs (2/5, 4/5) and
# (3/5, 4/5) take 15-25 % longer), so drawing three of them keeps the
# workload's cost steady across seeds.
PROBE_POOL = [(Fraction(1, 5), Fraction(2, 5)), (Fraction(1, 5), Fraction(3, 5)),
              (Fraction(1, 5), Fraction(4, 5)), (Fraction(2, 5), Fraction(3, 5))]
FM_RATIO_OFFSETS = {Fraction(1, 4): 1, Fraction(1, 2): 1,
                    Fraction(0): -1, Fraction(3, 4): -1}

NAMES = ("catalog", "tm-ladder", "scan", "reduce")


def load_references() -> Dict[str, dict]:
    path = Path(__file__).with_name("references.json")
    return {row["name"]: row for row in json.loads(path.read_text())["rows"]}


# ---------------------------------------------------------------------------
# Numbers crossing the process boundary travel as exact (mantissa, exponent)
# ---------------------------------------------------------------------------

def decode(number) -> mpmath.mpf:
    man, exp = int(number[0]), number[1]
    with mpmath.workprec(max(53, man.bit_length())):
        return mpmath.mpf((man, exp))


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------

def grade(label: str, value, estimate, reference, requested: int) -> dict:
    """Achieved digits, actual error and bound slack of one output.

    Achieved digits are -log10(|value - ref| / |ref|), capped at the
    requested digits.  The slack is estimate / actual error with both
    floored at |ref| 10^-requested: an estimate or error finer than the
    request counts as meeting it, so an exact output, or one that meets
    its request with a bound that does too, has slack 1.  An output fails
    when its actual error exceeds its own estimate.
    """
    with mpmath.workdps(requested + REFERENCE_GUARD + 10):
        error = abs(mpmath.mpf(value) - reference)
        estimate = mpmath.mpf(estimate)
        floor = abs(reference) * mpmath.mpf(10) ** -requested
        if error == 0:
            achieved = float(requested)
        else:
            achieved = min(float(requested),
                           float(-mpmath.log10(error / abs(reference))))
        slack = float(max(estimate, floor) / max(error, floor))
        return {
            "label": label,
            "requested": requested,
            "achieved_digits": achieved,
            "error_estimate": mpmath.nstr(estimate, 3),
            "actual_error": mpmath.nstr(error, 3),
            "slack": slack,
            "problem": ("actual error exceeds the error estimate"
                        if error > estimate else None),
        }


def grade_exact(label: str, problems: List[str], requested: int) -> dict:
    """An exact output: all requested digits and slack 1 when correct."""
    return {
        "label": label,
        "requested": requested,
        "achieved_digits": float(requested) if not problems else 0.0,
        "error_estimate": "0",
        "actual_error": "0" if not problems else "wrong",
        "slack": 1.0,
        "problem": "; ".join(problems) or None,
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """The calls of one pass plus what ``run.py`` needs to grade them."""

    def __init__(self, name: str, seed: int):
        self.references = load_references()
        self.calls: List[dict] = []
        self._tm: Optional[oracle.ThueMorseOracle] = None
        self._h: Dict[Fraction, mpmath.mpf] = {}
        getattr(self, "_build_" + name.replace("-", "_"))(random.Random(seed))

    # -- inputs and references -----------------------------------------------

    def _build_catalog(self, rng: random.Random) -> None:
        for name in self.references:
            self.calls.append({"op": "verify", "name": name, "digits": DIGITS})
        self._refs = {name: oracle.eval_tree(row["closed_form"],
                                             DIGITS + REFERENCE_GUARD)
                      for name, row in self.references.items()}

    def _build_tm_ladder(self, rng: random.Random) -> None:
        self._refs = {}
        for name in ("WR", "T5a"):
            row = self.references[name]
            for digits in LADDER_DIGITS:
                argv = ["eval", row["rational"], "--kind", row["kind"],
                        "--start", str(row["start"]), "--digits", str(digits),
                        "--format", "json"]
                self.calls.append({"op": "cli", "argv": argv, "name": name,
                                   "digits": digits})
            self._refs[name] = oracle.eval_tree(
                row["closed_form"], max(LADDER_DIGITS) + REFERENCE_GUARD)

    def _build_scan(self, rng: random.Random) -> None:
        # Points on the quarter grid, and g at odd quarters only: a point's
        # cost depends on its denominator, so every seed gets the same mix.
        x0 = Fraction(rng.randrange(0, 9), 4)
        self.calls.append({"op": "scan", "lo": str(x0), "hi": str(x0 + SCAN_WIDTH),
                           "steps": SCAN_STEPS, "digits": DIGITS})
        g_points = [Fraction(1, 2)]
        while len(g_points) < 1 + G_DRAWN:
            x = Fraction(2 * rng.randrange(0, 24) + 1, 4)
            if x not in g_points:
                g_points.append(x)
        for x in g_points:
            self.calls.append({"op": "g", "x": str(x), "digits": DIGITS})
        self.calls.append({"op": "fm", "digits": DIGITS})
        top = max(x0 + SCAN_WIDTH, max(g_points))
        self._tm = oracle.ThueMorseOracle(DIGITS + REFERENCE_GUARD, (top + 1) / 2)

    def _build_reduce(self, rng: random.Random) -> None:
        for name, row in self.references.items():
            if row["kind"] == "pm-t":
                self.calls.append({"op": "reduce", "source": "catalog",
                                   "name": name, "depth": REDUCE_DEPTH,
                                   "digits": DIGITS})
        for family in ("i", "ii", "iii", "iv"):
            drawn = 0
            while drawn < FAMILY_DRAWS:
                a = Fraction(rng.randrange(1, 25), rng.choice((1, 2, 3, 4)))
                b = Fraction(rng.randrange(1, 25), rng.choice((1, 2, 3, 4)))
                if family == "i" and a == b:
                    continue
                call = {"op": "reduce", "source": "family", "family": family,
                        "a": str(a), "depth": REDUCE_DEPTH, "digits": DIGITS}
                if family == "i":
                    call["b"] = str(b)
                self.calls.append(call)
                drawn += 1
        for p, q in rng.sample(PROBE_POOL, PROBE_COUNT):
            self.calls.append({"op": "reduce", "source": "probe", "p": str(p),
                               "q": str(q), "depth": REDUCE_DEPTH,
                               "digits": DIGITS})

    # -- grading ---------------------------------------------------------------

    def h(self, x: Fraction) -> mpmath.mpf:
        """Reference h(x), computed once per run."""
        if x not in self._h:
            self._h[x] = self._tm.h(x)
        return self._h[x]

    def grade(self, call: dict, out: dict) -> List[dict]:
        """Graded outputs of one call; raises on a malformed output."""
        return getattr(self, "_grade_" + call["op"])(call, out)

    def _grade_verify(self, call, out):
        digits = call["digits"]
        ref = self._refs[call["name"]]
        row = grade(call["name"], decode(out["computed"]),
                    decode(out["error_estimate"]), ref, digits)
        problems = [row["problem"]] if row["problem"] else []
        with mpmath.workdps(digits + REFERENCE_GUARD):
            if abs(decode(out["expected"]) - ref) > abs(ref) * mpmath.mpf(10) ** -digits:
                problems.append("expected value differs from the reference")
        if not out["passed"]:
            problems.append("verify reported FAIL")
        if out["symbolic"] is False:
            problems.append("symbolic check reported a mismatch")
        row["problem"] = "; ".join(problems) or None
        return [row]

    def _grade_cli(self, call, out):
        if out["exit"] != 0:
            return [grade_exact(call["name"], [f"exit code {out['exit']}"],
                                call["digits"])]
        payload = json.loads(out["stdout"])
        digits = call["digits"]
        with mpmath.workdps(digits + REFERENCE_GUARD + 10):
            return [grade(f"{call['name']}@{digits}", mpmath.mpf(payload["value"]),
                          mpmath.mpf(payload["error_estimate"]),
                          self._refs[call["name"]], digits)]

    def _grade_scan(self, call, out):
        rows = []
        for x, value, estimate in out["points"]:
            rows.append(grade(f"h({x})", decode(value), decode(estimate),
                              self.h(Fraction(x)), call["digits"]))
        expected_x = [Fraction(call["lo"]) + (Fraction(call["hi"]) - Fraction(call["lo"]))
                      * i / (call["steps"] - 1) for i in range(call["steps"])]
        if [Fraction(p[0]) for p in out["points"]] != expected_x:
            rows[0]["problem"] = "scan grid differs from the requested one"
        if not out["decreasing"]:
            rows[0]["problem"] = "scan is not strictly decreasing"
        return rows

    def _grade_g(self, call, out):
        x = Fraction(call["x"])
        with mpmath.workdps(call["digits"] + REFERENCE_GUARD + 10):
            ref = self.h(x) / (mpmath.mpf(x.numerator) / x.denominator + 1)
        return [grade(f"g({x})", decode(out["value"]), decode(out["error_estimate"]),
                      ref, call["digits"])]

    def _grade_fm(self, call, out):
        digits = call["digits"]
        with mpmath.workdps(digits + REFERENCE_GUARD + 10):
            g0_ref = self.h(Fraction(0))
            ratio_ref = self._tm.product(FM_RATIO_OFFSETS)
            c = mpmath.exp(mpmath.euler) / mpmath.sqrt(2)
            g0, g0_est = decode(out["g0"][0]), decode(out["g0"][1])
            ratio, ratio_est = decode(out["ratio"][0]), decode(out["ratio"][1])
            phi, phi_alt = decode(out["phi"]), decode(out["phi_via_g0"])
            # phi inherits the relative estimate of the product it is built on
            return [
                grade("fm g(0)", g0, g0_est, g0_ref, digits),
                grade("fm R", ratio, ratio_est, ratio_ref, digits),
                grade("fm phi", phi, abs(phi) * ratio_est / abs(ratio),
                      c * 2 / 3 * ratio_ref, digits),
                grade("fm phi via g(0)", phi_alt, abs(phi_alt) * g0_est / abs(g0),
                      c / g0_ref, digits),
            ]

    def _grade_reduce(self, call, out):
        target, log_const, expected, label = self._reduce_case(call)
        certificate = {Fraction(x): Fraction(v) for x, v in out["certificate"].items()}
        exponents = {int(p): Fraction(v) for p, v in out["exponents"].items()}
        problems = []
        if out["status"] == "reduced":
            # a probe that reduces must still prove the constant it reports
            problems += oracle.certificate_problems(
                certificate, target, log_const,
                exponents if expected is None else expected)
            if expected is not None and exponents != expected:
                problems.append("reported exponents differ from the reference")
        elif expected is not None:
            problems.append(f"reported {out['status']} for a reducible product")
        elif out["depth"] != call["depth"]:
            problems.append("irreducible result at the wrong depth")
        return [grade_exact(label, problems, call["digits"])]

    def _reduce_case(self, call):
        """(target G-part, log-constant part, expected exponents, label)."""
        if call["source"] == "catalog":
            row = self.references[call["name"]]
            offsets, at_zero = oracle.parse_product_text(row["rational"])
            log_const = {at_zero: Fraction(1)} if row["start"] == 0 and at_zero != 1 else {}
            target = {a: Fraction(m) for a, m in offsets.items()}
            return (target, log_const, oracle.tree_exponents(row["closed_form"]),
                    call["name"])
        if call["source"] == "family":
            a = Fraction(call["a"])
            family = call["family"]
            b = {"i": Fraction(call.get("b", 0)), "ii": a + 1,
                 "iii": Fraction(0), "iv": 2 * a - 1}[family]
            constant = {"i": (b + 1) / (a + 1), "ii": (a + 2) / (a + 1),
                        "iii": 1 / (a + 1), "iv": 2 * a / (a + 1)}[family]
            target: Dict[Fraction, Fraction] = {}
            for point, m in ((a, 1), ((a + 1) / 2, 1), (b / 2, 1),
                             (a / 2, -1), (b, -1), ((b + 1) / 2, -1)):
                target[point] = target.get(point, Fraction(0)) + m
            return (target, {}, oracle.rational_exponents(constant),
                    f"family {family} a={a}" + (f" b={b}" if family == "i" else ""))
        p, q = Fraction(call["p"]), Fraction(call["q"])
        return ({p: Fraction(1), q: Fraction(-1)}, {}, None, f"probe p={p} q={q}")


def summarize(graded_calls: List[dict]) -> dict:
    """Digit metrics over every graded output of every call."""
    outputs = [o for call in graded_calls for o in call["outputs"]]
    digits = [o["achieved_digits"] for o in outputs]
    return {
        "digits_min": min(digits),
        "digits_frac_mean": math.fsum(o["achieved_digits"] / o["requested"]
                                      for o in outputs) / len(outputs),
        "bound_slack_ratio": max(o["slack"] for o in outputs),
    }
