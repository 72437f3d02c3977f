"""Command-line interface.

Exit codes: 0 success, 2 usage or parse errors, 3 mathematical
precondition failures (divergent spec, poles, capability limits) and
verification failures.  Output formats: text (default), json, csv; json
output is schema-stable and byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import mpmath

from . import symbolic
from .errors import DigitprodError, InputError, ParseError
from .evaluator import (DEFAULT_RS_TERMS, DEFAULT_SPLIT_LEVELS,
                        DEFAULT_TM_TERMS, MAX_RS_TERMS, MAX_TM_TERMS,
                        EvalOptions, EvalResult, ProductSpec, eval_product,
                        flajolet_martin, g_value, monotonicity_scan,
                        remainder_sign_probe)
from .factored_rational import FactoredRational
from .numerics import DEFAULT_PRECISION, workdps, working_dps
from .sequences import ExponentKind, block_parity, exponent

ENV_PRECISION = "DIGITPROD_DIGITS"

EXIT_USAGE = 2
EXIT_MATH = 3


class _OutputError(Exception):
    """The --output file could not be written (exit 2)."""


def _default_precision() -> int:
    raw = os.environ.get(ENV_PRECISION)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
        return value
    except ValueError:
        raise InputError(f"invalid {ENV_PRECISION} value {raw!r}") from None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _nstr(x, digits: int) -> str:
    return mpmath.nstr(x, digits, strip_zeros=False)


def _options(args) -> EvalOptions:
    return EvalOptions(precision=args.digits,
                       split_levels=args.split_levels,
                       terms=args.terms,
                       rs_split_levels=args.rs_split_levels)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True)
    elif args.format == "csv":
        out = _to_csv(payload)
    else:
        out = text
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(out + "\n")
        except OSError as exc:
            raise _OutputError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        print(out)


def _to_csv(payload: dict) -> str:
    rows = payload.get("rows")
    buffer = io.StringIO()
    if rows:
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:
        writer = csv.writer(buffer)
        for key in sorted(payload):
            writer.writerow([key, payload[key]])
    return buffer.getvalue().rstrip("\n")


def _printed(value, estimate, digits: int) -> tuple:
    """The value to ``digits`` significant digits, and its error estimate
    plus half a unit in the last printed digit, rounded up to three
    digits, so that the printed estimate covers the printed value."""
    text = _nstr(value, digits)
    last = Decimal(text).adjusted() - digits + 1
    man, exp = estimate.man_exp
    bound = man * Fraction(2) ** exp + Fraction(10) ** last / 2
    with workdps(digits + 5) as ctx:
        shown = Decimal(_nstr(ctx.convert(estimate) + ctx.mpf(10) ** last / 2, 3))
        if Fraction(shown) < bound:
            # one unit in the third digit up from a value that rounded down
            shown += Decimal(1).scaleb(shown.adjusted() - 2)
        return text, _nstr(ctx.mpf(str(shown)), 3)


def _eval_result_payload(result: EvalResult, digits: int) -> dict:
    value, estimate = _printed(result.value, result.error_estimate, digits)
    return {
        "value": value,
        "error_estimate": estimate,
        "terms_used": result.terms_used,
        "split_levels": result.split_levels,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_seq(args) -> int:
    kind = args.kind
    if kind == "block":
        if args.word is None:
            raise InputError("seq block needs --word (and --base)")
        values = [block_parity(args.word, args.base, n) for n in range(args.count)]
    else:
        ek = ExponentKind.from_code(kind)
        values = [exponent(ek, n) for n in range(args.count)]
    _emit(args, {"kind": kind, "values": values}, " ".join(str(v) for v in values))
    return 0


def cmd_eval(args) -> int:
    rational = FactoredRational.parse(args.expression)
    spec = ProductSpec(rational, ExponentKind.from_code(args.kind), args.start)
    result = eval_product(spec, _options(args))
    payload = _eval_result_payload(result, args.digits)
    payload["expression"] = rational.render()
    payload["kind"] = args.kind
    payload["start"] = args.start
    text = (f"{payload['value']}\n"
            f"error estimate {payload['error_estimate']}; "
            f"terms {result.terms_used}, split levels {result.split_levels}")
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    opts = _options(args)
    if args.name and args.name.lower() != "all" and not args.all:
        identities = [symbolic.catalog_entry(args.name)]
    else:
        identities = symbolic.catalog()
    rows = []
    all_pass = True
    for identity in identities:
        report = symbolic.verify(identity, opts, tolerance=args.tolerance)
        all_pass = all_pass and report.passed
        rows.append({
            "name": report.name,
            "computed": _nstr(report.computed, min(args.digits, 30)),
            "expected": _nstr(report.expected, min(args.digits, 30)),
            "abs_error": _nstr(report.abs_error, 3),
            "symbolic": {True: "exact", False: "mismatch", None: "n/a"}[
                report.symbolic_match],
            "pass": report.passed,
        })
    width = max(len(r["name"]) for r in rows)
    lines = [f"{r['name']:<{width}}  {'PASS' if r['pass'] else 'FAIL'}  "
             f"computed {r['computed']}  expected {r['expected']}  "
             f"abs_error {r['abs_error']}  symbolic {r['symbolic']}"
             for r in rows]
    _emit(args, {"rows": rows, "all_pass": all_pass}, "\n".join(lines))
    return 0 if all_pass else EXIT_MATH


def cmd_catalog(args) -> int:
    rows = []
    for identity in symbolic.catalog():
        rows.append({
            "name": identity.name,
            "rational": identity.spec.rational.render(),
            "kind": identity.spec.kind.value,
            "start": identity.spec.start,
            "closed_form": identity.closed_form.to_json(),
            "closed_form_text": identity.closed_form.render(),
            "provenance": identity.provenance,
        })
    text = "\n".join(
        f"{r['name']:<4} {r['kind']:>4} start {r['start']}  "
        f"{r['rational']}  =  {r['closed_form_text']}"
        for r in rows)
    if args.format == "csv":
        for row in rows:
            row["closed_form"] = json.dumps(row["closed_form"], sort_keys=True)
    _emit(args, {"rows": rows}, text)
    return 0


def cmd_g(args) -> int:
    result = g_value(args.x, _options(args))
    payload = _eval_result_payload(result, args.digits)
    payload["x"] = str(args.x)
    _emit(args, payload,
          f"g({args.x}) = {payload['value']} "
          f"(error estimate {payload['error_estimate']})")
    return 0


def cmd_constants(args) -> int:
    opts = _options(args)
    fm = flajolet_martin(opts)
    digits = args.digits
    value = {"g0": fm.g0.value, "fm-R": fm.ratio.value, "fm-phi": fm.phi}[args.name]
    with workdps(working_dps(digits)) as ctx:
        check = ctx.convert(fm.ratio.value) * fm.g0.value
        agree = abs(ctx.convert(fm.phi) - fm.phi_via_g0)
    payload = {
        "name": args.name,
        "value": _nstr(value, digits),
        "cross_check_R_times_g0": _nstr(check, min(digits, 25)),
        "cross_check_error": _nstr(fm.cross_check_error, 3),
        "phi_formulas_agree_within": _nstr(agree, 3),
    }
    text = (f"{args.name} = {payload['value']}\n"
            f"cross-check R*g(0) = {payload['cross_check_R_times_g0']} "
            f"(|R*g(0) - 3/2| = {payload['cross_check_error']})")
    _emit(args, payload, text)
    return 0


def cmd_probe(args) -> int:
    rows = remainder_sign_probe(args.a, args.b, args.k, args.n_max, args.tail)
    payload_rows = [{"n": r.n, "sign": r.sign, "expected": r.expected,
                     "match": r.matches} for r in rows]
    all_match = all(r.matches for r in rows)
    text = "\n".join(f"n={r.n:>4}  sign {r.sign:+d}  expected {r.expected:+d}  "
                     f"{'ok' if r.matches else 'MISMATCH'}" for r in rows)
    text += f"\nall match: {all_match}"
    _emit(args, {"rows": payload_rows, "all_match": all_match}, text)
    return 0 if all_match else EXIT_MATH


def cmd_scan(args) -> int:
    report = monotonicity_scan(args.lo, args.hi, args.steps, _options(args))
    rows = []
    for p in report.points:
        value, estimate = _printed(p.value, p.error_estimate, min(args.digits, 30))
        rows.append({"x": str(p.x), "value": value, "error_estimate": estimate})
    text = "\n".join(f"x={r['x']:>8}  h(x) = {r['value']}" for r in rows)
    if report.strictly_decreasing:
        text += "\nstrictly decreasing across the grid"
    else:
        text += "\nnon-decreasing pairs: " + ", ".join(
            f"({a}, {b})" for a, b in report.violations)
    _emit(args, {"rows": rows,
                 "strictly_decreasing": report.strictly_decreasing},
          text)
    return 0


def cmd_reduce(args) -> int:
    if args.family:
        identity = symbolic.family(args.family, args.a, args.b)
        expr = symbolic.expr_from_spec(identity.spec)
    elif args.expression:
        rational = FactoredRational.parse(args.expression)
        spec = ProductSpec(rational, ExponentKind.PM_THUE, args.start)
        expr = symbolic.expr_from_spec(spec)
    else:
        raise InputError("reduce needs --family or an expression")
    outcome = symbolic.reduce(expr, args.depth)
    if outcome.reduced:
        payload = {
            "status": "reduced",
            "constant": outcome.closed_form.render(),
            "exponents": {str(p): str(e) for p, e in
                          sorted(outcome.exponents.items())},
            "certificate": {str(x): str(l) for x, l in
                            sorted(outcome.certificate.items())},
        }
        _emit(args, payload, payload["constant"])
        return 0
    payload = {"status": "irreducible", "depth": args.depth,
               "residual": outcome.residual.render()}
    _emit(args, payload, f"irreducible at depth {args.depth}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, default_precision: int) -> None:
    parser.add_argument("--digits", type=_positive_int, default=default_precision,
                        help="working precision in decimal digits")
    parser.add_argument("--split-levels", type=int, default=None,
                        help="dyadic split levels for +-1 Thue-Morse products; "
                             "setting this or --terms selects the split oracle "
                             f"(default {DEFAULT_SPLIT_LEVELS} there) in place "
                             "of the scaled tail engine")
    parser.add_argument("--terms", type=_positive_int, default=None,
                        help=f"summation terms; selects the kind's oracle "
                             f"(Thue-Morse: default {DEFAULT_TM_TERMS}; "
                             f"Rudin-Shapiro: default {DEFAULT_RS_TERMS}; at most "
                             f"{MAX_TM_TERMS} and {MAX_RS_TERMS})")
    parser.add_argument("--rs-split-levels", type=int, default=None,
                        help="Rudin-Shapiro split levels; setting this or "
                             "--terms selects the direct-sum oracle (default "
                             "automatic there) in place of the scaled tail "
                             "engine")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the result to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    precision = _default_precision()
    parser = argparse.ArgumentParser(
        prog="digitprod",
        description="Evaluate and verify infinite products with Thue-Morse "
                    "and Rudin-Shapiro digit-sequence exponents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print sequence values")
    p.add_argument("kind", choices=("t", "v", "pm-t", "pm-v", "block"))
    p.add_argument("--count", type=_positive_int, default=16)
    p.add_argument("--word", default=None, help="digit word for kind block")
    p.add_argument("--base", type=_positive_int, default=2)
    _add_common(p, precision)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("eval", help="evaluate one infinite product")
    p.add_argument("expression", help='factor expression, e.g. "(2n+1)/(2n+2)"')
    p.add_argument("--kind", choices=[k.value for k in ExponentKind],
                   default="pm-t")
    p.add_argument("--start", type=int, choices=(0, 1), default=0)
    _add_common(p, precision)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="verify catalog identities")
    p.add_argument("name", nargs="?", default=None,
                   help="catalog entry name (default: all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--tolerance", type=float, default=None,
                   help="absolute tolerance (default: 10x the error estimate)")
    _add_common(p, precision)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="dump the identity catalog")
    _add_common(p, precision)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("g", help="evaluate the function g")
    p.add_argument("--x", type=_fraction, required=True)
    _add_common(p, precision)
    p.set_defaults(func=cmd_g)

    p = sub.add_parser("constants", help="Flajolet-Martin constants")
    p.add_argument("name", choices=("g0", "fm-R", "fm-phi"))
    _add_common(p, precision)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("probe", help="remainder sign probe for the "
                                     "difference operator")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n-max", type=_positive_int, default=64)
    p.add_argument("--tail", type=_positive_int, default=2 ** 20,
                   help="sum each remainder to the largest 2^p - 1 <= TAIL, "
                        "a whole Thue-Morse block (default 2^20)")
    _add_common(p, precision)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("scan", help="monotonicity scan of f(x/2, (x+1)/2)")
    p.add_argument("--lo", type=_fraction, default=Fraction(0))
    p.add_argument("--hi", type=_fraction, default=Fraction(10))
    p.add_argument("--steps", type=_positive_int, default=41)
    _add_common(p, precision)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reduce", help="reduce a product to an exact constant")
    p.add_argument("expression", nargs="?", default=None)
    p.add_argument("--family", choices=("i", "ii", "iii", "iv"), default=None)
    p.add_argument("--a", type=_fraction, default=None)
    p.add_argument("--b", type=_fraction, default=None)
    p.add_argument("--start", type=int, choices=(0, 1), default=1)
    p.add_argument("--depth", type=_positive_int,
                   default=symbolic.DEFAULT_REDUCE_DEPTH)
    _add_common(p, precision)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        parser = build_parser()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DigitprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
