"""Command-line interface.

Exit codes: 0 success, 2 usage or parse errors, 3 mathematical
precondition failures (divergent spec, poles, capability limits) and
verification failures.  Output formats: text (default), json, csv; json
output is schema-stable and byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import mpmath

from . import symbolic
from .errors import CapabilityError, DigitprodError, InputError, ParseError
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
    import csv  # off the import path of the other formats
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
    """The value to the most significant digits, at most ``digits``, that
    its error estimate supports, and the estimate plus half a unit in the
    last printed digit, rounded up to three digits, so that the printed
    estimate covers the printed value.  The estimate supports a digit when
    it is at most half a unit in it, so the printed value is within one
    unit in its last digit.  Raises ``CapabilityError`` when it supports
    none.

    The count is found by a walk down from max(1, g), g = floor(k c) + 1,
    with k = mag(value) - mag(estimate) and c = 30103/100000 > log10 2:
    the same count as a walk down from ``digits``, in a few formatting
    calls rather than hundreds, as no count above it is supported.  Proof,
    with v the value and e the estimate: mag(x) = floor(log2|x|) + 1, so
    k log10 2 > y = log10(|v|/e) - log10 2.  n digits whose text leads at
    10^E are supported when n <= E + 1 - log10(2e).  nstr rounds half up
    from n + 3 digits that truncate |v| toward zero (to 10^-(n+5)), so
    E <= log10|v| + t, where t = 0 unless the text is 10^E, and
    t < 2.2 10^-(n+1) for n >= 2 (0.03 at n = 1).  So n <= y + 1 + t.  For
    k <= 0 that leaves n = 1.  For k >= 1, k log10 2 is not an integer, so
    n <= g, or N = n - 1 lies in (k log10 2, k log10 2 + t), that is,
    0 < N ln 10 - k ln 2 < 7.4 10^-(N+2) ln 2.  No N < 2519 does
    (``test_printed_guess_needs_no_walk_up`` checks), nor any larger N:
    log(N ln 10 - k ln 2) >= -25.2 ln 10 max(ln(2.45 N) + 0.38, 10)^2 by
    Laurent's bound for linear forms in two logarithms (Acta Arith. 133
    (2008), Corollary 2)."""
    man, exp = estimate.man_exp
    error = man * Fraction(2) ** exp
    top = digits
    if value and man:
        guess = (mpmath.mag(value) - mpmath.mag(estimate)) * 30103 // 100000 + 1
        top = min(digits, max(1, guess))
    for n in range(top, 0, -1):
        text = _nstr(value, n)
        last = Decimal(text).adjusted() - n + 1
        if error <= Fraction(10) ** last / 2:
            break
    else:
        raise CapabilityError(f"the error bound {_nstr(estimate, 3)} supports no digit "
                              f"of {_nstr(value, 3)}; more terms or split levels would")
    bound = error + Fraction(10) ** last / 2
    with workdps(n + 5) as ctx:
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
    value, radius = {"g0": (fm.g0.value, fm.g0.error_estimate),
                     "fm-R": (fm.ratio.value, fm.ratio.error_estimate),
                     "fm-phi": (fm.phi, fm.phi_error)}[args.name]
    with workdps(working_dps(digits)) as ctx:
        check = ctx.convert(fm.ratio.value) * fm.g0.value
        agree = abs(ctx.convert(fm.phi) - fm.phi_via_g0)
    payload = {
        "name": args.name,
        "value": _printed(value, radius, digits)[0],
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


def _seq_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=("t", "v", "pm-t", "pm-v", "block"))
    p.add_argument("--count", type=_positive_int, default=16)
    p.add_argument("--word", default=None, help="digit word for kind block")
    p.add_argument("--base", type=_positive_int, default=2)


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("expression", help='factor expression, e.g. "(2n+1)/(2n+2)"')
    p.add_argument("--kind", choices=[k.value for k in ExponentKind],
                   default="pm-t")
    p.add_argument("--start", type=int, choices=(0, 1), default=0)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", nargs="?", default=None,
                   help="catalog entry name (default: all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--tolerance", type=float, default=None,
                   help="pass when |computed - expected| <= TOLERANCE (default: "
                        "within the error estimate plus the expected value's "
                        "rounding bound, and the estimate within "
                        "|expected| 10^-digits)")


def _g_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=_fraction, required=True)


def _constants_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=("g0", "fm-R", "fm-phi"))


def _probe_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n-max", type=_positive_int, default=64)
    p.add_argument("--tail", type=_positive_int, default=2 ** 20,
                   help="sum each remainder to the largest 2^p - 1 <= TAIL, "
                        "a whole Thue-Morse block (default 2^20)")


def _scan_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lo", type=_fraction, default=Fraction(0))
    p.add_argument("--hi", type=_fraction, default=Fraction(10))
    p.add_argument("--steps", type=_positive_int, default=41)


def _reduce_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("expression", nargs="?", default=None)
    p.add_argument("--family", choices=("i", "ii", "iii", "iv"), default=None)
    p.add_argument("--a", type=_fraction, default=None)
    p.add_argument("--b", type=_fraction, default=None)
    p.add_argument("--start", type=int, choices=(0, 1), default=1)
    p.add_argument("--depth", type=int, default=symbolic.DEFAULT_REDUCE_DEPTH)


# name -> (help, adds the subcommand's own arguments, runs it), in the
# order the top-level help lists them
_SUBCOMMANDS = {
    "seq": ("print sequence values", _seq_arguments, cmd_seq),
    "eval": ("evaluate one infinite product", _eval_arguments, cmd_eval),
    "verify": ("verify catalog identities", _verify_arguments, cmd_verify),
    "catalog": ("dump the identity catalog", lambda p: None, cmd_catalog),
    "g": ("evaluate the function g", _g_arguments, cmd_g),
    "constants": ("Flajolet-Martin constants", _constants_arguments, cmd_constants),
    "probe": ("remainder sign probe for the difference operator",
              _probe_arguments, cmd_probe),
    "scan": ("monotonicity scan of f(x/2, (x+1)/2)", _scan_arguments, cmd_scan),
    "reduce": ("reduce a product to an exact constant", _reduce_arguments, cmd_reduce),
}


def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The root parser with every subcommand registered by name and help,
    and arguments added to ``command`` only, or to all of them when
    ``command`` is None.  Every name stays registered because argparse's
    top-level usage, printed on an unrecognized argument, lists them all."""
    precision = _default_precision()
    parser = argparse.ArgumentParser(
        prog="digitprod",
        description="Evaluate and verify infinite products with Thue-Morse "
                    "and Rudin-Shapiro digit-sequence exponents.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(p)
            _add_common(p, precision)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand with all of its arguments.

    ``main`` builds only the arguments of the subcommand it is given (see
    ``main``); this function still returns the full parser, and ``main``'s
    help and usage text are the same as this parser's."""
    return _parser(None)


def main(argv: Optional[list] = None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None) and
    return its exit code.

    When the first argument names a subcommand, only that subcommand's
    arguments are built (``_parser(name)``).  Otherwise (``-h``, no
    arguments, an unknown name, an option before the subcommand) it builds
    the full parser, as ``build_parser()`` does.  Help and usage text are
    the same on either route."""
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        parser = _parser(command)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][2](args)
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
