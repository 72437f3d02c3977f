"""The public surface that stays fixed: package exports and CLI flags.

Deleting a public name or a subcommand option fails here, so a change
that removes one has to say so by editing the expected sets.
"""

import argparse

import digitprod
from digitprod.cli import _parser, build_parser

EXPORTS = {
    "AffineFactor", "CapabilityError", "ClosedForm", "ConsistencyError",
    "ConvergenceClass", "ConvergenceTag", "DEFAULT_PRECISION",
    "DigitprodError", "EvalOptions", "EvalResult", "EvaluationError",
    "ExponentKind", "FactoredRational", "GExpression", "Identity",
    "InputError", "ParseError", "ProductSpec", "ReduceResult",
    "VerifyReport", "block_parity", "catalog", "catalog_entry", "classify",
    "constant", "dyadic_split", "eval_closed_form", "eval_plain",
    "eval_pm_rs", "eval_pm_thue", "eval_product", "eval_zero_one_rs",
    "eval_zero_one_thue", "exponent", "expr_from_spec", "f_value", "family",
    "flajolet_martin", "g_value", "gamma", "log_term", "monotonicity_scan",
    "pole_check", "prefix_signed_sum", "reduce", "remainder_sign_probe",
    "rs_split", "rudin_shapiro", "thue_morse", "verify", "verify_all",
}

COMMON = {"-h", "--help", "--digits", "--split-levels", "--terms",
          "--rs-split-levels", "--format", "--output"}

OPTIONS = {
    "seq": COMMON | {"--count", "--word", "--base"},
    "eval": COMMON | {"--kind", "--start"},
    "verify": COMMON | {"--all", "--tolerance"},
    "catalog": COMMON,
    "g": COMMON | {"--x"},
    "constants": COMMON,
    "probe": COMMON | {"--a", "--b", "--k", "--n-max", "--tail"},
    "scan": COMMON | {"--lo", "--hi", "--steps"},
    "reduce": COMMON | {"--family", "--a", "--b", "--start", "--depth"},
}


def test_package_exports():
    assert len(digitprod.__all__) == len(set(digitprod.__all__))
    assert set(digitprod.__all__) == EXPORTS
    for name in digitprod.__all__:
        assert hasattr(digitprod, name), name


def options(parser):
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for action in p._actions for s in action.option_strings}
            for name, p in sub.choices.items()}


def test_subcommand_options():
    assert options(build_parser()) == OPTIONS
    # the parser main builds for one subcommand gives it the same options
    for name in OPTIONS:
        assert options(_parser(name))[name] == OPTIONS[name]
