import csv
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fm_phi_reference, forbid_engine_and_oracles, record_oracle_calls

import digitprod
from digitprod import CapabilityError, cli, evaluator, numerics, symbolic
from digitprod.cli import _printed, build_parser, main
from digitprod.evaluator import MAX_RS_TERMS, MAX_TM_TERMS
from digitprod.symbolic import MAX_REDUCE_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

def test_seq_thue_morse(capsys):
    code, out, _ = run(capsys, "seq", "t", "--count", "12")
    assert code == 0
    assert out == "0 1 1 0 1 0 0 1 1 0 0 1"


def test_seq_rudin_shapiro(capsys):
    code, out, _ = run(capsys, "seq", "v", "--count", "4")
    assert code == 0 and out == "0 0 0 1"


def test_seq_single(capsys):
    code, out, _ = run(capsys, "seq", "t", "--count", "1")
    assert code == 0 and out == "0"


def test_seq_pm_and_block(capsys):
    code, out, _ = run(capsys, "seq", "pm-t", "--count", "4")
    assert code == 0 and out == "1 -1 -1 1"
    code, out, _ = run(capsys, "seq", "block", "--word", "11", "--count", "8")
    assert code == 0 and out == "0 0 0 1 0 0 1 0"


def test_seq_block_requires_word(capsys):
    code, _, err = run(capsys, "seq", "block", "--count", "4")
    assert code == 3 and "word" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_woods_robbins_thirty_digits(capsys):
    code, out, _ = run(capsys, "eval", "(2n+1)/(2n+2)", "--kind", "pm-t",
                       "--start", "0", "--digits", "30")
    assert code == 0
    assert out.splitlines()[0] == "0.707106781186547524400844362105"


def test_eval_divergent_exits_three(capsys):
    code, _, err = run(capsys, "eval", "(2n+1)/(3n+2)", "--kind", "pm-t")
    assert code == 3
    assert "leading coefficient" in err


def test_eval_zero_one_needs_full_convergence(capsys):
    code, _, err = run(capsys, "eval", "(2n+1)/(2n+2)", "--kind", "t")
    assert code == 3
    assert "root sums" in err


def test_eval_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "eval", "(2x+1)/(2n+2)")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("argv, code", [
    (("eval", "(2n+1)/(2n+2)", "--digits", "20"), 0),
    (("eval", "(2n+1"), 2),
    (("eval", "(n+1)/(n+2)", "--kind", "plain"), 3),
])
def test_module_entry_point_exit_codes(argv, code):
    # a fresh interpreter runs ``sys.exit(main())``, as the README documents
    src = os.path.dirname(os.path.dirname(digitprod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "digitprod.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    assert bool(done.stdout) == (code == 0)


def test_eval_accepts_trailing_whitespace_and_names_a_cut_expression(capsys):
    code, out, _ = run(capsys, "eval", "(2n+1)/(2n+2) ", "--digits", "20")
    assert code == 0 and out.startswith("0.70710678118654752440")
    code, out, err = run(capsys, "eval", "(n+1)/")
    assert code == 2 and out == ""
    assert err == "parse error: unexpected end of expression (at position 6)\n"


def test_eval_zero_denominator_exits_three(capsys):
    code, out, err = run(capsys, "eval", "(n+1)/0")
    assert code == 3 and out == ""
    assert err == "error: scale contribution must be positive, got 0\n"


def test_eval_powered_parenthesized_denominator_parses(capsys):
    # refused for convergence, as "(n+1)/9" is, not for its syntax
    code, _, err = run(capsys, "eval", "(n+1)/(3)^2", "--kind", "plain")
    assert code == 3 and "full convergence" in err


def test_eval_json_format(capsys):
    # fixing the split levels and terms selects the split oracle
    code, out, _ = run(capsys, "eval", "(4n+1)/(4n+3)", "--kind", "pm-t",
                       "--digits", "20", "--split-levels", "8",
                       "--terms", "4096", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"].startswith("0.50000000000000000000")
    assert payload["terms_used"] == 4096
    assert payload["split_levels"] == 8


def test_eval_json_format_engine(capsys):
    # the default path: the scaled tail engine, tail start M = 32, no split
    code, out, _ = run(capsys, "eval", "(4n+1)/(4n+3)", "--kind", "pm-t",
                       "--digits", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0.50000000000000000000"
    assert payload["terms_used"] == 32
    assert payload["split_levels"] == 0


@pytest.mark.parametrize("argv", [
    ("g", "--x", "128"),
    ("eval", "(n+513)/(n+514)", "--kind", "pm-v"),
    ("eval", "(n+600)^2/((n+599)(n+601))", "--kind", "v"),
    # |a| = 129/2 > 64, though max|a - 1/2| = 65 would fit a tail start of 512
    ("eval", "(n-129/2)/(n-257/4)"),
])
def test_offsets_past_the_engine_cap_exit_three_before_any_work(
        capsys, monkeypatch, argv):
    forbid_engine_and_oracles(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "--terms" in err


@pytest.mark.parametrize("argv", [
    ("g", "--x", "10000"),
    ("eval", "(n+1000)/(n+1001)", "--kind", "pm-t"),
])
def test_large_offsets_take_the_split_oracle(capsys, monkeypatch, argv):
    # the engine's table would need a tail start of 2^13 or more: without
    # an oracle flag that is refused before any work, and --split-levels
    # reaches the split oracle through the module attribute
    forbid_engine_and_oracles(monkeypatch)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and out == "" and "--split-levels" in err
    monkeypatch.undo()
    calls = record_oracle_calls(monkeypatch, "eval_pm_thue")
    code, out, _ = run(capsys, *argv, "--split-levels", "8", "--format", "json")
    assert code == 0 and calls == ["eval_pm_thue"]
    payload = json.loads(out)
    assert (payload["terms_used"], payload["split_levels"]) == (4096, 8)


def test_offsets_above_the_split_oracle_cap_exit_three(capsys, monkeypatch):
    # offsets above 2^16 are refused before any split, head or tail work:
    # g(10^6), max|a| = (10^6 + 1)/2, by default past the engine's cap and
    # with a flag by the split oracle itself; (n+65537)/(n+65538) the same
    # way on Rudin-Shapiro, with a flag by the direct-sum oracle
    def no_work(*args):
        raise AssertionError("started an oracle")
    for name in ("dyadic_split", "_tm_log_sum", "rs_split_rational", "_rs_level_log_terms"):
        monkeypatch.setattr(evaluator, name, no_work)
    rs = ("eval", "(n+65537)/(n+65538)", "--kind", "pm-v")
    for argv in [("g", "--x", "1000000"), ("g", "--x", "1000000", "--split-levels", "8"),
                 rs, (*rs, "--terms", "16"), (*rs, "--rs-split-levels", "0")]:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and str(evaluator.MAX_ORACLE_OFFSET) in err, argv
    monkeypatch.undo()
    # an offset at the cap is taken
    spec = evaluator.ProductSpec(digitprod.FactoredRational.parse("(n+65535)/(n+65536)"),
                                 digitprod.ExponentKind.PM_RS, 1)
    res = evaluator.eval_pm_rs(spec, evaluator.EvalOptions(precision=5, terms=16,
                                                           rs_split_levels=0))
    assert res.terms_used == 16


NEGATIVE = "(n-3/2)^2/((n-5/4)(n-7/4))"


@pytest.mark.parametrize("argv", [
    # negative offsets, some n + a_i < 0 in the product range
    *[("eval", NEGATIVE, "--kind", kind, *flags)
      for kind, flag_sets in [
          ("pm-t", [(), ("--terms", "4096"), ("--split-levels", "3")]),
          ("t", [(), ("--terms", "4096")]),
          ("pm-v", [(), ("--terms", "4096"), ("--rs-split-levels", "3")]),
          ("v", [(), ("--terms", "4096"), ("--rs-split-levels", "3")]),
          ("plain", [(), ("--start", "1")])]
      for flags in flag_sets],
    *[("eval", "(n-1/4)(n-3/4)/(n-1/2)^2", "--kind", kind, "--start", "1")
      for kind in ["t", "v", "plain"]],
    ("eval", "(n-3/2)/(n+1/2)", "--kind", "pm-v", "--terms", "4096"),
    ("eval", "(n-3/2)/(n+1/2)", "--kind", "pm-t"),
    # each side of the Thue-Morse cap, |a_i| = 64 and 65
    ("eval", "(n+63)/(n+64)", "--kind", "pm-t"),
    ("eval", "(n+64)/(n+65)", "--kind", "pm-t"),
    ("eval", "(n+64)/(n+65)", "--kind", "pm-t", "--terms", "4096"),
    ("eval", "(n+63)^2/((n+62)(n+64))", "--kind", "t"),
    ("eval", "(n+64)^2/((n+63)(n+65))", "--kind", "t"),
    ("eval", "(n+64)^2/((n+63)(n+65))", "--kind", "t", "--split-levels", "8"),
    ("g", "--x", "127"), ("g", "--x", "128"), ("g", "--x", "128", "--terms", "4096"),
    ("g", "--x", "1000000", "--split-levels", "8"),
    # each side of the Rudin-Shapiro cap, |a_i| = 512 and 513
    ("eval", "(n+511)/(n+512)", "--kind", "pm-v"),
    ("eval", "(n+512)/(n+513)", "--kind", "pm-v"),
    ("eval", "(n+512)/(n+513)", "--kind", "pm-v", "--terms", "4096"),
    ("eval", "(n+511)^2/((n+510)(n+512))", "--kind", "v"),
    ("eval", "(n+512)^2/((n+511)(n+513))", "--kind", "v"),
    ("eval", "(n+512)^2/((n+511)(n+513))", "--kind", "v", "--rs-split-levels", "2"),
    ("eval", "(n+512)^2/((n+511)(n+513))", "--kind", "plain"),
    ("eval", "(2x+1)/(2n+2)"),
])
def test_no_input_ends_in_a_traceback(capsys, argv):
    code, _, _ = run(capsys, *argv, "--digits", "20")
    assert code in (0, 2, 3)


@pytest.mark.parametrize("value, estimate", [
    ("0.5", "1e-70"), ("0.5", "0"), ("0.7071", "5.2449e-5"),
    ("1.25", "1.7851"), ("3.0", "9.996e-5"), ("0.5", "0.3525")])
def test_printed_estimate_covers_the_printed_value(value, estimate):
    # the value to the most digits, at most 20, whose last one the estimate
    # supports: the estimate is at most half a unit in it, and one more
    # digit would not be supported; the printed estimate, estimate + half a
    # unit in the last printed digit rounded up to three digits, is at
    # least the bound and less than one third-digit unit above it; with no
    # digit supported, CapabilityError (exit 3)
    man, exp = mpmath.mpf(estimate).man_exp
    error = man * Fraction(2) ** exp
    if error > Fraction(10) ** Decimal(value).adjusted() / 2:
        with pytest.raises(CapabilityError, match="supports no digit"):
            _printed(mpmath.mpf(value), mpmath.mpf(estimate), 20)
        return
    text, shown = _printed(mpmath.mpf(value), mpmath.mpf(estimate), 20)
    digits = len(Decimal(text).as_tuple().digits)
    half = Fraction(10) ** (Decimal(text).adjusted() - digits + 1) / 2
    assert error <= half and (digits == 20 or error > half / 10)
    bound = error + half
    printed = Fraction(Decimal(shown))
    assert bound <= printed
    assert printed - bound < Fraction(10) ** (Decimal(shown).adjusted() - 2)


def _walked_down(value, estimate, digits):
    """``_printed`` by its definition: the first count, from ``digits`` down
    one at a time, whose last digit the estimate supports, and the estimate
    plus half a unit in that digit, rounded up to three significant digits
    exactly; None when no count is supported."""
    man, exp = estimate.man_exp
    error = man * Fraction(2) ** exp
    for n in range(digits, 0, -1):
        text = mpmath.nstr(value, n, strip_zeros=False)
        last = Decimal(text).adjusted() - n + 1
        if error <= Fraction(10) ** last / 2:
            break
    else:
        return None
    bound = error + Fraction(10) ** last / 2
    k = Decimal(bound.numerator).adjusted() - Decimal(bound.denominator).adjusted()
    if Fraction(10) ** k > bound:
        k -= 1  # now 10^k <= bound < 10^(k+1)
    units = -(-bound // Fraction(10) ** (k - 2))
    shown = Decimal(units).scaleb(k - 2)
    return text, mpmath.nstr(mpmath.mpf(str(shown)), 3, strip_zeros=False)


def _check_printed(value, estimate, digits):
    expected = _walked_down(value, estimate, digits)
    if expected is None:
        with pytest.raises(CapabilityError, match="supports no digit"):
            _printed(value, estimate, digits)
    else:
        assert _printed(value, estimate, digits) == expected, (value, estimate, digits)


@st.composite
def _printed_cases(draw):
    """(value, estimate, digits): a random binary value, or one just below a
    power of ten; an estimate that is an exact power of two or a random one,
    from above the value to far below it."""
    sign = draw(st.sampled_from([1, -1]))
    with mpmath.workprec(600):
        if draw(st.booleans()):
            value = mpmath.mpf(draw(st.integers(1, 2 ** 200))) * mpmath.mpf(2) ** draw(
                st.integers(-900, 300))
        else:
            # 10^k (1 - f 10^-j), f in (0, 1]: near the text 10^k at about j digits
            k, j = draw(st.integers(-40, 40)), draw(st.integers(0, 120))
            f = Fraction(draw(st.integers(1, 10 ** 6)), 10 ** 6)
            exact = Fraction(10) ** k * (1 - f * Fraction(10) ** -j)
            value = mpmath.mpf(exact.numerator) / exact.denominator
        value *= sign
        top = mpmath.mag(value) - draw(st.integers(-8, 420))
        if draw(st.booleans()):
            estimate = mpmath.mpf(2) ** top
        else:
            man = draw(st.integers(1, 2 ** 64))
            estimate = mpmath.mpf(man) * mpmath.mpf(2) ** (top - man.bit_length())
    return value, estimate, draw(st.integers(1, 130))


def test_printed_digit_count_matches_the_one_at_a_time_search():
    # values with carries (9.99..., 1 - 10^-30), tiny and large magnitudes
    # and an exact 0.5; estimates from 0 to above the value, at and around
    # half a unit in a digit; every count the CLI takes, up to 500
    with mpmath.workdps(530):
        values = [1 / mpmath.sqrt(2), mpmath.pi * mpmath.mpf(10) ** -300,
                  mpmath.pi * 10 ** 5, 10 - mpmath.mpf(10) ** -40,
                  1 - mpmath.mpf(10) ** -30, mpmath.mpf(1) / 2]
        estimates = [mpmath.mpf(0)] + [
            c * mpmath.mpf(10) ** -k for k in (0, 1, 3, 10, 59, 60, 61, 200, 499, 500, 501)
            for c in (1, 5, mpmath.mpf("5.0001"))]
    for value in values:
        for estimate in estimates:
            estimate = estimate * abs(value) if estimate else estimate
            for digits in (1, 20, 60, 500):
                _check_printed(value, estimate, digits)


@settings(max_examples=400, deadline=None)
@given(_printed_cases())
def test_printed_matches_the_walk_down_from_digits(case):
    _check_printed(*case)


def test_printed_guess_needs_no_walk_up():
    # the numbers _printed's docstring cites for why no count above its
    # first guess is ever supported
    with mpmath.workdps(60):
        ln2, ln10 = mpmath.log(2), mpmath.log(10)
        # nstr's half-up rounding from digits truncated to within 10^-(n+5)
        # lets E exceed log10|v| by t < 2.2 10^-(n+1) for n >= 2 (t falls
        # with n), and at most 0.03 at n = 1
        def t(n):
            return -mpmath.log10((1 - mpmath.mpf(10) ** -n / 2) * (1 - mpmath.mpf(10) ** -(n + 5)))
        assert t(1) < 0.03 and t(2) * 10 ** 3 < 2.2 and 2.2 / mpmath.log10(2) < 7.4
        # no 1 <= N < 2519 has N log2 10 within 7.4 10^-(N+2) above an integer
        beta = ln10 / ln2
        assert min(mpmath.frac(N * beta) * mpmath.mpf(10) ** (N + 2)
                   for N in range(1, 2519)) > 7.4

        # for N >= 2519, Laurent's lower bound on log(N ln 10 - k ln 2), with
        # b' < (1 + log2(10) / ln 10) N < 2.45 N, lies above the log of
        # 7.4 10^-(N+2) ln 2; the gap falls at rate ln 10 or more, since
        # 50.4 (ln(2.45 N) + 0.38) / N, falling in N, is below 1 at 2519
        def gap(N):
            laurent = -25.2 * ln10 * max(mpmath.log(2.45 * N) + 0.38, 10) ** 2
            return mpmath.log(7.4 * ln2) - (N + 2) * ln10 - laurent
        assert 1 + beta / ln10 < 2.45
        assert gap(2518) > 0 > gap(2519)
        assert 50.4 * (mpmath.log(2.45 * 2519) + 0.38) / 2519 < 1


def test_eval_deterministic_output(capsys):
    args = ("eval", "(2n+1)/(2n+2)", "--kind", "pm-t", "--digits", "25",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# verify / catalog
# ---------------------------------------------------------------------------

def test_verify_single_entry(capsys):
    # 6 levels and 1024 terms leave a tail of about 3e-27, under a bound of
    # 4.5e-27: 25 digits verify and 30 cannot
    argv = ("verify", "WR", "--split-levels", "6", "--terms", "1024")
    code, out, _ = run(capsys, *argv, "--digits", "25")
    assert code == 0
    assert "WR" in out and "PASS" in out
    code, out, _ = run(capsys, *argv, "--digits", "30")
    assert code == 3 and "FAIL" in out


def test_verify_t5a_expected_constant(capsys):
    code, out, _ = run(capsys, "verify", "T5a", "--digits", "30",
                       "--terms", "2048", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["rows"][0]["expected"].startswith("0.92044178783559098")


def test_verify_tolerance_replaces_the_pass_rule(capsys, monkeypatch):
    # at 60 digits WR is off by 9.06e-72: within 1e-50, not within 1e-80
    code, out, _ = run(capsys, "verify", "WR", "--tolerance", "1e-50")
    assert code == 0 and "PASS" in out and "abs_error 9.06e-72" in out
    code, out, _ = run(capsys, "verify", "WR", "--tolerance", "1e-80")
    assert code == 3 and "FAIL" in out and "symbolic exact" in out
    # the exact reduction still gates a pm-t entry under any tolerance
    monkeypatch.setattr(symbolic, "reduce", lambda expr, depth=6: symbolic.ReduceResult(
        "irreducible", depth))
    code, out, _ = run(capsys, "verify", "WR", "--tolerance", "1")
    assert code == 3 and "FAIL" in out and "symbolic mismatch" in out


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 3 and "unknown catalog entry" in err


@pytest.fixture
def cleared_gamma_memos():
    numerics.gamma.cache_clear()
    numerics._bounded_gamma.cache_clear()
    yield
    numerics.gamma.cache_clear()
    numerics._bounded_gamma.cache_clear()


@pytest.mark.parametrize("argv", [("verify", "T5c"), ("verify", "T5c", "--digits", "500"),
                                  ("eval", "(8n+1)(8n+7)/((8n+3)(8n+5))", "--kind", "t")])
def test_t5c_reflects_its_eighths_and_takes_no_stirling_series(
        capsys, monkeypatch, cleared_gamma_memos, argv):
    # Gamma(3/8) Gamma(5/8) / (Gamma(1/8) Gamma(7/8)) = sin(pi/8) / sin(3 pi/8)
    def refuse(*args):
        raise AssertionError("Stirling series taken")

    monkeypatch.setattr(numerics, "_stirling_gamma", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert argv[0] == "eval" or "PASS" in out


def test_plain_eighths_past_the_cap_take_stirling_unshifted(capsys, monkeypatch,
                                                            cleared_gamma_memos):
    # offsets near 10^6 + 1/8 are far past the shift cap: each Gamma takes
    # Stirling's series with no shift, and no million-factor rising product
    taken = []
    stirling = numerics._stirling_gamma
    monkeypatch.setattr(numerics, "_stirling_gamma", lambda x, shift, precision: (
        taken.append((x, shift)) or stirling(x, shift, precision)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "(8n+8000001)(8n+8000007)/((8n+8000003)(8n+8000005))",
                       "--kind", "plain", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert sorted(taken) == [(10 ** 6 + Fraction(k, 8), 0) for k in (1, 3, 5, 7)]
    value = json.loads(out)["value"]
    assert len(value) == len("0.") + 60
    with mpmath.workdps(90):
        a = mpmath.mpf(10 ** 6)
        exact = mpmath.exp(sum(s * mpmath.loggamma(a + mpmath.mpf(k) / 8)
                               for k, s in ((3, 1), (5, 1), (1, -1), (7, -1))))
        assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(10) ** -60


def test_catalog_json_schema(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 18
    wr = rows[0]
    assert set(wr) == {"name", "rational", "kind", "start", "closed_form",
                       "closed_form_text", "provenance"}
    assert wr["rational"] == "(2n+1)/(2(n+1))"
    assert wr["closed_form"] == {"type": "pow",
                                 "base": {"type": "rational", "value": "2"},
                                 "exponent": "-1/2"}


# ---------------------------------------------------------------------------
# g / constants / probe / scan / reduce
# ---------------------------------------------------------------------------

def test_g_command(capsys):
    code, out, _ = run(capsys, "g", "--x", "0.5", "--digits", "20",
                       "--split-levels", "6", "--terms", "1024")
    assert code == 0
    assert out.startswith("g(1/2) = 1.0000000000000000000")


def test_constants_command(capsys):
    code, out, _ = run(capsys, "constants", "fm-R", "--digits", "20",
                       "--split-levels", "6", "--terms", "1024")
    assert code == 0
    assert "cross-check R*g(0) = 1.5" in out


def test_constants_phi(capsys):
    code, out, _ = run(capsys, "constants", "fm-phi", "--digits", "20",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"].startswith("0.7735162909")


@pytest.mark.parametrize("caller_dps", [3, 15, 300])
def test_constants_cross_check_is_computed_at_working_precision(capsys, caller_dps):
    # the printed R*g(0) is the product of the two 60-digit values, never a
    # product formed at the caller's mpmath precision
    argv = ["constants", "fm-phi", "--split-levels", "2", "--terms", "64"]
    fm = digitprod.flajolet_martin(evaluator.EvalOptions(split_levels=2, terms=64))
    with mpmath.workdps(80):
        expected = mpmath.nstr(fm.ratio.value * fm.g0.value, 25, strip_zeros=False)
    with mpmath.workdps(caller_dps):
        code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["cross_check_R_times_g0"] == expected
    assert expected == "1.500000174614509833656485"


def test_constants_phi_beyond_100_digits(capsys):
    # Euler's gamma comes from the backend, so 150 digits print, and each
    # is within half a unit of the reference built from independent gamma
    # and R
    code, out, err = run(capsys, "constants", "fm-phi", "--digits", "150",
                         "--format", "json")
    assert code == 0 and err == ""
    value = json.loads(out)["value"]
    assert len(value) == len("0.") + 150
    with mpmath.workdps(170):
        assert abs(mpmath.mpf(value) - fm_phi_reference()) <= mpmath.mpf(10) ** -150 / 2


def test_probe_command(capsys):
    code, out, _ = run(capsys, "probe", "--a", "2", "--b", "1", "--k", "1",
                       "--n-max", "8", "--tail", "65536")
    assert code == 0
    assert "all match: True" in out


def test_probe_grid_above_cap_exits_three(capsys, monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("the probe allocated its grid")
    monkeypatch.setattr("numpy.arange", no_arange)
    code, out, err = run(capsys, "probe", "--a", "2", "--b", "1", "--k", "60")
    assert code == 3 and out == "" and "grid points" in err


@pytest.mark.parametrize("a, k", [("3", "2"), ("3", "0"), ("2", "0")])
def test_probe_matches_every_row_to_256(capsys, a, k):
    # log1p terms do not cancel in float64 at large x (k = 2), and the
    # sums end at 2^20 - 1, so no Thue-Morse pair is split (k = 0)
    code, out, _ = run(capsys, "probe", "--a", a, "--b", "1", "--k", k,
                       "--n-max", "256")
    assert code == 0 and "MISMATCH" not in out
    assert out.endswith("all match: True")


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--lo", "0", "--hi", "2", "--steps", "5",
                       "--digits", "25", "--split-levels", "6", "--terms", "512")
    assert code == 0
    assert "strictly decreasing" in out


def test_scan_lists_unresolved_pairs(capsys):
    # h(0) and h(10^-70) differ by far less than their error estimates
    argv = ("scan", "--lo", "0", "--hi", "1/1" + "0" * 70, "--steps", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "non-decreasing pairs: (0, 1/1" + "0" * 70 + ")"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["strictly_decreasing"] is False


def test_reduce_family(capsys):
    code, out, _ = run(capsys, "reduce", "--family", "i", "--a", "1", "--b", "2")
    assert code == 0 and out == "3/2"


@pytest.mark.parametrize("family_id", ["i", "ii", "iii", "iv"])
def test_reduce_family_without_a_exits_three(capsys, family_id):
    code, out, err = run(capsys, "reduce", "--family", family_id)
    assert code == 3 and out == "" and "needs a" in err


@pytest.mark.parametrize("argv, message", [
    (("reduce",), "needs --family or an expression"),
    (("reduce", "(n-1/2)/(n+1/2)", "--start", "0"), "R(0) = -1 is not positive"),
    (("reduce", "--family", "ii", "--a", "1", "--b", "2"), "takes only a"),
    (("reduce", "--family", "i", "--a", "1"), "needs both a and b"),
])
def test_reduce_bad_input_exits_three(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and message in err


@pytest.mark.parametrize("argv, message", [
    (("reduce", "(n-1)/(n-2)"), "factor vanishes at n = 1"),  # a zero, then a pole
    (("reduce", "--family=i", "--a=-3/2", "--b=0"), "R(1) = -1 is not positive"),
])
def test_reduce_refuses_a_product_eval_refuses(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and message in err
    if argv[1].startswith("("):
        assert run(capsys, "eval", argv[1], "--start", "1")[0] == 3


def test_reduce_negative_fractional_parameter_with_equals(capsys):
    # "--a -1/2" reads -1/2 as an option (argparse exits 2); "--a=-1/2" does not
    code, out, _ = run(capsys, "reduce", "--family", "ii", "--a=-1/2")
    assert code == 0 and out == "3"


@pytest.mark.parametrize("argv", [("g", "--x", "abc"), ("seq", "t", "--count", "0")])
def test_argument_errors_exit_two(capsys, argv):
    # argparse reports the error and exits 2 from main
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("flag,level", [("--split-levels", "17"),
                                        ("--split-levels", "40"),
                                        ("--rs-split-levels", "13")])
def test_split_levels_above_cap_exit_three(capsys, flag, level):
    # rejected by EvalOptions before any split is built
    code, out, err = run(capsys, "eval", "(2n+1)/(2n+2)", flag, level,
                         "--terms", "16")
    assert code == 3 and out == "" and "split levels" in err


@pytest.mark.parametrize("kind,expression,terms", [
    ("pm-t", "(2n+1)/(2n+2)", MAX_TM_TERMS + 1),
    ("t", "(4n+1)(4n+4)/((4n+2)(4n+3))", MAX_TM_TERMS + 1),
    ("pm-v", "(2n+1)^2/((n+1)(4n+1))", MAX_RS_TERMS + 1),
    ("v", "4(2n+1)^3(2n+3)^3(n+2)/((4n+3)^4(n+1)^2(n+3))", MAX_RS_TERMS + 1)])
def test_terms_above_cap_exit_three(capsys, monkeypatch, kind, expression, terms):
    # rejected before a split, a tail table or a term array is built
    def no_work(*args, **kwargs):
        raise AssertionError("started the summation")
    for name in ("_tm_log_sum", "_tm_tail_table", "_eps_v_array",
                 "rs_split_rational", "eval_plain"):
        monkeypatch.setattr(evaluator, name, no_work)
    code, out, err = run(capsys, "eval", expression, "--kind", kind,
                         "--start", "1", "--terms", str(terms))
    assert code == 3 and out == "" and f"terms must be <= {terms - 1}" in err


def test_reduce_depth_above_cap_exits_three(capsys):
    code, out, err = run(capsys, "reduce", "(n+1/5)/(n+2/5)", "--depth",
                         str(MAX_REDUCE_DEPTH + 1))
    assert code == 3 and out == "" and "depth" in err


def test_reduce_depth_zero_and_negative(capsys):
    # depth 0 searches only the expression's own points, where WR is
    # irreducible; it reduces at depth 1; a negative depth exits 3 with the
    # message of a depth above the cap
    wr = ("reduce", "(2n+1)/(2n+2)", "--start", "0", "--depth")
    assert run(capsys, *wr, "0")[:2] == (0, "irreducible at depth 0")
    assert run(capsys, *wr, "1")[:2] == (0, "(1/2)*2^(1/2)")
    for depth in (-1, MAX_REDUCE_DEPTH + 1):
        code, out, err = run(capsys, *wr, str(depth))
        assert (code, out) == (3, "")
        assert err == f"error: reduce depth must be in 0..{MAX_REDUCE_DEPTH}, got {depth}\n"


def test_reduce_universe_above_cap_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(symbolic, "UNIVERSE_CAP", 100)
    code, out, err = run(capsys, "reduce", "(n+1/5)/(n+2/5)")
    assert code == 3 and out == ""
    assert "depth-4" in err and "100 points" in err


def test_reduce_expression(capsys):
    code, out, _ = run(capsys, "reduce", "(2n+1)/(2n+2)", "--start", "0")
    assert code == 0
    assert out == "(1/2)*2^(1/2)"  # the Woods-Robbins constant 2^(-1/2)


def test_reduce_single_radical(capsys):
    code, out, _ = run(capsys, "reduce", "(2n+2)/(2n+1)", "--start", "0")
    assert code == 0 and out == "2^(1/2)"


def test_reduce_irreducible(capsys):
    code, out, _ = run(capsys, "reduce", "(2n)/(2n+1)", "--start", "1",
                       "--depth", "3")
    assert code == 0
    assert out == "irreducible at depth 3"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "seq", "t", "--count", "4",
                       "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["values"] == [0, 1, 1, 0]


def test_unwritable_output_exits_two(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "result.json"
    code, out, err = run(capsys, "seq", "t", "--count", "4",
                         "--format", "json", "--output", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "C3b", "--digits", "25",
                       "--split-levels", "6", "--terms", "1024",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("name,")
    assert lines[1].startswith("C3b,")


@pytest.mark.parametrize("argv", [
    ["g", "--x", "3/4"],
    ["eval", "(2n+1)/(2n+2)", "--kind", "pm-t"],
])
def test_csv_format_prints_sorted_key_value_rows(capsys, argv):
    # a payload without rows prints one key,value row per key, sorted
    code, out, _ = run(capsys, *argv, "--digits", "25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    code, out, _ = run(capsys, *argv, "--digits", "25", "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        [key, str(payload[key])] for key in sorted(payload)]


def test_catalog_csv_closed_forms_are_the_json_ones(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    expected = json.loads(out)["rows"]
    code, out, _ = run(capsys, "catalog", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["name"] for row in rows] == [row["name"] for row in expected]
    for row, want in zip(rows, expected):
        assert json.loads(row["closed_form"]) == want["closed_form"], row["name"]


def test_constants_g0_is_g_at_zero(capsys):
    code, out, _ = run(capsys, "constants", "g0", "--digits", "30")
    assert code == 0
    code, g_out, _ = run(capsys, "g", "--x", "0", "--digits", "30", "--format", "json")
    assert code == 0
    assert out.splitlines()[0] == f"g0 = {json.loads(g_out)['value']}"


def test_env_precision(monkeypatch, capsys):
    monkeypatch.setenv("DIGITPROD_DIGITS", "25")
    code, out, _ = run(capsys, "eval", "(4n+1)/(4n+3)", "--kind", "pm-t",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["value"]) == 27  # "0." + 25 digits


def test_env_precision_invalid(monkeypatch, capsys):
    monkeypatch.setenv("DIGITPROD_DIGITS", "zero")
    code = main(["seq", "t", "--count", "2"])
    assert code == 2


def test_env_precision_zero_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("DIGITPROD_DIGITS", "0")
    code, out, err = run(capsys, "seq", "t", "--count", "2")
    assert code == 2 and out == "" and "DIGITPROD_DIGITS" in err


# ---------------------------------------------------------------------------
# routing: main builds only the named subcommand's arguments
# ---------------------------------------------------------------------------

def outcome(capsys, call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, which ends in
    argparse's SystemExit for help and usage errors."""
    with pytest.raises(SystemExit) as exc:
        call(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *[(name, "-h") for name in ("seq", "eval", "verify", "catalog", "g",
                                "constants", "probe", "scan", "reduce")],
    ("seq",), ("eval",), ("verify", "--tolerance", "abc"),
    ("catalog", "--format", "xml"), ("g",), ("constants", "nope"),
    ("probe", "--a", "1"), ("scan", "--steps", "0"), ("reduce", "--family", "v"),
    ("eval", "(2n+1)/(2n+2)", "--bogus"),
    ("-h",), (), ("nope",), ("--digits", "5", "eval", "x"),
])
def test_routed_help_and_usage_errors_match_the_full_parser(capsys, argv):
    routed = outcome(capsys, main, argv)
    full = outcome(capsys, lambda a: build_parser().parse_args(a), argv)
    assert routed == full
    assert routed[0] == (0 if "-h" in argv else 2)


def test_eval_builds_no_other_subcommands_arguments(capsys, monkeypatch):
    built = []
    for name, (help_text, add_arguments, handler) in cli._SUBCOMMANDS.items():
        def recorded(p, name=name, add_arguments=add_arguments):
            built.append(name)
            add_arguments(p)
        monkeypatch.setitem(cli._SUBCOMMANDS, name, (help_text, recorded, handler))
    code, out, _ = run(capsys, "eval", "(2n+1)/(2n+2)", "--digits", "20")
    assert code == 0 and out.startswith("0.70710678118654752440")
    assert built == ["eval"]
