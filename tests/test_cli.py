import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from conftest import forbid_engine_and_oracles, record_oracle_calls

import digitprod
from digitprod import evaluator, symbolic
from digitprod.cli import _printed, main
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
    # the default path: the scaled tail engine, tail start M = 64, no split
    code, out, _ = run(capsys, "eval", "(4n+1)/(4n+3)", "--kind", "pm-t",
                       "--digits", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0.50000000000000000000"
    assert payload["terms_used"] == 64
    assert payload["split_levels"] == 0


@pytest.mark.parametrize("argv", [
    ("g", "--x", "128"),
    ("eval", "(n+513)/(n+514)", "--kind", "pm-v"),
    ("eval", "(n+600)^2/((n+599)(n+601))", "--kind", "v"),
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
    # g(10^6) has max|a| = (10^6 + 1)/2 > 2^16: refused before the head,
    # by default past the engine's cap and with a flag by the oracle itself
    def no_work(*args):
        raise AssertionError("started the split oracle")
    monkeypatch.setattr(evaluator, "_tm_log_sum", no_work)
    code, out, err = run(capsys, "g", "--x", "1000000")
    assert code == 3 and out == "" and str(evaluator.MAX_TM_OFFSET) in err
    code, out, err = run(capsys, "g", "--x", "1000000", "--split-levels", "8")
    assert code == 3 and out == "" and str(evaluator.MAX_TM_OFFSET) in err


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
    # estimate + half a unit in the last printed digit, rounded up to three
    # digits: at least the bound and less than one third-digit unit above it
    digits = 20
    text, shown = _printed(mpmath.mpf(value), mpmath.mpf(estimate), digits)
    half = Fraction(10) ** (Decimal(text).adjusted() - digits + 1) / 2
    man, exp = mpmath.mpf(estimate).man_exp
    bound = man * Fraction(2) ** exp + half
    printed = Fraction(Decimal(shown))
    assert bound <= printed
    assert printed - bound < Fraction(10) ** (Decimal(shown).adjusted() - 2)


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
    code, out, _ = run(capsys, "verify", "WR", "--digits", "30",
                       "--split-levels", "6", "--terms", "1024")
    assert code == 0
    assert "WR" in out and "PASS" in out


def test_verify_t5a_expected_constant(capsys):
    code, out, _ = run(capsys, "verify", "T5a", "--digits", "30",
                       "--terms", "2048", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["rows"][0]["expected"].startswith("0.92044178783559098")


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 3 and "unknown catalog entry" in err


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


def test_constants_phi_beyond_stored_euler_gamma_exits_three(capsys):
    code, out, err = run(capsys, "constants", "fm-phi", "--digits", "150")
    assert code == 3 and out == ""
    assert "euler_gamma" in err


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
