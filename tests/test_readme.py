"""The README's examples state true results."""

from fractions import Fraction
from pathlib import Path

import mpmath

from digitprod import (ExponentKind, FactoredRational, ProductSpec, expr_from_spec,
                       g_value, reduce)
from digitprod.cli import main

README = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())


def stated(text):
    """Whether the README says ``text``, up to spacing and line breaks."""
    return " ".join(text.split()) in README


WR = ("(2n+1)/(2n+2)", "--kind", "pm-t", "--start", "0")


def test_readme_examples_state_true_results(capsys):
    # (README text that states the result, command line, the start of its
    # output); each text is looked up in the README, so that a reworded
    # claim fails here until this test states it again
    examples = [
        ("digitprod seq t --count 12            # 0 1 1 0 1 0 0 1 1 0 0 1",
         ("seq", "t", "--count", "12"), "0 1 1 0 1 0 0 1 1 0 0 1"),
        ('--start 0 --digits 30\n# -> 0.707106781186547524400844362105',
         ("eval", *WR, "--digits", "30"), "0.707106781186547524400844362105"),
        ("digitprod reduce --family i --a 1 --b 2           # -> 3/2",
         ("reduce", "--family", "i", "--a", "1", "--b", "2"), "3/2"),
        ("digitprod reduce --family ii --a=-1/2             # -> 3",
         ("reduce", "--family", "ii", "--a=-1/2"), "3"),
        ('digitprod reduce "(2n+1)/(2n+2)" --start 0        # -> (1/2)*2^(1/2)',
         ("reduce", "(2n+1)/(2n+2)", "--start", "0"), "(1/2)*2^(1/2)"),
        ("`--split-levels 0 --terms 64` prints `0.7` under an\nestimate of 0.0612",
         ("eval", *WR, "--split-levels", "0", "--terms", "64"),
         "0.7\nerror estimate 0.0612; terms 64, split levels 0"),
    ]
    for claim, argv, expected in examples:
        assert stated(claim), claim
        assert main(list(argv)) == 0, argv
        assert capsys.readouterr().out.startswith(expected + "\n"), argv

    assert stated("digitprod verify --all # verifies all 18 entries")
    assert main(["verify", "--all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 18

    assert stated("`--split-levels 8 --terms 4096 --digits 120` it prints 41 digits "
                  "under an estimate of 9.99e-42")
    assert main(["eval", *WR, "--split-levels", "8", "--terms", "4096",
                 "--digits", "120"]) == 0
    value, estimate = capsys.readouterr().out.splitlines()
    assert len(value.removeprefix("0.")) == 41
    assert estimate.startswith("error estimate 9.99e-42;")

    # "Library use"
    assert stated("print(g_value(Fraction(1, 2)).value) # 1.000...")
    g = g_value(Fraction(1, 2))
    assert abs(g.value - 1) <= g.error_estimate < mpmath.mpf(10) ** -50
    assert stated("closed_form.render()) # (1/2)*2^(1/2)")
    spec = ProductSpec(FactoredRational.parse("(2n+1)/(2n+2)"), ExponentKind.PM_THUE, 0)
    assert reduce(expr_from_spec(spec)).closed_form.render() == "(1/2)*2^(1/2)"
