"""``tools/census.py`` on the quarter grid: every reduced constant against
the engine."""

import importlib.util
import pathlib

from fractions import Fraction as F

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "census.py"
spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)


def test_quarter_grid_reductions_match_the_engine():
    # 12 offsets in (-1, 2]: C(12, 4) = 495 sets of four, each split into
    # two pairs in 3 ways; 16 of them reduce, each within depth 2
    count, reduced = census.census(4, 4)
    assert count == 1485
    assert len(reduced) == 16
    assert all(out.depth <= 2 for _, out in reduced)
    for offsets, out in reduced:
        assert census.check(offsets, out, 200), census.text(offsets)


def test_targets_and_text():
    targets = list(census.targets(2))  # 6 offsets: 15 sets of four
    assert len(targets) == 45 == len(set(targets))
    for a, b, c, d in targets:
        assert a < b and c < d and a < c
        assert len({a, b, c, d}) == 4
        assert all(F(-1) < x <= 2 and (2 * x).denominator == 1 for x in (a, b, c, d))
    assert census.text((F(-1, 2), F(5, 4), F(-1, 4), F(2))) == \
        "(n-1/2)(n+5/4)/((n-1/4)(n+2))"
