"""A census of reducible +-1 Thue-Morse products over a grid of offsets.

Usage (from the repository root, with ``digitprod`` installed):

    python3 tools/census.py
    PYTHONPATH=src python3 tools/census.py    # this checkout, uninstalled

Enumerates every balanced product (n+a)(n+b)/((n+c)(n+d)) over n >= 1
whose four offsets are distinct multiples of 1/q in (-1, 2], each product
once up to its inverse (a is the least offset), and reduces its G-part
G(a) + G(b) - G(c) - G(d) with ``symbolic.reduce``.  Every reduced
constant is checked against the engine by ``symbolic.verify``: the closed
form's ball must lie within the engine's error estimate of its value.
``main`` runs q = 8 at depth 6 and checks at 200 digits; it prints one
line per reduction and then the counts and the seconds spent in
``reduce`` and in the engine, and exits 1 if a check fails.
"""

from __future__ import annotations

import itertools
import sys
import time
from fractions import Fraction
from typing import Iterator, List, Tuple

from digitprod import EvalOptions, ExponentKind, FactoredRational, ProductSpec
from digitprod.symbolic import Identity, ReduceResult, expr_from_spec, reduce, verify

Offsets = Tuple[Fraction, Fraction, Fraction, Fraction]


def targets(q: int) -> Iterator[Offsets]:
    """(a, b, c, d) for (n+a)(n+b)/((n+c)(n+d)): a < b, c < d, a the least."""
    grid = [Fraction(k, q) for k in range(1 - q, 2 * q + 1)]
    for a, *rest in itertools.combinations(grid, 4):
        for b in rest:
            c, d = [x for x in rest if x != b]
            yield a, b, c, d


def text(offsets: Offsets) -> str:
    """The product as the CLI parses it."""
    a, b, c, d = (f"(n{'+' if x >= 0 else '-'}{abs(x)})" for x in offsets)
    return f"{a}{b}/({c}{d})"


def spec(offsets: Offsets) -> ProductSpec:
    a, b, c, d = offsets
    rational = FactoredRational.from_offsets({a: 1, b: 1, c: -1, d: -1})
    return ProductSpec(rational, ExponentKind.PM_THUE, 1)


def census(q: int, depth: int) -> Tuple[int, List[Tuple[Offsets, ReduceResult]]]:
    """The number of targets and each reduced one with its result."""
    count, reduced = 0, []
    for offsets in targets(q):
        count += 1
        out = reduce(expr_from_spec(spec(offsets)), depth)
        if out.reduced:
            reduced.append((offsets, out))
    return count, reduced


def check(offsets: Offsets, out: ReduceResult, digits: int) -> bool:
    """Whether the engine's value at ``digits`` verifies the reduced constant."""
    identity = Identity("census", spec(offsets), out.closed_form, "census")
    return verify(identity, EvalOptions(precision=digits)).passed


def main() -> int:
    q, depth, digits = 8, 6, 200
    start = time.perf_counter()
    count, reduced = census(q, depth)
    middle = time.perf_counter()
    failed = 0
    for offsets, out in reduced:
        passed = check(offsets, out, digits)
        failed += not passed
        print(f"{text(offsets)} depth {out.depth} {out.closed_form.render()} "
              f"{'ok' if passed else 'FAIL'}")
    end = time.perf_counter()
    print(f"q {q} depth {depth}: {len(reduced)} of {count} reduce, "
          f"{failed} fail at {digits} digits; reduce {middle - start:.1f} s, "
          f"engine {end - middle:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
