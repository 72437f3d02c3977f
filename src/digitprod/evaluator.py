"""Numerical engines for the five exponent kinds and the analytic probes.

Every default +-1 evaluation, Thue-Morse or Rudin-Shapiro, goes through
one scaled tail engine.  The exponent x_n[0] comes from a signed binary
automaton (``_Automaton``): one state for (-1)^{t_n}, and the pair
(r_n, u_n) = ((-1)^{v_n}, (-1)^n (-1)^{v_n}) for Rudin-Shapiro.  With
E(s) = M^s sum_{n>=M} x_n[0] n^-s,

    sum_{n>=start} x_n[0] log R(n)
        = log prod_{start<=n<M} R(n)^{x_n[0]}
          + sum_j (-1)^(j+1) p_j / (j M^j) E(j),

where p_j are the exact power sums of R's offsets.  The head is one exact
rational taken through one logarithm.  The table E(1..) does not depend on
R: it is built once per automaton and precision in integers from the
2^K-fold recursion of the automaton (Allouche & Cohen, "Dirichlet series
and curious infinite products", Bull. LMS 1985) and shared by every
evaluation (a bounded memo of a pure function, like ``gamma``).  The
engine sums the whole tail, so its digits are real and its error estimate
is a derived bound.  M grows with the largest offset and the table's cost
with M, so the engine refuses valid input whose offsets would need a tail
start above the automaton's ``max_tail_start`` (``CapabilityError``)
before any head, table or oracle work.

Only when the caller fixes ``split_levels`` or ``terms`` does
``eval_pm_thue`` run instead: ``dyadic_split`` applied L times, whose
exact boundaries are rationals and whose log-terms gain one order of
decay per level, summed to a fixed number of terms through a second
rational-independent table.  It is kept as an independent oracle.

Only when the caller fixes ``rs_split_levels`` or ``terms`` does
``eval_pm_rs`` run instead, also kept as an oracle: it sums float64 terms
directly, with an exactly rounded sum, after applying the exact
index-regrouping split (``rs_split``) a number of times when the rational
is not fully convergent, halving the slow O(1/n) log-term component per
level.  The tail's power sums are carried through the split chain from
the base rational's own (``rs_split_power_sums``).

Plain products telescope into Gamma values.  The 0/1-exponent kinds use
2 s_n = 1 - (-1)^{s_n} and combine the plain and +-1 results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, rshift, sub
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import mpmath

from .errors import CapabilityError, ConsistencyError, InputError
from .factored_rational import (FactoredRational, classify, dyadic_split,
                                pole_check, positivity_check,
                                rs_split_power_sums, rs_split_rational)
from .numerics import (DEFAULT_PRECISION, constant, export, gamma, gamma_error,
                       log_fraction, mpf_from_fraction, workdps, working_dps)
from .sequences import ExponentKind

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TM_TERMS = 4096
DEFAULT_RS_TERMS = 10 ** 6
# The Thue-Morse tail table loops over every term in Python: WR at 2^20
# terms took 3.9 s at 60 digits and 59 s at 500 digits (one run, 2 vCPU).
MAX_TM_TERMS = 1 << 20
# The direct-sum oracle's Rudin-Shapiro tail runs in numpy blocks of
# RS_BLOCK terms, so its memory does not grow with the terms; that is why
# the blocks stay.  The cap bounds the time: GS at this cap takes
# 0.28-0.30 s, numpy's first import included, and peaks at 42 MB (three
# runs, 2 vCPU).
MAX_RS_TERMS = 1 << 22
DEFAULT_SPLIT_LEVELS = 8
DEFAULT_RS_SPLIT_LEVELS = 10
# The split oracle's head multiplies one Fraction per point n < n0, where
# n0 grows with max|a_i|, so its cost is quadratic in the offsets:
# f_value(x/2, (x+1)/2) at 60 digits took 1.02 s at x = 10^5 and 1.88 s at
# x = 131070, just under this cap (one run each, 2 vCPU); the 4.6 s and
# 16.9 s at x = 2*10^5 and 4*10^5 are above it.
MAX_TM_OFFSET = 1 << 16
# Split work grows geometrically with the levels; these caps keep one
# request within about a minute.
MAX_SPLIT_LEVELS = 16
MAX_RS_SPLIT_LEVELS = 12
# The sign probe holds a few float64 arrays of 2^k * (n_tail + 1) points,
# about 0.3 GB at this cap; it admits k <= 2 at the default tail 2^20.
MAX_PROBE_GRID = 1 << 23


@dataclass(frozen=True)
class ProductSpec:
    """An infinite product: rational function, exponent kind, start index."""

    rational: FactoredRational
    kind: ExponentKind
    start: int

    def validate(self) -> None:
        """Raise unless the product converges for its kind and R(n) > 0 for
        every integer n >= start.  The evaluators validate first and never
        check again that a head or boundary is positive or has no zero
        factor, or that a +-1 rational has scale 1 and net degree 0."""
        if self.start not in (0, 1):
            raise InputError(f"start index must be 0 or 1, got {self.start}")
        cls = classify(self.rational)
        if self.kind in (ExponentKind.PM_THUE, ExponentKind.PM_RS):
            if not cls.at_least_pm:
                raise InputError(f"divergent product: {cls.detail}")
        else:
            if not cls.fully:
                raise InputError(
                    f"{self.kind.value} products require full convergence: "
                    f"{cls.detail}")
        n = pole_check(self.rational, self.start)
        if n is not None:
            raise InputError(f"factor vanishes at n = {n} within the "
                             f"product range n >= {self.start}")
        positivity_check(self.rational, self.start)


@dataclass(frozen=True)
class EvalOptions:
    """Work parameters: decimal precision, split levels, term counts.

    With ``split_levels`` (Thue-Morse) or ``rs_split_levels``
    (Rudin-Shapiro) and ``terms`` all None, +-1 products go through the
    scaled tail engine, which raises ``CapabilityError`` for an offset
    that would need a tail start above the automaton's
    ``max_tail_start``.  Fixing either selects the kind's oracle.
    ``eval_pm_thue`` reads None as ``DEFAULT_SPLIT_LEVELS`` levels and 4096
    terms and refuses offsets above ``MAX_TM_OFFSET``; ``eval_pm_rs`` reads
    ``terms`` None as 10^6, and ``rs_split_levels`` None as 0 for fully
    convergent rationals and 10 otherwise.  ``tm_terms`` and ``rs_terms``
    reject counts above ``MAX_TM_TERMS`` and ``MAX_RS_TERMS``.
    """

    precision: int = DEFAULT_PRECISION
    split_levels: Optional[int] = None
    terms: Optional[int] = None
    rs_split_levels: Optional[int] = None

    def __post_init__(self):
        if self.precision < 1:
            raise InputError("precision must be at least 1 digit")
        if not 0 <= (self.split_levels or 0) <= MAX_SPLIT_LEVELS:
            raise InputError(f"split levels must be in 0..{MAX_SPLIT_LEVELS}")
        if self.terms is not None and self.terms < 16:
            raise InputError("terms must be >= 16")
        if not 0 <= (self.rs_split_levels or 0) <= MAX_RS_SPLIT_LEVELS:
            raise InputError(f"rs split levels must be in 0..{MAX_RS_SPLIT_LEVELS}")

    def tm_terms(self) -> int:
        return self._terms(DEFAULT_TM_TERMS, MAX_TM_TERMS, "Thue-Morse")

    def rs_terms(self) -> int:
        return self._terms(DEFAULT_RS_TERMS, MAX_RS_TERMS, "Rudin-Shapiro")

    def _terms(self, default: int, cap: int, kind: str) -> int:
        if self.terms is None:
            return default
        if self.terms > cap:
            raise InputError(f"terms must be <= {cap} for {kind} products")
        return self.terms


@dataclass(frozen=True)
class EvalResult:
    """Value with an error estimate and the work actually done.

    The estimate is a derived bound for the scaled tail engine (every
    +-1 evaluation without oracle options) and for plain products, and a
    heuristic for the split and direct-sum oracles.
    """

    value: mpmath.mpf
    error_estimate: mpmath.mpf
    terms_used: int
    split_levels: int


# ---------------------------------------------------------------------------
# +-1 Thue-Morse products
# ---------------------------------------------------------------------------

def _floor_sums(ids: Sequence[int], groups: int, members: range, c: int,
                shift: int, bits: int, top: int) -> List[List[int]]:
    """sums[g][s] = sum over n in ``members`` (an ascending range) with
    ids[n] = g of 2^bits (c/d_n)^s, d_n = 2^shift n, rounded down, for
    g < groups and 1 <= s <= top (sums[g][0] = 0).

    Member by member, y_{n,0} = 2^bits and y_{n,s} = floor(y_{n,s-1} c / d_n)
    is off by less than min(s, 1/(1 - a)) units, a = c/d_n.  When every
    ratio is at most 1/2 (2c <= 2^shift times the first member, so for
    every engine table, whose ratios are at most 2^-K), the members of
    each value class are summed two at a time, in ascending n, through the
    recurrence of a sum of two geometric sequences,
    d1 d2 U_s = c (d1 + d2) U_(s-1) - c^2 U_(s-2):
    from u_0 = 2^(bits+1) (the seed; row 0 stays 0) and
    u_1 = floor(2^bits c (d1 + d2) / (d1 d2)),

        u_s = floor((c (d1 + d2) u_(s-1) - c^2 u_(s-2)) / (d1 d2)),

    one division per pair and row in place of two.  With a_i = c/d_i and
    r_s in [0, 1) the fraction the floor drops, the error e_s = U_s - u_s
    obeys e_s = (a1 + a2) e_(s-1) - a1 a2 e_(s-2) + r_s, whose impulse
    response sum_(i<=j) a1^i a2^(j-i) is positive, so
    0 <= e_s < 1/((1 - a1)(1 - a2)) <= (2^K / (2^K - 1))^2 for ratios at
    most 2^-K: the square of one member's bound, below two members' bound.
    The bound grows without limit as a ratio nears 1, so other inputs (the
    split oracle's first ratio is 1), and a member left over in a class,
    take the iterated floors.  Either way a member or pair stops at its
    first value <= 0; its later rows are below their exact values by less
    than that value's bound."""
    sums = [[0] * (top + 1) for _ in range(groups)]
    singles: Iterable[int] = members
    if 2 * c <= members.start << shift:
        classes: List[List[int]] = [[] for _ in range(groups)]
        for n in members:
            classes[ids[n]].append(n)
        singles = [group[-1] for group in classes if len(group) & 1]
        cc = c * c
        for row, group in zip(sums, classes):
            for n1, n2 in zip(group[::2], group[1::2]):
                d1, d2 = n1 << shift, n2 << shift
                a, d = c * (d1 + d2), d1 * d2
                u0, u = 2 << bits, (a << bits) // d
                for s in range(1, top + 1):
                    if u <= 0:
                        break
                    row[s] += u
                    u0, u = u, (a * u - cc * u0) // d
    for n in singles:
        row = sums[ids[n]]
        y = 1 << bits
        d = n << shift
        for s in range(1, top + 1):
            y = y * c // d
            if not y:
                break
            row[s] += y
    return sums


@lru_cache(maxsize=8)
def _tm_tail_table(n0: int, terms: int, bits: int, j_max: int) -> Tuple[int, ...]:
    """(T_1, ..., T_{j_max}), T_j = sum_{n0<=n<=terms} (-1)^{t_n} y_{n,j},
    with y_{n,j} from ``_floor_sums`` at c = n0 over every n of
    range(n0, terms + 1), whose first ratio n0/n0 = 1 keeps it member by
    member: 2^bits (n0/n)^j rounded down by less than j units.  The engine
    folds the even n of its block onto the octave below (``_block_sums``);
    this table does not, so it stays an independent check.  The table does
    not depend on the rational, so every Thue-Morse evaluation at one
    precision shares it.
    """
    parity = [n.bit_count() & 1 for n in range(terms + 1)]
    plus, minus = _floor_sums(parity, 2, range(n0, terms + 1), n0, 0, bits, j_max)
    return tuple(a - b for a, b in zip(plus[1:], minus[1:]))


def _tm_log_sum(r: FactoredRational, start: int, terms: int,
                precision: int) -> Tuple[Fraction, mpmath.mpf, mpmath.mpf]:
    """Split sum_{n=start}^{terms} (-1)^{t_n} log R(n) into head and tail.

    Returns (head, tail, |last summand|).  The head, n < n0, is the exact
    rational prod R(n)^{(-1)^{t_n}}, left for the caller to fold into its
    own exact factor so that one logarithm covers both.  The tail expands
    log R(n) = sum_j c_j n^-j, c_j = (-1)^{j+1} p_j / j, from exact power
    sums and swaps the order of summation:

        sum_n (-1)^{t_n} log R(n) = sum_j c_j n0^-j T_j / 2^B,

    with T_j from ``_tm_tail_table``, so a call costs j_max coefficient
    roundings and products.  B = bits + g guard bits; each T_j is off by
    less than j * terms units and |c_j| n0^-j j <= mass (max_abs/n0)^j, so
    with the coefficient roundings the tail is off by at most
    (mass + j_max) * terms * 2^-B <= 2^-bits.  The last summand comes from
    one Horner pass at n = terms.
    """
    max_abs = float(r.max_abs_offset())
    n0 = max(8, int(math.ceil(2 * max_abs)) + 1, start + 1)
    bits = int(math.ceil((precision + 12) * math.log2(10)))

    head = Fraction(1)
    exact_hi = min(n0, terms + 1)
    for n, value in zip(range(start, exact_hi), r.values_at(range(start, exact_hi))):
        head = head / value if (n.bit_count() & 1) else head * value

    if terms < n0:
        last = r.value_at(exact_hi - 1)  # |log q| = log max(q, 1/q), with the same bits
        return head, mpmath.mpf(0), log_fraction(max(last, 1 / last), precision)

    mass = sum(abs(m) for _, m in r.numerators)
    # series term j at n >= n0 is bounded by mass*(max_abs/n0)^j / j
    ratio = max(max_abs, 1e-9) / n0
    j_max = int(math.ceil((bits + math.log2(mass + 1) + 4)
                          / -math.log2(ratio))) + 2
    # guard bits in steps of 32, so that similar rationals share one table
    guard = -(-((mass + j_max) * terms).bit_length() // 32) * 32
    table_bits = bits + guard
    table = _tm_tail_table(n0, terms, table_bits, j_max)
    psums = r.power_sums(j_max)
    acc = 0
    h = 0
    for j in range(j_max, 0, -1):
        c = psums[j] if j % 2 == 1 else -psums[j]
        acc += round(c * (1 << table_bits) / (j * n0 ** j)) * table[j - 1]
        h = (h + round(c * (1 << bits) / j)) // terms
    with workdps(working_dps(precision)) as ctx:
        return (head, export(ctx.mpf(acc >> table_bits) / (1 << table_bits)),
                export(abs(ctx.mpf(h)) / (1 << bits)))


def eval_pm_thue(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """Evaluate prod R(n)^{(-1)^{t_n}} by ``dyadic_split`` applied L times.

    After the first level the split rational starts at 1.  The product of
    the L boundaries and the head of ``_tm_log_sum`` is one exact rational,
    taken through one logarithm.
    """
    if spec.kind is not ExponentKind.PM_THUE:
        raise InputError(f"eval_pm_thue expects kind pm-t, got {spec.kind.value}")
    terms = opts.tm_terms()
    if spec.rational.max_abs_offset() > MAX_TM_OFFSET:
        raise InputError(f"offsets |a_i| must be <= {MAX_TM_OFFSET} for the split oracle")
    spec.validate()
    levels = DEFAULT_SPLIT_LEVELS if opts.split_levels is None else opts.split_levels
    precision = opts.precision
    wp = working_dps(precision)

    r, start, boundary = spec.rational, spec.start, Fraction(1)
    for _ in range(levels):
        r, b = dyadic_split(r, start)
        start = 1
        boundary *= b
    head, tail, last = _tm_log_sum(r, start, terms, precision)
    with workdps(wp) as ctx:
        value = ctx.exp(ctx.convert(tail) + log_fraction(boundary * head, precision))
        floor = ctx.mpf(10) ** (5 - precision)
        err_log = ctx.convert(last) * terms / max(levels, 1) + floor
        return EvalResult(export(value), export(value * err_log + floor), terms, levels)


# ---------------------------------------------------------------------------
# +-1 products: the scaled tail engine over a signed automaton
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Automaton:
    """A signed binary automaton, and the table fold K of its engine.

    Its sequence is a vector x_n with one entry per state: x_0 = 1 in
    every state and x_{2n+d}[q] = sign[q][d] x_n[next_state[q][d]].  A
    product's exponent is x_n[0].  Reading the K low digits of
    n = 2^K n' + i, least significant first, gives x_n = A_i x_n', where
    row q of A_i holds one sign, in the column of the state the digits of
    i lead q to.  ``max_tail_start`` bounds the engine's work: offsets
    that would need a larger tail start are refused.
    """

    name: str
    next_state: Tuple[Tuple[int, int], ...]
    sign: Tuple[Tuple[int, int], ...]
    fold: int
    max_tail_start: int

    def vectors(self, hi: int) -> Tuple[List[Tuple[int, ...]], List[int]]:
        """(values, ids) with x_n = values[ids[n]] for n < hi.

        x_n takes few values (two for Thue-Morse, four for Rudin-Shapiro),
        so each n costs one lookup in the table of A_d on those values.
        """
        values = [(1,) * len(self.sign)]
        index = {values[0]: 0}
        step = []  # step[v][d]: the id of A_d values[v]
        for x in values:  # visits the values appended below too
            row = []
            for d in (0, 1):
                y = tuple(s[d] * x[t[d]] for s, t in zip(self.sign, self.next_state))
                if y not in index:
                    index[y] = len(values)
                    values.append(y)
                row.append(index[y])
            step.append(row)
        ids = [0]
        for n in range(1, hi):
            ids.append(step[ids[n >> 1]][n & 1])
        return values, ids[:hi]

    def residue_map(self, i: int) -> List[Tuple[int, int]]:
        """Row q of A_i as (column, sign), for the K-digit word i."""
        rows = []
        for q in range(len(self.sign)):
            sign = 1
            for j in range(self.fold):
                d = i >> j & 1
                sign *= self.sign[q][d]
                q = self.next_state[q][d]
            rows.append((q, sign))
        return rows


# The tail starts at M = 64, or at the next power of two that keeps
# max|a_i| <= M / 2^K, so that each term of the tail series is at least
# 2^K times smaller than the one before; every larger M has its own table.
TAIL_START = 64

# Each automaton's cap on M, the bound on the engine's work: the floor
# sums loop over 2^(K-1) M values of n and the solve over rows whose
# series grow with M, so past a few hundred the table's cost doubles with
# M; both caps keep the cold 500-digit table under about 0.4 s.  Up to
# both caps the pair divisors of ``_floor_sums`` fit in one 30-bit limb
# (2^K n < 2^15); past them they take two, and the pairs save little or
# nothing.  Offsets that would need a larger M are refused (exit 3), and
# the kind's oracle runs only when its options are given.  Cold times are
# first calls in a fresh interpreter, three runs each unless noted,
# 2-vCPU AMD EPYC, Python 3.11.
#
# (-1)^{t_n}: one state, whose sign flips at every 1 digit.  Cold g(x),
# engine against the split oracle at its defaults, 60 / 500 digits:
#
#   M                  engine                       split oracle
#   512 (x = 100)      0.008-0.014 / 0.12-0.13 s    0.019 / 0.28-0.29 s
#   1024 (x = 200)     0.018 / 0.26-0.27 s          0.019 / 0.30-0.31 s
#   4096 (x = 1000)    0.086 / 1.23 s (one run)     0.026 / 0.58 s (one run)
#   65536 (x = 10^4)   3.1 s at 60 (one run)        0.05 s at 60 (one run)
#
# The cap, M = 512 (offsets up to 64), was set as the last M at which the
# engine was no dearer than the oracle.  Since the even n of F(s) fold
# onto the octave below, M = 1024 is no dearer either; the cap has not
# moved.
THUE_MORSE = _Automaton("Thue-Morse", ((0, 0),), ((1, -1),), 3, 1 << 9)
# (r_n, u_n) = ((-1)^{v_n}, (-1)^n (-1)^{v_n}): r_2n = r_n, r_2n+1 = u_n,
# u_2n = r_n and u_2n+1 = -u_n.  Engine on (n+M/4-1)/(n+M/4), the largest
# offset at M, against the direct-sum oracle at its defaults on
# (n+M/4)/(n+M/4+1), the smallest past M; the engine's times are medians
# of three, the oracle's best of three with numpy loaded (its import adds
# about 45 ms to a first call):
#
#   M      engine cold (warm), 60 / 500 digits     oracle, 60 / 500 digits
#   512    12 ms (0.4 ms) / 0.16 s (2.3 ms)        39 / 39 ms
#   1024   14 ms (0.7 ms) / 0.24 s (2.8 ms)        39 / 39 ms
#   2048   25 ms (1.7 ms) / 0.38 s (4.0 ms)        40 / 40 ms
#   4096   59 ms (5.7 ms) / 0.82 s (8.1 ms)        43 / 42 ms
#
# The engine gives every digit; the oracle gives 5.7 correct digits at
# any precision, under an estimate of about 5e-6.  The cap, M = 2048
# (offsets up to 512), is the last M at which the engine's cold cost at
# 60 digits is below the oracle's; there its 500-digit table is the
# dearer of the two caps' tables.
RUDIN_SHAPIRO = _Automaton("Rudin-Shapiro", ((0, 1), (0, 1)), ((1, 1), (1, -1)),
                           2, 1 << 11)

# Table bits beyond the working precision.
TABLE_GUARD = 32


def _head(r: FactoredRational, lo: int, hi: int, signs: Sequence[int]) -> Fraction:
    """prod_{lo<=n<hi} R(n)^{signs[n]} for signs of +-1, exactly.

    With a_i = u_i / D, a validated +-1 rational (scale 1, net degree 0)
    is R(n) = prod_i (n D + u_i)^{m_i}, so the integer factors n D + u_i
    go straight into one numerator and one denominator, and a single
    Fraction is built at the end.
    """
    d = r.denominator
    num = den = 1
    for n in range(lo, hi):
        p = q = 1
        for u, m in r.numerators:
            if m > 0:
                p *= (n * d + u) ** m
            else:
                q *= (n * d + u) ** -m
        if signs[n] < 0:
            num, den = num * q, den * p
        else:
            num, den = num * p, den * q
    return Fraction(num, den)


def _moments(automaton: _Automaton,
             top: int) -> Tuple[int, Dict[Tuple[int, int], List[int]]]:
    """(c_0, {(q, t): [P_0[q][t], ..., P_top[q][t]]}) with
    P_k = sum_{i<2^K} i^k A_i and P_0 = c_0 I; entries that are 0 for
    every k are left out.

    The table's solve needs P_0 to be a multiple of I: Thue-Morse has
    P_0 = 0, and Rudin-Shapiro at even K has P_0 = S^K = 2^(K/2) I with
    S = A_0 + A_1 = [[1, 1], [1, -1]].
    """
    moments: Dict[Tuple[int, int], List[int]] = {}
    for i in range(1 << automaton.fold):
        for q, (t, sign) in enumerate(automaton.residue_map(i)):
            column = moments.setdefault((q, t), [0] * (top + 1))
            power = sign
            for k in range(top + 1):
                column[k] += power
                power *= i
    states = range(len(automaton.sign))
    c0 = moments.get((0, 0), [0])[0]
    if any(moments.get((q, t), [0])[0] != (c0 if q == t else 0)
           for q in states for t in states):
        raise ValueError(f"{automaton.name}: P_0 is not a multiple of I")
    return c0, {key: column for key, column in moments.items() if any(column)}


def _block_sums(automaton: _Automaton, m: int, bits: int
                ) -> Tuple[List[Tuple[int, ...]], List[int], List[List[int]]]:
    """(values, ids, sums): x_n = values[ids[n]] for n < 2^K m
    (``_Automaton.vectors``), and sums[g][s], the sum over m <= n < 2^K m
    with ids[n] = g of 2^bits (m / (2^K n))^s, rounded down, for
    1 <= s <= bits/K (sums[g][0] = 0).

    The block [m, 2^K m) is K octaves [2^j m, 2^(j+1) m).  An even n = 2n'
    of octave j >= 1 has x_n = A_0 x_n' and (m / (2^K n))^s =
    2^-s (m / (2^K n'))^s, so octave j's class sums are ``_floor_sums``
    over its odd n plus octave j-1's class sums shifted right by s bits
    and relabelled through double[ids[n']] = ids[2n'].  The floor sums
    take the m n of octave 0 and the 2^(j-1) m odd n of each later octave,
    2^(K-1) m in all: 4m in place of 7m for Thue-Morse (K = 3) and 2m in
    place of 3m for Rudin-Shapiro (K = 2).

    Every floor drops, so each class row is at most its exact sum.  An n
    that ``_floor_sums`` takes is off by less than b = 2^K / (2^K - 1) (a
    pair by less than b^2 <= 2b), and its error reaches the class of
    2^i n shifted right by at least i bits; each shift floors once more,
    less than 1 unit, once per class and octave j >= 1, and that floor
    reaches the later octaves halved at least, weight below 2.  So class
    g's row is below its exact sum by less than

        b sum_{ids[n] = g} 2^-i(n) + 2 (K - 1) G,

    with i(n) the octaves n was folded through (the number of times 2
    divides n, at most n's octave) and G = len(values); summed over the
    classes the floors count once, 2 (K - 1) G in all.
    """
    fold = automaton.fold
    top = bits // fold
    values, ids = automaton.vectors(m << fold)
    groups = len(values)
    double = dict(zip(ids[m:m << (fold - 1)], ids[2 * m::2]))
    shifts = range(top + 1)
    octave = _floor_sums(ids, groups, range(m, 2 * m), m, fold, bits, top)
    sums = octave
    for lo in (m << j for j in range(1, fold)):
        below = octave
        octave = _floor_sums(ids, groups, range(lo + 1, 2 * lo, 2), m, fold, bits, top)
        for g, h in double.items():
            octave[h] = list(map(add, octave[h], map(rshift, below[g], shifts)))
        sums = [list(map(add, a, b)) for a, b in zip(sums, octave)]
    return values, ids, sums


def _last_solved_row(fold: int, m: int, c0: int, bits: int) -> int:
    """s0 of ``_scaled_table``: the last row s with B(s) >= 1/2, where
    B(s) = (m+1) 2^(bits - 2Ks) (2^K ((1 - (2^K-1)/(2^K m))^-s - 1) + |c_0|)
    falls with s.  The walk starts at s = max(1, bits/(2K)), where
    B(s) >= 1/2 (see ``_scaled_table``), and takes a few rows."""
    width = 1 << fold
    num, den = width * m, width * m - width + 1  # (1 - (2^K-1)/(2^K m))^-1
    s = max(1, bits // (2 * fold))
    p, q = num ** (s + 1), den ** (s + 1)
    while True:
        # B(s+1) < 1/2 <=> 2 (m+1) (2^K (p - q) + |c_0| q) 2^(bits - 2K(s+1)) < q
        shift = bits - 2 * fold * (s + 1)
        lhs = 2 * (m + 1) * (width * (p - q) + abs(c0) * q)
        if lhs << max(shift, 0) < q << max(-shift, 0):
            return s
        s, p, q = s + 1, p * num, q * den


@lru_cache(maxsize=8)
def _scaled_table(automaton: _Automaton, m: int,
                  bits: int) -> Tuple[Tuple[int, ...], int, Tuple[int, ...]]:
    """(table, unit, signs): table = (e_0, ..., e_top) with
    e_s = E(s) 2^(bits - K s), E(s) = sum_{n>=m} x_n[0] (m/n)^s, to within
    unit = ``_table_unit(automaton, m)`` units, and signs = (x_0[0], ...,
    x_{m-1}[0]), the exponents of the head's terms (``_head``).

    Writing n >= 2^K m as 2^K n' + i with i < 2^K gives x_n = A_i x_n',
    and expanding (1 + i / (2^K n'))^-s gives, for the vector E(s) over
    all states,

        E(s) = F(s) + 2^(-Ks) sum_{k>=0} C(-s,k) m^-k (P_k / 2^(Kk)) E(s+k),

    with F(s) = sum_{m<=n<2^K m} x_n (m/n)^s and the moments
    P_k = sum_{i<2^K} i^k A_i (``_moments``).  At the row scales the
    2^(Kk) cancels, and with P_0 = c_0 I:

        (1 - c_0 2^(-Ks)) e_s = f_s + 2^(-Ks) sum_{k>=1} c_k P_k e_{s+k},
        c_k = C(-s,k) m^-k,

    so each row carries K bits less than the one before, rows past bits/K
    are 0, and the rows are filled from the top down.  For Thue-Morse the
    Prouhet moments P_k vanish for k < K and c_0 = 0.  f_s comes from
    ``_block_sums``: one sum per value of x_n, with the even n of each
    octave folded onto the octave below.

    Rows above s0 >= 1 (``_last_solved_row``) take no solve: e_s = f_s.
    For s >= 2, |E_t(s)| <= sum_{n>=m} (m/n)^s <= 1 + m/(s-1) <= m + 1;
    the largest row sum of |P_k| is at most sum_{i<2^K} i^k
    < 2^K (2^K - 1)^k; and sum_{k>=1} C(s+k-1,k) x^k = (1-x)^-s - 1.  So
    with a = (2^K-1)/(2^K m) the exact correction of row s is below
    (m+1) 2^(bits - 2Ks) 2^K ((1 - a)^-s - 1) units, and the c_0 division
    moves the exact row by |c_0| 2^(-Ks) |e_s| <= |c_0| (m+1) 2^(bits - 2Ks).
    Their sum B(s) falls with s, by a factor at most (1 + R) 2^(-2K) < 1
    per row with R = (1 - a)^-1 < 2, so every row above the last with
    B(s) >= 1/2 moves by less than half a unit without its solve.  No row
    s <= bits/(2K) is skipped: there 2^(bits - 2Ks) >= 1 and
    (m+1) 2^K ((1 - a)^-s - 1) >= (m+1) 2^K s a = s (2^K - 1) (m+1)/m >= 1.

    The correction is a Horner sum: with v_k = sum_t P_k[q][t] e_t[s+k]
    and g = 32 guard bits,

        h <- floor((2^g v_k + h) (-(s+k-1)) / (k m)),  k = k_max, ..., 1,

    ends at h = 2^g sum_k c_k v_k, and e_s gains floor(h / 2^(Ks+g)), so
    each term costs one moment x row product and two single-limb
    operations; a zero moment (Thue-Morse's P_1 = P_2 = 0) multiplies as
    0.  The floor at k is carried into h by |c_(k-1)| <= C(s+k-2,k-1)
    m^-(k-1), so together they are off by less than
    sum_k C(s+k-1,k) m^-k = (1-1/m)^-s units of h, below 2^-g of a row
    unit since (1-1/m)^-1 < 2^K.  The sum keeps the terms with
    2^scale |c_k| >= 1, scale covering the row's bits above 2^(Ks) and 40
    guard bits; in k that weight rises while (s+k) > (k+1) m and then
    falls, so the kept terms are k = 1, ..., k_max, found from log2 k! by
    a walk from the row above's k_max.  The table does not depend on the
    rational, so every evaluation of the automaton at one precision shares
    this one memo entry, unit and signs included.
    """
    fold = automaton.fold
    top = bits // fold
    states = len(automaton.sign)
    values, ids, sums = _block_sums(automaton, m, bits)
    # e[q][s]: row s of state q
    e = [[0] * (top + 1) for _ in range(states)]
    for x, row in zip(values, sums):
        for q in range(states):
            e[q] = list(map(add if x[q] > 0 else sub, e[q], row))
    c0, moments = _moments(automaton, top)
    guard = 32  # the Horner sums' bits below the row's unit
    columns = [(q, t, [p << guard for p in column[1:]])
               for (q, t), column in moments.items()]
    log_fact = list(accumulate(map(math.log2, range(1, top)), initial=0.0))
    log_m = math.log2(m)

    def kept(s: int, k: int, scale: int) -> bool:  # 2^scale C(s+k-1,k) m^-k >= 1
        return scale + log_fact[s + k - 1] - log_fact[s - 1] - log_fact[k] >= k * log_m

    k_max = 1
    for s in range(min(top - 1, _last_solved_row(fold, m, c0, bits)), 0, -1):
        # 40 guard bits, plus one per 32 rows for the growth of
        # C(s+k-1, k) m^-k <= (1-1/m)^-s; k = 1 is always kept
        scale = max(0, bits - 2 * fold * s) + 40 + s // 32
        k_max = min(k_max, top - s)
        while k_max < top - s and kept(s, k_max + 1, scale):
            k_max += 1
        while k_max > 1 and not kept(s, k_max, scale):
            k_max -= 1
        # v[q][k_max - k] = 2^g sum_t P_k[q][t] e_t[s+k]
        v: List[Optional[List[int]]] = [None] * states
        for q, t, column in columns:
            terms = map(mul, column[k_max - 1::-1], e[t][s + k_max:s:-1])
            v[q] = list(terms if v[q] is None else map(add, v[q], terms))
        den = (1 << fold * s) - c0
        for q in range(states):
            h = 0
            for x, num, d in zip(v[q], range(1 - s - k_max, 1 - s),
                                 range(k_max * m, 0, -m)):
                h = (x + h) * num // d
            rhs = e[q][s] + (h >> (fold * s + guard))
            e[q][s] = rhs + rhs * c0 // den
    return (tuple(e[0]), _table_unit(automaton, m),
            tuple(values[v][0] for v in ids[:m]))


def _table_unit(automaton: _Automaton, m: int) -> int:
    """U: every row of ``_scaled_table(automaton, m, ·)``'s table is off
    by at most U units.

    Before the solve a row is off by less than 2^K m + 8 units:

    * f_s, from ``_block_sums``: an n that ``_floor_sums`` takes is off by
      less than b = 2^K / (2^K - 1), with weight 2^-i for the i octaves it
      is folded through.  For Thue-Morse the m n of octave 0 weigh
      1 + 1/2 + 1/4, the m odd n of octave 1 1 + 1/2 and the 2m odd n of
      octave 2 1, so (21/4) m b = 6m units; for Rudin-Shapiro the m n of
      octave 0 weigh 1 + 1/2 and the m odd n of octave 1 1, so
      (5/2) m b = (10/3) m.  The K - 1 shift floors per class add less
      than 2 (K - 1) G, 8 for both (G = 2 classes at K = 3, G = 4 at
      K = 2).  So f_s is off by less than 6m + 8 and (10/3) m + 8, below
      2^K m - 1/2 for m >= 64.
    * Rows above s0 take no solve, which moves them by less than 1/2
      (``_scaled_table``), so they are off by less than 2^K m.
    * Rows up to s0: the floors of the correction and of the solve, the
      Horner floors (less than 2^-g, g = 32; see ``_scaled_table``), the
      terms past the cut (2^scale |c_k| < 1 with scale >= bits - 2Ks + 40,
      |P_k| < 2^K (2^K - 1)^k and |e_(s+k)| <= (m+1) 2^(bits - K(s+k)), so
      less than 2^(2K-40) (m+1) in all), the rows cut at the top and the
      errors of later rows carried by the moments k >= K (weighted by less
      than 2^-10 for m >= 64) add less than 8 more.

    The solve multiplies by 1 / (1 - c_0 2^(-Ks)) <= inv = 2^K / (2^K - c_0),
    and the low moments 1 <= k < K carry later rows' errors with weight
    w_s = 2^(-Ks) sum_k C(s+k-1,k) m^-k |P_k| (|.| the largest row sum of
    absolute values), largest at s = 1.  If every later row is within U,
    a row is within inv (2^K m + 8 + w_1 U), so
    U = inv (2^K m + 8) / (1 - inv w_1) holds for all rows.  For
    Thue-Morse c_0 = 0 and no low moment is left, so U = 2^K m + 8.
    """
    fold = automaton.fold
    c0, moments = _moments(automaton, fold - 1)
    states = range(len(automaton.sign))

    def norm(k: int) -> int:  # |P_k|
        return max(sum(abs(moments.get((q, t), [0] * fold)[k]) for t in states)
                   for q in states)
    w = sum(Fraction(norm(k), m ** k) for k in range(1, fold)) / (1 << fold)
    inv = Fraction(1 << fold, (1 << fold) - c0)
    return math.ceil(inv * ((m << fold) + 8) / (1 - inv * w))


def _tail_start(r: FactoredRational, fold: int) -> int:
    """M: TAIL_START, or the next power of two with max|a_i| <= M / 2^K."""
    max_abs = r.max_abs_offset()
    m = TAIL_START
    while max_abs * (1 << fold) > m:
        m <<= 1
    return m


def _engine(spec: ProductSpec, precision: int, automaton: _Automaton) -> EvalResult:
    """prod_{n>=start} R(n)^{x_n[0]} from an exact head and the scaled tail.

    log prod = log H + sum_{j<=J} (-1)^(j+1) p_j / (j M^j) E(j), with the
    exact head H = prod_{start<=n<M} R(n)^{x_n[0]} and E(j) from
    ``_scaled_table`` at B = working bits + 32.  With rho = max|a_i| / M
    <= 2^-K and mass = sum |m_i|, the error of the log is bounded by

    * truncation: for n >= M the series of log R(n) past j = J is below
      mass (max|a_i|/n)^(J+1) / ((J+1)(1-rho)), and summing over n gives
      mass rho^(J+1) (1 + M/J) / ((J+1)(1-rho));
    * table rounding: row j is off by at most U (``_table_unit``) units of
      2^(Kj-B), which covers the floor sums of f_j and the Horner
      floors of its solve (less than 2^-32 of a unit), and is weighted by
      |p_j| / (j M^j) <= mass 2^(-Kj) / j, so at most U mass H_J 2^-B
      (H_J the harmonic number);
    * coefficient rounding: the sum below reads p_j as S_j / D^j
      (``power_sum_numerators``) and floors each term
      S_j table[j] / (j D^j M^j) once, J units of 2^-B; a floor by the
      shift and then by j D^j is one floor, as floor(floor(x) / n) =
      floor(x / n) for an integer n > 0;
    * the head logarithm, taken at enough extra digits that its error
      2 (bits of H's numerator and denominator + 2) 2^-prec is about 2 ulps;
    * 10 ulps of the working precision, relative to 1 + |log H| + |tail|,
      for the final sum, exp and a few operations on the value downstream.

    The value's estimate is value * err (1 + err).
    """
    r = spec.rational
    wp = working_dps(precision)
    if r.is_one:
        return EvalResult(mpmath.mpf(1), mpmath.mpf(0), 0, 0)
    fold = automaton.fold
    m = _tail_start(r, fold)
    prec = mpmath.libmp.dps_to_prec(wp)
    bits = prec + TABLE_GUARD
    table, unit, signs = _scaled_table(automaton, m, bits)

    head = _head(r, spec.start, m, signs)
    size = head.numerator.bit_length() + head.denominator.bit_length() + 2
    head_digits = precision + len(str(size))

    mass = sum(abs(mult) for _, mult in r.numerators)
    rho = r.max_abs_offset() / m
    width = 1 << fold
    need = (bits + math.log2(mass * (m + 1) * width / (width - 1))) / -math.log2(rho)
    j_max = min(len(table) - 1, max(1, math.ceil(need)))
    sums = r.power_sum_numerators(j_max)
    # p_j 2^(Kj) / (j M^j) = S_j / (j D^j 2^(step j)) for M = 2^(K + step)
    step = m.bit_length() - 1 - fold
    d, d_j = r.denominator, 1
    acc = 0
    for j in range(1, j_max + 1):
        d_j *= d
        term = (sums[j] * table[j] >> step * j) // (j * d_j)
        acc += term if j & 1 else -term

    with workdps(wp) as ctx:
        log_head = ctx.convert(log_fraction(head, head_digits))
        tail = ctx.ldexp(ctx.mpf(acc), -bits)
        value = ctx.exp(log_head + tail)
        rho_mp = ctx.mpf(rho.numerator) / rho.denominator
        truncation = (mass * rho_mp ** (j_max + 1) * (1 + ctx.mpf(m) / j_max)
                      / ((j_max + 1) * (1 - rho_mp)))
        harmonic = math.fsum(1 / j for j in range(1, j_max + 1))
        rounding = ctx.ldexp(unit * mass * harmonic + j_max, -bits)
        head_prec = mpmath.libmp.dps_to_prec(working_dps(head_digits))
        head_error = ctx.ldexp(2 * size, -head_prec)
        ulps = ctx.ldexp(10 * (1 + abs(log_head) + abs(tail)), 1 - prec)
        err_log = truncation + rounding + head_error + ulps
        return EvalResult(export(value), export(value * err_log * (1 + err_log)), m, 0)


def _engine_automaton(spec: ProductSpec, opts: EvalOptions) -> Optional[_Automaton]:
    """The automaton whose engine evaluates the +-1 product ``spec``, or
    None when ``opts`` fix the split levels or the terms, which select the
    kind's oracle.

    For the engine, ``spec`` is validated, and offsets that would need a
    tail start above the automaton's ``max_tail_start`` raise
    ``CapabilityError``; neither check does head, table or oracle work.
    """
    if spec.kind is ExponentKind.PM_THUE:
        automaton, levels = THUE_MORSE, opts.split_levels
        oracle = ("--split-levels or --terms (EvalOptions split_levels or terms) "
                  f"selects the split oracle (offsets up to {MAX_TM_OFFSET})")
    else:
        automaton, levels = RUDIN_SHAPIRO, opts.rs_split_levels
        oracle = ("--rs-split-levels or --terms (EvalOptions rs_split_levels or "
                  "terms) selects the direct-sum oracle")
    if levels is not None or opts.terms is not None:
        return None
    spec.validate()
    if _tail_start(spec.rational, automaton.fold) > automaton.max_tail_start:
        raise CapabilityError(
            f"offsets |a_i| above {automaton.max_tail_start >> automaton.fold} need "
            f"a {automaton.name} tail start above {automaton.max_tail_start}, the "
            f"engine's cap; {oracle}")
    return automaton


def _plus_minus(spec: ProductSpec, opts: EvalOptions) -> EvalResult:
    """A +-1 product: the kind's oracle when the caller fixes its split
    levels or the terms, and the scaled tail engine otherwise, which
    refuses offsets past its cap (``_engine_automaton``).

    The oracle is looked up as a module global at each call, so that a
    wrapper installed over ``eval_pm_thue`` or ``eval_pm_rs`` sees every
    call routed to it.
    """
    automaton = _engine_automaton(spec, opts)
    if automaton is not None:
        return _engine(spec, opts.precision, automaton)
    oracle = eval_pm_thue if spec.kind is ExponentKind.PM_THUE else eval_pm_rs
    return oracle(spec, opts)


# ---------------------------------------------------------------------------
# Plain products (Gamma telescoping)
# ---------------------------------------------------------------------------

def eval_plain(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """prod_{n>=s} prod_i (n+a_i)^{m_i} = prod_i Gamma(a_i + s)^{-m_i}.

    Exact telescoping; the only error is Gamma's own, so no truncation
    parameters apply.  The estimate is sum_i |m_i| times ``gamma_error``
    of each Gamma value, plus two rounding units per power and product.
    """
    if spec.kind is not ExponentKind.PLAIN:
        raise InputError(f"eval_plain expects kind plain, got {spec.kind.value}")
    spec.validate()
    r = spec.rational
    precision = opts.precision
    wp = working_dps(precision)
    with workdps(wp) as ctx:
        value = ctx.mpf(1)
        rel = ctx.mpf(0)
        for f in r.factors:
            arg = f.offset + spec.start
            if arg <= 0:
                raise InputError(
                    f"Gamma telescoping needs offset + start > 0; "
                    f"factor offset {f.offset} with start {spec.start}")
            value *= ctx.convert(gamma(arg, precision)) ** (-f.multiplicity)
            rel += abs(f.multiplicity) * ctx.convert(gamma_error(arg, precision))
        rel += ctx.ldexp(2 * len(r.numerators) + 1, 1 - mpmath.libmp.dps_to_prec(wp))
        return EvalResult(export(value), export(value * rel), 0, 0)


def eval_zero_one_thue(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """prod R(n)^{t_n} = sqrt(plain / pm) via 2 t_n = 1 - (-1)^{t_n}."""
    if spec.kind is not ExponentKind.ZERO_ONE_THUE:
        raise InputError(f"eval_zero_one_thue expects kind t, got {spec.kind.value}")
    return _zero_one(spec, ExponentKind.PM_THUE, opts)


def _zero_one(spec: ProductSpec, pm_kind: ExponentKind,
              opts: EvalOptions) -> EvalResult:
    """sqrt(plain / pm) for the +-1 kind ``pm_kind``: half of each relative
    estimate, plus 10 rounding units of the working precision for the
    quotient and the root."""
    spec.validate()
    # the +-1 product first: it rejects a terms count before any Gamma work
    pm = _plus_minus(ProductSpec(spec.rational, pm_kind, spec.start), opts)
    plain = eval_plain(ProductSpec(spec.rational, ExponentKind.PLAIN, spec.start), opts)
    wp = working_dps(opts.precision)
    with workdps(wp) as ctx:
        value = ctx.sqrt(ctx.convert(plain.value) / pm.value)
        rel = (ctx.convert(plain.error_estimate) / plain.value
               + ctx.convert(pm.error_estimate) / pm.value) / 2
        rel += ctx.ldexp(10, 1 - mpmath.libmp.dps_to_prec(wp))
        return replace(pm, value=export(value), error_estimate=export(value * rel))


# ---------------------------------------------------------------------------
# Rudin-Shapiro products
# ---------------------------------------------------------------------------

def _eps_v_array(lo: int, hi: int) -> np.ndarray:
    """(-1)^{v_n} for n = lo..hi-1 as an int8 numpy array."""
    import numpy as np
    n = np.arange(lo, hi, dtype=np.uint64)
    pairs = np.bitwise_count(n & (n >> np.uint64(1)))
    return (1 - 2 * (pairs.astype(np.int64) & 1)).astype(np.int8)


# Terms per block of the Rudin-Shapiro tail: a block's arrays stay in cache
# and no array of all the terms is built.  These helpers and
# remainder_sign_probe are the package's only numpy users; numpy is
# imported on their first call, so the default paths never load it.
RS_BLOCK = 1 << 14


def _rs_tail_blocks(q: List[float], n0: int, terms: int) -> Iterator[np.ndarray]:
    """(-1)^{v_n} sum_j q_j n^-j for n0 <= n <= terms, one block at a time.

    Every term takes the same float64 Horner steps (acc += q_j; acc *= 1/n)
    in every block, so the terms do not depend on the block size.
    """
    import numpy as np
    for lo in range(n0, terms + 1, RS_BLOCK):
        hi = min(lo + RS_BLOCK, terms + 1)
        x = 1.0 / np.arange(lo, hi, dtype=np.float64)
        acc = np.zeros_like(x)
        for qj in q[:0:-1]:
            acc += qj
            acc *= x
        yield acc * _eps_v_array(lo, hi)


# np.frexp exponents of finite float64 values lie in -1073..1024
_FREXP_OFFSET = 1073
_FREXP_SLOTS = 1024 + _FREXP_OFFSET + 1


def _exact_sum(blocks: Iterable[np.ndarray]) -> float:
    """The exactly rounded sum of finite float64 blocks, equal to math.fsum
    of their concatenation, without building a Python list.

    Each x = f 2^e (np.frexp) has the integer mantissa M = f 2^53, cut
    into hi = M >> 26 and lo = M - hi 2^26 < 2^26.  np.bincount adds each
    half per exponent in float64, exactly while a block holds fewer than
    2^26 values; the integer sums are shifted onto one scale and a single
    int / int, which Python rounds correctly, gives the result.
    """
    import numpy as np
    hi_sums = np.zeros(_FREXP_SLOTS, dtype=np.int64)
    lo_sums = np.zeros(_FREXP_SLOTS, dtype=np.int64)
    for block in blocks:
        fraction, exponent = np.frexp(block)
        mantissa = np.ldexp(fraction, 53).astype(np.int64)
        hi = mantissa >> 26
        slot = exponent + _FREXP_OFFSET
        hi_sums += np.bincount(slot, weights=hi, minlength=_FREXP_SLOTS).astype(np.int64)
        lo_sums += np.bincount(slot, weights=mantissa - (hi << 26),
                               minlength=_FREXP_SLOTS).astype(np.int64)
    used = np.flatnonzero(hi_sums | lo_sums)
    if not used.size:
        return 0.0
    low = int(used[0])
    total = sum(((int(hi_sums[i]) << 26) + int(lo_sums[i])) << (int(i) - low)
                for i in used)
    # x = M 2^(e - 53) and e = slot - offset
    shift = low - _FREXP_OFFSET - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _rs_level_log_terms(r: FactoredRational, points: List[int]) -> List[float]:
    """[log R(n) for n in points] as floats via exactly rounded summation.

    Multiplicities after several rs splits are huge and cancel, so each
    term list is fed to math.fsum; the remaining error is the per-term
    rounding, bounded by eps * sum_i |m_i * log|1 + a_i/n||.  R(n) > 0 and
    the net degree is 0, so log R(n) = sum_i m_i log|1 + a_i/n| also at a
    point n where some n + a_i < 0; there each such factor takes the log of
    |n D + u_i| / (n D), and the others still log1p(a_i/n).
    """
    d = r.denominator
    # int / int is correctly rounded, like float(Fraction(u, D))
    offs = [(u, u / d, m) for u, m in r.numerators]
    return [math.fsum(m * (math.log1p(a / n) if n * d + u > 0
                           else math.log(-(n * d + u) / (n * d)))
                      for u, a, m in offs)
            for n in points]


def eval_pm_rs(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """Evaluate prod R(n)^{(-1)^{v_n}} by direct compensated summation,
    after optionally applying the exact Rudin-Shapiro split to damp the
    slow O(1/n) log-term component."""
    if spec.kind is not ExponentKind.PM_RS:
        raise InputError(f"eval_pm_rs expects kind pm-v, got {spec.kind.value}")
    terms = opts.rs_terms()
    spec.validate()
    precision = opts.precision
    wp = working_dps(precision)

    r = spec.rational
    levels = opts.rs_split_levels
    if levels is None:
        levels = 0 if r.power_sum(1) == 0 else DEFAULT_RS_SPLIT_LEVELS
    # the split turns no other rational into 1, and R = 1 has boundary 1
    if r.is_one:
        return EvalResult(mpmath.mpf(1), mpmath.mpf(0), 0, levels)

    pieces: List[float] = []
    exact_boundary = r.value_at(0) if spec.start == 0 else Fraction(1)

    for _ in range(levels):
        pieces.extend(_rs_level_log_terms(r, [1]))
        r = rs_split_rational(r)

    max_abs = float(r.max_abs_offset())
    n0 = max(8, int(math.ceil(2 * max_abs)) + 1)

    small_lo = 1 if levels > 0 else max(spec.start, 1)
    small_hi = min(n0, terms + 1)
    small_terms = _rs_level_log_terms(r, list(range(small_lo, small_hi)))
    pieces.extend(int(e) * t
                  for e, t in zip(_eps_v_array(small_lo, small_hi), small_terms))

    if terms >= n0:
        mass = sum(abs(m) for _, m in r.numerators)
        ratio = max(max_abs, 1e-9) / n0
        j_max = max(4, int(math.ceil((46 + math.log2(mass + 1))
                                     / -math.log2(ratio))) + 2)
        psums = rs_split_power_sums(spec.rational, levels, j_max)
        q = [0.0] * (j_max + 1)
        for j in range(1, j_max + 1):
            q[j] = float(psums[j] / j) * (1 if j % 2 == 1 else -1)
        pieces.append(_exact_sum(_rs_tail_blocks(q, n0, terms)))
    else:
        psums = rs_split_power_sums(spec.rational, levels, 3)

    log_sum = math.fsum(pieces)
    p1, p2, p3 = (abs(float(p)) for p in psums[1:4])
    sqrt_n = math.sqrt(terms)
    local_var = p1 / terms ** 2 + 2 * (p2 + p3) / terms ** 3
    abel_tail = 3 * (2 * p1 / sqrt_n + (p2 + p3) * terms ** -1.5)
    err_log = 3 * sqrt_n * local_var + abel_tail + 1e-12 * (1 + abs(log_sum))

    with workdps(wp) as ctx:
        # log_fraction(1) is exactly 0
        value = ctx.exp(ctx.mpf(log_sum) + log_fraction(exact_boundary, precision))
        return EvalResult(export(value), export(value * ctx.mpf(err_log)
                          + ctx.mpf(10) ** (5 - precision)), terms, levels)


def eval_zero_one_rs(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """prod R(n)^{v_n} = sqrt(plain / pm_rs)."""
    if spec.kind is not ExponentKind.ZERO_ONE_RS:
        raise InputError(f"eval_zero_one_rs expects kind v, got {spec.kind.value}")
    return _zero_one(spec, ExponentKind.PM_RS, opts)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_DISPATCH = {
    ExponentKind.PM_THUE: _plus_minus,
    ExponentKind.ZERO_ONE_THUE: eval_zero_one_thue,
    ExponentKind.PM_RS: _plus_minus,
    ExponentKind.ZERO_ONE_RS: eval_zero_one_rs,
    ExponentKind.PLAIN: eval_plain,
}


def eval_product(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """Dispatch to the kind-specific evaluator."""
    return _DISPATCH[spec.kind](spec, opts)


# ---------------------------------------------------------------------------
# The f and g functions
# ---------------------------------------------------------------------------

def _check_f_parameter(name: str, x: Fraction) -> None:
    if x.denominator == 1 and x <= -1:
        raise InputError(f"{name} = {x} is a negative integer; f is undefined there")


def f_value(a: Fraction, b: Fraction, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """f(a, b) = prod_{n>=1} ((n+a)/(n+b))^{(-1)^{t_n}}."""
    a, b = Fraction(a), Fraction(b)
    _check_f_parameter("a", a)
    _check_f_parameter("b", b)
    if a == b:
        return EvalResult(mpmath.mpf(1), mpmath.mpf(0), 0, 0)
    rational = FactoredRational.from_offsets({a: 1, b: -1})
    spec = ProductSpec(rational, ExponentKind.PM_THUE, 1)
    return _plus_minus(spec, opts)


def g_value(x: Fraction, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """g(x) = f(x/2, (x+1)/2) / (x+1)."""
    x = Fraction(x)
    if x < 0:
        raise InputError(f"g is evaluated on x >= 0 (real-log domain), got {x}")
    f = f_value(x / 2, (x + 1) / 2, opts)
    with workdps(working_dps(opts.precision)) as ctx:
        denom = mpf_from_fraction(x + 1, opts.precision)
        return replace(f, value=export(ctx.convert(f.value) / denom),
                       error_estimate=export(ctx.convert(f.error_estimate) / denom))


# ---------------------------------------------------------------------------
# Flajolet-Martin constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlajoletMartin:
    g0: EvalResult
    ratio: EvalResult            # R = prod ((4n+1)(4n+2)/(4n(4n+3)))^{(-1)^{t_n}}
    phi: mpmath.mpf              # 2^{-1/2} e^gamma (2/3) R
    phi_via_g0: mpmath.mpf       # 2^{-1/2} e^gamma / g(0)
    cross_check_error: mpmath.mpf  # |R g(0) - 3/2|


FM_RATIO_RATIONAL = FactoredRational.from_raw_factors(
    [(4, 1, 1), (4, 2, 1), (4, 0, -1), (4, 3, -1)])


def flajolet_martin(opts: EvalOptions = EvalOptions()) -> FlajoletMartin:
    """g(0), the product R, and the probabilistic-counting constant phi.

    Checks R * g(0) = 3/2 within the combined error estimates and reports
    phi both as 2^{-1/2} e^gamma (2/3) R and as 2^{-1/2} e^gamma / g(0).
    """
    precision = opts.precision
    # raises CapabilityError beyond the stored digits, before any work
    euler_gamma = constant("euler_gamma", precision)
    g0 = g_value(Fraction(0), opts)
    ratio = _plus_minus(ProductSpec(FM_RATIO_RATIONAL, ExponentKind.PM_THUE, 1), opts)
    with workdps(working_dps(precision)) as ctx:
        e_gamma = ctx.exp(euler_gamma)
        inv_sqrt2 = 1 / ctx.sqrt(ctx.mpf(2))
        phi = inv_sqrt2 * e_gamma * ctx.mpf(2) / 3 * ratio.value
        phi_alt = inv_sqrt2 * e_gamma / g0.value
        check = ctx.convert(ratio.value) * g0.value
        cross = abs(check - ctx.mpf(3) / 2)
        combined = (ctx.convert(ratio.error_estimate) * g0.value
                    + ctx.convert(g0.error_estimate) * ratio.value)
        if cross > 10 * combined:
            raise ConsistencyError(f"R*g(0) = {ctx.nstr(check, 25)} "
                                   f"deviates from 3/2 by {ctx.nstr(cross, 5)}")
        return FlajoletMartin(g0, ratio, export(phi), export(phi_alt), export(cross))


# ---------------------------------------------------------------------------
# Remainder sign probe (difference operator T G(x) = G(2x) - G(2x+1))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignProbeRow:
    n: int
    sign: int
    expected: int

    @property
    def matches(self) -> bool:
        return self.sign == self.expected


def remainder_sign_probe(a: Fraction, b: Fraction, k: int, n_max: int,
                         n_tail: int = 2 ** 20) -> List[SignProbeRow]:
    """Signs of truncated remainders sum_{j=n}^{N} (-1)^{t_j} T^k G(j)
    against (-1)^{t_n}, for G(x) = log((x+a)/(x+b)) with a > b > 0.

    N, the largest 2^p - 1 <= n_tail, ends the sums on a whole Thue-Morse
    block, and n_max must not exceed it.  T^k G(j) expands to
    sum_{i<2^k} (-1)^{t_i} G(2^k j + i), so the probe evaluates G on one
    dense grid, as log1p((a-b)/(x+b)) against float64 cancellation, and
    folds it k times.
    """
    a, b = Fraction(a), Fraction(b)
    if not (a > b > 0):
        raise InputError(f"need a > b > 0 for the completely monotone class, "
                         f"got a = {a}, b = {b}")
    if k < 0 or n_max < 1 or n_tail < n_max:
        raise InputError("need k >= 0 and 1 <= n_max <= n_tail")
    if n_tail + 1 > MAX_PROBE_GRID >> k:
        raise InputError(f"need 2^k * (n_tail + 1) <= {MAX_PROBE_GRID} grid points")
    n_tail = (1 << (n_tail + 1).bit_length() - 1) - 1
    if n_max > n_tail:
        raise InputError(f"need n_max <= {n_tail}, the largest 2^p - 1 <= n_tail")

    import numpy as np
    width = 1 << k
    top = width * (n_tail + 1)
    x = np.arange(0, top, dtype=np.float64)
    g = np.log1p(float(a - b) / (x + float(b)))
    for _ in range(k):
        g = g[0::2] - g[1::2]
    tk = g[1:n_tail + 1]

    n_arr = np.arange(1, n_tail + 1, dtype=np.uint64)
    t_par = np.bitwise_count(n_arr).astype(np.int64) & 1
    eps = (1 - 2 * t_par).astype(np.float64)
    weighted = eps * tk
    suffix = np.cumsum(weighted[::-1])[::-1]

    rows = []
    for n in range(1, n_max + 1):
        s = suffix[n - 1]
        sign = 1 if s > 0 else (-1 if s < 0 else 0)
        expected = -1 if (n.bit_count() & 1) else 1
        rows.append(SignProbeRow(n, sign, expected))
    return rows


# ---------------------------------------------------------------------------
# Monotonicity scan of h(x) = f(x/2, (x+1)/2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanPoint:
    x: Fraction
    value: mpmath.mpf
    error_estimate: mpmath.mpf


@dataclass(frozen=True)
class ScanReport:
    points: List[ScanPoint]
    violations: List[Tuple[Fraction, Fraction]]  # adjacent pairs not decreasing

    @property
    def strictly_decreasing(self) -> bool:
        return not self.violations


def monotonicity_scan(x_lo: Fraction, x_hi: Fraction, steps: int,
                      opts: EvalOptions = EvalOptions()) -> ScanReport:
    """Evaluate h(x) = f(x/2, (x+1)/2) on a uniform grid and flag any
    adjacent pair whose decrease is not resolved beyond the combined
    error estimates."""
    x_lo, x_hi = Fraction(x_lo), Fraction(x_hi)
    if steps < 1 or (steps > 1 and not x_lo < x_hi) or x_lo < 0:
        raise InputError("need 0 <= x_lo < x_hi and steps >= 1")
    # the largest x has the largest offsets, so a grid past the engine's
    # cap is refused before any point's work
    top = x_lo if steps == 1 else x_hi
    _engine_automaton(ProductSpec(FactoredRational.from_offsets(
        {top / 2: 1, (top + 1) / 2: -1}), ExponentKind.PM_THUE, 1), opts)
    points = []
    for i in range(steps):
        x = x_lo if steps == 1 else x_lo + (x_hi - x_lo) * i / (steps - 1)
        res = f_value(x / 2, (x + 1) / 2, opts)
        points.append(ScanPoint(x, res.value, res.error_estimate))
    violations = []
    with workdps(working_dps(opts.precision)) as ctx:
        for left, right in zip(points, points[1:]):
            if not (ctx.convert(left.value) - right.value
                    > ctx.convert(left.error_estimate) + right.error_estimate):
                violations.append((left.x, right.x))
    return ScanReport(points, violations)
