"""Numerical engines for the five exponent kinds and the analytic probes.

Every default +-1 evaluation, Thue-Morse or Rudin-Shapiro, goes through
one scaled tail engine.  The exponent x_n[0] comes from one binary
recursion (``_Automaton``): x_0 = 1, x_2n = x_n, and x_2n+1 = -x_n for
(-1)^{t_n} or (-1)^n x_n for Rudin-Shapiro's r_n = (-1)^{v_n}, whose
second state x_n[1] = (-1)^n x_n[0] is that twist.  The table sums and
solves state 0 alone; every row of a twisted second state is read off
state 0's.  With
a centre h (1/2 for Thue-Morse, 0 for Rudin-Shapiro) and
E(s) = M^s sum_{n>=M} x_n[0] (n+h)^-s,

    sum_{n>=start} x_n[0] log R(n)
        = log prod_{start<=n<M} R(n)^{x_n[0]}
          + sum_j (-1)^(j+1) p_j / (j M^j) E(j),

where p_j are the exact power sums of R's offsets less h.  The head is
one exact rational taken through one logarithm.  The table E(1..) does
not depend on R: it is built once per automaton and precision in
integers from the recursion read K = 2 binary digits at a time, n =
4n' + i (``FOLD``; Allouche & Cohen, "Dirichlet series and curious
infinite products", Bull. LMS 1985) and shared by every evaluation (a
bounded memo of a pure function, like ``gamma``).  The engine sums the
whole tail, so its digits are real and its error estimate is a derived
bound.  M grows with the largest offset and the table's cost
with M, so the engine refuses valid input whose offsets lie past the
automaton's ``max_offset`` (``CapabilityError``) before any head, table
or oracle work.

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
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, rshift, sub
from typing import (TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import mpmath
from mpmath import libmp

from ._record import Record
from .errors import CapabilityError, ConsistencyError, InputError
from .factored_rational import (FactoredRational, classify, dyadic_split,
                                pole_check, rs_split_power_sums,
                                rs_split_rational, sign_check)
from .numerics import (DEFAULT_PRECISION, ball, ball_prec, exp_ball, export,
                       gamma_product_ball, midpoint_radius, rational_ball,
                       upper, workdps, working_dps)
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
# Both oracles' heads grow with the offsets, so both refuse offsets |a_i|
# above this cap before any work.  The split oracle's head multiplies the
# integer factors of every point n < n0, n0 growing with max|a_i|, into
# one numerator and one denominator and builds one Fraction at the end
# (``_head``), so its cost is quadratic in the offsets: ``g --x X
# --split-levels 8`` at 60 digits took 7.3 s at X = 100000 and 14.9 s at
# X = 131070, just under the cap; in process, cProfile puts 3.0 s of the
# first case's 6.5 s in the products and 3.3 s in the final Fraction, one
# gcd of multi-megabit integers.  The direct-sum oracle takes one float
# log per factor and point n < n0 = 2 max|a_i| + 1 of its split rational:
# at the cap, ``eval "(n+65535)/(n+65536)" --kind pm-v --terms 16`` took
# 1.5 s at its default 10 split levels and 2.4 s at 12, and the fully
# convergent (n+a)(n+a+3)/((n+a+1)(n+a+2)) at a = 65533 0.65 s; past it,
# (n+4000000)/(n+4000001) took 56 s and the fully convergent one at
# a = 10^7 54 s.  Fresh processes, one run each, 2-vCPU Intel Xeon,
# Python 3.11, ``python -c pass`` 0.08 s.
MAX_ORACLE_OFFSET = 1 << 16
# Split work grows geometrically with the levels; these caps keep one
# request within about a minute.
MAX_SPLIT_LEVELS = 16
MAX_RS_SPLIT_LEVELS = 12
# The sign probe holds a few float64 arrays of 2^k * (n_tail + 1) points,
# about 0.3 GB at this cap; it admits k <= 2 at the default tail 2^20.
MAX_PROBE_GRID = 1 << 23


class ProductSpec(Record):
    """An infinite product: rational function, exponent kind, start index."""

    __slots__ = ("rational", "kind", "start")

    def __init__(self, rational: FactoredRational, kind: ExponentKind, start: int):
        self._set(rational, kind, start)

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
        sign_check(self.rational, self.start)


class EvalOptions(Record):
    """Work parameters: decimal precision, split levels, term counts.

    With ``split_levels`` (Thue-Morse) or ``rs_split_levels``
    (Rudin-Shapiro) and ``terms`` all None, +-1 products go through the
    scaled tail engine, which raises ``CapabilityError`` for an offset
    above the automaton's ``max_offset``.  Fixing either selects the
    kind's oracle.  ``eval_pm_thue`` reads None as
    ``DEFAULT_SPLIT_LEVELS`` levels and 4096 terms; ``eval_pm_rs`` reads
    ``terms`` None as 10^6, and ``rs_split_levels`` None as 0 for fully
    convergent rationals and 10 otherwise.  Both oracles refuse offsets
    above ``MAX_ORACLE_OFFSET`` (2^16) with ``InputError`` before any
    work, as their heads grow with the offsets.  ``tm_terms`` and
    ``rs_terms`` reject counts above ``MAX_TM_TERMS`` and ``MAX_RS_TERMS``.
    """

    __slots__ = ("precision", "split_levels", "terms", "rs_split_levels")

    def __init__(self, precision: int = DEFAULT_PRECISION,
                 split_levels: Optional[int] = None, terms: Optional[int] = None,
                 rs_split_levels: Optional[int] = None):
        if precision < 1:
            raise InputError("precision must be at least 1 digit")
        if not 0 <= (split_levels or 0) <= MAX_SPLIT_LEVELS:
            raise InputError(f"split levels must be in 0..{MAX_SPLIT_LEVELS}")
        if terms is not None and terms < 16:
            raise InputError("terms must be >= 16")
        if not 0 <= (rs_split_levels or 0) <= MAX_RS_SPLIT_LEVELS:
            raise InputError(f"rs split levels must be in 0..{MAX_RS_SPLIT_LEVELS}")
        self._set(precision, split_levels, terms, rs_split_levels)

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


class EvalResult(Record):
    """Value with an error estimate and the work actually done.

    Every path builds its result as a ball (``numerics.exp_ball`` and
    libmp's interval functions) from derived bounds: the value is a point
    of the ball and the estimate a radius about it that covers the ball, a
    bound on the error for the scaled tail engine, plain and 0/1 products
    and both oracles alike.
    """

    __slots__ = ("value", "error_estimate", "terms_used", "split_levels")

    def __init__(self, value: mpmath.mpf, error_estimate: mpmath.mpf,
                 terms_used: int, split_levels: int):
        self._set(value, error_estimate, terms_used, split_levels)


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
    member: 2^bits (n0/n)^j rounded down by less than j units.  The
    engine's Thue-Morse table is centred at n + 1/2 and solved from a
    recursion (``_scaled_table``); this one sums every n of its range
    directly, so it stays an independent check.  The table does
    not depend on the rational, so every Thue-Morse evaluation at one
    precision shares it.
    """
    parity = [n.bit_count() & 1 for n in range(terms + 1)]
    plus, minus = _floor_sums(parity, 2, range(n0, terms + 1), n0, 0, bits, j_max)
    return tuple(a - b for a, b in zip(plus[1:], minus[1:]))


def _tm_log_sum(r: FactoredRational, start: int, terms: int,
                precision: int) -> Tuple[Fraction, tuple, tuple]:
    """Split sum_{n>=start} (-1)^{t_n} log R(n) into an exact head, a tail
    summed to n = terms and a bound on the rest.

    Returns (head, tail, radius), the tail and radius as raw mpfs: the sum
    lies within radius of log head + tail.  The head, n < n0, is the exact
    rational prod R(n)^{(-1)^{t_n}}, left for the caller to fold into its
    own exact factor so that one logarithm covers both.  The tail expands
    log R(n) = sum_j c_j n^-j, c_j = (-1)^{j+1} p_j / j, from exact power
    sums and swaps the order of summation:

        sum_n (-1)^{t_n} log R(n) = sum_j c_j n0^-j T_j / 2^B,

    with T_j from ``_tm_tail_table``, so a call costs j_max coefficient
    roundings and products.  B = bits + g guard bits; each T_j is off by
    less than j * terms units and |c_j| n0^-j j <= mass (max_abs/n0)^j, so
    with the coefficient roundings and the final floor the tail is off by
    less than (mass + j_max) * terms * 2^-B + 2^-B <= 2^(1-bits), and the
    series past j_max by less than ``_series_tail`` over n >= n0.

    The rest, n > terms, is bounded by Abel summation against the partial
    sums S(n) = sum_{k<=n} (-1)^{t_k}, which lie in {-1, 0, 1} and vanish
    at odd n: from x = max(terms + 1, n0) on it is at most
    (|S(x-1)| + 1) F(x) (``_majorant``), and each n in (terms, n0) adds
    |log R(n)| <= |R(n) - 1| / min(R(n), 1).
    """
    max_abs = float(r.max_abs_offset())
    n0 = max(8, int(math.ceil(2 * max_abs)) + 1, start + 1)
    bits = int(math.ceil((precision + 12) * math.log2(10)))

    exact_hi = min(n0, terms + 1)
    head = _head(r, start, exact_hi, [-1 if n.bit_count() & 1 else 1 for n in range(exact_hi)])

    mass = sum(abs(m) for _, m in r.numerators)
    # series term j at n >= n0 is bounded by mass*(max_abs/n0)^j / j
    ratio = max(max_abs, 1e-9) / n0
    j_max = int(math.ceil((bits + math.log2(mass + 1) + 4)
                          / -math.log2(ratio))) + 2
    psums = r.power_sums(j_max)
    x = max(n0, terms + 1)
    radius = libmp.mpf_shift(_majorant(psums, mass, r.max_abs_offset(), x), x & 1)
    for q in r.values_at(range(terms + 1, n0)):
        p, d = q.numerator, q.denominator
        radius = libmp.mpf_add(radius, upper(abs(p - d), min(p, d)), 53, libmp.round_ceiling)
    if terms < n0:
        return head, libmp.fzero, radius

    # guard bits in steps of 32, so that similar rationals share one table
    guard = -(-((mass + j_max) * terms).bit_length() // 32) * 32
    table_bits = bits + guard
    table = _tm_tail_table(n0, terms, table_bits, j_max)
    acc = 0
    for j in range(j_max, 0, -1):
        c = psums[j] if j % 2 == 1 else -psums[j]
        acc += round(c * (1 << table_bits) / (j * n0 ** j)) * table[j - 1]
    rounding = libmp.mpf_add(
        libmp.from_man_exp(1, 1 - bits),
        _series_tail(mass, r.max_abs_offset() / n0, j_max, 1 + Fraction(n0, j_max)),
        53, libmp.round_ceiling)
    return (head, libmp.from_man_exp(acc >> table_bits, -table_bits),
            libmp.mpf_add(radius, rounding, 53, libmp.round_ceiling))


def _series_tail(mass: int, rho: Fraction, j: int, span: Fraction = Fraction(1)) -> tuple:
    """mass rho^(j+1) span / ((j+1)(1-rho)), rounded up, for rho =
    max|a_i| / x < 1.  With |c_k| <= mass max|a_i|^k / k, span 1 bounds
    sum_{k>j} |c_k| x^-k at one point and span 1 + x/j the same sum over
    every n >= x, as sum_{n>=x} n^-(j+1) <= x^-(j+1) (1 + x/j)."""
    p, q = rho.numerator, rho.denominator
    return upper(mass * p ** (j + 1) * q * span.numerator,
                 (j + 1) * (q - p) * q ** (j + 1) * span.denominator)


def _majorant(psums: Sequence[Fraction], mass: int, max_abs: Fraction, x: int) -> tuple:
    """F(x) = sum_{j>=1} |p_j| / (j x^j), rounded up, for x >= 2 max|a_i|,
    from the power sums p_1..p_j and ``_series_tail`` past them, where j
    is the first index whose tail is below 2^-60 of the sum so far, or J =
    len(psums) - 1.  The terms are rounded up to 53 bits and summed at 64,
    so F(x) is within about 2^-51 of the exact sum.  F(x) bounds
    |log R(n)| at every n >= x and its total variation over [x, oo),
    sum_j j |c_j| int_x^oo t^-(j+1) dt, so Abel summation against partial
    sums within S bounds sum_{n>=x} x_n log R(n) by (|S(x-1)| + S) F(x)."""
    rho = float(max_abs) / x
    total = libmp.fzero
    for j in range(1, len(psums)):
        p = psums[j]
        total = libmp.mpf_add(total, upper(abs(p.numerator), p.denominator * j * x ** j),
                              64, libmp.round_ceiling)
        if mass * rho ** (j + 1) < (j + 1) * (1 - rho) * libmp.to_float(total) * 2.0 ** -60:
            break
    return libmp.mpf_add(total, _series_tail(mass, max_abs / x, j), 53, libmp.round_ceiling)


def eval_pm_thue(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """Evaluate prod R(n)^{(-1)^{t_n}} by ``dyadic_split`` applied L times.

    After the first level the split rational starts at 1.  The product of
    the L boundaries and the head of ``_tm_log_sum`` is one exact rational,
    taken through one logarithm, and the tail's radius is ``_tm_log_sum``'s.
    """
    if spec.kind is not ExponentKind.PM_THUE:
        raise InputError(f"eval_pm_thue expects kind pm-t, got {spec.kind.value}")
    terms = opts.tm_terms()
    if spec.rational.max_abs_offset() > MAX_ORACLE_OFFSET:
        raise InputError(f"offsets |a_i| must be <= {MAX_ORACLE_OFFSET} for the split oracle")
    spec.validate()
    levels = DEFAULT_SPLIT_LEVELS if opts.split_levels is None else opts.split_levels
    precision = opts.precision

    r, start, boundary = spec.rational, spec.start, Fraction(1)
    for _ in range(levels):
        r, b = dyadic_split(r, start)
        start = 1
        boundary *= b
    head, tail, radius = _tm_log_sum(r, start, terms, precision)
    value, estimate = exp_ball(boundary * head, tail, radius, ball_prec(precision))
    return EvalResult(value, estimate, terms, levels)


# ---------------------------------------------------------------------------
# +-1 products: the scaled tail engine over a binary +-1 recursion
# ---------------------------------------------------------------------------

# K, the binary digits of n that one step of the engine's table reads:
# n = 2^K n' + i with i < 2^K.  K = 2 is fixed: ``_block_sums``' two
# octaves and ``_table_unit``'s f = 4m - 1/2, 17/2 and b = 4/3 are all
# derived at K = 2, and a larger K (K = 4 saves about a sixth of a cold
# 500-digit Rudin-Shapiro table) would have to re-derive each of them.
FOLD = 2


class _Automaton(Record):
    """A binary +-1 recursion, and the shape of its engine's table.

    Its sequence has x_0 = 1, x_2n = x_n and x_2n+1 = ``sign`` x_n, times
    (-1)^n when ``twisted``: -x_n for (-1)^{t_n}, and (-1)^n x_n for
    Rudin-Shapiro's r_n.  A product's exponent is x_n[0] = x_n, the only
    state that ``vectors`` builds.  A twisted sequence carries a second
    state, its twist x_n[1] = (-1)^n x_n, which closes the recursion:
    x_2n+1[0] = sign x_n[1] and x_2n+1[1] = -sign x_n[1], while
    x_2n[q] = x_n[0]; the table reads its rows off state 0's.  Reading the K = 2
    low digits of n = 4n' + i (``FOLD``) gives x_n = A_i x_n', where row 0
    of A_i holds one sign in one column and row 1 is row 0 times (-1)^i
    (``_moments``).  An untwisted table is ``centred``: it expands about
    n + 1/2 rather than n (``_scaled_table``).  A twisted table is not, as
    its second state's rows come from N_2n = 2 N_n.  The tail start M is
    ``tail_start``, or the next power of two that keeps
    max|a_i - h| <= M / 4, h = 1/2 for a centred table and 0 otherwise,
    so that each term of the tail series is at least 4 times smaller than
    the one before; every larger M has its own table.  Offsets |a_i| above
    ``max_offset`` are refused: that bounds the engine's work.
    """

    __slots__ = ("name", "sign", "twisted", "max_offset", "tail_start")
    __eq__ = object.__eq__  # by identity: ``_scaled_table``'s memo is keyed on it
    __hash__ = object.__hash__

    def __init__(self, name: str, sign: int, twisted: bool, max_offset: int,
                 tail_start: int):
        self._set(name, sign, twisted, max_offset, tail_start)

    @property
    def centred(self) -> bool:
        """Whether the table expands about n + 1/2: it does when untwisted."""
        return not self.twisted

    def start(self, reach: Fraction) -> int:
        """M for offsets with max|a_i - h| = ``reach``."""
        m = self.tail_start
        while reach * (1 << FOLD) > m:
            m <<= 1
        return m

    def reach(self, r: FactoredRational) -> Fraction:
        """max_i |a_i - h|, h the table's centre, 0 without factors."""
        if not self.centred:
            return r.max_abs_offset()
        d = r.denominator
        reach = max((abs(2 * u - d) for u, _ in r.numerators), default=0)
        return Fraction(reach, 2 * d)

    @property
    def max_tail_start(self) -> int:
        """The largest M of an accepted input: that of the offset -max_offset."""
        return self.start(self.max_offset + Fraction(self.centred, 2))

    def vectors(self, hi: int) -> List[int]:
        """[x_0, ..., x_{hi-1}], the sequence x_n = x_n[0]; a twisted
        second state is (-1)^n x_n and is never stored."""
        x = [1] * hi
        for n in range(1, hi):
            x[n] = x[n >> 1]
            if n & 1:
                x[n] *= -self.sign if self.twisted and n & 2 else self.sign
        return x


# Each automaton's cap on its offsets, the bound on the engine's work: the
# floor sums loop over 3M odd N (centred) or 2M values of n (folded), and
# the solve over rows whose series grow with M, so past a few hundred the
# table's cost doubles with M; both caps keep the cold 500-digit
# evaluation under about 0.6 s (Rudin-Shapiro's below; Thue-Morse's at
# M = 512 took 0.22 s on the same machine).  Up to both caps the pair
# divisors of ``_floor_sums`` fit in one 30-bit limb (16 N1 N2 < 2^28 at
# M = 512, 16 n1 n2 < 2^30 at M = 2048); past them they take two, and
# the pairs save little.  Larger
# offsets are refused (exit 3), and the kind's oracle runs only when its
# options are given.  Cold times are first calls in a fresh interpreter,
# three runs each unless noted, 2-vCPU AMD EPYC, Python 3.11.
#
# (-1)^{t_n}: x_2n+1 = -x_n, untwisted, one state; its table is
# centred at n + 1/2, where the moments vanish at every odd k, with tail
# start 32.  Cold g(x), engine (``_engine`` called directly past the cap)
# against the split oracle at its defaults, 60 / 500 digits:
#
#   M                  engine                       split oracle
#   32 (x = 10)        0.002-0.003 / 0.062-0.065 s  0.034-0.047 / 0.56-0.70 s
#   256 (x = 100)      0.009-0.026 / 0.14-0.23 s    0.035-0.061 / 0.97-1.01 s
#   512 (x = 200)      0.017-0.032 / 0.25-0.43 s    0.039-0.050 / 0.70-0.96 s
#   2048 (x = 1000)    0.13-0.16 / 1.31 s (one run) 0.049-0.066 / 1.51-1.97 s
#
# The cap, offsets up to 64, was set when the table was uncentred at
# K = 3, as the last M (512) at which the engine was no dearer than the
# oracle; it has not moved, though the centred engine is still cheaper at
# x = 200 (offsets up to 100).  g(x) takes M = 256 at x = 127; an offset
# within 1/2 of -64 needs M = 512.
THUE_MORSE = _Automaton("Thue-Morse", -1, False, 64, 32)
# r_n = (-1)^{v_n}: r_2n = r_n and r_2n+1 = (-1)^n r_n, as the last digit
# of 2n+1 ends an 11 block exactly when n is odd; so sign +1, twisted,
# and the table solves r's rows alone and reads those of the twist
# u_n = (-1)^n r_n off them (``_scaled_table``).  Engine on
# (n+M/4-1)/(n+M/4), the largest offset at M, against the direct-sum
# oracle at its defaults on (n+M/4)/(n+M/4+1), the smallest past M; the
# engine's times are medians of five, the oracle's best of three with
# numpy loaded (its import adds about 45 ms to a first call), on a
# slower day of the same machine (``python -c pass`` 0.07 s):
#
#   M      engine cold (warm), 60 / 500 digits     oracle, 60 / 500 digits
#   512    12 ms (0.5 ms) / 0.21 s (3.6 ms)        82 / 83 ms
#   1024   22 ms (1.0 ms) / 0.33 s (4.2 ms)        84 / 85 ms
#   2048   43 ms (2.7 ms) / 0.60 s (6.0 ms)        88 / 87 ms
#   4096   100 ms (9.0 ms) / 1.48 s (13 ms)        93 / 95 ms
#
# The engine gives every digit; the oracle gives 5.7 correct digits at
# any precision, under a derived bound of about 6.5e-6.  The cap, offsets
# up to 512 (M = 2048), is the last M at which the engine's cold cost at
# 60 digits is below the oracle's; there its 500-digit table is the
# dearer of the two caps' tables.
RUDIN_SHAPIRO = _Automaton("Rudin-Shapiro", 1, True, 512, 64)

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


def _moments(automaton: _Automaton, top: int) -> Tuple[int, List[List[int]]]:
    """(c_0, [column_0, ...]), column_t = [Q_0[0][t], ..., Q_top[0][t]]:
    row 0 of the moments Q_k = sum_{i<4} delta_i^k A_i, one column per
    state, with delta_i = i for an uncentred table and 2i - 3 for a
    centred one (``_scaled_table``), and c_0 = Q_0[0][0].

    Row 0 of A_i is read off the sequence: x_{4n+i} = sign_i x_n[t_i],
    x_n[1] = (-1)^n x_n, gives sign_i = x_i at n = 0 and
    t_i = [x_{4+i} != x_i x_1] at n = 1.  Only state 0 is solved, which
    needs Q_0[0][1] = 0: Q_0 is S^2 with S = A_0 + A_1, and Rudin-Shapiro's
    S = [[1, 1], [1, -1]] has S^2 = 2 I, so c_0 = 2.  Thue-Morse has
    c_0 = 0, and centred its Q_k is 0 at every odd k: the complement 3 - i
    of i has 2 - t_i ones, so A_i and A_(3-i) carry the same sign, while
    their delta_i are opposite.
    """
    width = 1 << FOLD
    x = automaton.vectors(2 * width)
    moments = [[0] * (top + 1) for _ in range(1 + automaton.twisted)]
    for i in range(width):
        delta = 2 * i + 1 - width if automaton.centred else i
        column = moments[x[width + i] != x[i] * x[1]]
        power = x[i]
        for k in range(top + 1):
            column[k] += power
            power *= delta
    return moments[0][0], moments


def _block_sums(automaton: _Automaton, m: int, bits: int
                ) -> Tuple[List[int], List[List[int]], Optional[List[int]]]:
    """(x, sums, b): x = [x_0, ..., x_{4m-1}] (``_Automaton.vectors``),
    sums[g][s] the class rows of ``_scaled_table``'s f_s and, for a
    twisted automaton (None otherwise), b[s] = b_s, the sum over the even
    n of octave 0, [m, 2m), of x_n 2^bits (m / (4n))^s; all for
    1 <= s <= bits/2 and rounded down (row 0 is 0).

    The class of n is g = (x_n < 0) + 2 (n mod 2) when twisted and
    (x_n < 0) otherwise, and class g's row sums 2^bits (c / (4 N_n))^s
    over its n in [m, 4m), with N_n = 2n + 1 and c = 2m for a centred
    table, N_n = n and c = m otherwise.  State 0's f_s is the sum of the
    rows of the classes with x_n = 1 less those with x_n = -1.

    A centred table takes one ``_floor_sums`` over the 3m odd N in
    [2m, 8m), ratios c / (4 N) < 1/4: 96 members at m = 32.  Every floor
    drops, so each class row is at most its exact sum, and below it by
    less than b = 4/3 for each member summed alone and b^2 for each pair.

    An uncentred block [m, 4m) is two octaves, [m, 2m) and [2m, 4m).  An
    even n = 2n' of octave 1 has x_n = x_n' and (m / (4n))^s =
    2^-s (m / (4n'))^s, so octave 0's class rows, shifted right by s
    bits, go into the same classes as octave 1's odd n.  Class g then
    holds its n of octave 0, their doubles and its odd n of octave 1, and
    a double keeps the sign x_n' that state 0 reads.  The floor sums take
    the m n of octave 0 and the m odd n of octave 1: 2m in place of 3m.
    b_s is octave 0's class 0 less class 1, at no extra floor sum.

    Every floor drops, so each class row is at most its exact sum.  An n
    that ``_floor_sums`` takes is off by less than b (a pair by less than
    b^2 <= 2b), an n of octave 0 reaches its double shifted right by at
    least 1 bit, and each class's shift floors once more, less than 1
    unit.  So class g's row is below its exact sum by less than

        b sum_{n in g} 2^-i(n) + 1,

    with i(n) = 1 for the even n of octave 1, folded once from n/2, and 0
    for the rest.
    """
    top = bits // FOLD
    x = automaton.vectors(m << FOLD)
    ids = [(v < 0) + 2 * (n & 1) * automaton.twisted for n, v in enumerate(x)]
    groups = 2 << automaton.twisted
    if automaton.centred:
        odd = [0] * (m << FOLD + 1)  # odd[2n+1] = ids[n]
        odd[1::2] = ids
        members = range(2 * m + 1, m << FOLD + 1, 2)
        return x, _floor_sums(odd, groups, members, 2 * m, FOLD, bits, top), None
    first = _floor_sums(ids, groups, range(m, 2 * m), m, FOLD, bits, top)
    second = _floor_sums(ids, groups, range(2 * m + 1, m << FOLD, 2), m, FOLD, bits, top)
    shifts = range(top + 1)
    sums = [list(map(add, map(add, a, b), map(rshift, a, shifts)))
            for a, b in zip(first, second)]
    return x, sums, list(map(sub, first[0], first[1]))


def _last_solved_row(c: int, c0: int, bits: int) -> int:
    """s0 of ``_scaled_table``: the last row s with B(s) >= 1/2, where
    B(s) = (c+1) 2^(bits - 2Ks) (2^K ((1 - (2^K-1)/(2^K c))^-s - 1) + |c_0|)
    falls with s, K = 2 and c the table's scale.  The walk starts at
    s = max(1, bits/(2K)), where B(s) >= 1/2 (see ``_scaled_table``), and
    takes a few rows."""
    width = 1 << FOLD
    num, den = width * c, width * c - width + 1  # (1 - (2^K-1)/(2^K c))^-1
    s = max(1, bits // (2 * FOLD))
    p, q = num ** (s + 1), den ** (s + 1)
    while True:
        # B(s+1) < 1/2 <=> 2 (c+1) (2^K (p - q) + |c_0| q) 2^(bits - 2K(s+1)) < q
        shift = bits - 2 * FOLD * (s + 1)
        lhs = 2 * (c + 1) * (width * (p - q) + abs(c0) * q)
        if lhs << max(shift, 0) < q << max(-shift, 0):
            return s
        s, p, q = s + 1, p * num, q * den


@lru_cache(maxsize=8)
def _scaled_table(automaton: _Automaton, m: int,
                  bits: int) -> Tuple[Tuple[int, ...], int, Tuple[int, ...]]:
    """(table, unit, signs): table = (e_0, ..., e_top) with
    e_s = E(s) 2^(bits - K s) to within unit = ``_table_unit(automaton, m)``
    units, and signs = (x_0[0], ..., x_{m-1}[0]), the exponents of the
    head's terms (``_head``).  E(s) = sum_{n>=m} x_n[0] (c/N_n)^s with
    N_n = n and scale c = m for an uncentred table, and N_n = 2n + 1 and
    c = 2m for a table centred at n + 1/2, whose E(s) is
    sum_{n>=m} x_n[0] (m/(n+1/2))^s.

    Writing n >= 4m as 4n' + i with i < 4, its K = 2 low digits
    (``FOLD``), gives x_n = A_i x_n' and N_n = 4 N_n' + delta_i, with
    delta_i = i uncentred and 2i - 3 centred (2n + 1 = 4 (2n' + 1) + 2i - 3).
    Expanding (1 + delta_i / (4 N_n'))^-s gives, for the vector E(s) over
    the states,

        E(s) = F(s) + 2^(-Ks) sum_{k>=0} C(-s,k) c^-k (Q_k / 2^(Kk)) E(s+k),

    with F(s) = sum_{m<=n<4m} x_n (c/N_n)^s and the moments
    Q_k = sum_{i<4} delta_i^k A_i (``_moments``).  Only state 0 is
    solved.  At the row scales the 2^(Kk) cancels, and with
    Q_0[0] = (c_0, 0):

        (1 - c_0 2^(-Ks)) e_s = f_s + 2^(-Ks) sum_{k>=1} c_k Q_k[0] e_{s+k},
        c_k = C(-s,k) c^-k,

    so each row carries K = 2 bits less than the one before, rows past
    bits/2 are 0, and the rows are filled from the top down.  For
    Thue-Morse c_0 = 0, and centred its Q_k vanish at every odd k, and
    |delta_i| / c is at most 3/(2m).  f_s is the sum of ``_block_sums``'
    class rows with x_n = 1 less those with x_n = -1: state 0's alone.

    A twisted automaton's second state is x_n[1] = (-1)^n x_n[0]
    (``_Automaton``): for Rudin-Shapiro u_n = (-1)^n r_n.  The even
    n >= 2m are 2n' with n' >= m, where
    x_2n'[1] = x_2n'[0] = x_n'[0] and (m/2n')^s = 2^-s (m/n')^s, so

        E_1(s) = 2 (B(s) + 2^-s E_0(s)) - E_0(s),

    with B(s) = sum over the even n in [m, 2m) of x_n[0] (m/n)^s.  At
    the row scale that is e_1[s] = (e_0[s] >> (s-1)) + 2 b_s - e_0[s],
    with b_s from ``_block_sums``, and every row of state 1 is set so:
    the rows above s0 from state 0's f_s, and each solved row as soon as
    row s of state 0 is solved.  The solve of a row reads the later rows
    of both states, and its Horner chain is state 0's alone.

    Rows above s0 >= 1 (``_last_solved_row``) take no solve: e_s = f_s.
    For s >= 2, |E_t(s)| <= sum_{n>=m} (m/n)^s <= 1 + m/(s-1) <= c + 1,
    as c/N_n <= m/n; the largest row sum of |Q_k| is at most
    sum_{i<2^K} |delta_i|^k < 2^K (2^K - 1)^k; and
    sum_{k>=1} C(s+k-1,k) x^k = (1-x)^-s - 1.  So with
    a = (2^K-1)/(2^K c) the exact correction of row s is below
    (c+1) 2^(bits - 2Ks) 2^K ((1 - a)^-s - 1) units, and the c_0 division
    moves the exact row by |c_0| 2^(-Ks) |e_s| <= |c_0| (c+1) 2^(bits - 2Ks).
    Their sum B(s) falls with s, by a factor at most (1 + R) 2^(-2K) < 1
    per row with R = (1 - a)^-1 < 2, so every row above the last with
    B(s) >= 1/2 moves by less than half a unit without its solve.  No row
    s <= bits/(2K) is skipped: there 2^(bits - 2Ks) >= 1 and
    (c+1) 2^K ((1 - a)^-s - 1) >= (c+1) 2^K s a = s (2^K - 1) (c+1)/c >= 1.

    The correction is a Horner sum over k = d, 2d, ..., k_max, with d = 2
    when every odd moment is 0 (centred Thue-Morse) and d = 1 otherwise.
    With v_k = sum_t Q_k[0][t] e_t[s+k], g = 32 guard bits and
    c_k / c_(k-d) = mu_k / nu_k, that is -(s+k-1) / (k c) for d = 1 and
    (s+k-2)(s+k-1) / ((k-1) k c^2) for d = 2,

        h <- floor((2^g v_k + h) mu_k / nu_k),  k = k_max, k_max - d, ..., d,

    ends at h = 2^g sum_k c_k v_k, and e_s gains floor(h / 2^(Ks+g)), so
    each term costs one moment x row product, one small multiplication
    and one small division, and two coefficients share one floor at
    d = 2.  The floor at k is carried into h by |c_(k-d)|, so together
    they are off by less than sum_k C(s+k-1,k) c^-k = (1-1/c)^-s units of
    h, below 2^-g of a row unit since (1-1/c)^-1 < 2^K.  The sum keeps
    the terms with 2^scale |c_k| >= 1, scale covering the row's bits above
    2^(Ks) and 40 guard bits; in k that weight rises while
    (s+k) > (k+1) c and then falls, so the kept terms are k = d, ..., k_max,
    found from log2 k! by a walk from the row above's k_max.  The table
    does not depend on the rational, so every evaluation of the automaton
    at one precision shares this one memo entry, unit and signs included.
    """
    top = bits // FOLD
    c = m << automaton.centred
    signs, sums, b = _block_sums(automaton, m, bits)
    # e[q][s]: row s of state q; state 0's start at f_s, class g's x_n being (-1)^g
    e = [[0] * (top + 1)]
    for g, row in enumerate(sums):
        e[0] = list(map(sub if g & 1 else add, e[0], row))

    def twist(s: int) -> int:  # state 1's row s from state 0's
        return (e[0][s] >> s - 1) + 2 * b[s] - e[0][s]
    if automaton.twisted:
        e.append([0] + [twist(s) for s in range(1, top + 1)])
    c0, moments = _moments(automaton, top)
    odd = any(column[k] for column in moments for k in range(1, top + 1, 2))
    step = 1 if odd else 2
    guard = 32  # the Horner sums' bits below the row's unit
    # columns[t][j] = 2^g Q_k[0][t] for k = step (j + 1)
    columns = [[p << guard for p in column[step::step]] for column in moments]
    # the Horner multipliers c_k / c_(k-step) = mu[s+k] / nu[k]
    if step == 1:
        mu = [1 - j for j in range(top + 1)]
        nu = [k * c for k in range(top + 1)]
    else:
        mu = [(j - 2) * (j - 1) for j in range(top + 1)]
        nu = [(k - 1) * k * c * c for k in range(top + 1)]
    log_fact = list(accumulate(map(math.log2, range(1, top)), initial=0.0))
    log_c = math.log2(c)

    def kept(s: int, k: int, scale: int) -> bool:  # 2^scale C(s+k-1,k) c^-k >= 1
        return scale + log_fact[s + k - 1] - log_fact[s - 1] - log_fact[k] >= k * log_c

    k_max = step
    for s in range(min(top - step, _last_solved_row(c, c0, bits)), 0, -1):
        # 40 guard bits, plus one per 32 rows for the growth of
        # C(s+k-1, k) c^-k <= (1-1/c)^-s; k = step is always kept
        scale = max(0, bits - 2 * FOLD * s) + 40 + s // 32
        k_max = min(k_max, top - s - (top - s) % step)
        while k_max + step <= top - s and kept(s, k_max + step, scale):
            k_max += step
        while k_max > step and not kept(s, k_max, scale):
            k_max -= step
        # v[j] = 2^g sum_t Q_k[0][t] e_t[s+k] for k = k_max - step j
        v: Optional[List[int]] = None
        for column, row in zip(columns, e):
            terms = map(mul, column[k_max // step - 1::-1], row[s + k_max:s:-step])
            v = list(terms if v is None else map(add, v, terms))
        h = 0
        for x, num, d in zip(v, mu[s + k_max:s:-step], nu[k_max:0:-step]):
            h = (x + h) * num // d
        rhs = e[0][s] + (h >> (FOLD * s + guard))
        e[0][s] = rhs + rhs * c0 // ((1 << FOLD * s) - c0)
        if automaton.twisted:
            e[1][s] = twist(s)
    return tuple(e[0]), _table_unit(automaton, m), tuple(signs[:m])


def _table_unit(automaton: _Automaton, m: int) -> int:
    """U: every row of ``_scaled_table(automaton, m, ·)``'s table is off
    by at most U units.

    Before the low moment and the c_0 division, a row is off by less than
    f + 1/2 + 8 units:

    * f bounds the floors of f_s, from ``_block_sums``, with b = 4/3.
      Centred, each of the 3m members is off by less than b alone and a
      pair by less than b^2, so f = 3m b^2 / 2 + G b, with G = 2 classes
      (x_n = 1 and -1) that may each leave one member alone: 8m/3 + 8/3
      for Thue-Morse; no octave is folded, so no weight or shift floor
      enters.  Uncentred, an n is off by less than b, with weight 1/2 where
      it is folded once into octave 1; for Rudin-Shapiro the m n of octave
      0 weigh 1 + 1/2 and the m odd n of octave 1 1, so (5/2) m b =
      (10/3) m, and the shift floors add less than 1 in each of the 4
      classes: below
      f = 4m - 1/2 for m >= 64.
    * Rows above s0 take no solve, which moves them by less than 1/2
      (``_scaled_table``).
    * Rows up to s0: the floors of the correction and of the solve, the
      Horner floors (less than 2^-g, g = 32; see ``_scaled_table``), the
      terms past the cut (2^scale |c_k| < 1 with scale >= bits - 4s + 40,
      |Q_k| < 4 * 3^k and |e_(s+k)| <= (c+1) 2^(bits - 2(s+k)), so less
      than 2^-36 (c+1) in all), the rows cut at the top and the errors of
      later rows carried by the moments k >= 2 add less than 8.  Those
      moments weigh 2^(-2s) sum_(k>=2) C(s+k-1,k) c^-k |Q_k[0]| (row 0's
      sum of absolute values), largest at s = 1: below 2^-10 for the
      uncentred table at c = m >= 64, which times U + gap_1 (below) is
      below 1, and for centred Thue-Morse, whose Q_k are 2 (3^k - 1) at
      even k, below (x^2 / 2) / (1 - x^2) with x = 3/c, which times U is
      below 1/8 for m >= 32.

    The solve multiplies by 1 / (1 - c_0 2^(-2s)) <= inv = 4 / (4 - c_0),
    and the low moment k = 1 carries later rows of state t with weight
    w_t,s = 2^(-2s) s |Q_1[0][t]| / c, largest at s = 1: only state 0 is
    solved, so only row 0 of Q_1 enters.  If every later row of state 0 is
    within U and of state t within U + gap_t, a row of state 0 is within
    inv (f + 17/2 + sum_t w_t,1 (U + gap_t)), so

        U = inv (f + 17/2 + sum_t w_t,1 gap_t) / (1 - inv sum_t w_t,1)

    holds for all rows.  For Thue-Morse, one state, c_0 = 0 and Q_1 = 0,
    so U = f + 17/2: 8m/3 + 67/6, 97 units at m = 32.

    State 0 has gap_0 = 0.  A twisted state 1 (``_scaled_table``) takes
    e_1[s] = (e_0[s] >> (s-1)) + 2 b_s - e_0[s] on every row: state 0's
    error reaches it times |2^(1-s) - 1| <= 1, the shift floors once
    (below 1), and b_s sums the m/2 even n of octave 0, each off by less
    than b (a pair by less than b^2 <= 2b), so twice b_s's error is below
    m b: gap_1 = m b + 1.  Above s0 state 0's rows are f_s, within
    f + 1/2 <= U, so the same U + gap_1 covers state 1's rows there.
    For Rudin-Shapiro (c_0 = 2, Q_1[0] = (1, -1)) that is 538 units at
    m = 64.
    """
    width = 1 << FOLD
    c0, moments = _moments(automaton, 1)
    b = Fraction(width, width - 1)
    if automaton.centred:
        f = (width - 1) * m * b * b / 2 + 2 * b
    else:
        f = width * m - Fraction(1, 2)
    c = m << automaton.centred
    # w[t] = w_t,1, the weight of state t's later rows in state 0's row 1
    w = [Fraction(abs(column[1]), width * c) for column in moments]
    gap = m * b + 1 if automaton.twisted else 0  # gap_1; w[-1] is state 1's
    inv = Fraction(width, width - c0)
    return math.ceil(inv * (f + Fraction(17, 2) + w[-1] * gap) / (1 - inv * sum(w)))


def _engine(spec: ProductSpec, precision: int, automaton: _Automaton) -> EvalResult:
    """prod_{n>=start} R(n)^{x_n[0]} from an exact head and the scaled tail.

    With h the table's centre (1/2 centred, else 0) and the power sums
    p_j = sum_i m_i (a_i - h)^j, a rational of scale 1 and net degree 0
    has log R(n) = sum_j (-1)^(j+1) p_j / (j (n+h)^j), so

        log prod = log H + sum_{j<=J} (-1)^(j+1) p_j / (j M^j) E(j),

    with the exact head H = prod_{start<=n<M} R(n)^{x_n[0]} and
    E(j) = sum_{n>=M} x_n[0] (M/(n+h))^j from ``_scaled_table`` at
    B = working bits + 32.  With rho = max|a_i - h| / M <= 2^-K and
    mass = sum |m_i|, the error of the log is bounded by

    * truncation: for n >= M the series of log R(n) past j = J is below
      mass (max|a_i - h|/(n+h))^(J+1) / ((J+1)(1-rho)), and summing over
      n gives at most mass rho^(J+1) (1 + M/J) / ((J+1)(1-rho))
      (``_series_tail``), as n + h >= n;
    * table rounding: row j is off by at most U (``_table_unit``) units of
      2^(Kj-B), which covers the floor sums of f_j and the Horner
      floors of its solve (less than 2^-32 of a unit), and is weighted by
      |p_j| / (j M^j) <= mass 2^(-Kj) / j, so at most U mass H_J 2^-B
      (H_J the harmonic number);
    * coefficient rounding: the sum below reads p_j as S_j / (2^(2h) D)^j
      (``power_sum_numerators``; S_j sums powers of 2 u_i - D when
      centred) and floors each term S_j table[j] 2^(Kj) / (j (2^(2h) D)^j M^j)
      once, J units of 2^-B; a floor by the shift and then by j D^j is one
      floor, as floor(floor(x) / n) = floor(x / n) for an integer n > 0.

    H_J < 1 + bit_length(J), so the tail is a ball of radius truncation
    plus (U mass (bit_length(J) + 1) + J) 2^-B, and ``exp_ball`` takes H
    and the tail through one logarithm and one exponential.
    """
    r = spec.rational
    if r.is_one:
        return EvalResult(mpmath.mpf(1), mpmath.mpf(0), 0, 0)
    reach = automaton.reach(r)
    m = automaton.start(reach)
    prec = ball_prec(precision)
    bits = prec + TABLE_GUARD
    table, unit, signs = _scaled_table(automaton, m, bits)
    head = _head(r, spec.start, m, signs)

    mass = sum(abs(mult) for _, mult in r.numerators)
    rho = reach / m
    width = 1 << FOLD
    need = (bits + math.log2(mass * (m + 1) * width / (width - 1))) / -math.log2(rho)
    j_max = min(len(table) - 1, max(1, math.ceil(need)))
    sums = r.power_sum_numerators(j_max, automaton.centred)
    # p_j 2^(Kj) / (j M^j) = S_j / (j D^j 2^(step j)) for M = 2^(K + step - 2h)
    step = m.bit_length() - 1 - FOLD + automaton.centred
    d, d_j = r.denominator, 1
    acc = 0
    for j in range(1, j_max + 1):
        d_j *= d
        term = (sums[j] * table[j] >> step * j) // (j * d_j)
        acc += term if j & 1 else -term
    rounding = libmp.from_man_exp(unit * mass * (j_max.bit_length() + 1) + j_max, -bits)
    radius = libmp.mpf_add(_series_tail(mass, rho, j_max, 1 + Fraction(m, j_max)),
                           rounding, 53, libmp.round_ceiling)
    value, estimate = exp_ball(head, libmp.from_man_exp(acc, -bits), radius, prec)
    return EvalResult(value, estimate, m, 0)


def _engine_automaton(spec: ProductSpec, opts: EvalOptions) -> Optional[_Automaton]:
    """The automaton whose engine evaluates the +-1 product ``spec``, or
    None when ``opts`` fix the split levels or the terms, which select the
    kind's oracle.

    For the engine, ``spec`` is validated, and offsets |a_i| above the
    automaton's ``max_offset`` raise ``CapabilityError``; neither check
    does head, table or oracle work.
    """
    if spec.kind is ExponentKind.PM_THUE:
        automaton, levels = THUE_MORSE, opts.split_levels
        oracle = ("--split-levels or --terms (EvalOptions split_levels or terms) "
                  f"selects the split oracle (offsets up to {MAX_ORACLE_OFFSET})")
    else:
        automaton, levels = RUDIN_SHAPIRO, opts.rs_split_levels
        oracle = ("--rs-split-levels or --terms (EvalOptions rs_split_levels or "
                  f"terms) selects the direct-sum oracle (offsets up to {MAX_ORACLE_OFFSET})")
    if levels is not None or opts.terms is not None:
        return None
    spec.validate()
    if spec.rational.max_abs_offset() > automaton.max_offset:
        raise CapabilityError(
            f"offsets |a_i| above {automaton.max_offset} are past the {automaton.name} "
            f"engine's cap (tail start {automaton.max_tail_start}); {oracle}")
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
    parameters apply.  ``gamma_product_ball`` takes the arguments
    a_i + s = (u_i + s D) / D from the integer offsets.  At denominator 1,
    2 or 4 each is a ball of relative radius ``gamma_error``.  Any other
    argument within the shift cap moves into (0, 1], where f pairs with
    1 - f by reflection, so that T5c's eighths take two sines; what is
    left takes Stirling's series.
    """
    if spec.kind is not ExponentKind.PLAIN:
        raise InputError(f"eval_plain expects kind plain, got {spec.kind.value}")
    spec.validate()
    d = spec.rational.denominator
    pairs = []
    for u, m in spec.rational.numerators:
        arg = Fraction(u + spec.start * d, d)
        if arg <= 0:
            raise InputError(
                f"Gamma telescoping needs offset + start > 0; "
                f"factor offset {Fraction(u, d)} with start {spec.start}")
        pairs.append((arg, -m))
    prec = ball_prec(opts.precision)
    value = gamma_product_ball(pairs, opts.precision, prec)
    return EvalResult(*midpoint_radius(value, prec), 0, 0)


def eval_zero_one_thue(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """prod R(n)^{t_n} = sqrt(plain / pm) via 2 t_n = 1 - (-1)^{t_n}."""
    if spec.kind is not ExponentKind.ZERO_ONE_THUE:
        raise InputError(f"eval_zero_one_thue expects kind t, got {spec.kind.value}")
    return _zero_one(spec, ExponentKind.PM_THUE, opts)


def _zero_one(spec: ProductSpec, pm_kind: ExponentKind,
              opts: EvalOptions) -> EvalResult:
    """sqrt(plain / pm) for the +-1 kind ``pm_kind``, from the two balls."""
    spec.validate()
    # the +-1 product first: it rejects a terms count before any Gamma work
    pm = _plus_minus(ProductSpec(spec.rational, pm_kind, spec.start), opts)
    plain = eval_plain(ProductSpec(spec.rational, ExponentKind.PLAIN, spec.start), opts)
    prec = ball_prec(opts.precision)
    quotient = libmp.mpi_div(_ball(plain, prec), _ball(pm, prec), prec)
    value, estimate = midpoint_radius(libmp.mpi_sqrt(quotient, prec), prec)
    return EvalResult(value, estimate, pm.terms_used, pm.split_levels)


def _ball(result: EvalResult, prec: int) -> Tuple[tuple, tuple]:
    """The ball of ``result``: its value within its error estimate."""
    return ball(result.value._mpf_, result.error_estimate._mpf_, prec)


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


def _rs_level_log_terms(r: FactoredRational, points: Iterable[int]
                        ) -> Tuple[List[float], float]:
    """([log R(n) for n in points] as floats, a bound on their rounding).

    Multiplicities after several rs splits are huge and cancel, so each
    term list is fed to math.fsum, which rounds once.  R(n) > 0 and the
    net degree is 0, so log R(n) = sum_i m_i log|1 + a_i/n| also at a point
    n where some n + a_i < 0; there each such factor takes the log of
    |n D + u_i| / (n D), and the others still log1p(a_i/n).

    With u = 2^-53, and log1p and log taken to be within one ulp (2u of
    the value, an assumption about the platform's libm): a_i = u_i / D and
    a_i / n round once each, which moves log1p by at most
    2.02u |u_i| / (n D + u_i), and |n D + u_i| / (n D) rounds once, which
    moves log by at most 1.01u; the product by m_i rounds once.  So a
    factor's term t is off by less than u (4|t| + 3|m_i u_i| / (nD + u_i))
    or u (4|t| + 2|m_i|), and the fsum adds u |log R(n)|.  For u_i >= 0,
    u_i / (nD + u_i) = x/(1+x) <= log1p(x) = |t / m_i|, so 7u|t| covers
    both; only the negative offsets need the second term.
    """
    d = r.denominator
    # int / int is correctly rounded, like float(Fraction(u, D))
    offs = [(u, u / d, m) for u, m in r.numerators]
    negative = [(u, m) for u, m in r.numerators if u < 0]
    logs: List[float] = []
    bounds: List[float] = []
    for n in points:
        nd = n * d
        terms = [m * (math.log1p(a / n) if nd + u > 0 else math.log(-(nd + u) / nd))
                 for u, a, m in offs]
        logs.append(math.fsum(terms))
        bounds += [7 * math.fsum(map(abs, terms)), abs(logs[-1])]
        bounds += [abs(m) * (-3 * u / (nd + u) if nd + u > 0 else 2) for u, m in negative]
    return logs, math.ldexp(math.fsum(bounds), -53)


def eval_pm_rs(spec: ProductSpec, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """Evaluate prod R(n)^{(-1)^{v_n}} by direct compensated summation,
    after optionally applying the exact Rudin-Shapiro split to damp the
    slow O(1/n) log-term component.

    The estimate is derived.  Past the summed terms, from x = max(terms + 1,
    n0) on, Abel summation against s(n) = sum_{k<=n} r_k, with
    |s(n)| <= sqrt(6n) (Brillhart and Morton, 1978), bounds the rest by
    sqrt(6(x-1)) F(x) + sqrt(6) sum_j j |c_j| int_x^oo t^(-j-1/2) dt
    <= 3 sqrt(6x) F(x) (``_majorant``); a point in (terms, n0) adds its
    |log R(n)|.  The float64 terms add their rounding: the log-terms'
    (``_rs_level_log_terms``), the tail's Horner steps, each term off by
    at most (3 j_max + 2) u sum_j |q_j| n^-j <= (3 j_max + 2) u
    sum_j |q_j| n0^-j with u = 2^-53, the series past j_max (``_series_tail``), and one rounding
    u |.| for the exact tail sum and for the sum of the pieces.  The
    margins in these counts cover the rounding of the bound's own float
    arithmetic.
    """
    if spec.kind is not ExponentKind.PM_RS:
        raise InputError(f"eval_pm_rs expects kind pm-v, got {spec.kind.value}")
    terms = opts.rs_terms()
    if spec.rational.max_abs_offset() > MAX_ORACLE_OFFSET:
        raise InputError(f"offsets |a_i| must be <= {MAX_ORACLE_OFFSET} "
                         "for the direct-sum oracle")
    spec.validate()
    r = spec.rational
    levels = opts.rs_split_levels
    if levels is None:
        levels = 0 if r.power_sum(1) == 0 else DEFAULT_RS_SPLIT_LEVELS
    # the split turns no other rational into 1, and R = 1 has boundary 1
    if r.is_one:
        return EvalResult(mpmath.mpf(1), mpmath.mpf(0), 0, levels)

    pieces: List[float] = []
    rounding: List[float] = []
    exact_boundary = r.value_at(0) if spec.start == 0 else Fraction(1)

    for _ in range(levels):
        logs, bound = _rs_level_log_terms(r, [1])
        pieces += logs
        rounding.append(bound)
        r = rs_split_rational(r)

    max_abs = r.max_abs_offset()
    n0 = max(8, int(math.ceil(2 * float(max_abs))) + 1)

    small_lo = 1 if levels > 0 else max(spec.start, 1)
    small_hi = min(n0, terms + 1)
    small_terms, bound = _rs_level_log_terms(r, range(small_lo, small_hi))
    rounding.append(bound)
    pieces.extend(int(e) * t
                  for e, t in zip(_eps_v_array(small_lo, small_hi), small_terms))

    mass = sum(abs(m) for _, m in r.numerators)
    ratio = max(float(max_abs), 1e-9) / n0
    j_max = max(4, int(math.ceil((46 + math.log2(mass + 1))
                                 / -math.log2(ratio))) + 2)
    psums = rs_split_power_sums(spec.rational, levels, j_max)
    radius = libmp.fzero
    if terms >= n0:
        q = [0.0] * (j_max + 1)
        for j in range(1, j_max + 1):
            q[j] = float(psums[j] / j) * (1 if j % 2 == 1 else -1)
        pieces.append(_exact_sum(_rs_tail_blocks(q, n0, terms)))
        horner = (3 * j_max + 2) * (terms - n0 + 1) * math.fsum(
            abs(qj) / n0 ** j for j, qj in enumerate(q))
        rounding.append(math.ldexp(abs(pieces[-1]) + horner, -53))
        radius = _series_tail(mass, max_abs / n0, j_max, 1 + Fraction(n0, j_max))
    gap, bound = _rs_level_log_terms(r, range(terms + 1, n0))
    log_sum = math.fsum(pieces)
    rounding += [math.ldexp(abs(log_sum), -53), bound] + [abs(t) for t in gap]
    x = max(terms + 1, n0)
    abel = libmp.mpf_mul(libmp.mpf_sqrt(libmp.from_int(54 * x), 53, libmp.round_ceiling),
                         _majorant(psums, mass, max_abs, x), 53, libmp.round_ceiling)
    for part in (abel, libmp.from_float(math.fsum(rounding))):
        radius = libmp.mpf_add(radius, part, 53, libmp.round_ceiling)
    value, estimate = exp_ball(exact_boundary, libmp.from_float(log_sum), radius,
                               ball_prec(opts.precision))
    return EvalResult(value, estimate, terms, levels)


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

def f_value(a: Fraction, b: Fraction, opts: EvalOptions = EvalOptions()) -> EvalResult:
    """f(a, b) = prod_{n>=1} ((n+a)/(n+b))^{(-1)^{t_n}}."""
    a, b = Fraction(a), Fraction(b)
    if a == b:
        if a.denominator == 1 and a < 0:  # 0/0 at n = -a, which validation never sees
            raise InputError(f"factor vanishes at n = {-a} within the product range n >= 1")
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
    prec = ball_prec(opts.precision)
    g = libmp.mpi_div(_ball(f, prec), rational_ball(x + 1, prec), prec)
    value, estimate = midpoint_radius(g, prec)
    return EvalResult(value, estimate, f.terms_used, f.split_levels)


# ---------------------------------------------------------------------------
# Flajolet-Martin constants
# ---------------------------------------------------------------------------

class FlajoletMartin(Record):
    __slots__ = ("g0", "ratio", "phi", "phi_via_g0", "cross_check_error", "phi_error")

    def __init__(self, g0: EvalResult,
                 ratio: EvalResult,  # R = prod ((4n+1)(4n+2)/(4n(4n+3)))^{(-1)^{t_n}}
                 phi: mpmath.mpf,  # 2^{-1/2} e^gamma (2/3) R
                 phi_via_g0: mpmath.mpf,  # 2^{-1/2} e^gamma / g(0)
                 cross_check_error: mpmath.mpf,  # |R g(0) - 3/2|
                 phi_error: mpmath.mpf):  # the radius of phi's ball
        self._set(g0, ratio, phi, phi_via_g0, cross_check_error, phi_error)


FM_RATIO_RATIONAL = FactoredRational.from_raw_factors(
    [(4, 1, 1), (4, 2, 1), (4, 0, -1), (4, 3, -1)])


# phi's guard bits: perfbench, and any reader of phi, takes phi's relative
# error to be R's (|phi| est(R) / |R|)
FM_GUARD_BITS = 64


def flajolet_martin(opts: EvalOptions = EvalOptions()) -> FlajoletMartin:
    """g(0), the product R, and the probabilistic-counting constant phi.

    Raises ``ConsistencyError`` unless 3/2 lies in the ball of R g(0), the
    product of the two results' balls.  Reports phi both as
    2^{-1/2} e^gamma (2/3) R, a ball whose radius is ``phi_error``, and as
    2^{-1/2} e^gamma / g(0).  Both are composed ``FM_GUARD_BITS`` past the
    working precision, so that each carries the relative error of R or
    g(0) and, to within 2^-64 of it, nothing more.
    """
    precision = opts.precision
    g0 = g_value(Fraction(0), opts)
    ratio = _plus_minus(ProductSpec(FM_RATIO_RATIONAL, ExponentKind.PM_THUE, 1), opts)
    prec = ball_prec(precision)
    lo, hi = libmp.mpi_mul(_ball(ratio, prec), _ball(g0, prec), prec)
    with workdps(working_dps(precision)) as ctx:
        product = ctx.convert(ratio.value) * g0.value
        cross = abs(product - ctx.mpf(3) / 2)
        if not ctx.make_mpf(lo) <= 1.5 <= ctx.make_mpf(hi):
            raise ConsistencyError(f"R*g(0) = {ctx.nstr(product, 25)} "
                                   f"deviates from 3/2 by {ctx.nstr(cross, 5)}")
    fine = prec + FM_GUARD_BITS
    euler = libmp.mpf_euler(fine, libmp.round_floor), libmp.mpf_euler(fine, libmp.round_ceiling)
    two = libmp.from_int(2)
    # e^gamma / sqrt(2)
    c = libmp.mpi_div(libmp.mpi_exp(euler, fine), libmp.mpi_sqrt((two, two), fine), fine)
    phi = libmp.mpi_mul(libmp.mpi_mul(c, rational_ball(Fraction(2, 3), fine), fine),
                        _ball(ratio, fine), fine)
    phi, phi_error = midpoint_radius(phi, fine)
    phi_alt = midpoint_radius(libmp.mpi_div(c, _ball(g0, fine), fine), fine)[0]
    return FlajoletMartin(g0, ratio, phi, phi_alt, export(cross), phi_error)


# ---------------------------------------------------------------------------
# Remainder sign probe (difference operator T G(x) = G(2x) - G(2x+1))
# ---------------------------------------------------------------------------

class SignProbeRow(Record):
    __slots__ = ("n", "sign", "expected")

    def __init__(self, n: int, sign: int, expected: int):
        self._set(n, sign, expected)

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

class ScanPoint(Record):
    __slots__ = ("x", "value", "error_estimate")

    def __init__(self, x: Fraction, value: mpmath.mpf, error_estimate: mpmath.mpf):
        self._set(x, value, error_estimate)


class ScanReport(Record):
    __slots__ = ("points", "violations")

    def __init__(self, points: List[ScanPoint],
                 violations: List[Tuple[Fraction, Fraction]]):  # adjacent pairs not decreasing
        self._set(points, violations)

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
