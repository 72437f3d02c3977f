"""Exact factored rational functions R(n) = s * prod_i (n + a_i)^{m_i}.

Offsets a_i are exact rationals, multiplicities m_i nonzero integers
(positive factors belong to the numerator, negative to the denominator),
and the scale s is a positive rational.  A value stores its offsets as
integer numerators over one common denominator, a_i = u_i / D, with D the
least common denominator of the reduced offsets and the u_i strictly
increasing.  That form is canonical, so equal rationals compare and hash
equal, and it is immutable after construction.

Everything here is exact and works on the integers u_i: ``regroup`` is
the one substitution rule (n -> c*n + d, behind construction from raw
factors and every split), ``values_at`` the exact evaluator of
R(n) at rational points (``value_at`` is its one-point case) and
``power_sum_numerators`` the one source of the power sums that drive the
tail series: the integers S_j = sum_i m_i u_i^j, with p_j = S_j / D^j.
``power_sums`` and ``power_sum`` are their Fraction view, the engine
reads S_j and D^j directly, and ``rs_split_power_sums`` carries the S_j through the
Rudin-Shapiro split chain.  ``evaluator._head`` also multiplies the
integer factors n D + u_i, on purpose: a signed product over many
integer points builds one Fraction at the end, not one per point.  The
``factors`` view of ``AffineFactor``s is built on demand, for rendering
and for callers that want each offset as a Fraction.  The only numerical
operation, ``log_term``, is ``numerics.log_fraction`` of the exact value.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul
from typing import Iterable, List, Optional, Tuple, Union

from ._record import Record
from .errors import EvaluationError, InputError, ParseError
from .numerics import log_fraction

RationalLike = Union[int, Fraction]


class AffineFactor(Record):
    """One monic factor (n + offset)^multiplicity."""

    __slots__ = ("offset", "multiplicity")

    def __init__(self, offset: Fraction, multiplicity: int):
        self._set(offset, multiplicity)


class FactoredRational(Record):
    """Canonical product s * prod (n + u_i/D)^{m_i}: ``denominator`` D is the
    least common denominator of the reduced offsets (1 without factors) and
    ``numerators`` the pairs (u_i, m_i), u_i strictly increasing, m_i nonzero."""

    __slots__ = ("scale", "denominator", "numerators")

    def __init__(self, scale: Fraction, denominator: int,
                 numerators: Tuple[Tuple[int, int], ...]):
        if scale <= 0:
            raise InputError(f"scale must be positive, got {scale}")
        self._set(scale, denominator, numerators)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_offsets(offsets: dict, scale: RationalLike = 1) -> "FactoredRational":
        """Build from {offset: multiplicity}; zero multiplicities are dropped."""
        items = [(Fraction(a), int(m)) for a, m in offsets.items() if m]
        d = math.lcm(*(a.denominator for a, _ in items))
        return FactoredRational(Fraction(scale), d, tuple(sorted(
            (a.numerator * (d // a.denominator), m) for a, m in items)))

    @staticmethod
    def from_raw_factors(raw: Iterable[Tuple[RationalLike, RationalLike, int]],
                         scale: RationalLike = 1) -> "FactoredRational":
        """scale * prod (c*n + d)^m: the rational n regrouped by ``raw``.

        Each leading coefficient c must be positive and each m nonzero.
        """
        raw = list(raw)
        if any(m == 0 for _, _, m in raw):
            raise InputError("factor multiplicity must be nonzero")
        r = FactoredRational(Fraction(1), 1, ((0, 1),)).regroup(raw)
        return FactoredRational(r.scale * Fraction(scale), r.denominator, r.numerators)

    @staticmethod
    def parse(text: str) -> "FactoredRational":
        return _parse(text)

    # -- basic queries -------------------------------------------------

    @property
    def factors(self) -> Tuple[AffineFactor, ...]:
        """The factors (n + u_i/D)^{m_i} by increasing offset, built on each access."""
        return tuple(AffineFactor(Fraction(u, self.denominator), m)
                     for u, m in self.numerators)

    @property
    def is_one(self) -> bool:
        return not self.numerators and self.scale == 1

    def degree_sum(self) -> int:
        """Net degree (numerator degree minus denominator degree)."""
        return sum(m for _, m in self.numerators)

    def power_sum_numerators(self, j_max: int, centred: bool = False) -> List[int]:
        """[S_0, ..., S_{j_max}], S_j = sum_i m_i * u_i^j, so that the power
        sum p_j = sum_i m_i * a_i^j is S_j / D^j.  With ``centred``,
        S_j = sum_i m_i * (2 u_i - D)^j, so that the power sum of the
        offsets less 1/2, sum_i m_i * (a_i - 1/2)^j, is S_j / (2D)^j."""
        sums = [0] * (j_max + 1)
        for u, m in self.numerators:
            base = 2 * u - self.denominator if centred else u
            sums = list(map(add, sums, accumulate(repeat(base, j_max), mul, initial=m)))
        return sums

    def power_sums(self, j_max: int) -> List[Fraction]:
        """Exact power sums [p_0, ..., p_{j_max}], p_j = sum_i m_i * a_i^j."""
        sums = self.power_sum_numerators(j_max)
        return [Fraction(s, self.denominator ** j) for j, s in enumerate(sums)]

    def power_sum(self, j: int) -> Fraction:
        """Exact power sum p_j = sum_i m_i * a_i^j."""
        return Fraction(self.power_sum_numerators(j)[j], self.denominator ** j)

    def max_abs_offset(self) -> Fraction:
        """max_i |a_i|, 0 without factors; the numerators are sorted."""
        nums = self.numerators
        return Fraction(max(-nums[0][0], nums[-1][0]) if nums else 0, self.denominator)

    def values_at(self, points: Iterable[RationalLike]) -> List[Fraction]:
        """Exact values [R(n) for n in points]; raises EvaluationError at a pole.

        With n = p/q and a_i = u_i/D, each factor is (pD + u_i q) / (qD),
        so each value is one integer quotient scaled by s and (qD)^(-degree).
        """
        d = self.denominator
        degree = self.degree_sum()
        values = []
        for n in points:
            n = Fraction(n)
            p, q = n.numerator * d, n.denominator
            num, den = self.scale.numerator, self.scale.denominator
            for u, m in self.numerators:
                base = p + u * q
                if base == 0:
                    if m < 0:
                        raise EvaluationError(f"pole of R at n = {n}")
                    num = 0
                    break
                if m > 0:
                    num *= base ** m
                else:
                    den *= base ** -m
            else:
                if degree > 0:
                    den *= (q * d) ** degree
                else:
                    num *= (q * d) ** -degree
            values.append(Fraction(num, den))
        return values

    def value_at(self, n: RationalLike) -> Fraction:
        """Exact value R(n) at a rational n (see ``values_at``)."""
        return self.values_at([n])[0]

    # -- substitution --------------------------------------------------

    def regroup(self, maps: Iterable[Tuple[RationalLike, RationalLike, int]]
                ) -> "FactoredRational":
        """The rational n -> prod R(c*n + d)^w over (c, d, w) in ``maps``.

        The one substitution rule: each offset a moves to (a + d)/c with
        multiplicity m*w and the scale gains (s c^degree)^w.  It runs in
        integers: with a = u/D, every image (u/D + d)/c is an integer
        numerator over one common denominator E, the multiplicities are
        merged on those integers, and one gcd brings the surviving
        numerators and E to the canonical denominator.
        """
        maps = list(maps)
        degree = self.degree_sum()
        den = self.denominator
        common = 1
        weights: dict = {}
        for c, d, w in maps:
            if c <= 0:
                raise InputError(f"coefficient of n must be positive, got {c}")
            weights[c] = weights.get(c, 0) + w
            common = math.lcm(common, den * d.denominator * c.numerator)
        # (u/D + d)/c = (u*dq + dp*D) * cq / (D*dq*cp) with d = dp/dq, c = cp/cq
        counts: dict = {}
        for c, d, w in maps:
            k = common // (den * d.denominator * c.numerator) * c.denominator
            slope, shift = d.denominator * k, d.numerator * den * k
            for u, m in self.numerators:
                key = u * slope + shift
                counts[key] = counts.get(key, 0) + m * w
        scale = Fraction(1)
        for c, w in weights.items():
            scale *= (self.scale * Fraction(c) ** degree) ** w
        keys = sorted(key for key, m in counts.items() if m)
        g = math.gcd(common, *keys)
        return FactoredRational(scale, common // g,
                                tuple((key // g, counts[key]) for key in keys))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical factor-expression string; parse(render(R)) == R."""
        num_parts = []
        den_parts = []
        # integer-coefficient linears: (n + p/q)^m is emitted as (qn+p)^m,
        # which multiplies the expression by q^m; compensate in the scale
        comp = Fraction(1)
        for f in self.factors:
            q = f.offset.denominator
            p = f.offset.numerator
            comp *= Fraction(q) ** f.multiplicity
            body = ("n" if q == 1 else f"{q}n") + (f"{p:+d}" if p else "")
            mult = abs(f.multiplicity)
            part = f"({body})" + (f"^{mult}" if mult != 1 else "")
            (num_parts if f.multiplicity > 0 else den_parts).append(part)
        emitted_scale = self.scale / comp
        u, v = emitted_scale.numerator, emitted_scale.denominator
        if u != 1 or not num_parts:
            num_parts.insert(0, str(u))
        if v != 1:
            den_parts.insert(0, str(v))
        num = "".join(num_parts)
        if not den_parts:
            return num
        if len(den_parts) == 1:
            return f"{num}/{den_parts[0]}"
        return f"{num}/({''.join(den_parts)})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[n()^+/*-])")


class _Parser:
    """Recursive-descent parser for the factor-expression grammar.

    product := term { term } [ "/" "(" term { term } ")" | "/" term ]
    term    := [ integer ] "(" linear ")" [ "^" integer ] | integer
    linear  := [ integer ] "n" [ ("+"|"-") rational ] | rational
    rational:= integer [ "/" integer ]

    One token of lookahead picks the denominator's form: after "/(" it is
    a group of terms when the next token is "(", or an integer followed by
    "(" or by another integer, and one term otherwise, so "/(3)^2" is 1/9
    and "/(2(n+1))" is a group.
    """

    def __init__(self, text: str):
        # whitespace may come before any token and after the last one
        text = text.replace("−", "-").rstrip()
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.tokens.append((None, len(text)))  # end marker
        self.i = 0

    def peek(self, ahead: int = 0) -> Optional[str]:
        return self.tokens[self.i + ahead][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.pos())
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, found {got!r}", self.tokens[self.i - 1][1])

    def parse_integer(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected integer, found {tok!r}", self.tokens[self.i - 1][1])
        return sign * int(tok)

    def parse_rational(self) -> Fraction:
        num = self.parse_integer()
        # only a rational if a digit follows; a trailing "/" starts the denominator
        if self.peek() != "/" or not _is_integer(self.peek(1)):
            return Fraction(num)
        den = int(self.peek(1))
        if den == 0:
            raise ParseError("zero denominator in rational", self.pos())
        self.i += 2
        return Fraction(num, den)

    def parse_linear(self) -> Tuple[Fraction, Fraction]:
        """Returns (c, d) for c*n + d; c == 0 means the constant d."""
        at = self.pos()
        if self.peek() == "n":
            c = Fraction(1)
        elif _is_integer(self.peek()) or self.peek() == "-":
            c = self.parse_rational()
            if self.peek() != "n":
                return Fraction(0), c
            if c.denominator != 1:
                raise ParseError("coefficient of n must be an integer", at)
        else:
            raise ParseError("expected linear expression", at)
        self.next()
        if self.peek() not in ("+", "-"):
            return c, Fraction(0)
        sign = 1 if self.next() == "+" else -1
        return c, sign * self.parse_rational()

    def parse_term(self) -> Tuple[Fraction, Fraction, int]:
        """Returns (c, d, mult) for (c*n + d)^mult; c == 0 means the scale d."""
        tok = self.peek()
        at = self.pos()
        if _is_integer(tok):
            # standalone terms are integers; rationals occur only in linears
            return Fraction(0), Fraction(self.parse_integer()), 1
        if tok == "(":
            self.next()
            c, d = self.parse_linear()
            self.expect(")")
            mult = 1
            if self.peek() == "^":
                self.next()
                mult = self.parse_integer()
                if mult == 0:
                    raise ParseError("zero exponent is not allowed", at)
            if c == 0:
                # a zero base stays 0 for _parse to refuse: 0^-1 has no value
                return c, d ** mult if d else d, 1
            return c, d, mult
        raise ParseError(f"expected term, found {tok!r}" if tok is not None
                         else "unexpected end of expression", at)

    def parse_term_sequence(self):
        terms = [self.parse_term()]
        while _is_integer(self.peek()) or self.peek() == "(":
            terms.append(self.parse_term())
        return terms

    def parse_product(self) -> List[Tuple[Fraction, Fraction, int]]:
        """The terms, each denominator term's mult negated."""
        num_terms = self.parse_term_sequence()
        den_terms = []
        if self.peek() == "/":
            self.next()
            if self.peek() == "(" and (self.peek(1) == "(" or (
                    _is_integer(self.peek(1)) and
                    (_is_integer(self.peek(2)) or self.peek(2) == "("))):
                self.next()
                den_terms = self.parse_term_sequence()
                self.expect(")")
            else:
                den_terms = [self.parse_term()]
        if self.peek() is not None:
            raise ParseError(f"unexpected trailing token {self.peek()!r}", self.pos())
        return num_terms + [(c, d, -mult) for c, d, mult in den_terms]


def _is_integer(tok: Optional[str]) -> bool:
    return tok is not None and tok.isdigit()


def _parse(text: str) -> FactoredRational:
    scale = Fraction(1)
    raw = []
    for c, d, mult in _Parser(text).parse_product():
        if c:
            raw.append((c, d, mult))
        elif d <= 0:
            raise InputError(f"scale contribution must be positive, got {d}")
        else:
            scale *= d ** mult
    return FactoredRational.from_raw_factors(raw, scale)


# ---------------------------------------------------------------------------
# Convergence classification
# ---------------------------------------------------------------------------

class ConvergenceTag(Enum):
    DIVERGENT = "divergent"
    PM_CONVERGENT = "pm-convergent"
    FULLY_CONVERGENT = "fully-convergent"


class ConvergenceClass(Record):
    __slots__ = ("tag", "detail")

    def __init__(self, tag: ConvergenceTag, detail: str):
        self._set(tag, detail)

    @property
    def at_least_pm(self) -> bool:
        return self.tag is not ConvergenceTag.DIVERGENT

    @property
    def fully(self) -> bool:
        return self.tag is ConvergenceTag.FULLY_CONVERGENT


def classify(r: FactoredRational) -> ConvergenceClass:
    """Convergence class of the products built on R.

    The +-1 Thue-Morse product over R converges exactly when numerator and
    denominator share degree and leading coefficient (net degree 0 and
    scale 1 in canonical form).  The plain and 0/1-exponent products need
    in addition the same sum of roots, i.e. sum_i m_i a_i = 0.
    """
    deg = r.degree_sum()
    if deg != 0:
        return ConvergenceClass(
            ConvergenceTag.DIVERGENT,
            f"numerator and denominator degrees differ (net degree {deg})")
    if r.scale != 1:
        return ConvergenceClass(
            ConvergenceTag.DIVERGENT,
            f"numerator and denominator leading coefficients differ "
            f"(net scale {r.scale})")
    s1 = r.power_sum(1)
    if s1 != 0:
        return ConvergenceClass(
            ConvergenceTag.PM_CONVERGENT,
            f"root sums differ (sum of m_i*a_i = {s1}); "
            f"only the +-1 exponent products converge")
    return ConvergenceClass(ConvergenceTag.FULLY_CONVERGENT,
                            "balanced with equal root sums")


def pole_check(r: FactoredRational, start: int) -> Optional[int]:
    """Smallest integer n >= start at which some factor n + a_i vanishes."""
    d = r.denominator
    hits = [-u // d for u, _ in r.numerators if u % d == 0 and -u // d >= start]
    return min(hits) if hits else None


def sign_check(r: FactoredRational, start: int) -> None:
    """Raise EvaluationError if R(n) <= 0 at some integer n >= start, for
    an R with no factor vanishing at an integer n >= start.

    Such an R keeps its sign between consecutive roots -a_i, so the
    integers n >= start fall into runs of one sign, each starting at
    ``start`` or at the first integer past a root.  Checking those starts,
    at most one more than the number of factors, finds the first n with
    R(n) <= 0, as a walk over every n up to max(-a_i) would.
    """
    d = r.denominator
    past_roots = {-u // d + 1 for u, _ in r.numerators}  # first integer past -u/d
    points = sorted({start} | {n for n in past_roots if n > start})
    for n, value in zip(points, r.values_at(points)):
        if value <= 0:
            raise EvaluationError(f"R({n}) = {value} is not positive; "
                                  f"real logarithms require R(n) > 0 for n >= {start}")


def log_term(r: FactoredRational, n: RationalLike, precision: int = 60):
    """log R(n) to ``precision`` decimal digits (requires R(n) > 0)."""
    return log_fraction(r.value_at(n), precision)


# ---------------------------------------------------------------------------
# Split operators
# ---------------------------------------------------------------------------

def dyadic_split(r: FactoredRational, start: int) -> Tuple[FactoredRational, Fraction]:
    """Split a +-1 Thue-Morse product over even and odd indices.

    Exact identity, using the sign flips t_{2n} = t_n and t_{2n+1} = 1 - t_n:

        prod_{n>=start} R(n)^{(-1)^{t_n}}
            = boundary * prod_{n>=1} (R(2n)/R(2n+1))^{(-1)^{t_n}}

    with boundary = 1/R(1) for start 1 and boundary = R(0)/R(1) for
    start 0.  Each factor (n+a)^m maps to (n + a/2)^m (n + (1+a)/2)^{-m},
    so the log-term decay order increases by one.
    """
    if start not in (0, 1):
        raise InputError(f"start index must be 0 or 1, got {start}")
    cls = classify(r)
    if not cls.at_least_pm:
        raise InputError(f"dyadic split requires a convergent product: {cls.detail}")
    split = r.regroup([(2, 0, 1), (2, 1, -1)])
    r1 = r.value_at(1)
    if r1 == 0:
        raise EvaluationError("R(1) = 0; boundary term undefined")
    boundary = 1 / r1
    if start == 0:
        r0 = r.value_at(0)
        if r0 == 0:
            raise EvaluationError("R(0) = 0; boundary term undefined")
        boundary *= r0
    if pole_check(split, 1) is not None:
        raise EvaluationError("split rational has a factor vanishing at n >= 1")
    return split, boundary


def rs_split_rational(r: FactoredRational) -> FactoredRational:
    """The rational n -> R(2n) R(4n+1)^2 / R(2n+1) (see rs_split)."""
    split = r.regroup([(2, 0, 1), (4, 1, 2), (2, 1, -1)])
    if pole_check(split, 1) is not None:
        raise EvaluationError("split rational has a factor vanishing at n >= 1")
    return split


def rs_split_power_sums(r: FactoredRational, levels: int, j_max: int) -> List[Fraction]:
    """Power sums [p_0, ..., p_{j_max}] of ``rs_split_rational`` applied
    ``levels`` times to r, carried from r's own integer power sums
    (``power_sum_numerators``: N_j = S_j over E = D at level 0).

    One level sends an offset a of multiplicity m to a/2 (m), (1+a)/4 (2m)
    and (1+a)/2 (-m), so p'_j = 2^-j p_j + (2^(1-2j) - 2^-j) sum_l C(j,l) p_l.
    In integers, with p_j = N_j / E^j, that is N'_j = 2^j N_j + (2 - 2^j) B_j
    over E' = 4E, where B_j = sum_l C(j,l) E^(j-l) N_l.  The cost is
    O(levels * j_max^2) integer operations, however many factors
    the split rational has.
    """
    e = r.denominator
    sums = r.power_sum_numerators(j_max)
    for _ in range(levels):
        powers = [e ** k for k in range(j_max + 1)]
        sums = [(1 << j) * sums[j] + (2 - (1 << j)) * sum(
                    math.comb(j, l) * powers[j - l] * sums[l] for l in range(j + 1))
                for j in range(j_max + 1)]
        e *= 4
    return [Fraction(s, e ** j) for j, s in enumerate(sums)]


def rs_split(r: FactoredRational) -> Tuple[FactoredRational, Fraction]:
    """Split a +-1 Rudin-Shapiro product using the recursion of v_n.

    Exact identity for products over n >= 1, from regrouping the indices
    as {2n} u {4n+1} u {4n+3} and using v_{2n} = v_n, v_{4n+1} = v_n,
    v_{4n+3} = 1 - v_{2n+1}:

        prod_{n>=1} R(n)^{(-1)^{v_n}}
            = R(1) * prod_{n>=1} (R(2n) R(4n+1)^2 / R(2n+1))^{(-1)^{v_n}}

    The slow 1/n component of log R halves at each application while the
    net degree and scale stay balanced.  The exact boundary R(1) grows
    enormous after repeated splits (multiplicities scale by four per
    level); iterated use should accumulate its logarithm instead.
    """
    cls = classify(r)
    if not cls.at_least_pm:
        raise InputError(f"rs split requires a convergent product: {cls.detail}")
    split = rs_split_rational(r)
    boundary = r.value_at(1)
    if boundary == 0:
        raise EvaluationError("R(1) = 0; boundary term undefined")
    return split, boundary
