"""Formal algebra of the function g and the verified identity catalog.

A +-1 Thue-Morse product over a balanced rational with offsets a_i and
multiplicities m_i has logarithm sum_i m_i G(a_i), where G(x) = log g(x).
The functional equation (1+x) g(x) = g(x/2)/g((x+1)/2) turns into the
relation vector

    r_x :  G(x/2) - G((x+1)/2) - G(x) = log(1+x),

and reducing an expression to a constant means writing its G-part as an
exact rational combination of relation vectors.  The solver peels the
linear system on a universe of candidate relation points, one row with a
single unknown at a time (``_solve_relations`` proves one always exists),
and returns the combination as a certificate; constants come out as
products of positive rationals with rational exponents.
Inside ``reduce`` a point x is the integer x * one, where one is the lcm
of the expression's denominators times 2^(depth+1): the search halves a
point at most depth + 1 times, so every halving is exact, and the keys
hash and compare as plain integers in the same order as the rationals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import mpmath

from .errors import CapabilityError, ConsistencyError, InputError
from .evaluator import EvalOptions, ProductSpec, eval_product
from .factored_rational import FactoredRational, classify
from .numerics import (ClosedForm, Rat, Sub, cf_mul, cf_pow, cf_rat,
                       CF_PI, CF_GAMMA_QUARTER, eval_closed_form,
                       export, power_product_exponents, power_product_form,
                       workdps, working_dps)
from .sequences import ExponentKind

DEFAULT_REDUCE_DEPTH = 6
# Universes roughly double per depth level.  At depth 9, irreducible 2-, 4-
# and 6-point targets take 0.02, 0.05 and 0.07 s (best of nine, 2 vCPU), and
# an 8-point one already exceeds UNIVERSE_CAP.
MAX_REDUCE_DEPTH = 9
UNIVERSE_CAP = 20000  # relation points searched per depth


# ---------------------------------------------------------------------------
# GExpression
# ---------------------------------------------------------------------------

def _clean(d: Dict[Fraction, Fraction]) -> Dict[Fraction, Fraction]:
    return {k: v for k, v in d.items() if v}


@dataclass(frozen=True)
class GExpression:
    """Rational combination of symbols G(x) plus a formal log-constant part.

    ``terms`` maps points x to coefficients; ``log_const`` maps positive
    rationals q to coefficients, denoting sum c_q log q.
    """

    terms: Tuple[Tuple[Fraction, Fraction], ...] = ()
    log_const: Tuple[Tuple[Fraction, Fraction], ...] = ()

    @staticmethod
    def build(terms: Dict[Fraction, Fraction],
              log_const: Optional[Dict[Fraction, Fraction]] = None) -> "GExpression":
        t = tuple(sorted(_clean(terms).items()))
        c = tuple(sorted(_clean(log_const or {}).items()))
        return GExpression(t, c)

    def terms_dict(self) -> Dict[Fraction, Fraction]:
        return dict(self.terms)

    def log_const_dict(self) -> Dict[Fraction, Fraction]:
        return dict(self.log_const)

    def __add__(self, other: "GExpression") -> "GExpression":
        t = self.terms_dict()
        for k, v in other.terms:
            t[k] = t.get(k, Fraction(0)) + v
        c = self.log_const_dict()
        for k, v in other.log_const:
            c[k] = c.get(k, Fraction(0)) + v
        return GExpression.build(t, c)

    def render(self) -> str:
        parts = [f"{v}*G({k})" for k, v in self.terms]
        parts += [f"{v}*log({k})" for k, v in self.log_const]
        return " + ".join(parts) if parts else "0"


def expr_from_spec(spec: ProductSpec) -> GExpression:
    """The exact logarithm of a +-1 Thue-Morse product as a GExpression.

    For start 1 this is sum_i m_i G(a_i); a start-0 spec first moves the
    n = 0 factor value into the log-constant part.
    """
    if spec.kind is not ExponentKind.PM_THUE:
        raise InputError(f"expr_from_spec expects kind pm-t, got {spec.kind.value}")
    cls = classify(spec.rational)
    if not cls.at_least_pm:
        raise InputError(f"divergent product: {cls.detail}")
    terms = {f.offset: Fraction(f.multiplicity) for f in spec.rational.factors}
    log_const: Dict[Fraction, Fraction] = {}
    if spec.start == 0:
        r0 = spec.rational.value_at(0)
        if r0 <= 0:
            raise InputError(f"R(0) = {r0} is not positive; cannot shift start")
        if r0 != 1:
            log_const[r0] = Fraction(1)
    return GExpression.build(terms, log_const)


# ---------------------------------------------------------------------------
# Reduction over the relation lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReduceResult:
    """Outcome of a reduction attempt.

    ``reduced`` carries the closed form plus its prime-exponent map and
    the certificate (coefficients of the relation vectors r_x).  An
    irreducible outcome is a result, not an error: it means no
    combination exists within the searched depth.
    """

    status: str  # "reduced" | "irreducible"
    depth: int
    closed_form: Optional[ClosedForm] = None
    exponents: Optional[Dict[int, Fraction]] = None
    certificate: Dict[Fraction, Fraction] = field(default_factory=dict)
    residual: Optional[GExpression] = None

    @property
    def reduced(self) -> bool:
        return self.status == "reduced"


def _universe(points: List[int], depth: int, one: int) -> List[int]:
    """Points reachable by x -> 2x, 2x-1, x/2, (x+1)/2, up to ``depth``,
    each kept as the integer x * one.  Raises CapabilityError when there
    are more than UNIVERSE_CAP of them."""
    seen = set(points)
    frontier = list(points)
    for _ in range(depth):
        nxt = []
        for k in frontier:
            for q in (2 * k, 2 * k - one, k // 2, (k + one) // 2):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
            if len(seen) > UNIVERSE_CAP:
                raise CapabilityError(f"the depth-{depth} relation universe "
                                      f"exceeds {UNIVERSE_CAP} points")
        frontier = nxt
    return sorted(seen)


def _solve_relations(universe: List[int], target: Dict[int, Fraction],
                     one: int) -> Optional[Dict[int, Fraction]]:
    """Solve sum_x lambda_x r_x = target exactly, by peeling.

    Points are integers over ``one``; relation points need x > -1 so that
    log(1+x) is real.  Returns the lambda coefficients, or None when the
    target is not in the span of the available relations.

    Row p holds the coefficients of G(p): the relation points p, 2p and
    2p-1 (at p = 1, 2p-1 = p with -2; at p = 0, 2p = p and they cancel).
    Peeling never stalls.  A row is retired only once all its variables
    are solved, so while a nonempty set W of variables is unsolved, it is
    enough that some row holds exactly one member of W (when W is empty,
    every row left is empty and queued):
    - W has a member >= 1: take the largest, w.  Row w's other points 2w
      and 2w-1 exceed w (or equal it, at w = 1).
    - Else W has one in (-1, 0): take the least, w.  Row w's other points
      are 2w < w and 2w-1 < -1.
    - Else W lies in [0, 1), where a row p > 0 holds p, D(p) (D the
      doubling map mod 1) and a point outside [0, 1).  The universe is
      finite, so W has a least positive w, if any, and its preimage row
      w/2 holds w/2, w and w-1, only w in W.  Otherwise W = {0}: row 1/2
      holds 1/2, 1 and 0.
    So every pivot row is a singleton, and as empty rows change nothing,
    the pivots, hence the certificate's key order, are those of a general
    elimination that pivots on the least (length, point).
    """
    rows: Dict[int, Dict[int, int]] = {p: {} for p in target}
    for x in universe:
        if x > -one:
            for p, c in ((x // 2, 1), ((x + one) // 2, -1), (x, -1)):
                row = rows.setdefault(p, {})
                c += row.get(x, 0)
                if c:
                    row[x] = c
                else:
                    del row[x]
    rhs = {p: Fraction(c) for p, c in target.items()}
    return _peel(rows, rhs, lambda x: (x // 2, (x + one) // 2, x))


def _peel(rows: Dict[int, Dict[int, int]], rhs: Dict[int, Fraction],
          column: Callable[[int], Tuple[int, ...]]) -> Optional[Dict[int, Fraction]]:
    """Solve rows . lambda = rhs (a missing rhs is 0), where ``column(x)``
    names the rows that may hold x, by taking the least row of length at
    most 1: empty, it needs rhs 0, or there is no solution (None); {x: c}
    sets x = rhs/c and strikes x from its other rows.  Consumes ``rows``;
    returns the nonzero values, last solved first.  Raises
    ConsistencyError if rows remain but none has length at most 1."""
    heap = [p for p, row in rows.items() if len(row) <= 1]
    heapq.heapify(heap)
    solved: List[Tuple[int, Fraction]] = []
    while heap:
        p = heapq.heappop(heap)
        row = rows.pop(p, None)
        if row is None:
            continue  # queued at length 1, then again at 0
        b = rhs.get(p)
        if not row:
            if b:
                return None  # 0 = nonzero
            continue
        (x, c), = row.items()
        if b:
            b /= c
            solved.append((x, b))
        for q in column(x):
            other = rows.get(q, ())
            if x in other:
                c = other.pop(x)
                if b:
                    rhs[q] = rhs.get(q, 0) - c * b
                if len(other) <= 1:
                    heapq.heappush(heap, q)
    if rows:
        raise ConsistencyError(f"peeling stalled with {len(rows)} rows left")
    return dict(reversed(solved))


def reduce(expr: GExpression, depth: int = DEFAULT_REDUCE_DEPTH) -> ReduceResult:
    """Reduce a GExpression to an exact constant, if possible.

    Searches relation universes of increasing depth (each one built from
    the expression's points by the four maps) and solves exactly for a
    combination of relation vectors matching the G-part.  On success the
    constant exp(sum lambda_x log(1+x) + log-const part) is returned as a
    canonical product of primes with rational exponents.  ``depth`` must
    lie in 0..MAX_REDUCE_DEPTH; a universe of more than UNIVERSE_CAP points,
    reached before a combination is found, raises CapabilityError.
    """
    if not 0 <= depth <= MAX_REDUCE_DEPTH:
        raise InputError(f"reduce depth must be in 0..{MAX_REDUCE_DEPTH}, got {depth}")
    terms = expr.terms_dict()
    one = math.lcm(*(x.denominator for x in terms)) << (depth + 1)
    target = {x.numerator * (one // x.denominator): c for x, c in terms.items()}
    points = list(target) or [one]
    for used_depth in range(depth + 1):
        solution = _solve_relations(_universe(points, used_depth, one), target, one)
        if solution is not None:
            break
    else:
        return ReduceResult("irreducible", depth, residual=expr)

    certificate = {Fraction(x, one): lam for x, lam in solution.items()}
    logs = [(1 + x, lam) for x, lam in certificate.items()] + list(expr.log_const)
    exponents: Dict[int, Fraction] = {}
    for q, coefficient in logs:
        q_exponents = power_product_exponents(Rat(q))
        if q_exponents is None:
            raise InputError(f"log-constant {q} is not positive")
        for prime, e in q_exponents.items():
            exponents[prime] = exponents.get(prime, Fraction(0)) + e * coefficient
    exponents = {p: e for p, e in exponents.items() if e}
    return ReduceResult("reduced", used_depth,
                        closed_form=power_product_form(exponents),
                        exponents=exponents, certificate=certificate)


# ---------------------------------------------------------------------------
# Identity families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    name: str
    spec: ProductSpec
    closed_form: ClosedForm
    provenance: str


def _not_negative_integer(name: str, x: Fraction) -> None:
    if x.denominator == 1 and x <= -1:
        raise InputError(f"{name} = {x} is a negative integer (excluded)")


def family(family_id: str, a, b=None) -> Identity:
    """Instantiate one of the four parametric product families.

    (i)  rational ((n+a)(2n+a+1)(2n+b)) / ((2n+a)(n+b)(2n+b+1)),
         constant (b+1)/(a+1);
    (ii) is (i) with b = a+1, constant (a+2)/(a+1);
    (iii) is (i) with b = 0 after cancellation, constant 1/(a+1);
    (iv) is (i) with b = 2a-1 after cancellation, constant 2a/(a+1),
         excluding a in {0, -1, -2, ...} and {-1/2, -3/2, ...}.
    All products run over n >= 1 with the +-1 Thue-Morse exponent.
    """
    if a is None:
        raise InputError(f"family ({family_id}) needs a")
    a = Fraction(a)
    _not_negative_integer("a", a)
    if family_id == "i":
        if b is None:
            raise InputError("family (i) needs both a and b")
        b = Fraction(b)
        _not_negative_integer("b", b)
    elif family_id not in ("ii", "iii", "iv"):
        raise InputError(f"unknown family {family_id!r}; expected i, ii, iii, iv")
    elif b is not None:
        raise InputError(f"family ({family_id}) takes only a")
    elif family_id == "iv" and (a == 0 or (a.denominator == 2 and a < 0)):
        raise InputError(f"family (iv) excludes a = {a}")
    else:
        # the checks on a keep this b from being a negative integer
        b = {"ii": a + 1, "iii": Fraction(0), "iv": 2 * a - 1}[family_id]
    constant = Fraction(b + 1, a + 1)

    rational = FactoredRational.from_raw_factors([
        (1, a, 1), (2, a + 1, 1), (2, b, 1),
        (2, a, -1), (1, b, -1), (2, b + 1, -1),
    ])
    spec = ProductSpec(rational, ExponentKind.PM_THUE, 1)
    name = f"C2{family_id}(a={a})" if family_id != "i" else f"C2i(a={a},b={b})"
    return Identity(name, spec, Rat(constant),
                    f"binary-split family ({family_id}) instance")


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _entry(name: str, text: str, kind: ExponentKind, start: int,
           cf: ClosedForm, provenance: str) -> Identity:
    return Identity(name, ProductSpec(FactoredRational.parse(text), kind, start),
                    cf, provenance)


_SQRT2_OVER_2 = cf_pow(2, Fraction(-1, 2))


def catalog() -> List[Identity]:
    """The 18 verified identities, in canonical order."""
    t6_text = "4(n+2)(2n+1)^3(2n+3)^3/((n+3)(n+1)^2(4n+3)^4)"
    return [
        _entry("WR", "(2n+1)/(2n+2)", ExponentKind.PM_THUE, 0,
               _SQRT2_OVER_2,
               "Woods-Robbins product; square of family (ii) at a=0, "
               "shifted to start 0"),
        _entry("C3b", "(4n+1)/(4n+3)", ExponentKind.PM_THUE, 0,
               cf_rat(1, 2),
               "inverse of family (iii) at a=1/2, shifted to start 0"),
        _entry("C3c", "(2n-1)(4n+1)/((2n+1)(4n-1))", ExponentKind.PM_THUE, 1,
               cf_rat(2),
               "family (iii) at a=1/2 rewritten with shifted index"),
        _entry("C3d", "(n+1)(2n+1)/((n+2)(2n+3))", ExponentKind.PM_THUE, 0,
               cf_rat(1, 2),
               "family (i) at a=1, b=2, shifted to start 0 and multiplied "
               "by the squared Woods-Robbins product"),
        _entry("C3e", "(2n+2)(4n+3)/((2n+3)(4n+5))", ExponentKind.PM_THUE, 0,
               _SQRT2_OVER_2,
               "family (i) at a=1, b=3/2, shifted to start 0 and multiplied "
               "by the Woods-Robbins product"),
        _entry("C3f", "(n+1)(4n+5)/((n+2)(4n+3))", ExponentKind.PM_THUE, 0,
               cf_rat(1),
               "inverse of family (i) at a=2, b=3/2 after cancellation, "
               "shifted to start 0"),
        _entry("C3g", "(n+1)(2n+2)/((n+2)(2n+3))", ExponentKind.PM_THUE, 0,
               _SQRT2_OVER_2,
               "family (ii) at a=1 shifted to start 0 times Woods-Robbins; "
               "equals the product of entries e and f"),
        _entry("C3h", "(n+1)(4n+5)/((n+2)(4n+1))", ExponentKind.PM_THUE, 0,
               cf_rat(2),
               "entry f divided by entry b"),
        _entry("C3i", "(2n+2)(4n+1)/((2n+3)(4n+5))", ExponentKind.PM_THUE, 0,
               cf_pow(2, Fraction(-3, 2)),
               "entry g divided by entry h"),
        _entry("C3j", "(2n+1)(4n+1)/((2n+3)(4n+5))", ExponentKind.PM_THUE, 0,
               cf_rat(1, 4),
               "entry i times the Woods-Robbins product"),
        _entry("C3k", "(4n+1)(8n+7)/((4n+2)(8n+3))", ExponentKind.PM_THUE, 0,
               cf_rat(1),
               "inverse of family (iv) at a=3/4, shifted to start 0"),
        _entry("C3l", "(8n+1)(8n+7)/((8n+3)(8n+5))", ExponentKind.PM_THUE, 0,
               cf_rat(1, 2),
               "family (i) at a=3/4, b=1/4, shifted to start 0 and "
               "multiplied by entry b"),
        _entry("T5a", "(4n+1)(4n+4)/((4n+2)(4n+3))", ExponentKind.ZERO_ONE_THUE, 0,
               cf_mul(cf_pow(CF_PI, Fraction(3, 4)), cf_pow(2, Fraction(1, 2)),
                      cf_pow(CF_GAMMA_QUARTER, -1)),
               "0/1-exponent form of the even/odd split of Woods-Robbins; "
               "plain part telescopes to Gamma values"),
        _entry("T5b", "(n+1)(4n+5)/((n+2)(4n+1))", ExponentKind.ZERO_ONE_THUE, 0,
               cf_pow(2, Fraction(1, 2)),
               "0/1-exponent form of entry h; plain part telescopes to 4"),
        _entry("T5c", "(8n+1)(8n+7)/((8n+3)(8n+5))", ExponentKind.ZERO_ONE_THUE, 0,
               cf_pow(Sub(cf_mul(2, cf_pow(2, Fraction(1, 2))), cf_rat(2)),
                      Fraction(1, 2)),
               "0/1-exponent form of entry l; plain part telescopes to "
               "the tangent of pi/8 via reflection"),
        _entry("T6a", t6_text, ExponentKind.PM_RS, 0,
               cf_rat(1),
               "index-regrouping relation for the Rudin-Shapiro sign "
               "applied to (X+2)^2/((X+1)(X+3)); boundary 9/8 cancels "
               "against the n=0 factor 8/9"),
        _entry("T6b", t6_text, ExponentKind.ZERO_ONE_RS, 0,
               cf_mul(8, cf_pow(CF_PI, Fraction(1, 2)),
                      cf_pow(CF_GAMMA_QUARTER, -2)),
               "square root of the plain telescoped product (the 0/1 "
               "relation with the unit value of the +-1 form); the plain "
               "product equals 16 Gamma(3/4)^4/pi^3 = 8 sqrt(pi) "
               "(Gamma(3)Gamma(3/4)^4 over Gamma(2)Gamma(1/2)^3 "
               "Gamma(3/2)^3)"),
        _entry("GS", "(2n+1)^2/((n+1)(4n+1))", ExponentKind.PM_RS, 1,
               _SQRT2_OVER_2,
               "Golay-Shapiro signed product over n >= 1"),
    ]


_ALIASES = {"c3a": "wr"}


def catalog_entry(name: str) -> Identity:
    wanted = _ALIASES.get(name.lower(), name.lower())
    for identity in catalog():
        if identity.name.lower() == wanted:
            return identity
    raise InputError(f"unknown catalog entry {name!r}")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyReport:
    name: str
    computed: mpmath.mpf
    expected: mpmath.mpf
    abs_error: mpmath.mpf
    passed: bool
    tolerance: mpmath.mpf
    error_estimate: mpmath.mpf
    symbolic_match: Optional[bool]  # None when no symbolic route applies


def verify(identity: Identity, opts: EvalOptions = EvalOptions(),
           tolerance: Optional[float] = None) -> VerifyReport:
    """Numerically verify one identity, and symbolically when possible.

    Pass criterion: |computed - expected| <= max(tolerance, combined
    error estimates), with the tolerance defaulting to ten times the
    combined estimate.  For +-1 Thue-Morse entries whose constant is a
    rational power product, the reduction engine must also recover the
    constant exactly.
    """
    result = eval_product(identity.spec, opts)
    expected = eval_closed_form(identity.closed_form, opts.precision)
    with workdps(working_dps(opts.precision)) as ctx:
        abs_error = abs(ctx.convert(result.value) - expected)
        combined = (ctx.convert(result.error_estimate) + abs(ctx.convert(expected))
                    * ctx.mpf(10) ** (-opts.precision + 2))
        tol = ctx.mpf(tolerance) if tolerance is not None else 10 * combined
        passed = bool(abs_error <= max(tol, combined))

    symbolic_match: Optional[bool] = None
    if identity.spec.kind is ExponentKind.PM_THUE:
        expected_exponents = power_product_exponents(identity.closed_form)
        if expected_exponents is not None:
            outcome = reduce(expr_from_spec(identity.spec))
            symbolic_match = bool(outcome.reduced
                                  and outcome.exponents == expected_exponents)
            passed = passed and symbolic_match
    return VerifyReport(identity.name, result.value, expected, export(abs_error),
                        passed, export(tol), result.error_estimate, symbolic_match)


def verify_all(opts: EvalOptions = EvalOptions(),
               tolerance: Optional[float] = None) -> List[VerifyReport]:
    return [verify(identity, opts, tolerance) for identity in catalog()]
