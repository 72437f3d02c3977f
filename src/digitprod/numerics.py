"""Extended-precision arithmetic, Gamma at positive rationals, constants,
and closed-form expression trees.

High-precision floats are mpmath ``mpf`` values; every operation takes an
explicit decimal precision and works with guard digits in the calling
thread's own mpmath context (``workdps``), never in ``mpmath.mp``; values
enter it by ``ctx.convert`` and leave it by ``export``, neither rounding.
Gamma at a denominator of 1, 2 or 4 reduces exactly to Gamma(1) = 1,
Gamma(1/2) = sqrt(pi), or Gamma(1/4) from the arithmetic-geometric mean
(and Gamma(3/4) by reflection), times an exact rising product.  Every
other argument is raised and computed from Stirling's asymptotic series,
with the shift chosen from the precision so the first omitted term is
negligible; the recurrence divides the shift back out exactly.  The
constants pi and Euler's gamma come from the arithmetic backend (libmp)
at any precision.

Closed forms are small expression trees over exact rationals and the
named constants pi and Gamma(1/4).  Gamma(3/4) never appears as a leaf:
the reflection formula rewrites it as pi*sqrt(2)/Gamma(1/4), so the
constant basis stays {pi, Gamma(1/4), rationals}.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple, Union

import mpmath
from mpmath import libmp

from ._record import Record
from .errors import EvaluationError, InputError

GUARD_DIGITS = 10

DEFAULT_PRECISION = 60


class _ThreadContext(threading.local):
    def __init__(self) -> None:
        # once per thread, 0.2-0.4 ms; the importing thread pays it at import
        self.ctx = mpmath.MPContext()


_THREAD = _ThreadContext()


@contextmanager
def workdps(dps: int) -> Iterator[mpmath.MPContext]:
    """This thread's own mpmath context, at ``dps`` digits in the region.

    No other thread uses the context, so regions need no lock, and mpmath
    calls made outside the package keep their precision.  Threads still
    share libmp's caches: the pi, ln2 and Euler's gamma memos
    (``constant_memo``, over ``pi_fixed``, ``ln2_fixed`` and
    ``euler_fixed``) write, and read, value and precision with no call or
    backward jump between, where CPython checks for a thread switch, and a
    Bernoulli or log cache entry is the same whichever thread computes it.
    In a 20 s run at a 1 us switch interval (Python 3.11.7, 2 vCPU), three
    threads evaluating T5a and WR at 60 digits, the Gamma memo cleared each
    time, while a fourth took ``constant("pi")``, ``log_fraction`` and
    ``constant("euler_gamma")`` through 974 new precisions (80 to 2,999
    digits), gave 0 mismatches in 45,650 evaluations, and every pushed
    value was right.
    """
    with _THREAD.ctx.workdps(dps):
        yield _THREAD.ctx


def export(x) -> mpmath.mpf:
    """``x`` as a plain ``mpmath.mpf``, with the same bits (not rounded)."""
    return mpmath.mp.make_mpf(x._mpf_)


def working_dps(precision: int) -> int:
    if precision < 1:
        raise InputError(f"precision must be >= 1 digit, got {precision}")
    return precision + GUARD_DIGITS


def log_fraction(q: Union[Fraction, int], precision: int) -> mpmath.mpf:
    """log of a positive exact rational."""
    q = Fraction(q)
    if q <= 0:
        raise EvaluationError(f"log of nonpositive rational {q}")
    with workdps(working_dps(precision)) as ctx:
        return export(ctx.log(ctx.mpf(q.numerator)) - ctx.log(ctx.mpf(q.denominator)))


# ---------------------------------------------------------------------------
# Balls: a value and its error bound, composed by libmp's interval functions
# ---------------------------------------------------------------------------
#
# A ball is a libmp interval (lo, hi) of raw mpfs that holds the exact
# value.  Paths compose balls with libmp's mpi_* functions, which take the
# precision as an argument and read no context, and report the midpoint
# and radius: midpoint-radius arithmetic as in Arb (F. Johansson, "Arb:
# efficient arbitrary-precision midpoint-radius interval arithmetic", IEEE
# Trans. Computers 66 (2017)).  Each end is rounded outward.  That libmp
# rounds exp, log, sqrt and integer powers in the direction asked is
# assumed, not proved, as the Gamma bounds assume their own roundings.

def ball_prec(precision: int) -> int:
    """The bits of ``precision``'s working digits, at which balls are composed."""
    return mpmath.libmp.dps_to_prec(working_dps(precision))


def ball(mid: tuple, radius: tuple, prec: int) -> Tuple[tuple, tuple]:
    """[mid - radius, mid + radius] for raw mpfs, rounded outward to ``prec`` bits."""
    return (libmp.mpf_sub(mid, radius, prec, libmp.round_floor),
            libmp.mpf_add(mid, radius, prec, libmp.round_ceiling))


def rational_ball(q: Fraction, prec: int) -> Tuple[tuple, tuple]:
    """The exact rational q between its roundings down and up to ``prec`` bits."""
    p, d = q.numerator, q.denominator
    return (libmp.from_rational(p, d, prec, libmp.round_floor),
            libmp.from_rational(p, d, prec, libmp.round_ceiling))


def upper(p: int, q: int) -> tuple:
    """p/q rounded up to 53 bits: a radius from an exact rational bound."""
    return libmp.from_rational(p, q, 53, libmp.round_ceiling)


def gamma_ball(x: Fraction, precision: int, prec: int) -> Tuple[tuple, tuple]:
    """Gamma(x) within ``gamma_error`` of ``gamma(x, precision)``."""
    value = gamma(x, precision)._mpf_
    radius = libmp.mpf_mul(value, gamma_error(x, precision)._mpf_, prec, libmp.round_ceiling)
    return ball(value, radius, prec)


def midpoint_radius(interval: Tuple[tuple, tuple], prec: int,
                    mid: Optional[tuple] = None) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """(m, r) as plain mpfs with the interval inside [m - r, m + r]: m is
    ``mid``, by default the interval's midpoint rounded to ``prec`` bits,
    and r is rounded up."""
    lo, hi = interval
    if mid is None:
        mid = libmp.mpf_shift(libmp.mpf_add(lo, hi, prec, libmp.round_nearest), -1)
    below = libmp.mpf_abs(libmp.mpf_sub(mid, lo, prec, libmp.round_ceiling))
    above = libmp.mpf_abs(libmp.mpf_sub(hi, mid, prec, libmp.round_ceiling))
    radius = above if libmp.mpf_cmp(above, below) >= 0 else below
    return mpmath.mp.make_mpf(mid), mpmath.mp.make_mpf(radius)


def exp_ball(q: Fraction, log_mid: tuple, log_radius: tuple, prec: int
             ) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """(value, radius) of q exp(y) for a positive exact rational q and y
    within ``log_radius`` of ``log_mid``: one ball through log and exp.
    The value is the geometric midpoint of the ball's ends, q exp(log_mid)
    to within rounding, so that a wide ball keeps its point value."""
    y = libmp.mpi_add(libmp.mpi_log(rational_ball(q, prec), prec),
                      ball(log_mid, log_radius, prec), prec)
    lo, hi = libmp.mpi_exp(y, prec)
    return midpoint_radius((lo, hi), prec, libmp.mpf_sqrt(libmp.mpf_mul(lo, hi), prec))


# ---------------------------------------------------------------------------
# Gamma: exact reductions at denominators 1, 2 and 4, Stirling otherwise
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def gamma(x: Fraction, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Gamma(x) for rational x > 0 to ``precision`` decimal digits.

    Write x = f + k with f in (0, 1].  When the denominator of x is 1, 2
    or 4 and k is at most ceil(1.2 * precision) + 2, Gamma(x) is Gamma(f)
    times the exact rising product f (f+1) ... (f+k-1), with Gamma(1) = 1,
    Gamma(1/2) = sqrt(pi), Gamma(1/4) from the arithmetic-geometric mean
    and Gamma(3/4) = pi sqrt(2) / Gamma(1/4) (``_reduced_gamma``).  Every
    other argument takes Stirling's series (``_stirling_gamma``).  Neither
    calls ``mpmath.gamma``, whose first call in a fresh interpreter takes
    0.21-0.26 s at 515 digits.  All Gamma values of a 500-digit T5a
    evaluation (1/4, 1, 1/2 and 3/4) take 0.53-0.57 ms here, against
    15.2-15.3 ms by Stirling's series alone (three fresh interpreters each,
    2-vCPU AMD EPYC, Python 3.11.7).
    ``gamma_error`` bounds its relative error.
    """
    return _bounded_gamma(Fraction(x), precision)[0]


def gamma_error(x: Fraction, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """A bound on the relative error of ``gamma(x, precision)``."""
    return _bounded_gamma(Fraction(x), precision)[1]


@lru_cache(maxsize=4096)
def _bounded_gamma(x: Fraction, precision: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """(Gamma(x), a bound on its relative error), by the route ``gamma``
    describes.  Both routes work at ``working_dps(precision) + 5`` digits,
    Stirling's at more when ln Gamma is large, and the shift of either
    route is at most ``cap`` factors."""
    if x <= 0:
        raise InputError(f"gamma requires a positive argument, got {x}")
    cap = -(-12 * precision // 10) + 2
    k = -(-x.numerator // x.denominator) - 1
    if x.denominator in (1, 2, 4) and k <= cap:
        return _reduced_gamma(x - k, k, precision)
    return _stirling_gamma(x, max(0, cap - int(x)), precision)


def _reduced_gamma(f: Fraction, k: int, precision: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """Gamma(f + k) for f in {1/4, 1/2, 3/4, 1}, with its relative error.

    With u = 2^-prec, one rounding of the working precision, the bound is:
    - Gamma(1) = 1: exact.
    - Gamma(1/2) = sqrt(pi): 2 u for pi (libmp rounds a value carried with
      20 guard bits), halved by the root, plus u for the root's rounding.
    - Gamma(1/4) = sqrt((2 pi)^(3/2) / M), M = AGM(1, sqrt 2): see
      ``_agm_gamma_quarter``.
    - Gamma(3/4) = pi sqrt(2) / Gamma(1/4), reading Gamma(1/4) from the
      memo: its bound, plus 2 u for pi and one u for each of the root,
      the product and the quotient.
    - k > 0: Gamma(f)'s bound, plus one u each for rounding the rising
      product's numerator, for the quotient by its denominator and for
      the product with Gamma(f).
    Each case adds one more u, which covers the products of relative
    errors that the sums leave out (every term here is far below 1).
    """
    with workdps(working_dps(precision) + 5) as ctx:
        unit = ctx.ldexp(1, -ctx.prec)
        if k:
            base, error = _bounded_gamma(f, precision)
            rising = _rising(f, k)
            value = ctx.convert(base) * (ctx.mpf(rising.numerator) / rising.denominator)
            error = ctx.convert(error) + 4 * unit
        elif f == 1:
            value, error = ctx.mpf(1), ctx.mpf(0)
        elif f == Fraction(1, 2):
            value, error = ctx.sqrt(ctx.pi), 3 * unit
        elif f == Fraction(1, 4):
            value, error = _agm_gamma_quarter(ctx)
        else:
            quarter, error = _bounded_gamma(Fraction(1, 4), precision)
            value = ctx.pi * ctx.sqrt(2) / ctx.convert(quarter)
            error = ctx.convert(error) + 6 * unit
        return export(value), export(error)


def _agm_gamma_quarter(ctx: mpmath.MPContext) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """Gamma(1/4) = sqrt((2 pi)^(3/2) / AGM(1, sqrt 2)), with a bound on
    its relative error, at the context's precision (u = 2^-prec).

    AGM(a, b) is increasing in each argument and AGM(ta, tb) = t AGM(a, b),
    so inputs off by relative errors at most e give an AGM off by at most
    e.  Rounding sqrt 2 is one u; each step rounds (a + b)/2 by u and
    sqrt(ab) by 3u/2 (the product's u halved, then the root's), and keeps
    the exact AGM of its inputs, so after n steps the AGM of the computed
    pair is within (2n + 2) u of M.  That AGM lies between the pair, so a
    differs from it by at most the stopping gap |a - b| relative to
    min(a, b).  Then (2 pi)^(3/2) / a adds 3u for pi (2u, times 3/2) and
    one u each for the root, the product and the quotient; the final root
    halves all of that and adds u; one u more covers second-order terms:
    in all (n + 6) u + |a - b| / (2 min(a, b)).

    The loop ends: once the gap is below 2^(-prec/2), the next exact gap
    (sqrt a - sqrt b)^2 / 2 is below one unit, and the two roundings add
    less than 5 units of a (about 1.2), below the 2^(4-prec) a that stops
    the loop; about log2(prec) steps are taken.
    """
    a, b = ctx.mpf(1), ctx.sqrt(2)
    steps = 0
    while abs(a - b) > ctx.ldexp(a, 4 - ctx.prec):
        a, b = (a + b) / 2, ctx.sqrt(a * b)
        steps += 1
    two_pi = 2 * ctx.pi
    value = ctx.sqrt(two_pi * ctx.sqrt(two_pi) / a)
    error = (steps + 6) * ctx.ldexp(1, -ctx.prec) + abs(a - b) / (2 * min(a, b))
    return value, error


def _rising(x: Fraction, k: int) -> Fraction:
    """x (x+1) ... (x+k-1) = prod (p + i q) / q^k for x = p/q."""
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(p + i * q for i in range(k)), q ** k)


def _stirling_gamma(x: Fraction, shift: int, precision: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """(Gamma(x), a bound on its relative error) by Stirling's series for
    ln Gamma(x + shift), less the log of the exact rising product.

    For real z > 0 the series stops off by less than its first omitted
    term.  The loop ends after a term below 10^-(wp+2) or at the smallest
    term, where the next one is at most about as large, so twice the last
    term computed bounds the truncation.  Each of the j terms added, and
    about six more operations, rounds ln Gamma(z) by one unit of 2^-prec
    of its size; ``log_fraction`` of the rising product p/q rounds both
    logs and their difference; exp adds one unit.  The rounding grows with
    |ln Gamma(z)| < z ln z (z >= 4 here), so the digits of z ln z beyond
    the guard digits are added to the working digits, and the relative
    error stays below 10^-precision at any argument.
    """
    log_z = math.log(x.numerator + shift * x.denominator) - math.log(x.denominator)
    digits = precision + 5 + max(
        0, math.ceil((log_z + math.log(log_z)) / math.log(10)) - GUARD_DIGITS)
    wp = working_dps(digits)
    with workdps(wp) as ctx:
        z = ctx.mpf(x.numerator + shift * x.denominator) / x.denominator
        # ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + sum B_2j / (2j (2j-1) z^(2j-1))
        s = (z - ctx.mpf(1) / 2) * ctx.log(z) - z + ctx.log(2 * ctx.pi) / 2
        zpow = z
        z2 = z * z
        threshold = ctx.mpf(10) ** (-(wp + 2))
        previous = ctx.inf
        j = 1
        while True:
            term = ctx.bernoulli(2 * j) / ((2 * j) * (2 * j - 1) * zpow)
            if abs(term) >= previous:
                break  # asymptotic optimum reached; error <= first omitted term
            s += term
            if abs(term) < threshold:
                break
            if j > 4 * wp:
                raise EvaluationError("Stirling series failed to converge")
            previous = abs(term)
            zpow *= z2
            j += 1
        rising = _rising(x, shift)
        log_gamma = s - log_fraction(rising, digits)
        logs = math.log(rising.numerator) + math.log(rising.denominator)
        rounding = (j + 6) * (abs(s) + 1) + 2 * logs + abs(log_gamma) + 2
        error = 2 * abs(term) + ctx.ldexp(rounding, -ctx.prec)
        return export(ctx.exp(log_gamma)), export(error)


def constant(name: str, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Named constant at the requested precision.

    ``pi`` and ``euler_gamma`` come from the arithmetic backend at the
    working precision, so any precision can be asked for; ``gamma_quarter``
    is ``gamma(1/4)``, from the arithmetic-geometric mean, so every Gamma
    at a quarter argument of the same precision shares its one AGM.
    """
    if name == "gamma_quarter":
        return gamma(Fraction(1, 4), precision)
    if name not in ("pi", "euler_gamma"):
        raise InputError(f"unknown constant {name!r}; "
                         "expected pi, gamma_quarter or euler_gamma")
    with workdps(working_dps(precision)) as ctx:
        return export(+(ctx.pi if name == "pi" else ctx.euler))


# ---------------------------------------------------------------------------
# Closed-form expression trees
# ---------------------------------------------------------------------------

class ClosedForm:
    """Expression tree over rationals, pi and Gamma(1/4)."""

    __slots__ = ()

    def eval(self, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
        """The midpoint of ``ball``."""
        prec = ball_prec(precision)
        return midpoint_radius(self.ball(precision), prec)[0]

    def ball(self, precision: int = DEFAULT_PRECISION) -> Tuple[tuple, tuple]:
        """A ball that holds the value, composed at ``ball_prec(precision)``."""
        return self._ball(precision, ball_prec(precision))

    def _ball(self, precision: int, prec: int) -> Tuple[tuple, tuple]:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


class Rat(ClosedForm, Record):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self._set(value)

    def _ball(self, precision, prec):
        return rational_ball(self.value, prec)

    def render(self):
        return str(self.value)

    def to_json(self):
        return {"type": "rational", "value": str(self.value)}


class Const(ClosedForm, Record):
    __slots__ = ("name",)

    def __init__(self, name: str):  # pi | gamma_quarter; any name ``constant`` knows
        self._set(name)

    def _ball(self, precision, prec):
        if self.name == "gamma_quarter":
            return gamma_ball(Fraction(1, 4), precision, prec)
        value = {"pi": libmp.mpf_pi, "euler_gamma": libmp.mpf_euler}[self.name]
        return value(prec, libmp.round_floor), value(prec, libmp.round_ceiling)

    def render(self):
        return self.name

    def to_json(self):
        return {"type": "const", "name": self.name}


class Pow(ClosedForm, Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ClosedForm, exponent: Fraction):
        self._set(base, exponent)

    def _ball(self, precision, prec):
        b = self.base._ball(precision, prec)
        e = self.exponent
        if e.denominator == 1:
            return libmp.mpi_pow_int(b, int(e), prec)
        if libmp.mpf_sign(b[0]) <= 0:
            raise EvaluationError(
                f"fractional power of nonpositive base {libmp.to_str(b[0], 8)}")
        log = libmp.mpi_log(b, prec)
        return libmp.mpi_exp(libmp.mpi_mul(log, rational_ball(e, prec), prec), prec)

    def render(self):
        e = self.exponent
        estr = str(e) if e.denominator == 1 else f"({e})"
        return f"{_wrap(self.base)}^{estr}"

    def to_json(self):
        return {"type": "pow", "base": self.base.to_json(), "exponent": str(self.exponent)}


class Mul(ClosedForm, Record):
    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[ClosedForm, ...]):
        self._set(factors)

    def _ball(self, precision, prec):
        out = (libmp.fone, libmp.fone)
        for f in self.factors:
            out = libmp.mpi_mul(out, f._ball(precision, prec), prec)
        return out

    def render(self):
        return "*".join(_wrap(f) for f in self.factors)

    def to_json(self):
        return {"type": "mul", "factors": [f.to_json() for f in self.factors]}


class Sub(ClosedForm, Record):
    __slots__ = ("left", "right")

    def __init__(self, left: ClosedForm, right: ClosedForm):
        self._set(left, right)

    def _ball(self, precision, prec):
        return libmp.mpi_sub(self.left._ball(precision, prec),
                             self.right._ball(precision, prec), prec)

    def render(self):
        return f"{_wrap(self.left)}-{_wrap(self.right)}"

    def to_json(self):
        return {"type": "sub", "left": self.left.to_json(), "right": self.right.to_json()}


def _wrap(cf: ClosedForm) -> str:
    s = cf.render()
    if isinstance(cf, (Rat, Const)) and "/" not in s and "-" not in s:
        return s
    if isinstance(cf, Pow) and isinstance(cf.base, (Rat, Const)) and "/" not in cf.base.render():
        return s
    return f"({s})"


def cf_rat(p, q: int = 1) -> Rat:
    return Rat(Fraction(p, q))


def cf_pow(base, exponent) -> Pow:
    if not isinstance(base, ClosedForm):
        base = cf_rat(base)
    return Pow(base, Fraction(exponent))


def cf_mul(*factors) -> Mul:
    return Mul(tuple(f if isinstance(f, ClosedForm) else cf_rat(f) for f in factors))


CF_PI = Const("pi")
CF_GAMMA_QUARTER = Const("gamma_quarter")


def eval_closed_form(cf: ClosedForm, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Bottom-up evaluation at working precision plus guard digits."""
    return cf.eval(precision)


# ---------------------------------------------------------------------------
# Rational power products
# ---------------------------------------------------------------------------

def _factorize(n: int) -> Dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def power_product_exponents(cf: ClosedForm) -> Optional[Dict[int, Fraction]]:
    """Express cf as prod p^{e_p} over primes p, if it is a positive
    rational power product; returns None otherwise."""
    if isinstance(cf, Rat):
        if cf.value <= 0:
            return None
        out: Dict[int, Fraction] = {}
        for p, e in _factorize(cf.value.numerator).items():
            out[p] = out.get(p, Fraction(0)) + e
        for p, e in _factorize(cf.value.denominator).items():
            out[p] = out.get(p, Fraction(0)) - e
        return {p: e for p, e in out.items() if e}
    if isinstance(cf, Pow):
        inner = power_product_exponents(cf.base)
        if inner is None:
            return None
        return {p: e * cf.exponent for p, e in inner.items() if e * cf.exponent}
    if isinstance(cf, Mul):
        out = {}
        for f in cf.factors:
            inner = power_product_exponents(f)
            if inner is None:
                return None
            for p, e in inner.items():
                out[p] = out.get(p, Fraction(0)) + e
        return {p: e for p, e in out.items() if e}
    return None


def power_product_form(exponents: Dict[int, Fraction]) -> ClosedForm:
    """Canonical ClosedForm for prod p^{e_p}: an exact rational times
    prime radicals with exponents in (0, 1)."""
    rational = Fraction(1)
    radicals = []
    for p in sorted(exponents):
        e = exponents[p]
        k = e.numerator // e.denominator  # floor
        frac = e - k
        rational *= Fraction(p) ** k
        if frac:
            radicals.append(Pow(cf_rat(p), frac))
    if not radicals:
        return Rat(rational)
    factors = ([] if rational == 1 else [Rat(rational)]) + radicals
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))
