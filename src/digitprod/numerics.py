"""Extended-precision arithmetic, Gamma at positive rationals, constants,
and closed-form expression trees.

High-precision floats are mpmath ``mpf`` values; every operation takes an
explicit decimal precision and works with guard digits in the calling
thread's own mpmath context (``workdps``), never in ``mpmath.mp``; values
enter it by ``ctx.convert`` and leave it by ``export``, neither rounding.
Gamma is computed from Stirling's asymptotic series after raising the
argument, with the shift chosen from the precision so the first omitted
term is negligible; the recurrence divides the shift back out exactly.

Closed forms are small expression trees over exact rationals and the
named constants pi and Gamma(1/4).  Gamma(3/4) never appears as a leaf:
the reflection formula rewrites it as pi*sqrt(2)/Gamma(1/4), so the
constant basis stays {pi, Gamma(1/4), rationals}.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple, Union

import mpmath

from .errors import CapabilityError, EvaluationError, InputError

GUARD_DIGITS = 10

DEFAULT_PRECISION = 60

# Reference value, 100 decimal digits; computing gamma from scratch is out
# of scope, so requests beyond this literal raise CapabilityError.
EULER_GAMMA_100 = (
    "0.5772156649015328606065120900824024310421"
    "593359399235988057672348848677267776646709369470632917467495"
)
EULER_GAMMA_DIGITS = 100


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
    share libmp's caches: the pi and ln2 memos write, and read, value and
    precision with no call or backward jump between, where CPython checks
    for a thread switch, and a Bernoulli or log cache entry is the same
    whichever thread computes it.  In a 20 s run at a 1 us switch interval
    (Python 3.11.7), three threads evaluating T5a and WR at 60 digits, the
    Gamma memo cleared each time, while a fourth took ``constant("pi")``
    and ``log_fraction`` through 974 new precisions (80 to 2,999 digits),
    gave 0 mismatches in 23,650 evaluations.
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


def mpf_from_fraction(q: Union[Fraction, int], precision: int) -> mpmath.mpf:
    return Rat(Fraction(q)).eval(precision)


def log_fraction(q: Union[Fraction, int], precision: int) -> mpmath.mpf:
    """log of a positive exact rational."""
    q = Fraction(q)
    if q <= 0:
        raise EvaluationError(f"log of nonpositive rational {q}")
    with workdps(working_dps(precision)) as ctx:
        return export(ctx.log(ctx.mpf(q.numerator)) - ctx.log(ctx.mpf(q.denominator)))


# ---------------------------------------------------------------------------
# Gamma via Stirling with argument raising
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def gamma(x: Fraction, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Gamma(x) for rational x > 0 to ``precision`` decimal digits.

    Evaluates ln Gamma(x + m) by Stirling's series with a shift
    m ~ ceil(1.2 * precision), then divides by the exact rising product
    x (x+1) ... (x+m-1).  Kept in place of ``mpmath.gamma``: its first
    call in a fresh interpreter takes 0.21-0.26 s at 515 digits, against
    16.4-16.5 ms here for all Gamma values of a 500-digit T5a evaluation
    (three fresh interpreters each, 2-vCPU AMD EPYC, Python 3.11.7).
    ``gamma_error`` bounds its relative error.
    """
    return _stirling_gamma(Fraction(x), precision)[0]


def gamma_error(x: Fraction, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """A bound on the relative error of ``gamma(x, precision)``."""
    return _stirling_gamma(Fraction(x), precision)[1]


@lru_cache(maxsize=4096)
def _stirling_gamma(x: Fraction, precision: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """(Gamma(x), a bound on its relative error) by Stirling's series.

    For real z > 0 the series stops off by less than its first omitted
    term.  The loop ends after a term below 10^-(wp+2) or at the smallest
    term, where the next one is at most about as large, so twice the last
    term computed bounds the truncation.  Each of the j terms added, and
    about six more operations, rounds ln Gamma(z) by one unit of 2^-prec
    of its size; ``log_fraction`` of the rising product p/q rounds both
    logs and their difference; exp adds one unit.
    """
    if x <= 0:
        raise InputError(f"gamma requires a positive argument, got {x}")
    wp = working_dps(precision) + 5
    shift = max(0, int(-(-12 * precision // 10)) + 2 - int(x))
    with workdps(wp) as ctx:
        z = ctx.convert(mpf_from_fraction(x, wp)) + shift
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
        # x (x+1) ... (x+shift-1) = prod (p + i q) / q^shift for x = p/q
        p, q = x.numerator, x.denominator
        rising = Fraction(math.prod(p + i * q for i in range(shift)), q ** shift)
        log_gamma = s - log_fraction(rising, precision + 5)
        logs = math.log(rising.numerator) + math.log(rising.denominator)
        rounding = (j + 6) * (abs(s) + 1) + 2 * logs + abs(log_gamma) + 2
        error = 2 * abs(term) + ctx.ldexp(rounding, -ctx.prec)
        return export(ctx.exp(log_gamma)), export(error)


def constant(name: str, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Named constant at the requested precision.

    ``pi`` comes from the arithmetic backend, ``gamma_quarter`` is
    Gamma(1/4), and ``euler_gamma`` is read from a 100-digit stored
    literal (requests beyond 100 digits raise CapabilityError).
    """
    if name == "pi":
        with workdps(working_dps(precision)) as ctx:
            return export(+ctx.pi)
    if name == "gamma_quarter":
        return gamma(Fraction(1, 4), precision)
    if name == "euler_gamma":
        if precision > EULER_GAMMA_DIGITS:
            raise CapabilityError(
                f"euler_gamma is stored to {EULER_GAMMA_DIGITS} digits; "
                f"requested {precision}")
        with workdps(working_dps(precision)) as ctx:
            return export(ctx.mpf(EULER_GAMMA_100))
    raise InputError(f"unknown constant {name!r}; "
                     "expected pi, gamma_quarter or euler_gamma")


# ---------------------------------------------------------------------------
# Closed-form expression trees
# ---------------------------------------------------------------------------

class ClosedForm:
    """Expression tree over rationals, pi and Gamma(1/4)."""

    def eval(self, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
        with workdps(working_dps(precision)) as ctx:
            return export(self._eval(ctx, precision))

    def _eval(self, ctx: mpmath.MPContext, precision: int) -> mpmath.mpf:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Rat(ClosedForm):
    value: Fraction

    def _eval(self, ctx, precision):
        return ctx.mpf(self.value.numerator) / ctx.mpf(self.value.denominator)

    def render(self):
        return str(self.value)

    def to_json(self):
        return {"type": "rational", "value": str(self.value)}


@dataclass(frozen=True)
class Const(ClosedForm):
    name: str  # pi | gamma_quarter; any name ``constant`` knows

    def _eval(self, ctx, precision):
        return ctx.convert(constant(self.name, precision))

    def render(self):
        return self.name

    def to_json(self):
        return {"type": "const", "name": self.name}


@dataclass(frozen=True)
class Pow(ClosedForm):
    base: ClosedForm
    exponent: Fraction

    def _eval(self, ctx, precision):
        b = self.base._eval(ctx, precision)
        e = self.exponent
        if e.denominator == 1:
            return b ** int(e)
        if b <= 0:
            raise EvaluationError(f"fractional power of nonpositive base {ctx.nstr(b, 8)}")
        return ctx.exp(ctx.log(b) * ctx.mpf(e.numerator) / e.denominator)

    def render(self):
        e = self.exponent
        estr = str(e) if e.denominator == 1 else f"({e})"
        return f"{_wrap(self.base)}^{estr}"

    def to_json(self):
        return {"type": "pow", "base": self.base.to_json(), "exponent": str(self.exponent)}


@dataclass(frozen=True)
class Mul(ClosedForm):
    factors: Tuple[ClosedForm, ...]

    def _eval(self, ctx, precision):
        out = ctx.mpf(1)
        for f in self.factors:
            out *= f._eval(ctx, precision)
        return out

    def render(self):
        return "*".join(_wrap(f) for f in self.factors)

    def to_json(self):
        return {"type": "mul", "factors": [f.to_json() for f in self.factors]}


@dataclass(frozen=True)
class Sub(ClosedForm):
    left: ClosedForm
    right: ClosedForm

    def _eval(self, ctx, precision):
        return self.left._eval(ctx, precision) - self.right._eval(ctx, precision)

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
