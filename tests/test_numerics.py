import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from conftest import euler_gamma_reference
from digitprod import EvaluationError, InputError, constant, gamma
from digitprod import numerics
from digitprod.numerics import (CF_GAMMA_QUARTER, CF_PI, Sub,
                                cf_mul, cf_pow, cf_rat, gamma_error,
                                power_product_exponents, power_product_form,
                                working_dps)


# Euler's gamma to 100 digits, a reference independent of the backend
EULER_GAMMA_100 = ("0.5772156649015328606065120900824024310421"
                   "593359399235988057672348848677267776646709369470632917467495")


def tol(digits, slack=2):
    return mpmath.mpf(10) ** (slack - digits)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def test_gamma_half_is_sqrt_pi():
    with mpmath.workdps(70):
        assert abs(gamma(F(1, 2), 60) - mpmath.sqrt(mpmath.pi)) < tol(60)


def test_gamma_recurrence_quarter():
    with mpmath.workdps(70):
        assert abs(gamma(F(5, 4), 60) - gamma(F(1, 4), 60) / 4) < tol(60)


def test_gamma_reflection_chain_tan_pi_over_8():
    # Gamma(3/8)Gamma(5/8) / (Gamma(1/8)Gamma(7/8)) = tan(pi/8) = sqrt(2) - 1
    with mpmath.workdps(70):
        value = (gamma(F(3, 8), 60) * gamma(F(5, 8), 60)
                 / (gamma(F(1, 8), 60) * gamma(F(7, 8), 60)))
        assert abs(value - (mpmath.sqrt(2) - 1)) < tol(60)


def test_gamma_rejects_nonpositive():
    with pytest.raises(InputError):
        gamma(F(0), 30)
    with pytest.raises(InputError):
        gamma(F(-3, 2), 30)


def test_gamma_against_library_oracle():
    rng = random.Random(7)
    with mpmath.workdps(80):
        for _ in range(20):
            x = F(rng.randint(1, 40), rng.randint(1, 12))
            ours = gamma(x, 60)
            ref = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
            assert abs(ours - ref) < tol(60) * abs(ref)


PRECISIONS = [1, 3, 20, 60, 200, 500]


def shift_cap(precision):
    # the largest shift k for which gamma takes the exact route
    return -(-12 * precision // 10) + 2


def reducible(precision):
    # f + k for f in {1/4, 1/2, 3/4, 1}, k from 0 to the cap and past it
    cap = shift_cap(precision)
    ks = sorted({0, 1, 2, 7, cap // 2, cap - 1, cap, cap + 1, cap + 9})
    return [f + k for f in (F(1, 4), F(1, 2), F(3, 4), F(1)) for k in ks]


def unit(precision):
    return mpmath.ldexp(1, 1 - mpmath.libmp.dps_to_prec(working_dps(precision)))


@pytest.mark.parametrize("precision", PRECISIONS)
def test_gamma_error_bounds_the_actual_error(precision):
    # against mpmath.gamma; the bound stays within 10^3 units of the
    # working precision, so products built on it keep their digits
    stirling = [F(7, 3), F(41, 8), F(1, 8), F(5, 6), F(2 * precision + 1, 3)]
    for x in stirling + reducible(precision):
        with mpmath.workdps(precision + 40):
            ref = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
            rel = abs(gamma(x, precision) / ref - 1)
            bound = gamma_error(x, precision)
            assert rel <= bound, x
            assert bound <= 1000 * unit(precision), x


@pytest.mark.parametrize("precision", PRECISIONS)
def test_exact_and_stirling_routes_agree_within_their_bounds(precision):
    # both routes for every reducible argument, also past the cap, where
    # gamma itself takes Stirling; each value lies within the sum of the
    # two bounds of the other
    cap = shift_cap(precision)
    for x in reducible(precision):
        k = -(-x.numerator // x.denominator) - 1
        exact, exact_error = numerics._reduced_gamma(x - k, k, precision)
        series, series_error = numerics._stirling_gamma(
            x, max(0, cap - int(x)), precision)
        with mpmath.workdps(precision + 40):
            assert abs(exact / series - 1) <= exact_error + series_error, x
            assert abs(series / exact - 1) <= exact_error + series_error, x
            assert exact_error <= 1000 * unit(precision), x


def test_gamma_of_a_quarter_past_a_million_keeps_stirling():
    # k = 10^6 is far past the cap: no million-factor product; ln Gamma
    # is about 1.3e7 here, so the bound is some 1400 units, still 60 digits
    x = F(10 ** 6) + F(1, 4)
    with mpmath.workdps(100):
        ref = mpmath.gamma(mpmath.mpf(10 ** 6) + mpmath.mpf(1) / 4)
        assert abs(gamma(x, 60) / ref - 1) <= gamma_error(x, 60) < tol(60, 0)


@pytest.mark.parametrize("x", [F(10 ** 15) + F(1, 3), F(10 ** 30) + F(1, 3)])
def test_gamma_keeps_its_digits_where_ln_gamma_is_huge(x):
    # ln Gamma(x) is some 3e16 or 7e31: Stirling's working digits grow with
    # it, so the bound still covers the error and stays below 10^-60
    with mpmath.workdps(120):
        ref = mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator)
        error = abs(mpmath.log(gamma(x, 60)) - ref)
        assert error <= gamma_error(x, 60) < tol(60, 0)


def test_quarter_values_share_one_agm_and_call_no_library_gamma(monkeypatch):
    # Gamma(1/4), Gamma(3/4), Gamma(5/4) and gamma_quarter at one precision
    # run the AGM once; neither mpmath's gamma nor its agm is called
    def refuse(*args, **kwargs):
        raise AssertionError("library gamma or agm called")

    ctx = numerics._THREAD.ctx
    for owner in (mpmath, mpmath.mp, ctx):
        monkeypatch.setattr(owner, "gamma", refuse)
        monkeypatch.setattr(owner, "agm", refuse)
    agm = numerics._agm_gamma_quarter
    runs = []
    monkeypatch.setattr(numerics, "_agm_gamma_quarter",
                        lambda c: runs.append(c.prec) or agm(c))
    numerics.gamma.cache_clear()
    numerics._bounded_gamma.cache_clear()
    try:
        values = [gamma(F(3, 4), 77), gamma(F(5, 4), 77), gamma(F(1, 4), 77),
                  constant("gamma_quarter", 77), gamma(F(7, 2), 77), gamma(F(3), 77)]
    finally:
        numerics.gamma.cache_clear()
        numerics._bounded_gamma.cache_clear()
    assert len(runs) == 1
    with mpmath.workdps(100):
        assert values[2] == values[3] == 4 * values[1]


def test_gamma_recurrence_invariant():
    rng = random.Random(11)
    with mpmath.workdps(40):
        for _ in range(100):
            x = F(rng.randint(1, 100), rng.randint(1, 10))
            lhs = gamma(x + 1, 30)
            rhs = x.numerator * gamma(x, 30) / x.denominator
            assert abs(lhs - rhs) < tol(30, 1) * abs(lhs)


def test_gamma_reflection_invariant():
    rng = random.Random(13)
    with mpmath.workdps(40):
        for _ in range(40):
            x = F(rng.randint(1, 23), 24)
            product = gamma(x, 30) * gamma(1 - x, 30)
            ref = mpmath.pi / mpmath.sin(mpmath.pi * x.numerator / x.denominator)
            assert abs(product - ref) < tol(30) * abs(ref)


def test_gamma_duplication_invariant():
    rng = random.Random(17)
    with mpmath.workdps(40):
        for _ in range(40):
            x = F(rng.randint(1, 60), rng.randint(1, 6))
            lhs = gamma(x / 2, 30) * gamma((x + 1) / 2, 30)
            rhs = (mpmath.power(2, 1 - mpmath.mpf(x.numerator) / x.denominator)
                   * mpmath.sqrt(mpmath.pi) * gamma(x, 30))
            assert abs(lhs - rhs) < tol(30) * abs(rhs)


def test_gamma_precision_monotonicity():
    with mpmath.workdps(80):
        low = gamma(F(1, 4), 30)
        high = gamma(F(1, 4), 70)
        assert abs(low - high) < tol(30)
        assert mpmath.nstr(low, 25) == mpmath.nstr(high, 25)


def gamma_products(precision, rng, count=12):
    # products of f + k and 1 - f + l at denominators that no exact route
    # reduces alone: the pair's exponents equal, unequal or opposite in
    # sign, or f unpaired; shifts from 0 to the cap, and now and then an
    # argument past the cap
    cap = shift_cap(precision)
    for i in range(count):
        pairs = []
        for j in range(3):
            q = rng.choice((3, 5, 6, 8, 10, 12))
            f = F(rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1 and 2 * p < q]), q)
            e = rng.choice((-3, -2, -1, 1, 2, 3))
            pairs.append((f + rng.choice((0, 1, rng.randint(2, cap), cap)), e))
            kind = (i + j) % 4
            if kind < 3:
                mirror = (e, e + (1 if e > 0 else -1), -e)[kind]
                pairs.append((1 - f + rng.choice((0, rng.randint(1, cap), cap)), mirror))
        if i % 3 == 0:
            pairs.append((F(rng.randint(1, 11), 12) + cap + rng.randint(1, 9),
                          rng.choice((-1, 1))))
        yield pairs


@pytest.mark.parametrize("precision", [30, 60, 200])
def test_gamma_product_ball_encloses_the_product(precision):
    # against mpmath.gamma at 20 more digits: every ball holds the product
    # and its radius is at most 10^-precision of it
    prec = numerics.ball_prec(precision)
    for pairs in gamma_products(precision, random.Random(precision)):
        lo, hi = numerics.gamma_product_ball(pairs, precision, prec)
        with mpmath.workdps(precision + 20):
            ref = mpmath.fprod(mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator) ** e
                               for x, e in pairs)
            lo, hi = mpmath.mp.make_mpf(lo), mpmath.mp.make_mpf(hi)
            assert lo <= ref <= hi, pairs
            assert (hi - lo) / 2 <= mpmath.mpf(10) ** -precision * ref, pairs


def test_gamma_product_ball_reflects_pairs_and_keeps_quarters(monkeypatch):
    # a pair f, 1 - f of the same sign takes one sine and no Stirling
    # series, the rest of the larger exponent takes Stirling, and a pair of
    # opposite signs takes Stirling on both sides; quarters take
    # gamma_ball one at a time, bit for bit
    taken = []
    stirling = numerics._stirling_gamma
    monkeypatch.setattr(numerics, "_stirling_gamma",
                        lambda x, shift, precision: taken.append(x) or stirling(x, shift, precision))
    numerics.gamma.cache_clear()
    numerics._bounded_gamma.cache_clear()
    prec = numerics.ball_prec(60)
    numerics.gamma_product_ball([(F(3, 8), 2), (F(13, 8), 1), (F(7, 8), -1),
                                 (F(17, 8), -1), (F(2, 3), -1), (F(4, 3), -2),
                                 (F(1, 5), 1), (F(9, 5), -1)], 60, prec)
    assert taken == [F(1, 5), F(1, 3), F(3, 8), F(4, 5)]
    quarters = [(F(5, 4), -2), (F(3), 1), (F(7, 2), 3)]
    value = (mpmath.libmp.fone, mpmath.libmp.fone)
    for x, e in quarters:
        power = mpmath.libmp.mpi_pow_int(numerics.gamma_ball(x, 60, prec), e, prec)
        value = mpmath.libmp.mpi_mul(value, power, prec)
    assert numerics.gamma_product_ball(quarters, 60, prec) == value
    assert len(taken) == 4


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

def test_pi_thirty_digits():
    with mpmath.workdps(40):
        assert mpmath.nstr(constant("pi", 30), 30) == \
            "3.14159265358979323846264338328"


def test_gamma_quarter_duplication_cross_check():
    # Gamma(1/8)Gamma(5/8) = 2^(3/4) sqrt(pi) Gamma(1/4)
    with mpmath.workdps(70):
        lhs = gamma(F(1, 8), 60) * gamma(F(5, 8), 60)
        rhs = (mpmath.power(2, mpmath.mpf(3) / 4) * mpmath.sqrt(mpmath.pi)
               * constant("gamma_quarter", 60))
        assert abs(lhs - rhs) < tol(60) * abs(rhs)


def test_euler_gamma_ten_digits():
    with mpmath.workdps(20):
        assert mpmath.nstr(constant("euler_gamma", 10), 10) == "0.5772156649"


def test_euler_gamma_against_series_oracle():
    # Euler-Maclaurin: H_n - log n - 1/(2n) + 1/(12 n^2) - 1/(120 n^4)
    n = 200
    h = sum(1.0 / k for k in range(1, n + 1))
    approx = h - math.log(n) - 1 / (2 * n) + 1 / (12 * n ** 2) - 1 / (120 * n ** 4)
    assert abs(float(constant("euler_gamma", 30)) - approx) < 1e-12


def test_euler_gamma_has_the_bits_of_the_100_digit_reference():
    # the working precision is p + 10 digits, within the reference's 100
    # up to p = 89; above that, and past 100 digits, the value stays
    # within the reference's own rounding
    for p in range(1, 90):
        with mpmath.workdps(p + 10):
            assert constant("euler_gamma", p) == mpmath.mpf(EULER_GAMMA_100)
    with mpmath.workdps(120):
        for p in range(90, 111):
            assert abs(constant("euler_gamma", p) - mpmath.mpf(EULER_GAMMA_100)) < tol(100, 0)


@pytest.mark.parametrize("digits", [100, 300, 1000])
def test_euler_gamma_against_euler_maclaurin(digits):
    reference = euler_gamma_reference(digits)
    with mpmath.workdps(digits + 20):
        if digits == 100:
            assert abs(reference - mpmath.mpf(EULER_GAMMA_100)) < tol(100, 0)
        assert abs(constant("euler_gamma", digits) - reference) < tol(digits + 5, 0)


def test_unknown_constant():
    with pytest.raises(InputError):
        constant("feigenbaum", 30)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_closed_form_pow():
    cf = cf_pow(2, F(-1, 2))
    with mpmath.workdps(70):
        assert abs(cf.eval(60) - 1 / mpmath.sqrt(2)) < tol(60)


def test_closed_form_theorem_five_constant():
    cf = cf_mul(cf_pow(CF_PI, F(3, 4)), cf_pow(2, F(1, 2)),
                cf_pow(CF_GAMMA_QUARTER, -1))
    with mpmath.workdps(70):
        expected = (mpmath.pi ** (mpmath.mpf(3) / 4) * mpmath.sqrt(2)
                    / mpmath.gamma(mpmath.mpf(1) / 4))
        assert abs(cf.eval(60) - expected) < tol(58)
        assert mpmath.nstr(cf.eval(60), 7) == "0.9204418"


def test_closed_form_rational_exact():
    assert cf_rat(9, 8).eval(30) == mpmath.mpf(9) / 8


def test_closed_form_sub_div_e_gamma():
    cf = cf_mul(Sub(cf_rat(3), cf_rat(1)), cf_pow(4, -1))
    assert cf.eval(30) == mpmath.mpf(1) / 2


def test_closed_form_fractional_power_of_negative():
    with pytest.raises(EvaluationError):
        cf_pow(Sub(cf_rat(1), cf_rat(2)), F(1, 2)).eval(30)


def test_closed_form_render_and_json():
    cf = cf_mul(cf_rat(8), cf_pow(CF_PI, F(1, 2)), cf_pow(CF_GAMMA_QUARTER, -2))
    assert cf.render() == "8*pi^(1/2)*gamma_quarter^-2"
    blob = cf.to_json()
    assert blob["type"] == "mul" and len(blob["factors"]) == 3


def test_power_product_exponents():
    assert power_product_exponents(cf_pow(2, F(-1, 2))) == {2: F(-1, 2)}
    assert power_product_exponents(cf_rat(9, 8)) == {2: F(-3), 3: F(2)}
    assert power_product_exponents(cf_rat(1)) == {}
    assert power_product_exponents(CF_PI) is None
    assert power_product_exponents(cf_mul(cf_rat(9), CF_PI)) is None
    assert power_product_exponents(cf_mul(cf_rat(6), cf_pow(3, F(1, 2)))) == \
        {2: F(1), 3: F(3, 2)}


def test_power_product_form_canonical():
    form = power_product_form({2: F(-1, 2)})
    assert isinstance(form, type(cf_mul(cf_rat(1, 2), cf_pow(2, F(1, 2)))))
    assert power_product_exponents(form) == {2: F(-1, 2)}
    assert power_product_form({2: F(2), 3: F(-1)}).render() == "4/3"
