"""The scaled tail engine for +-1 Thue-Morse products, against oracles
that share none of its code: the closed forms written here in mpmath, the
L-fold split oracle ``eval_pm_thue`` at high L and N, and the engine
itself at a second tail start M.
"""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_fully_convergent, random_pm_convergent

from digitprod import (EvalOptions, ExponentKind, FactoredRational,
                       ProductSpec, catalog_entry, eval_pm_thue, eval_product,
                       f_value)
from digitprod import evaluator
from digitprod.numerics import working_dps


def _closed_forms():
    """The 15 Thue-Morse catalog constants, in mpmath at the current precision."""
    r2 = mpmath.sqrt(2)
    return {
        "WR": 1 / r2, "C3b": mpmath.mpf(1) / 2, "C3c": mpmath.mpf(2),
        "C3d": mpmath.mpf(1) / 2, "C3e": 1 / r2, "C3f": mpmath.mpf(1),
        "C3g": 1 / r2, "C3h": mpmath.mpf(2), "C3i": 1 / (2 * r2),
        "C3j": mpmath.mpf(1) / 4, "C3k": mpmath.mpf(1), "C3l": mpmath.mpf(1) / 2,
        "T5a": mpmath.pi ** (mpmath.mpf(3) / 4) * r2 / mpmath.gamma(mpmath.mpf(1) / 4),
        "T5b": r2, "T5c": mpmath.sqrt(2 * r2 - 2),
    }


TM_NAMES = sorted(["WR", "C3b", "C3c", "C3d", "C3e", "C3f", "C3g", "C3h",
                   "C3i", "C3j", "C3k", "C3l", "T5a", "T5b", "T5c"])


def _references(digits):
    with mpmath.workdps(digits + 30):
        return _closed_forms()


@pytest.mark.parametrize("digits", [60, 200, 500])
def test_engine_full_digits_on_closed_forms(digits):
    refs = _references(digits)
    for name in TM_NAMES:
        res = eval_product(catalog_entry(name).spec, EvalOptions(precision=digits))
        assert (res.terms_used, res.split_levels) == (64, 0)
        with mpmath.workdps(digits + 30):
            error = abs(res.value - refs[name])
            assert error <= res.error_estimate, name
            assert res.error_estimate < abs(refs[name]) * mpmath.mpf(10) ** -digits, name


def test_engine_bound_covers_and_is_within_1000_of_actual():
    # the actual error is floored at one rounding unit of the working
    # precision: a bound cannot be asked to beat the arithmetic it runs in
    refs = _references(60)
    unit = mpmath.ldexp(1, 1 - mpmath.libmp.dps_to_prec(working_dps(60)))
    for name in TM_NAMES:
        res = eval_product(catalog_entry(name).spec, EvalOptions(precision=60))
        with mpmath.workdps(90):
            error = abs(res.value - refs[name])
            floor = abs(refs[name]) * unit
            assert error <= res.error_estimate, name
            assert res.error_estimate <= 1000 * max(error, floor), name


@pytest.mark.parametrize("spec", [
    catalog_entry("WR").spec,
    ProductSpec(random_pm_convergent(random.Random(7)), ExponentKind.PM_THUE, 1),
])
def test_engine_matches_split_oracle_at_high_levels(spec):
    # L = 12 and N = 2^16: the split's log-terms decay like n^-13, so the
    # oracle is good to about 10^-67 here whatever its estimate says
    oracle = eval_pm_thue(spec, EvalOptions(precision=60, split_levels=12,
                                            terms=1 << 16))
    engine = eval_product(spec, EvalOptions(precision=60))
    with mpmath.workdps(80):
        assert abs(oracle.value - engine.value) < mpmath.mpf(10) ** -62


@pytest.mark.parametrize("digits", [60, 200])
def test_engine_second_tail_start(monkeypatch, digits):
    # M = 128 builds its own table; both starts hit the closed forms
    monkeypatch.setattr(evaluator, "TM_TAIL_START", 128)
    refs = _references(digits)
    for name in ["WR", "C3k", "T5a"]:
        res = eval_product(catalog_entry(name).spec, EvalOptions(precision=digits))
        assert res.terms_used == 128
        with mpmath.workdps(digits + 30):
            assert abs(res.value - refs[name]) <= res.error_estimate, name


def test_engine_large_offsets_take_a_larger_tail_start():
    # max|a| = 33/2 needs M >= 8 * 33/2, so M = 256
    a, b = F(33, 2), F(16)
    res = f_value(a, b)
    assert res.terms_used == 256
    oracle = f_value(a, b, EvalOptions(split_levels=12, terms=1 << 16))
    with mpmath.workdps(80):
        assert abs(oracle.value - res.value) < mpmath.mpf(10) ** -55


@pytest.mark.parametrize("x, tail_start", [
    (F(127), evaluator.TM_MAX_TAIL_START),  # max|a| = 64: M = 512, the cap
    (F(128), None),                         # max|a| = 129/2 would need 1024
    (F(10 ** 4), None),                     # max|a| = (10^4 + 1)/2: 2^16
])
def test_offsets_above_the_tail_start_cap_take_the_split_oracle(
        monkeypatch, x, tail_start):
    # decided from the offsets before any work: past the cap no engine
    # table is built, and the split oracle runs at its defaults
    if tail_start is None:
        def no_table(*args):
            raise AssertionError("built an engine table")
        monkeypatch.setattr(evaluator, "_tm_scaled_table", no_table)
    a, b = x / 2, (x + 1) / 2
    res = f_value(a, b)
    if tail_start is None:
        assert res == f_value(a, b, EvalOptions(split_levels=8, terms=4096))
        assert (res.terms_used, res.split_levels) == (4096, 8)
    else:
        assert (res.terms_used, res.split_levels) == (tail_start, 0)


def test_engine_table_is_shared_and_built_on_first_use():
    evaluator._tm_scaled_table.cache_clear()
    for name in ["WR", "C3b", "T5a"]:
        eval_product(catalog_entry(name).spec, EvalOptions(precision=40))
    info = evaluator._tm_scaled_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0, 1]),
       st.sampled_from(["pm-t", "t"]), st.integers(15, 120), st.integers(1, 80))
def test_engine_two_precisions_agree_to_the_lower(seed, start, kind, low, extra):
    rng = random.Random(seed)
    if kind == "pm-t":
        spec = ProductSpec(random_pm_convergent(rng), ExponentKind.PM_THUE, start)
    else:
        spec = ProductSpec(random_fully_convergent(rng),
                           ExponentKind.ZERO_ONE_THUE, start)
    coarse = eval_product(spec, EvalOptions(precision=low))
    fine = eval_product(spec, EvalOptions(precision=low + extra))
    with mpmath.workdps(low + extra + 20):
        gap = abs(coarse.value - fine.value)
        assert gap <= coarse.error_estimate + fine.error_estimate
        assert gap <= abs(fine.value) * mpmath.mpf(10) ** -low


def test_fixing_split_levels_or_terms_selects_the_oracle():
    spec = catalog_entry("WR").spec
    for opts in (EvalOptions(split_levels=6), EvalOptions(terms=1024)):
        res = eval_product(spec, opts)
        direct = eval_pm_thue(spec, opts)
        assert res == direct and res.split_levels == (opts.split_levels or 8)


def test_engine_identity_rational_is_exact():
    res = eval_product(ProductSpec(FactoredRational.one(), ExponentKind.PM_THUE, 1))
    assert res.value == 1 and res.error_estimate == 0
