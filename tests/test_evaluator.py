import contextlib
import math
import random
import sys
import time
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_signed_product, random_fully_convergent, random_pm_convergent

from digitprod import (CapabilityError, ConsistencyError, EvalOptions,
                       EvaluationError,
                       ExponentKind, FactoredRational, InputError,
                       ProductSpec, eval_plain, eval_pm_rs, eval_pm_thue,
                       eval_product, eval_zero_one_rs, eval_zero_one_thue,
                       f_value, flajolet_martin, g_value, monotonicity_scan,
                       remainder_sign_probe)
from digitprod import catalog_entry, evaluator, numerics
from digitprod.evaluator import (MAX_PROBE_GRID, MAX_RS_SPLIT_LEVELS,
                                 MAX_RS_TERMS, MAX_SPLIT_LEVELS, MAX_TM_TERMS,
                                 _tm_log_sum, _tm_tail_table)
from digitprod.factored_rational import dyadic_split, log_term
from digitprod.numerics import log_fraction, working_dps

WR_SPEC = ProductSpec(FactoredRational.parse("(2n+1)/(2n+2)"),
                      ExponentKind.PM_THUE, 0)
T6_RATIONAL = FactoredRational.parse("4(n+2)(2n+1)^3(2n+3)^3/((n+3)(n+1)^2(4n+3)^4)")
LIGHT = EvalOptions(precision=30, split_levels=6, terms=1024)


def mp(digits=70):
    return mpmath.workdps(digits)


# ---------------------------------------------------------------------------
# +-1 Thue-Morse
# ---------------------------------------------------------------------------

def test_pm_thue_woods_robbins():
    res = eval_pm_thue(WR_SPEC)
    with mp():
        assert abs(res.value - 1 / mpmath.sqrt(2)) < mpmath.mpf("1e-30")
        assert abs(res.value - 1 / mpmath.sqrt(2)) < res.error_estimate
    assert res.terms_used == 4096 and res.split_levels == 8


def test_pm_thue_quarter_identity():
    spec = ProductSpec(FactoredRational.parse("(4n+1)/(4n+3)"),
                       ExponentKind.PM_THUE, 0)
    res = eval_pm_thue(spec)
    with mp():
        assert abs(res.value - mpmath.mpf(1) / 2) < mpmath.mpf("1e-30")


def test_pm_thue_identity_rational():
    spec = ProductSpec(FactoredRational.one(), ExponentKind.PM_THUE, 1)
    res = eval_pm_thue(spec)
    assert res.value == 1


def test_pm_thue_matches_naive_oracle(rng):
    for _ in range(3):
        r = random_pm_convergent(rng)
        spec = ProductSpec(r, ExponentKind.PM_THUE, 1)
        accel = eval_pm_thue(spec, LIGHT)
        naive = naive_signed_product(r, 1, 10 ** 5)
        assert abs(float(accel.value) - naive) < 1e-3


def test_pm_thue_self_agreement_across_settings(rng):
    settings = [EvalOptions(split_levels=6, terms=2 ** 12),
                EvalOptions(split_levels=8, terms=2 ** 12),
                EvalOptions(split_levels=10, terms=2 ** 13)]
    for _ in range(3):
        spec = ProductSpec(random_pm_convergent(rng), ExponentKind.PM_THUE, 1)
        results = [eval_pm_thue(spec, opts) for opts in settings]
        for a in results:
            for b in results:
                assert abs(a.value - b.value) <= \
                    a.error_estimate + b.error_estimate


def test_evaluation_is_pure_under_concurrency():
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(eval_pm_thue, WR_SPEC, LIGHT) for _ in range(8)]
        values = {str(f.result().value) for f in futures}
    assert len(values) == 1


def test_precision_regions_do_not_interleave():
    # mpmath's precision is process-wide: if two threads' precision regions
    # interleave, one computes at the other's precision and leaves it set
    import sys
    from concurrent.futures import ThreadPoolExecutor
    opts = [EvalOptions(precision=p, split_levels=4, terms=256) for p in (20, 80)]
    expected = [eval_pm_thue(WR_SPEC, o).value for o in opts]
    prec = mpmath.mp.prec
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(eval_pm_thue, WR_SPEC, opts[i % 2])
                       for i in range(16)]
            values = [f.result(timeout=60).value for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(v == expected[i % 2] for i, v in enumerate(values))
    assert mpmath.mp.prec == prec


@contextlib.contextmanager
def fast_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_other_threads_keep_their_mpmath_precision():
    # while one thread evaluates T5a at 500, 200 and 500 digits, mpmath
    # arithmetic in another thread runs at that thread's own precision
    from concurrent.futures import ThreadPoolExecutor
    spec = catalog_entry("T5a").spec
    prec = mpmath.mp.prec
    expected = "0.333333333333333"
    assert str(mpmath.mpf(1) / 3) == expected
    tries, wrong = 0, set()
    deadline = time.monotonic() + 120
    with fast_thread_switches(), ThreadPoolExecutor(max_workers=1) as pool:
        future = pool.submit(lambda: [eval_product(spec, EvalOptions(precision=p))
                                      for p in (500, 200, 500)])
        while not future.done() and time.monotonic() < deadline:
            text = str(mpmath.mpf(1) / 3)
            tries += 1
            if text != expected:
                wrong.add(text)
        future.result(timeout=0)
    assert tries > 0 and wrong == set()
    assert mpmath.mp.prec == prec


def test_thread_contexts_share_libmp_memos_safely():
    # three threads evaluate T5a and WR at 60 digits, each time with the
    # Gamma memo cleared, while a fourth pushes mpmath's pi and log memos
    # (shared by every context) through new precisions; every evaluation
    # must give the bits it gives alone
    from concurrent.futures import ThreadPoolExecutor
    specs = [catalog_entry("T5a").spec, WR_SPEC]
    opts = EvalOptions(precision=60)
    alone = [eval_product(spec, opts) for spec in specs]
    deadline = time.monotonic() + 3

    def evaluate(first):
        results = []
        while time.monotonic() < deadline:
            numerics.gamma.cache_clear()
            numerics._stirling_gamma.cache_clear()
            k = (first + len(results)) % 2
            results.append((k, eval_product(specs[k], opts)))
        return results

    def push():
        pushed = []
        for digits in range(80, 3000, 3):
            if time.monotonic() >= deadline:
                break
            pushed.append((digits, numerics.constant("pi", digits),
                           log_fraction(F(3, 7), digits)))
        return pushed

    with fast_thread_switches(), ThreadPoolExecutor(max_workers=4) as pool:
        workers = [pool.submit(evaluate, i) for i in range(3)]
        pusher = pool.submit(push)
        results = [r for w in workers for r in w.result(timeout=120)]
        pushed = pusher.result(timeout=120)
    assert len(results) >= 3 and pushed
    assert [k for k, res in results if res != alone[k]] == []
    # references above every pushed precision, so computed afresh
    top = pushed[-1][0] + 20
    pi, log = numerics.constant("pi", top), log_fraction(F(3, 7), top)
    with mpmath.workdps(top):
        for digits, pi_p, log_p in pushed:
            assert abs(pi_p - pi) < mpmath.mpf(10) ** -(digits + 5)
            assert abs(log_p - log) < mpmath.mpf(10) ** -(digits + 5)


def test_public_results_are_plain_mpf():
    # a value of the package's own context type would compute at the
    # package's precision in the caller's arithmetic
    from digitprod import constant, eval_closed_form, gamma, verify
    opts = EvalOptions(precision=30)
    plain = ProductSpec(FactoredRational.parse("(n+1)(n+3)/(n+2)^2"),
                        ExponentKind.PLAIN, 0)
    results = [eval_product(catalog_entry(name).spec, opts)
               for name in ("WR", "T5a", "GS", "T6b")]
    results += [eval_product(plain, opts), eval_pm_thue(WR_SPEC, LIGHT),
                eval_pm_rs(catalog_entry("GS").spec,
                           EvalOptions(precision=30, rs_split_levels=2, terms=4096)),
                f_value(F(1, 3), F(1, 2), opts), g_value(F(1, 3), opts)]
    fm = flajolet_martin(opts)
    scan = monotonicity_scan(F(0), F(1), 3, opts)
    report = verify(catalog_entry("C3b"), opts)
    values = [x for res in results + [fm.g0, fm.ratio]
              for x in (res.value, res.error_estimate)]
    values += [fm.phi, fm.phi_via_g0, fm.cross_check_error]
    values += [x for p in scan.points for x in (p.value, p.error_estimate)]
    values += [report.computed, report.expected, report.abs_error,
               report.tolerance, report.error_estimate]
    values += [gamma(F(1, 3), 30), numerics.gamma_error(F(1, 3), 30),
               log_term(WR_SPEC.rational, 3, 30), log_fraction(F(3, 7), 30),
               numerics.mpf_from_fraction(F(3, 7), 30),
               eval_closed_form(catalog_entry("T5a").closed_form, 30)]
    values += [constant(name, 30) for name in ("pi", "gamma_quarter", "euler_gamma")]
    assert [type(x) for x in values if type(x) is not mpmath.mpf] == []


def test_pm_thue_takes_one_exact_log(monkeypatch):
    # the exact head terms fold into the split boundary: one log in all
    from digitprod import evaluator
    logged = []
    original = evaluator.log_fraction

    def counting(q, precision):
        logged.append(q)
        return original(q, precision)

    monkeypatch.setattr(evaluator, "log_fraction", counting)
    eval_pm_thue(WR_SPEC, LIGHT)
    assert len(logged) == 1


def tail_parameters(r, start, precision):
    """n0, bits and j_max as ``_tm_log_sum`` picks them."""
    max_abs = float(r.max_abs_offset())
    n0 = max(8, int(math.ceil(2 * max_abs)) + 1, start + 1)
    bits = int(math.ceil((precision + 12) * math.log2(10)))
    mass = sum(abs(f.multiplicity) for f in r.factors)
    j_max = int(math.ceil((bits + math.log2(mass + 1) + 4)
                          / -math.log2(max(max_abs, 1e-9) / n0))) + 2
    return n0, bits, j_max


def horner_log_sum(r, start, terms, precision):
    """Reference for ``_tm_log_sum``: one fixed-point Horner pass per n."""
    n0, bits, j_max = tail_parameters(r, start, precision)
    head = F(1)
    exact_hi = min(n0, terms + 1)
    for n in range(start, exact_hi):
        value = r.value_at(n)
        head = head / value if (n.bit_count() & 1) else head * value
    if terms < n0:
        with mpmath.workdps(working_dps(precision)):
            return head, mpmath.mpf(0), abs(log_term(r, exact_hi - 1, precision))
    psums = r.power_sums(j_max)
    scale = 1 << bits
    q = [0] * (j_max + 1)
    for j in range(1, j_max + 1):
        q[j] = round(F(psums[j] * scale * (1 if j % 2 == 1 else -1), j))
    acc = 0
    for n in range(n0, terms + 1):
        h = 0
        for j in range(j_max, 0, -1):
            h = (h + q[j]) // n
        acc += -h if (n.bit_count() & 1) else h
    with mpmath.workdps(working_dps(precision)):
        return head, mpmath.mpf(acc) / scale, abs(mpmath.mpf(h)) / scale


def series_tail(r, n0, terms, j_max, dps):
    """sum_{n0<=n<=terms} (-1)^{t_n} sum_{j<=j_max} c_j n^-j in mpmath."""
    psums = r.power_sums(j_max)
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(p.numerator) / p.denominator / j * (-1) ** (j + 1)
                  for j, p in enumerate(psums) if j]
        total = mpmath.mpf(0)
        for n in range(n0, terms + 1):
            x = mpmath.mpf(1) / n
            term = x * mpmath.polyval(coeffs[::-1], x)
            total += -term if n.bit_count() & 1 else term
        return total


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0, 1]), st.integers(0, 8),
       st.one_of(st.integers(-3, 0), st.integers(1, 300)),
       st.integers(15, 300))
def test_tm_log_sum_matches_horner_reference(seed, start, levels, past_n0,
                                             precision):
    # both sum the same truncated series: the table to within 2^-bits, the
    # Horner pass to within about 1.25 units of 2^-bits per n; each side
    # rounds once more into an mpf
    r = random_pm_convergent(random.Random(seed))
    r = r.regroup([(1 << levels, i, -1 if i.bit_count() & 1 else 1)
                   for i in range(1 << levels)])
    n0, bits, j_max = tail_parameters(r, start, precision)
    terms = n0 + past_n0
    head, tail, last = _tm_log_sum(r, start, terms, precision)
    ref_head, ref_tail, ref_last = horner_log_sum(r, start, terms, precision)
    assert head == ref_head and last == ref_last
    with mpmath.workdps(working_dps(precision)):
        rounding = mpmath.eps * (abs(tail) + abs(ref_tail))
    exact = series_tail(r, n0, terms, j_max, precision + 40)
    with mpmath.workdps(precision + 40):
        unit = mpmath.mpf(2) ** -bits
        assert abs(tail - exact) <= unit + rounding
        assert abs(tail - ref_tail) <= 2 * terms * unit + rounding


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 24),
       st.integers(1, 12))
def test_tm_tail_table_matches_iterated_floors(n0, count, bits, j_max):
    terms = n0 + count - 1
    table = _tm_tail_table(n0, terms, bits, j_max)
    assert isinstance(table, tuple) and len(table) == j_max
    for j in range(1, j_max + 1):
        floors = 0
        exact = F(0)
        for n in range(n0, terms + 1):
            sign = -1 if n.bit_count() & 1 else 1
            y = 1 << bits
            for _ in range(j):
                y = y * n0 // n
            floors += sign * y
            exact += sign * F((1 << bits) * n0 ** j, n ** j)
        assert table[j - 1] == floors
        assert abs(exact - floors) <= j * count


def test_tm_tail_table_shared_by_two_rationals():
    opts = EvalOptions(precision=60)
    quarter = ProductSpec(FactoredRational.parse("(4n+1)/(4n+3)"),
                          ExponentKind.PM_THUE, 0)
    _tm_tail_table.cache_clear()
    eval_pm_thue(WR_SPEC, opts)
    eval_pm_thue(quarter, opts)
    info = _tm_tail_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_pm_thue_error_estimate_decreases_with_levels():
    estimates = []
    for levels in (2, 4, 6, 8):
        res = eval_pm_thue(WR_SPEC, EvalOptions(split_levels=levels))
        estimates.append(res.error_estimate)
    assert all(b < a for a, b in zip(estimates, estimates[1:]))


def test_pm_thue_split_identity_at_evaluator_level():
    # value(R) = boundary * value(R(2n)/R(2n+1)) with the exact boundary
    split, boundary = dyadic_split(WR_SPEC.rational, 0)
    lhs = eval_pm_thue(WR_SPEC)
    rhs = eval_pm_thue(ProductSpec(split, ExponentKind.PM_THUE, 1))
    with mp():
        assert abs(lhs.value - boundary * rhs.value) < \
            lhs.error_estimate + rhs.error_estimate


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("levels", [0, 3, 8])
def test_split_oracle_applies_dyadic_split_once_per_level(monkeypatch, start, levels):
    starts = []

    def counted(r, s):
        starts.append(s)
        return dyadic_split(r, s)

    monkeypatch.setattr(evaluator, "dyadic_split", counted)
    spec = ProductSpec(FactoredRational.parse("(3n+1)(4n+3)/((3n+2)(4n+1))"),
                       ExponentKind.PM_THUE, start)
    opts = EvalOptions(precision=40, split_levels=levels, terms=1024)
    result = eval_pm_thue(spec, opts)
    assert starts == ([start] + [1] * (levels - 1) if levels else [])

    # the same L levels as one regrouping, whose start-1 boundary
    # prod_{1<=i<2^L} R(i)^{(-1)^{t_i}} is an exact head
    maps = [(1 << levels, i, -1 if i.bit_count() & 1 else 1)
            for i in range(1 << levels)]
    head, tail, _ = _tm_log_sum(spec.rational.regroup(maps), start, 1024, 40)
    if start == 1:
        head *= evaluator._head(spec.rational, 1, 1 << levels,
                                [w for _, _, w in maps])
    with mpmath.workdps(working_dps(40)):
        assert result.value == mpmath.exp(tail + log_fraction(head, 40))


def test_pm_thue_rejects_divergent():
    spec = ProductSpec(FactoredRational.parse("(2n+1)/(3n+2)"),
                       ExponentKind.PM_THUE, 0)
    with pytest.raises(InputError):
        eval_pm_thue(spec)


def test_pm_thue_rejects_pole():
    spec = ProductSpec(FactoredRational.parse("(4n+1)/(4n)"),
                       ExponentKind.PM_THUE, 0)
    with pytest.raises(InputError):
        eval_pm_thue(spec)


def test_pm_thue_negative_value_rejected():
    # (n - 3/2) is negative at n = 1: no real logarithm
    spec = ProductSpec(FactoredRational.parse("(2n-3)/(2n+3)"),
                       ExponentKind.PM_THUE, 1)
    with pytest.raises(EvaluationError):
        eval_pm_thue(spec)


# ---------------------------------------------------------------------------
# Plain products
# ---------------------------------------------------------------------------

def test_plain_telescoping_value_four():
    spec = ProductSpec(FactoredRational.parse("(n+1)(4n+5)/((n+2)(4n+1))"),
                       ExponentKind.PLAIN, 0)
    res = eval_plain(spec)
    with mp():
        assert abs(res.value - 4) < mpmath.mpf("1e-55")


def test_plain_telescoping_gamma_value():
    spec = ProductSpec(FactoredRational.parse("(4n+1)(4n+4)/((4n+2)(4n+3))"),
                       ExponentKind.PLAIN, 0)
    res = eval_plain(spec)
    with mp():
        expected = (mpmath.pi ** mpmath.mpf("1.5") * mpmath.sqrt(2)
                    / mpmath.gamma(mpmath.mpf(1) / 4) ** 2)
        assert abs(res.value - expected) < mpmath.mpf("1e-55")


def test_plain_telescoping_tan_pi_over_8():
    spec = ProductSpec(FactoredRational.parse("(8n+1)(8n+7)/((8n+3)(8n+5))"),
                       ExponentKind.PLAIN, 0)
    res = eval_plain(spec)
    with mp():
        assert abs(res.value - (mpmath.sqrt(2) - 1)) < mpmath.mpf("1e-55")


def test_plain_matches_brute_force(rng):
    r = random_fully_convergent(rng)
    res = eval_plain(ProductSpec(r, ExponentKind.PLAIN, 1))
    partial = 1.0
    for n in range(1, 200000):
        partial *= float(r.value_at(n))
    assert abs(float(res.value) - partial) < 2e-4 * abs(partial)


def test_plain_rejects_pm_only():
    with pytest.raises(InputError):
        eval_plain(ProductSpec(FactoredRational.parse("(2n+1)/(2n+2)"),
                               ExponentKind.PLAIN, 0))


# ---------------------------------------------------------------------------
# 0/1 Thue-Morse
# ---------------------------------------------------------------------------

def test_zero_one_thue_values():
    cases = [
        ("(4n+1)(4n+4)/((4n+2)(4n+3))",
         lambda: mpmath.pi ** mpmath.mpf("0.75") * mpmath.sqrt(2)
         / mpmath.gamma(mpmath.mpf(1) / 4)),
        ("(n+1)(4n+5)/((n+2)(4n+1))", lambda: mpmath.sqrt(2)),
        ("(8n+1)(8n+7)/((8n+3)(8n+5))",
         lambda: mpmath.sqrt(2 * mpmath.sqrt(2) - 2)),
    ]
    for text, expected in cases:
        spec = ProductSpec(FactoredRational.parse(text),
                           ExponentKind.ZERO_ONE_THUE, 0)
        res = eval_zero_one_thue(spec)
        with mp():
            assert abs(res.value - expected()) < mpmath.mpf("1e-20"), text


def test_zero_one_squared_times_pm_equals_plain(rng):
    # 2 t_n = 1 - (-1)^{t_n}
    for _ in range(3):
        r = random_fully_convergent(rng)
        plain = eval_plain(ProductSpec(r, ExponentKind.PLAIN, 1), LIGHT)
        pm = eval_pm_thue(ProductSpec(r, ExponentKind.PM_THUE, 1), LIGHT)
        zo = eval_zero_one_thue(ProductSpec(r, ExponentKind.ZERO_ONE_THUE, 1), LIGHT)
        with mp(40):
            lhs = zo.value ** 2 * pm.value
            combined = (2 * zo.error_estimate * zo.value * pm.value
                        + pm.error_estimate + plain.error_estimate)
            assert abs(lhs - plain.value) < combined + mpmath.mpf("1e-25")


def test_zero_one_thue_requires_full_convergence():
    with pytest.raises(InputError):
        eval_zero_one_thue(ProductSpec(FactoredRational.parse("(2n+1)/(2n+2)"),
                                       ExponentKind.ZERO_ONE_THUE, 0))


# ---------------------------------------------------------------------------
# Rudin-Shapiro
# ---------------------------------------------------------------------------

def test_pm_rs_golay_shapiro_theorem():
    res = eval_pm_rs(ProductSpec(T6_RATIONAL, ExponentKind.PM_RS, 0))
    assert abs(float(res.value) - 1.0) < 1e-8
    assert res.split_levels == 0  # fully convergent: direct summation


def test_pm_rs_golay_shapiro_product():
    spec = ProductSpec(FactoredRational.parse("(2n+1)^2/((n+1)(4n+1))"),
                       ExponentKind.PM_RS, 1)
    res = eval_pm_rs(spec)
    with mp():
        assert abs(res.value - 1 / mpmath.sqrt(2)) < 1e-6
    assert res.split_levels > 0  # slow component forces acceleration


def test_pm_rs_identity_rational():
    res = eval_pm_rs(ProductSpec(FactoredRational.one(), ExponentKind.PM_RS, 1))
    assert res.value == 1


@pytest.mark.parametrize("start", [0, 1])
def test_pm_rs_identity_rational_has_no_error(start):
    spec = ProductSpec(FactoredRational.one(), ExponentKind.PM_RS, start)
    res = eval_pm_rs(spec)
    assert res.value == 1 and res.error_estimate == 0
    res = eval_pm_rs(spec, EvalOptions(rs_split_levels=6))
    assert (res.value, res.error_estimate, res.split_levels) == (1, 0, 6)


def test_pm_rs_matches_naive_oracle(rng):
    r = random_fully_convergent(rng)
    spec = ProductSpec(r, ExponentKind.PM_RS, 1)
    res = eval_pm_rs(spec, EvalOptions(terms=10 ** 5))
    naive = naive_signed_product(r, 1, 10 ** 5 + 1, sequence="v")
    assert abs(float(res.value) - naive) < 1e-9 * (1 + abs(naive))


def test_pm_rs_split_levels_agree():
    spec = ProductSpec(FactoredRational.parse("(2n+1)^2/((n+1)(4n+1))"),
                       ExponentKind.PM_RS, 1)
    base = eval_pm_rs(spec, EvalOptions(terms=10 ** 5, rs_split_levels=6))
    more = eval_pm_rs(spec, EvalOptions(terms=10 ** 5, rs_split_levels=9))
    assert abs(float(base.value) - float(more.value)) < \
        float(base.error_estimate + more.error_estimate)


def test_zero_one_rs_theorem_value():
    res = eval_zero_one_rs(ProductSpec(T6_RATIONAL, ExponentKind.ZERO_ONE_RS, 0))
    with mp():
        expected = 8 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpmath.mpf(1) / 4) ** 2
        assert abs(res.value - expected) < 1e-6


def test_zero_one_rs_identity_rational():
    res = eval_zero_one_rs(ProductSpec(FactoredRational.one(),
                                       ExponentKind.ZERO_ONE_RS, 1))
    assert abs(float(res.value) - 1.0) < 1e-12


def test_zero_one_rs_plain_part_matches_quoted_gamma_ratio():
    # the telescoped plain product equals
    # Gamma(3)Gamma(1)^2 Gamma(3/4)^4 / (Gamma(2)Gamma(1/2)^3 Gamma(3/2)^3)
    plain = eval_plain(ProductSpec(T6_RATIONAL, ExponentKind.PLAIN, 0))
    with mp():
        g = mpmath.gamma
        expected = (g(3) * g(1) ** 2 * g(mpmath.mpf(3) / 4) ** 4
                    / (g(2) * g(mpmath.mpf(1) / 2) ** 3 * g(mpmath.mpf(3) / 2) ** 3))
        assert abs(plain.value - expected) < mpmath.mpf("1e-55")


def test_rs_error_estimate_honest_for_direct_slow_case():
    # without splits the slow 1/n component keeps the estimate large
    spec = ProductSpec(FactoredRational.parse("(2n+1)^2/((n+1)(4n+1))"),
                       ExponentKind.PM_RS, 1)
    res = eval_pm_rs(spec, EvalOptions(terms=10 ** 5, rs_split_levels=0))
    with mp():
        actual = abs(res.value - 1 / mpmath.sqrt(2))
    assert float(res.error_estimate) > float(actual) > 1e-5


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(finite_floats,
                                   st.floats(-1e-300, 1e-300, allow_subnormal=True)),
                         max_size=40), max_size=6))
def test_exact_sum_equals_fsum(blocks):
    # blocks may be empty; values include subnormals, zeros and
    # cancelling magnitudes
    arrays = [np.array(b, dtype=np.float64) for b in blocks]
    flat = [x for b in blocks for x in b]
    assert evaluator._exact_sum(arrays) == math.fsum(flat)


def test_exact_sum_cancellation_and_block_size():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    values = np.concatenate([values, -values[:2500], [1e-320, 2.0 ** -1074]])
    for size in (1, 7, 4096):
        blocks = [values[i:i + size] for i in range(0, values.size, size)]
        assert evaluator._exact_sum(blocks) == math.fsum(values.tolist())


def test_rs_tail_blocks_match_one_array(monkeypatch):
    # the same Horner steps per term whatever the block size
    q = [0.0, 0.75, -0.3125, 0.125, 1e-3]
    monkeypatch.setattr(evaluator, "RS_BLOCK", 1 << 20)
    (whole,) = evaluator._rs_tail_blocks(q, 9, 50000)
    monkeypatch.setattr(evaluator, "RS_BLOCK", 1000)
    blocked = np.concatenate(list(evaluator._rs_tail_blocks(q, 9, 50000)))
    assert whole.size == 50000 - 8 and np.array_equal(whole, blocked)


def test_hot_paths_never_build_the_factors_view(monkeypatch):
    # the evaluators read the stored integer numerators; the Fraction view
    # ``factors`` serves rendering, the plain kind and the symbolic engine
    gs = ProductSpec(FactoredRational.parse("(2n+1)^2/((n+1)(4n+1))"),
                     ExponentKind.PM_RS, 1)

    def forbidden(self):
        raise AssertionError("built the factors view")
    monkeypatch.setattr(FactoredRational, "factors", property(forbidden))
    eval_pm_rs(gs, EvalOptions(terms=10 ** 4))
    for start in (0, 1):
        eval_pm_thue(ProductSpec(WR_SPEC.rational, ExponentKind.PM_THUE, start))
    f_value(F(1, 3), F(5, 7))


@pytest.mark.parametrize("text,levels,terms", [
    ("(2n+1)^2/((n+1)(4n+1))", 10, 10 ** 4),  # GS, tail-sum branch
    ("(n+20)/(n+21)", 1, 16)])                  # terms < n0: short-sum branch
def test_rs_power_sums_never_loop_over_split_factors(monkeypatch, text, levels, terms):
    # the power sums come through the chain from the base rational; every
    # power sum, Fraction or integer, is read from power_sum_numerators
    split, direct = evaluator.rs_split_rational, FactoredRational.power_sum_numerators
    splits = []

    def recording_split(r):
        splits.append(split(r))
        return splits[-1]
    monkeypatch.setattr(evaluator, "rs_split_rational", recording_split)

    def guarded(self, j_max):
        assert not any(self is s for s in splits), "power sums of a split rational"
        return direct(self, j_max)
    monkeypatch.setattr(FactoredRational, "power_sum_numerators", guarded)
    spec = ProductSpec(FactoredRational.parse(text), ExponentKind.PM_RS, 1)
    eval_pm_rs(spec, EvalOptions(terms=terms, rs_split_levels=levels))
    assert len(splits) == levels


# ---------------------------------------------------------------------------
# Dispatch and options
# ---------------------------------------------------------------------------

def test_dispatch_matches_direct_calls():
    res = eval_product(WR_SPEC, LIGHT)
    direct = eval_pm_thue(WR_SPEC, LIGHT)
    assert res.value == direct.value


def test_kind_mismatch_rejected():
    with pytest.raises(InputError):
        eval_pm_thue(ProductSpec(T6_RATIONAL, ExponentKind.PM_RS, 0))


def test_options_validation():
    with pytest.raises(InputError):
        EvalOptions(precision=0)
    with pytest.raises(InputError):
        EvalOptions(terms=8)
    with pytest.raises(InputError):
        EvalOptions(split_levels=-1)
    with pytest.raises(InputError):
        EvalOptions(split_levels=MAX_SPLIT_LEVELS + 1)
    with pytest.raises(InputError):
        EvalOptions(rs_split_levels=-1)
    with pytest.raises(InputError):
        EvalOptions(rs_split_levels=MAX_RS_SPLIT_LEVELS + 1)
    with pytest.raises(InputError):
        EvalOptions(terms=MAX_TM_TERMS + 1).tm_terms()
    with pytest.raises(InputError):
        EvalOptions(terms=MAX_RS_TERMS + 1).rs_terms()
    # the caps themselves are accepted (construction only: no work is done)
    EvalOptions(split_levels=MAX_SPLIT_LEVELS, rs_split_levels=MAX_RS_SPLIT_LEVELS)
    assert EvalOptions(terms=MAX_TM_TERMS).tm_terms() == MAX_TM_TERMS
    assert EvalOptions(terms=MAX_RS_TERMS).rs_terms() == MAX_RS_TERMS


# ---------------------------------------------------------------------------
# f and g
# ---------------------------------------------------------------------------

def test_f_reflexive_is_one():
    res = f_value(F(3, 7), F(3, 7))
    assert res.value == 1 and res.error_estimate == 0
    assert (res.terms_used, res.split_levels) == (0, 0)


def test_f_half_one_is_sqrt_two():
    res = f_value(F(1, 2), F(1))
    with mp():
        assert abs(res.value - mpmath.sqrt(2)) < mpmath.mpf("1e-30")


def test_f_g_consistency():
    # f(0, 1/2) = g(0) since f(a,b) = g(a)/g(b) and g(1/2) = 1
    res = f_value(F(0), F(1, 2), LIGHT)
    g0 = g_value(F(0), LIGHT)
    with mp(40):
        assert abs(res.value - g0.value) < res.error_estimate + g0.error_estimate


def test_g_values():
    with mp():
        assert abs(g_value(F(1, 2)).value - 1) < mpmath.mpf("1e-30")
        assert abs(g_value(F(1)).value - 1 / mpmath.sqrt(2)) < mpmath.mpf("1e-30")
        assert mpmath.nstr(g_value(F(0)).value, 4) == "1.628"


def test_f_g_rejects_excluded_points():
    with pytest.raises(InputError):
        f_value(F(-1), F(1))
    with pytest.raises(InputError):
        g_value(F(-2))
    with pytest.raises(InputError):
        g_value(F(-1, 2))


# ---------------------------------------------------------------------------
# Flajolet-Martin
# ---------------------------------------------------------------------------

def test_flajolet_martin_record():
    fm = flajolet_martin(EvalOptions(precision=40))
    with mp(50):
        assert abs(fm.ratio.value * fm.g0.value - mpmath.mpf(3) / 2) < \
            mpmath.mpf("1e-20")
        assert abs(fm.phi - fm.phi_via_g0) < mpmath.mpf("1e-20")
        assert mpmath.nstr(fm.phi, 7) == "0.7735163"


@pytest.mark.parametrize("digits", [40, 60, 100])
def test_flajolet_martin_cross_check_within_ten_combined_bounds(digits):
    fm = flajolet_martin(EvalOptions(precision=digits))
    with mp(digits + 20):
        combined = (fm.ratio.error_estimate * fm.g0.value
                    + fm.g0.error_estimate * fm.ratio.value)
        assert fm.cross_check_error <= 10 * combined


def test_flajolet_martin_rejects_a_ratio_off_by_100_bounds(monkeypatch):
    # the tolerance is 10 combined bounds, with no floor of its own
    opts = EvalOptions(precision=60)
    fm = flajolet_martin(opts)
    with mp(90):
        shift = 100 * (fm.ratio.error_estimate
                       + fm.g0.error_estimate * fm.ratio.value / fm.g0.value)
    engine = evaluator._plus_minus

    def perturbed(spec, options):
        res = engine(spec, options)
        if spec.rational == evaluator.FM_RATIO_RATIONAL:
            with mp(90):
                return evaluator.EvalResult(res.value + shift, res.error_estimate,
                                            res.terms_used, res.split_levels)
        return res
    monkeypatch.setattr(evaluator, "_plus_minus", perturbed)
    with pytest.raises(ConsistencyError):
        flajolet_martin(opts)


def test_flajolet_martin_rejects_precision_beyond_stored_euler_gamma():
    with pytest.raises(CapabilityError):
        flajolet_martin(EvalOptions(precision=101))


# ---------------------------------------------------------------------------
# Sign probe and monotonicity scan
# ---------------------------------------------------------------------------

def test_probe_basic_sign():
    rows = remainder_sign_probe(F(2), F(1), 0, 8, 2 ** 16)
    assert rows[0].n == 1 and rows[0].sign == -1 == rows[0].expected
    assert all(r.matches for r in rows)


def test_probe_higher_order():
    rows = remainder_sign_probe(F(2), F(1), 1, 64, 2 ** 18)
    assert all(r.matches for r in rows)


def test_probe_rejects_bad_class():
    with pytest.raises(InputError):
        remainder_sign_probe(F(1), F(2), 0, 8)   # needs a > b
    with pytest.raises(InputError):
        remainder_sign_probe(F(2), F(0), 0, 8)   # needs b > 0


def test_probe_rejects_n_max_past_the_cut_tail():
    # the sums end at 63, the largest 2^p - 1 <= 64, so row 64 would be empty
    with pytest.raises(InputError, match="n_max <= 63"):
        remainder_sign_probe(F(2), F(1), 0, 64, 64)
    assert all(r.matches for r in remainder_sign_probe(F(2), F(1), 0, 63, 64))


def no_arange(*args, **kwargs):
    raise AssertionError("the probe allocated its grid")


@pytest.mark.parametrize("k, tail", [(60, 2 ** 20), (3, 2 ** 20), (0, MAX_PROBE_GRID)])
def test_probe_rejects_grid_above_cap_before_allocating(monkeypatch, k, tail):
    monkeypatch.setattr("numpy.arange", no_arange)
    with pytest.raises(InputError, match="grid points"):
        remainder_sign_probe(F(2), F(1), k, 64, tail)


def test_scan_decreasing_short_grid():
    report = monotonicity_scan(F(0), F(2), 9, LIGHT)
    assert report.strictly_decreasing
    values = [float(p.value) for p in report.points]
    assert values == sorted(values, reverse=True)
    # h(1) = f(1/2, 1) = 2 g(1) = sqrt(2)
    h1 = [p for p in report.points if p.x == 1][0]
    assert abs(float(h1.value) - math.sqrt(2)) < 1e-12


def test_scan_single_point():
    report = monotonicity_scan(F(1), F(1), 1, LIGHT)
    assert len(report.points) == 1 and report.strictly_decreasing


def test_scan_rejects_bad_grid():
    with pytest.raises(InputError):
        monotonicity_scan(F(2), F(1), 5, LIGHT)
    with pytest.raises(InputError):
        monotonicity_scan(F(-1), F(1), 5, LIGHT)


# ---------------------------------------------------------------------------
# Validation branches
# ---------------------------------------------------------------------------

_PM_SPEC = ProductSpec(FactoredRational.parse("(n+1)/(n+2)"), ExponentKind.PM_THUE, 1)


@pytest.mark.parametrize("call", [
    lambda: eval_plain(_PM_SPEC),
    lambda: eval_pm_rs(_PM_SPEC),
    lambda: eval_zero_one_thue(_PM_SPEC),
    lambda: eval_zero_one_rs(_PM_SPEC),
    lambda: ProductSpec(_PM_SPEC.rational, ExponentKind.PM_THUE, 2).validate(),
    lambda: remainder_sign_probe(F(1, 2), F(1, 3), -1, 8),
], ids=["plain-kind", "pm-rs-kind", "zero-one-thue-kind", "zero-one-rs-kind",
        "start-2", "probe-negative-k"])
def test_validation_raises_input_error(call):
    with pytest.raises(InputError) as info:
        call()
    assert info.type is InputError
