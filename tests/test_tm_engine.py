"""The scaled tail engine for +-1 Thue-Morse and Rudin-Shapiro products,
against oracles that share none of its code: the closed forms written
here in mpmath, the L-fold split oracle ``eval_pm_thue`` at high L and N,
the direct-sum oracle ``eval_pm_rs`` at its largest N, and the engine
itself at a second tail start M.
"""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (forbid_engine_and_oracles, random_fully_convergent,
                      random_pm_convergent, record_oracle_calls)

from digitprod import (CapabilityError, EvalOptions, EvaluationError,
                       ExponentKind, FactoredRational, InputError, ProductSpec,
                       catalog_entry, eval_pm_rs, eval_pm_thue, eval_product,
                       f_value, family, monotonicity_scan)
from digitprod import evaluator, numerics
from digitprod.cli import main
from digitprod.numerics import working_dps
from digitprod.sequences import rudin_shapiro, thue_morse


def _closed_forms():
    """The 18 catalog constants, in mpmath at the current precision."""
    r2 = mpmath.sqrt(2)
    return {
        "WR": 1 / r2, "C3b": mpmath.mpf(1) / 2, "C3c": mpmath.mpf(2),
        "C3d": mpmath.mpf(1) / 2, "C3e": 1 / r2, "C3f": mpmath.mpf(1),
        "C3g": 1 / r2, "C3h": mpmath.mpf(2), "C3i": 1 / (2 * r2),
        "C3j": mpmath.mpf(1) / 4, "C3k": mpmath.mpf(1), "C3l": mpmath.mpf(1) / 2,
        "T5a": mpmath.pi ** (mpmath.mpf(3) / 4) * r2 / mpmath.gamma(mpmath.mpf(1) / 4),
        "T5b": r2, "T5c": mpmath.sqrt(2 * r2 - 2),
        "T6a": mpmath.mpf(1),
        "T6b": 8 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpmath.mpf(1) / 4) ** 2,
        "GS": 1 / r2,
    }


TM_NAMES = sorted(["WR", "C3b", "C3c", "C3d", "C3e", "C3f", "C3g", "C3h",
                   "C3i", "C3j", "C3k", "C3l", "T5a", "T5b", "T5c"])
RS_NAMES = ["GS", "T6a", "T6b"]
NAMES = TM_NAMES + RS_NAMES


def _references(digits):
    with mpmath.workdps(digits + 30):
        return _closed_forms()


@pytest.mark.parametrize("digits", [60, 200, 500])
def test_engine_full_digits_on_closed_forms(digits):
    refs = _references(digits)
    for name in NAMES:
        res = eval_product(catalog_entry(name).spec, EvalOptions(precision=digits))
        assert (res.terms_used, res.split_levels) == (32 if name in TM_NAMES else 64, 0)
        with mpmath.workdps(digits + 30):
            error = abs(res.value - refs[name])
            assert error <= res.error_estimate, name
            assert res.error_estimate < abs(refs[name]) * mpmath.mpf(10) ** -digits, name


def test_engine_bound_covers_and_is_within_1000_of_actual():
    # the actual error is floored at one rounding unit of the working
    # precision: a bound cannot be asked to beat the arithmetic it runs in
    refs = _references(60)
    unit = mpmath.ldexp(1, 1 - mpmath.libmp.dps_to_prec(working_dps(60)))
    for name in NAMES:
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
    for name in ("THUE_MORSE", "RUDIN_SHAPIRO"):
        a = getattr(evaluator, name)
        monkeypatch.setattr(evaluator, name, evaluator._Automaton(
            a.name, a.sign, a.twisted, a.max_offset, 128))
    refs = _references(digits)
    for name in ["WR", "C3k", "T5a", "GS", "T6a", "T6b"]:
        res = eval_product(catalog_entry(name).spec, EvalOptions(precision=digits))
        assert res.terms_used == 128
        with mpmath.workdps(digits + 30):
            assert abs(res.value - refs[name]) <= res.error_estimate, name


def test_engine_large_offsets_take_a_larger_tail_start():
    # max|a - 1/2| = 16 needs M >= 4 * 16, so M = 64
    a, b = F(33, 2), F(16)
    res = f_value(a, b)
    assert res.terms_used == 64
    oracle = f_value(a, b, EvalOptions(split_levels=12, terms=1 << 16))
    with mpmath.workdps(80):
        assert abs(oracle.value - res.value) < mpmath.mpf(10) ** -55


@pytest.mark.parametrize("x, tail_start", [
    (F(127), 256),             # max|a| = 64, the cap; max|a - 1/2| = 127/2: M = 256
    (F(128), None),            # max|a| = 129/2, past the cap
    (F(10 ** 4), None),                     # max|a| = (10^4 + 1)/2: 2^16
])
def test_offsets_above_the_tail_start_cap_take_the_split_oracle(
        monkeypatch, x, tail_start):
    # decided from the offsets before any work: past the cap the default
    # route refuses, and only an oracle flag runs the split oracle
    a, b = x / 2, (x + 1) / 2
    if tail_start is not None:
        res = f_value(a, b)
        assert (res.terms_used, res.split_levels) == (tail_start, 0)
        return
    forbid_engine_and_oracles(monkeypatch)
    with pytest.raises(CapabilityError, match="--split-levels"):
        f_value(a, b)
    monkeypatch.undo()
    calls = record_oracle_calls(monkeypatch, "eval_pm_thue")
    opts = EvalOptions(split_levels=8, terms=4096)
    res = f_value(a, b, opts)
    assert calls == ["eval_pm_thue"] and (res.terms_used, res.split_levels) == (4096, 8)
    spec = ProductSpec(FactoredRational.from_offsets({a: 1, b: -1}),
                       ExponentKind.PM_THUE, 1)
    assert res == eval_pm_thue(spec, opts)


@pytest.mark.parametrize("kind", [ExponentKind.PM_THUE, ExponentKind.PM_RS])
@pytest.mark.parametrize("text, error", [
    ("(n+1000)^2/(n+2000)", InputError),         # divergent
    ("(n-2001/2)/(n-1999/2)", EvaluationError),  # R(1000) < 0
])
def test_invalid_input_past_the_cap_is_refused_as_invalid(monkeypatch, kind, text, error):
    # the input is validated before the cap, so the error names its fault
    # rather than the oracle flags, which could not evaluate it either
    forbid_engine_and_oracles(monkeypatch)
    with pytest.raises(error):
        eval_product(ProductSpec(FactoredRational.parse(text), kind, 1))


@pytest.mark.parametrize("lo, hi, steps", [(F(0), F(200), 41), (F(128), F(128), 1)])
def test_scan_past_the_cap_is_refused_before_any_point(monkeypatch, lo, hi, steps):
    forbid_engine_and_oracles(monkeypatch)
    with pytest.raises(CapabilityError, match="--split-levels"):
        monotonicity_scan(lo, hi, steps)
    monkeypatch.undo()
    calls = record_oracle_calls(monkeypatch, "eval_pm_thue")
    report = monotonicity_scan(hi, hi, 1, EvalOptions(precision=20, split_levels=8))
    assert calls == ["eval_pm_thue"] and len(report.points) == 1


def test_engine_table_is_shared_and_built_on_first_use():
    evaluator._scaled_table.cache_clear()
    for name in ["WR", "C3b", "T5a"]:
        eval_product(catalog_entry(name).spec, EvalOptions(precision=40))
    info = evaluator._scaled_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0, 1]),
       st.sampled_from(["pm-t", "t", "pm-v", "v", "plain"]),
       st.integers(15, 120),
       st.integers(1, 80))
def test_engine_two_precisions_agree_to_the_lower(seed, start, kind, low, extra):
    rng = random.Random(seed)
    kind = ExponentKind(kind)
    if kind in (ExponentKind.PM_THUE, ExponentKind.PM_RS):
        spec = ProductSpec(random_pm_convergent(rng), kind, start)
    else:
        spec = ProductSpec(random_fully_convergent(rng), kind, start)
    coarse = eval_product(spec, EvalOptions(precision=low))
    fine = eval_product(spec, EvalOptions(precision=low + extra))
    assert coarse.split_levels == fine.split_levels == 0
    with mpmath.workdps(low + extra + 20):
        gap = abs(coarse.value - fine.value)
        assert gap <= coarse.error_estimate + fine.error_estimate
        assert gap <= abs(fine.value) * mpmath.mpf(10) ** -low


@st.composite
def _tm_family_cases(draw):
    # family (i) has offsets a, a/2, (a+1)/2, b, b/2 and (b+1)/2, so
    # a, b in (-1, 64] stay within the cap and reach M = 256; at 500 digits
    # they stay at most 8, so M stays 32 and the cold 500-digit table is
    # built once
    digits = draw(st.sampled_from([60, 200, 500]))
    top = 8 if digits == 500 else 64
    values = st.fractions(min_value=-1, max_value=top, max_denominator=12)
    a = draw(values.filter(lambda x: x > -1))
    b = draw(values.filter(lambda x: x > -1 and x != a))
    return digits, a, b


@settings(max_examples=30, deadline=None)
@given(_tm_family_cases())
@example((60, F(64), F(-1, 2)))
@example((200, F(127, 2), F(64)))
@example((500, F(-11, 12), F(8)))
def test_tm_engine_meets_the_exact_family_value(case):
    # family (i) is exactly (b+1)/(a+1) at any offsets
    digits, a, b = case
    identity = family("i", a, b)
    res = eval_product(identity.spec, EvalOptions(precision=digits))
    exact = identity.closed_form.value
    with mpmath.workdps(digits + 30):
        reference = mpmath.mpf(exact.numerator) / exact.denominator
        assert abs(res.value - reference) <= res.error_estimate
        assert res.error_estimate < reference * mpmath.mpf(10) ** -digits


def test_fixing_split_levels_or_terms_selects_the_oracle():
    spec = catalog_entry("WR").spec
    for opts in (EvalOptions(split_levels=6), EvalOptions(terms=1024)):
        res = eval_product(spec, opts)
        direct = eval_pm_thue(spec, opts)
        assert res == direct and res.split_levels == (opts.split_levels or 8)


def test_engine_identity_rational_is_exact():
    res = eval_product(ProductSpec(FactoredRational.from_offsets({}), ExponentKind.PM_THUE, 1))
    assert res.value == 1 and res.error_estimate == 0


# ---------------------------------------------------------------------------
# Rudin-Shapiro on the engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["GS", "T6a"])
def test_rs_engine_matches_direct_sum_oracle_at_its_largest_n(name):
    # GS after the default 10 split levels, T6a summed directly: both
    # oracles carry their own (heuristic) estimate
    spec = catalog_entry(name).spec
    oracle = eval_pm_rs(spec, EvalOptions(terms=evaluator.MAX_RS_TERMS))
    engine = eval_product(spec)
    with mpmath.workdps(80):
        assert abs(oracle.value - engine.value) <= oracle.error_estimate


def rs_relation(x):
    """The one-symbol Rudin-Shapiro relation at a rational x > -1 as a pm-v
    product over n >= 1 whose value is exactly 1 + x:

        prod ((n+x)(n+(x+1)/2)(n+1/4)^2 / ((n+x/2)(n+(x+1)/4)^2 (n+1/2)))^(r_n)

    Its largest offset is at most max(|x|, 1), so x <= 512 keeps the tail
    start at or under the Rudin-Shapiro cap, M = 2048."""
    return ProductSpec(FactoredRational.from_raw_factors([
        (1, x, 1), (1, (x + 1) / 2, 1), (1, F(1, 4), 2),
        (1, x / 2, -1), (1, (x + 1) / 4, -2), (1, F(1, 2), -1)]), ExponentKind.PM_RS, 1)


@st.composite
def _rs_relation_cases(draw):
    # at 500 digits x stays at most 16, so M stays 64 and the cold
    # 500-digit table (about 0.4 s) is built once
    digits = draw(st.sampled_from([60, 200, 500]))
    top = 16 if digits == 500 else 512
    x = draw(st.fractions(min_value=-1, max_value=top, max_denominator=12)
             .filter(lambda x: x > -1))
    return digits, x


@settings(max_examples=30, deadline=None)
@given(_rs_relation_cases())
@example((60, F(512)))
@example((200, F(-999, 1000)))
@example((500, F(100, 7)))
def test_rs_engine_meets_the_exact_relation_product(case):
    digits, x = case
    res = eval_product(rs_relation(x), EvalOptions(precision=digits))
    with mpmath.workdps(digits + 30):
        exact = 1 + mpmath.mpf(x.numerator) / x.denominator
        assert abs(res.value - exact) <= res.error_estimate
        assert res.error_estimate < exact * mpmath.mpf(10) ** -digits


@pytest.mark.parametrize("opts", [EvalOptions(rs_split_levels=6),
                                  EvalOptions(terms=10 ** 4)])
def test_fixing_rs_split_levels_or_terms_selects_the_oracle(opts):
    for name in ["GS", "T6a"]:
        spec = catalog_entry(name).spec
        assert eval_product(spec, opts) == eval_pm_rs(spec, opts)


@pytest.mark.parametrize("a, tail_start", [
    (512, evaluator.RUDIN_SHAPIRO.max_tail_start),  # M = 4 * 512 = 2048, the cap
    (513, None),                                    # would need M = 4096
])
def test_rs_offsets_above_the_tail_start_cap_take_the_oracle(
        monkeypatch, a, tail_start):
    spec = ProductSpec(FactoredRational.parse(f"(n+{a - 1})/(n+{a})"),
                       ExponentKind.PM_RS, 1)
    opts = EvalOptions(precision=30)
    if tail_start is None:
        forbid_engine_and_oracles(monkeypatch)
        with pytest.raises(CapabilityError, match="--rs-split-levels"):
            eval_product(spec, opts)
        monkeypatch.undo()
        calls = record_oracle_calls(monkeypatch, "eval_pm_rs")
        flagged = EvalOptions(precision=30, terms=evaluator.DEFAULT_RS_TERMS)
        assert eval_product(spec, flagged) == eval_pm_rs(spec, flagged)
        assert calls == ["eval_pm_rs"]
    else:
        res = eval_product(spec, opts)
        assert (res.terms_used, res.split_levels) == (tail_start, 0)
        oracle = eval_pm_rs(spec, opts)
        with mpmath.workdps(40):
            assert abs(res.value - oracle.value) <= oracle.error_estimate


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("opts", [EvalOptions(terms=4096), EvalOptions(rs_split_levels=3)])
def test_direct_sum_oracle_takes_factors_below_their_root(start, opts):
    # n - 3/2, n - 5/4 and n - 7/4 are negative at n = 1 while R(1) = 4/3:
    # those factors enter as log|1 + a_i/n|
    spec = ProductSpec(FactoredRational.parse("(n-3/2)^2/((n-5/4)(n-7/4))"),
                       ExponentKind.PM_RS, start)
    oracle = eval_pm_rs(spec, opts)
    engine = eval_product(spec)
    with mpmath.workdps(80):
        assert abs(oracle.value - engine.value) <= oracle.error_estimate


def test_default_route_fallbacks_reach_the_patched_oracles(monkeypatch, capsys):
    # the route reads the oracles as module attributes at each call, so a
    # wrapper installed over them sees every call an oracle flag routes:
    # g(1000) has offset 1001/2 > 64, and (n+600)/(n+601) offset 601 > 512;
    # without the flags both are refused and reach neither
    calls = record_oracle_calls(monkeypatch, "eval_pm_thue", "eval_pm_rs")
    thue = ["g", "--x", "1000", "--digits", "20"]
    rs = ["eval", "(n+600)/(n+601)", "--kind", "pm-v", "--digits", "20"]
    assert main(thue) == 3 and main(rs) == 3 and calls == []
    assert main(thue + ["--split-levels", "8"]) == 0
    assert main(rs + ["--terms", "1000000"]) == 0
    capsys.readouterr()
    assert calls == ["eval_pm_thue", "eval_pm_rs"]


def test_rs_engine_runs_no_split_chain_or_float_sum(monkeypatch):
    def forbidden(*args):
        raise AssertionError("took the direct-sum oracle's path")
    monkeypatch.setattr(evaluator, "rs_split_rational", forbidden)
    monkeypatch.setattr(evaluator, "_exact_sum", forbidden)
    for name in RS_NAMES:
        res = eval_product(catalog_entry(name).spec)
        assert (res.terms_used, res.split_levels) == (64, 0)


def test_rs_automaton_gives_the_rudin_shapiro_signs():
    # (-1)^{v_n} with v_n the number of 11 blocks in the binary digits of n
    _, _, signs = evaluator._scaled_table(evaluator.RUDIN_SHAPIRO, 1 << 12, 64)
    assert signs == tuple(-1 if (n & n >> 1).bit_count() & 1 else 1
                          for n in range(1 << 12))
    _, _, signs = evaluator._scaled_table(evaluator.THUE_MORSE, 1 << 12, 64)
    assert signs == tuple(-1 if n.bit_count() & 1 else 1 for n in range(1 << 12))


def test_rudin_shapiro_state_1_is_the_twist_of_state_0():
    # only a twisted automaton has a second state, x_n[1] = (-1)^n x_n[0]:
    # against ``GENERAL``'s two-state automaton, which never uses the twist
    assert evaluator.RUDIN_SHAPIRO.twisted and not evaluator.THUE_MORSE.twisted
    x = evaluator.RUDIN_SHAPIRO.vectors(4096)
    general = general_vectors(evaluator.RUDIN_SHAPIRO, 4096)
    assert [n for n in range(4096) if general[n] != (x[n], (-1) ** n * x[n])] == []
    general = general_vectors(evaluator.THUE_MORSE, 4096)
    assert general == [(v,) for v in evaluator.THUE_MORSE.vectors(4096)]


@pytest.mark.parametrize("m", [64, 128, 2048])
@pytest.mark.parametrize("bits", [0, 100, 232])
def test_block_sums_even_rows_are_a_floor_sum_over_the_even_n(m, bits):
    # b_s is the plain floor sum over the even n of range(m, 2m) with
    # x_n = 1 less that over those with x_n = -1
    automaton = evaluator.RUDIN_SHAPIRO
    fold = evaluator.FOLD
    x, _, b = evaluator._block_sums(automaton, m, bits)
    plus, minus = evaluator._floor_sums([v < 0 for v in x], 2, range(m, 2 * m, 2), m,
                                        fold, bits, bits // fold)
    assert b == [p - q for p, q in zip(plus, minus)]


def twist(f, b):
    """State 1's rows (f[s] >> (s-1)) + 2 b[s] - f[s] from state 0's f."""
    return [0] + [(f[s] >> s - 1) + 2 * b[s] - f[s] for s in range(1, len(f))]


def unsolved_rows(automaton, m, bits):
    """[f], or [f, twist(f, b)] when twisted: state 0's f_s, the sum of
    ``_block_sums``' class rows with x_n = 1 less those with x_n = -1,
    and state 1's rows read off it by the twist."""
    x, sums, b = evaluator._block_sums(automaton, m, bits)
    ids = [(v < 0) + 2 * (n & 1) * automaton.twisted for n, v in enumerate(x)]
    sign = {ids[n]: x[n] for n in range(m, 2 * m)}  # each class's x_n
    f = [sum(sign[g] * row[s] for g, row in enumerate(sums)) for s in range(len(sums[0]))]
    return [f, twist(f, b)] if automaton.twisted else [f]


# The engine's two recursions as general signed automata, x_0 = 1 in
# every state and x_{2n+d}[q] = SIGN[q][d] x_n[NEXT[q][d]], as (NEXT, SIGN):
# the references below solve every state from these, and share no
# description of the sequences with the engine
GENERAL = {"Thue-Morse": (((0, 0),), ((1, -1),)),
           "Rudin-Shapiro": (((0, 1), (0, 1)), ((1, 1), (1, -1)))}


def general_vectors(automaton, hi):
    """[x_0, ..., x_{hi-1}], every state of ``GENERAL``'s automaton."""
    next_state, sign = GENERAL[automaton.name]
    x = [(1,) * len(sign)]
    for n in range(1, hi):
        d = n & 1
        x.append(tuple(s[d] * x[n >> 1][t[d]] for s, t in zip(sign, next_state)))
    return x


def general_moments(automaton, top):
    """{(q, t): [Q_0[q][t], ..., Q_top[q][t]]}, Q_k = sum_i delta_i^k A_i
    for every state q, with row q of A_i read off ``GENERAL``'s automaton
    digit by digit."""
    next_state, sign = GENERAL[automaton.name]
    width = 1 << evaluator.FOLD
    moments = {}
    for i in range(width):
        delta = 2 * i + 1 - width if automaton.centred else i
        for q in range(len(sign)):
            t, a = q, 1
            for j in range(evaluator.FOLD):
                d = i >> j & 1
                t, a = next_state[t][d], a * sign[t][d]
            column = moments.setdefault((q, t), [0] * (top + 1))
            for k in range(top + 1):
                column[k] += a * delta ** k
    return moments


@pytest.mark.parametrize("automaton, sequence", [
    (evaluator.THUE_MORSE, thue_morse), (evaluator.RUDIN_SHAPIRO, rudin_shapiro)])
def test_vectors_and_moments_follow_the_sequences(automaton, sequence):
    # x_n against the digit counts of ``sequences``, and ``_moments``,
    # which reads row 0 of each A_i off the sequence's first 8 terms,
    # against row 0 of ``general_moments``, which reads it digit by digit
    # off ``GENERAL``'s automaton
    assert automaton.vectors(4096) == [1 - 2 * sequence(n) for n in range(4096)]
    top = 40
    c0, moments = evaluator._moments(automaton, top)
    general = general_moments(automaton, top)
    states = len(GENERAL[automaton.name][1])
    assert c0 == general[(0, 0)][0]
    assert moments == [general.get((0, t), [0] * (top + 1)) for t in range(states)]


def chain_table_reference(automaton, m, bits, every_row=False):
    """``_scaled_table``'s table from the same f_s (``_block_sums``),
    first solved row s0 (``_last_solved_row``) and rows above it
    (``unsolved_rows``), with every state solved from ``general_moments``
    and each series summed term by term over every k: each row's
    coefficients c_k = C(-s,k) w^-k, w the table's scale (m, or 2m
    centred), follow c_k = c_{k-1} (-(s+k-1)) / (k w) by floor division
    at 2^scale, the chain stops at the first c_k that is 0, and every
    term costs two products, c_k Q_k and that by e_{s+k}.  A twisted
    state 1 is solved by this chain too, from its own block sums: the
    floor sums over every n of [m, 4m), one class per vector of
    ``general_vectors``, with no fold.  The Horner sum of the builder,
    which skips the k whose moments are all 0 and reads state 1's rows
    off state 0's by the twist, must give the same state 0 rows.  With
    ``every_row`` the solve runs over every row below the top instead."""
    fold = evaluator.FOLD
    top = bits // fold
    w = m << automaton.centred
    e = unsolved_rows(automaton, m, bits)
    states = len(e)
    moments = general_moments(automaton, top)
    c0 = moments[(0, 0)][0]
    first = top - 1
    if not every_row:
        first = min(first, evaluator._last_solved_row(w, c0, bits))
    if automaton.twisted:
        vectors = general_vectors(automaton, m << fold)
        values = sorted(set(vectors))
        ids = [values.index(v) for v in vectors]
        sums = evaluator._floor_sums(ids, len(values), range(m, m << fold), m, fold,
                                     bits, top)
        e[1][:first + 1] = [sum(v[1] * row[s] for v, row in zip(values, sums))
                            for s in range(first + 1)]
    for s in range(first, 0, -1):
        scale = max(0, bits - 2 * fold * s) + 40 + s // 32
        c = 1 << scale
        cs = []
        for k in range(1, top - s + 1):
            c = c * -(s + k - 1) // (k * w)
            if not c:
                break
            cs.append(c)
        acc = [0] * states
        for (q, t), column in moments.items():
            acc[q] += sum(c * column[k] * e[t][s + k] for k, c in enumerate(cs, 1))
        den = (1 << fold * s) - c0
        for q in range(states):
            rhs = e[q][s] + (acc[q] >> (scale + fold * s))
            e[q][s] = rhs + rhs * c0 // den
    return tuple(e[0])


def _table_bits(digits):
    """The table bits of an engine evaluation at ``digits``."""
    return (mpmath.libmp.dps_to_prec(working_dps(digits))
            + evaluator.TABLE_GUARD)


@pytest.mark.parametrize("automaton, m, digits", [
    *((a, m, d) for a in (evaluator.THUE_MORSE, evaluator.RUDIN_SHAPIRO)
      for m in (64, 128) for d in (60, 200)),
    (evaluator.THUE_MORSE, 64, 500),
])
def test_table_equals_the_chain_solve_row_for_row(automaton, m, digits):
    bits = _table_bits(digits)
    table, _, _ = evaluator._scaled_table(automaton, m, bits)
    assert table == chain_table_reference(automaton, m, bits)


@pytest.mark.parametrize("automaton, m, digits", [
    *((a, m, d) for a in (evaluator.THUE_MORSE, evaluator.RUDIN_SHAPIRO)
      for m in (64, a.max_tail_start) for d in (20, 60)),
    (evaluator.THUE_MORSE, 64, 500),
    (evaluator.RUDIN_SHAPIRO, 64, 200),
])
def test_rows_above_the_last_solved_row_take_no_solve(automaton, m, digits):
    # above s0 the table keeps f_s; there the correction and the c_0
    # division are below half a unit together, so the solve run over
    # every row moves those rows by at most 1
    bits = _table_bits(digits)
    table, _, _ = evaluator._scaled_table(automaton, m, bits)
    c0, _ = evaluator._moments(automaton, 1)
    s0 = evaluator._last_solved_row(m << automaton.centred, c0, bits)
    assert bits // (2 * evaluator.FOLD) <= s0 < len(table) - 1
    solved = chain_table_reference(automaton, m, bits, every_row=True)
    f = unsolved_rows(automaton, m, bits)[0]
    for s in range(s0 + 1, len(table)):
        assert table[s] == f[s], s
        assert abs(table[s] - solved[s]) <= 1, s


@pytest.mark.parametrize("automaton", [evaluator.THUE_MORSE, evaluator.RUDIN_SHAPIRO])
@pytest.mark.parametrize("m", [64, 128, 2048])
@pytest.mark.parametrize("digits", [20, 60, 500])
def test_last_solved_row_is_where_the_skip_bound_falls_below_half(automaton, m, digits):
    # B(s) = (m+1) 2^(bits-2Ks) (2^K ((1 - (2^K-1)/(2^K m))^-s - 1) + |c_0|)
    # in Fractions: B(s0 + 1) < 1/2, and s0 is the start of the walk or
    # has B(s0) >= 1/2
    fold, width = evaluator.FOLD, 1 << evaluator.FOLD
    bits = _table_bits(digits)
    c0, _ = evaluator._moments(automaton, 1)

    def skip_bound(s):
        growth = (1 - F(width - 1, width * m)) ** -s - 1
        return (m + 1) * F(2) ** (bits - 2 * fold * s) * (width * growth + abs(c0))
    s0 = evaluator._last_solved_row(m, c0, bits)
    assert skip_bound(s0 + 1) < F(1, 2)
    assert s0 == bits // (2 * fold) or skip_bound(s0) >= F(1, 2)


def _assert_rows_within_their_unit(automaton, m, bits):
    # against the same table at 64 more bits, whose own error is 2^-64 of
    # a unit here
    table, unit, _ = evaluator._scaled_table(automaton, m, bits)
    finer, _, _ = evaluator._scaled_table(automaton, m, bits + 64)
    for s in range(1, len(table)):
        assert abs(table[s] - (finer[s] >> 64)) <= unit, s


@pytest.mark.parametrize("automaton", [evaluator.THUE_MORSE, evaluator.RUDIN_SHAPIRO])
@pytest.mark.parametrize("m", [64, 128])
def test_table_rows_within_their_unit_bound(automaton, m):
    _assert_rows_within_their_unit(automaton, m, _table_bits(60))


@pytest.mark.parametrize("automaton", [evaluator.THUE_MORSE, evaluator.RUDIN_SHAPIRO])
def test_table_rows_within_their_unit_bound_at_500_digits(automaton):
    # 1730 bits: s reaches 576 > m, where the Horner multipliers
    # (s+k-1)/(k m) exceed 1 and C(s+k-1,k) m^-k is largest
    _assert_rows_within_their_unit(automaton, 64, _table_bits(500))


@pytest.mark.parametrize("automaton, m", [(evaluator.THUE_MORSE, 512),
                                          (evaluator.RUDIN_SHAPIRO, 2048)])
def test_table_rows_within_their_unit_bound_at_the_caps(automaton, m):
    # the largest tail starts, where the pair divisors d1 d2 come closest
    # to 2^30
    assert m == automaton.max_tail_start
    _assert_rows_within_their_unit(automaton, m, _table_bits(60))


@pytest.mark.parametrize("digits", [20, 60, 500])
def test_thue_morse_centred_moments_vanish_at_every_odd_k(digits):
    # the solve's Horner sum visits only the even k, two coefficients to a
    # floor, because Q_k = sum_i (2i-3)^k (-1)^(t_i) = 2 (3^k - 1) at even
    # k and 0 at odd k; if an odd moment stopped vanishing, the builder
    # would have to visit every k
    automaton = evaluator.THUE_MORSE
    assert automaton.centred and evaluator.FOLD == 2
    top = _table_bits(digits) // evaluator.FOLD
    c0, moments = evaluator._moments(automaton, top)
    assert c0 == 0 and len(moments) == 1
    column = moments[0]
    assert len(column) == top + 1
    assert [k for k in range(1, top + 1, 2) if column[k]] == []
    assert [k for k in range(2, top + 1, 2) if column[k] != 2 * (3 ** k - 1)] == []


def exact_table_reference(automaton, m, bits, guard=64):
    """The rows E(s) 2^(bits - K s) of each state for 1 <= s <= bits/K, at
    2^guard units per row unit, built apart from the engine's code: f_s
    from the exact floor of each member's 2^(bits+guard) (w / (2^K N))^s,
    w the table's scale, and every row s solved, up to rows far past the
    table's top, from the moments Q_k = sum_i delta_i^k A_i with exact
    binomials and a single floor per row, every state and moment from
    ``GENERAL``'s automaton (``general_vectors``, ``general_moments``).
    A term of the solve is dropped only past its peak and once below
    2^-40 units, so each row is within a few units per member and row,
    all far below 2^guard."""
    fold, width = evaluator.FOLD, 1 << evaluator.FOLD
    w = m << automaton.centred
    log_w = w.bit_length() - 1
    assert w == 1 << log_w
    big = bits + guard
    rows = (big + 40 + (w + 1).bit_length()) // fold + 1
    vectors = general_vectors(automaton, m << fold)
    states = len(vectors[0])
    f = [[0] * (rows + 1) for _ in range(states)]
    for n in range(m, m << fold):
        x = vectors[n]
        d = width * (2 * n + 1 if automaton.centred else n)
        for s in range(1, rows + 1):
            y = (w ** s << big) // d ** s
            if not y:
                break
            for q in range(states):
                f[q][s] += x[q] * y
    moments = general_moments(automaton, rows)
    c0 = moments[(0, 0)][0]
    y = [[0] * (rows + 2) for _ in range(states)]
    for s in range(rows, 0, -1):
        acc = [0] * states
        binom = 1
        # log2 of a bound on term k in units of 2^-guard
        size = big - 2 * fold * s + fold + math.log2(w + 1)
        for k in range(1, rows - s + 1):
            binom = binom * (s + k - 1) // k
            size += math.log2((s + k - 1) / k * (width - 1) / (width * w))
            if size < -40 and (s + k) * (width - 1) < (k + 1) * w * width / 2:
                break
            for (q, t), column in moments.items():
                if column[k]:
                    term = binom * column[k] * y[t][s + k] << log_w * (rows - s - k)
                    acc[q] += -term if k & 1 else term
        shift = log_w * (rows - s)
        for q in range(states):
            y[q][s] = (((f[q][s] << fold * s + shift) + acc[q])
                       // (((1 << fold * s) - c0) << shift))
    return [row[:bits // fold + 1] for row in y], (1 << fold) * m + rows


@pytest.mark.parametrize("automaton, m, digits", [
    *((evaluator.THUE_MORSE, m, d) for m in (32, 64, 256, 512) for d in (20, 60)),
    (evaluator.THUE_MORSE, 32, 500),
    (evaluator.RUDIN_SHAPIRO, 64, 20),
    (evaluator.RUDIN_SHAPIRO, 64, 60),
    (evaluator.RUDIN_SHAPIRO, 64, 200),
    (evaluator.RUDIN_SHAPIRO, 2048, 20),
])
def test_table_rows_within_their_unit_of_an_exact_solve(automaton, m, digits):
    bits = _table_bits(digits)
    guard = 64
    table, unit, _ = evaluator._scaled_table(automaton, m, bits)
    (exact, *_), slack = exact_table_reference(automaton, m, bits, guard)
    assert len(exact) == len(table)
    for s in range(1, len(table)):
        assert abs((table[s] << guard) - exact[s]) <= (unit << guard) + 4 * slack, s


@pytest.mark.parametrize("m, digits", [(64, 20), (64, 60), (128, 20)])
def test_exact_state_1_rows_are_the_twist_of_state_0(m, digits):
    # E_1(s) = 2^(1-s) E_0(s) + 2 B(s) - E_0(s), B(s) the sum over the
    # even n in [m, 2m) of x_n[0] (m/n)^s: ``_scaled_table`` sets state 1's
    # rows so; here both states come from the exact solve, at 2^guard
    # units per row unit, each row within a few units per member and row
    automaton = evaluator.RUDIN_SHAPIRO
    bits, guard = _table_bits(digits), 64
    (exact0, exact1), slack = exact_table_reference(automaton, m, bits, guard)
    x = automaton.vectors(2 * m)
    for s in range(1, len(exact0)):
        b = sum(x[n] * F(m ** s << bits + guard, (4 * n) ** s)
                for n in range(m, 2 * m, 2))
        expected = exact0[s] * F(2) ** (1 - s) + 2 * b - exact0[s]
        assert abs(exact1[s] - expected) <= 4 * slack, s


@pytest.mark.parametrize("m, digits", [(64, 20), (64, 60), (128, 20)])
def test_state_1_rows_above_the_last_solved_row_are_within_their_bound(m, digits):
    # above s0 ``_scaled_table`` takes no solve and reads state 1's rows
    # off state 0's f_s (its table rows there) by the twist: each within
    # U + m b + 1, b = 4/3, of the exact solve's state 1 (``_table_unit``)
    automaton = evaluator.RUDIN_SHAPIRO
    bits, guard = _table_bits(digits), 64
    table, unit, _ = evaluator._scaled_table(automaton, m, bits)
    _, _, b = evaluator._block_sums(automaton, m, bits)
    (_, exact1), slack = exact_table_reference(automaton, m, bits, guard)
    c0, _ = evaluator._moments(automaton, 1)
    s0 = evaluator._last_solved_row(m, c0, bits)
    rows = twist(list(table), b)
    within = (unit + m * F(4, 3) + 1) * (1 << guard) + 4 * slack
    assert s0 < len(table) - 1
    for s in range(s0 + 1, len(table)):
        assert abs((rows[s] << guard) - exact1[s]) <= within, s


@pytest.mark.parametrize("m", [64, 2048])
def test_table_unit_covers_the_twisted_state_1_rows(m):
    # in Fractions: state 1's solved rows are within U + gap, gap = m b + 1
    # (the shift's floor, and twice b_s's floor sums over the m/2 even n
    # of octave 0, b = 4/3 each); state 0's rows are within U when they
    # carry them through Q_1[0][1] (low moment, weight 2^-K |Q_1[0][t]| / m
    # at s = 1), and the moments k >= 2 carry them at below one unit, in
    # the budget of 8
    automaton = evaluator.RUDIN_SHAPIRO
    unit = evaluator._table_unit(automaton, m)
    top = 64
    c0, moments = evaluator._moments(automaton, top)
    assert (c0, moments[0][1], moments[1][1]) == (2, 1, -1)
    b = F(4, 3)
    within = (unit, unit + m * b + 1)  # states 0 and 1
    inv = F(4, 4 - c0)
    low = sum(F(abs(moments[t][1]), 4 * m) * within[t] for t in (0, 1))
    assert inv * (4 * m - F(1, 2) + F(17, 2) + low) <= unit
    # |Q_k[0][t]| <= 3^k, so the terms past k = top add less than
    # (3/m)^(top+1) / (1 - 3/m) of a unit
    high = sum(F(abs(moments[t][k]), 4 * m ** k) * within[t]
               for k in range(2, top + 1) for t in (0, 1))
    assert high + 2 * within[1] * F(3, m) ** (top + 1) / (1 - F(3, m)) < 1
    assert unit == {64: 538, 2048: 16409}[m]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["32", "64", "cap"]), st.integers(0, 200))
def test_centred_class_rows_stay_below_the_exact_sums(m, bits):
    # the centred table's f_s: each class row is at most the exact sum over
    # its odd N = 2n+1 in [2m, 8m) of 2^bits (2m / (4N))^s, and below it by
    # less than b^2 per pair and b per member left alone, b = 4/3
    automaton = evaluator.THUE_MORSE
    m = automaton.max_tail_start if m == "cap" else int(m)
    x, sums, _ = evaluator._block_sums(automaton, m, bits)
    top = bits // evaluator.FOLD
    b = F(4, 3)
    guard = 64
    assert len(sums) == 2
    for g, row in enumerate(sums):
        # class g holds the n with (x_n < 0) = g
        members = [2 * n + 1 for n in range(m, 4 * m) if (x[n] < 0) == g]
        bound = len(members) // 2 * b ** 2 + len(members) % 2 * b
        assert row[0] == 0
        for s in range(1, top + 1):
            # 2^guard times the exact sum is in [floors, floors + len(members))
            floors = sum(((2 * m) ** s << bits + guard) // (4 * n) ** s for n in members)
            scaled = row[s] << guard
            assert scaled < floors + len(members), (g, s)
            assert floors - scaled < bound * (1 << guard), (g, s)


def test_an_offset_within_half_of_minus_64_takes_the_largest_tail_start(monkeypatch):
    # the cap is on the offsets, max|a_i| <= 64, and the tail start follows
    # max|a_i - 1/2|: -255/4 needs M >= 4 * 257/4, so M = 512, the largest
    # (g(127) takes 256, and -129/2 is refused: test_cli)
    calls = record_oracle_calls(monkeypatch, "eval_pm_thue", "eval_pm_rs")
    spec = ProductSpec(FactoredRational.parse("(n-255/4)/(n-253/4)"), ExponentKind.PM_THUE, 1)
    engine = eval_product(spec, EvalOptions(precision=30))
    assert (engine.terms_used, engine.split_levels) == (512, 0) and calls == []
    assert engine.terms_used == evaluator.THUE_MORSE.max_tail_start
    oracle = eval_pm_thue(spec, EvalOptions(precision=30, split_levels=12, terms=1 << 16))
    with mpmath.workdps(60):
        assert abs(engine.value - oracle.value) <= engine.error_estimate + oracle.error_estimate


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 200), st.sampled_from([8, 16, 32, 64]), st.sampled_from([2, 3]),
       st.integers(1, 4), st.integers(0, 2 ** 32))
def test_floor_sums_pairs_stay_below_the_exact_sums(bits, m, fold, groups, seed):
    # ratios m / (2^K n) <= 2^-K: each class is summed in pairs, each pair
    # below its exact sum by less than (2^K / (2^K - 1))^2, and a member
    # left over by less than 2^K / (2^K - 1)
    rng = random.Random(seed)
    width = 1 << fold
    ids = [rng.randrange(groups) for _ in range(width * m)]
    top = bits // fold + 1
    sums = evaluator._floor_sums(ids, groups, range(m, width * m), m, fold, bits, top)
    member = F(width, width - 1)
    guard = 64
    for g, row in enumerate(sums):
        members = [n for n in range(m, width * m) if ids[n] == g]
        bound = len(members) // 2 * member ** 2 + len(members) % 2 * member
        assert row[0] == 0
        if not members:
            # an empty class sums to exactly 0
            assert set(row) == {0}, g
            continue
        for s in range(1, top + 1):
            # 2^guard times the exact sum is in [floors, floors + len(members)),
            # so the asserts check row <= exact sum and exact sum - row < bound
            # to within len(members) 2^-guard units
            floors = sum((m ** s << bits + guard) // (n << fold) ** s for n in members)
            scaled = row[s] << guard
            assert scaled < floors + len(members), (g, s)
            assert floors - scaled < bound * (1 << guard), (g, s)


def _fold_depth(n, m):
    """i(n) of ``_block_sums``: 1 for an even n of octave 1, [2m, 4m),
    folded once from n/2, and 0 for every other n of [m, 4m)."""
    return int(n >= 2 * m and n % 2 == 0)


@settings(max_examples=20, deadline=None)
@given(st.just(evaluator.RUDIN_SHAPIRO),
       st.sampled_from(["64", "128", "cap"]), st.integers(0, 200))
def test_folded_class_rows_stay_below_the_exact_sums(automaton, m, bits):
    # each class row of the folded (uncentred) sums is at most the exact
    # sum over its members and below it by less than b sum 2^-i(n) + 1,
    # b = 4/3, the 1 for the class's one shift floor; class g's members
    # are its n of octave 0, [m, 2m), with (x_n < 0) + 2 (n mod 2) = g,
    # their doubles and its odd n of octave 1, [2m, 4m)
    m = automaton.max_tail_start if m == "cap" else int(m)
    fold = evaluator.FOLD
    width = 1 << fold
    x, sums, _ = evaluator._block_sums(automaton, m, bits)
    top = bits // fold
    member = F(width, width - 1)
    guard = 64
    assert len(sums) == 4
    for g, row in enumerate(sums):
        own = [n for n in range(m, width * m)
               if (n < 2 * m or n & 1) and (x[n] < 0) + 2 * (n & 1) == g]
        members = own + [2 * n for n in own if n < 2 * m]
        bound = member * sum(F(1, 1 << _fold_depth(n, m)) for n in members) + 1
        # iterated floors at 2^guard: 2^guard times the exact sum is in
        # [floors[s], floors[s] + 2 len(members)), so the asserts check
        # row <= exact sum and exact sum - row < bound to within
        # 2 len(members) 2^-guard units
        floors = [0] * (top + 1)
        for n in members:
            y, d = 1 << bits + guard, n << fold
            for s in range(1, top + 1):
                y = y * m // d
                if not y:
                    break
                floors[s] += y
        slack = 2 * len(members)
        assert row[0] == 0
        for s in range(1, top + 1):
            scaled = row[s] << guard
            assert scaled < floors[s] + slack, (g, s)
            assert floors[s] + slack - scaled < bound * (1 << guard), (g, s)


def fraction_series_engine_reference(spec, precision, automaton):
    """``_engine``'s (value, error_estimate) with the series summed from
    reduced Fraction power sums p_j = N_j / Q_j of the offsets less the
    table's centre h, built here from the offsets as Fractions: each term
    floor(floor(N_j table[j] / 2^(step j)) / (j Q_j)), one gcd per j.
    The engine reads p_j as S_j / (2^(2h) D)^j instead; both floor the
    same rational once, so they must give the same bits."""
    r = spec.rational
    wp = working_dps(precision)
    fold = evaluator.FOLD
    centre = F(automaton.centred, 2)
    reach = max(abs(f.offset - centre) for f in r.factors)
    m = automaton.start(reach)
    prec = mpmath.libmp.dps_to_prec(wp)
    bits = prec + evaluator.TABLE_GUARD
    table, unit, signs = evaluator._scaled_table(automaton, m, bits)
    head = evaluator._head(r, spec.start, m, signs)
    mass = sum(abs(mult) for _, mult in r.numerators)
    rho = reach / m
    width = 1 << fold
    need = (bits + math.log2(mass * (m + 1) * width / (width - 1))) / -math.log2(rho)
    j_max = min(len(table) - 1, max(1, math.ceil(need)))
    psums = [F(0)] * (j_max + 1)
    for f in r.factors:
        power = F(f.multiplicity)
        for j in range(j_max + 1):
            psums[j] += power
            power *= f.offset - centre
    step = m.bit_length() - 1 - fold
    acc = 0
    for j in range(1, j_max + 1):
        p = psums[j]
        term = (p.numerator * table[j] >> step * j) // (j * p.denominator)
        acc += term if j & 1 else -term
    # the same ball: truncation and rounding radii, then one log and exp
    libmp = mpmath.libmp
    truncation = evaluator._series_tail(mass, rho, j_max, 1 + F(m, j_max))
    rounding = libmp.from_man_exp(unit * mass * (j_max.bit_length() + 1) + j_max, -bits)
    radius = libmp.mpf_add(truncation, rounding, 53, libmp.round_ceiling)
    return numerics.exp_ball(head, libmp.from_man_exp(acc, -bits), radius, prec)


def _random_valid_pm_spec(rng, kind):
    """A validated +-1 spec: offsets a = u / q in [-4, 16) with q up to 97,
    multiplicities +-1 or +-2 and net degree 0, drawn until R(n) > 0 for
    every n >= start."""
    while True:
        offsets = {}
        while len(offsets) < 4:
            q = rng.randint(1, 97)
            offsets[F(rng.randrange(-4 * q, 16 * q), q)] = rng.choice((1, 2))
        for a in rng.sample(sorted(offsets), 2):
            offsets[a] = -offsets[a]
        if sum(offsets.values()):
            continue
        start = 1 if kind is ExponentKind.PM_RS else rng.choice((0, 1))
        spec = ProductSpec(FactoredRational.from_offsets(offsets), kind, start)
        try:
            spec.validate()
        except (InputError, EvaluationError):
            continue
        return spec


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from([ExponentKind.PM_THUE, ExponentKind.PM_RS]),
       st.sampled_from([5, 30, 60, 200, 300]))
def test_engine_series_sum_matches_the_fraction_reference_bit_for_bit(seed, kind, digits):
    spec = _random_valid_pm_spec(random.Random(seed), kind)
    automaton = evaluator.THUE_MORSE if kind is ExponentKind.PM_THUE else evaluator.RUDIN_SHAPIRO
    res = evaluator._engine(spec, digits, automaton)
    value, estimate = fraction_series_engine_reference(spec, digits, automaton)
    assert (res.value._mpf_, res.error_estimate._mpf_) == (value._mpf_, estimate._mpf_)


# ---------------------------------------------------------------------------
# The oracles' derived radii against exact references
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=0, max_value=20, max_denominator=8),
       st.fractions(min_value=0, max_value=20, max_denominator=8),
       st.sampled_from([(2, 64), (6, 1024)]))
def test_split_oracle_radius_covers_the_exact_family_value(a, b, setting):
    # family (i) is exactly (b+1)/(a+1); at 2 levels and 64 terms the
    # dropped tail dominates the radius, at 6 and 1024 it is some 1e-20
    levels, terms = setting
    identity = family("i", a, b)
    res = eval_pm_thue(identity.spec, EvalOptions(precision=30, split_levels=levels,
                                                  terms=terms))
    exact = identity.closed_form.value
    with mpmath.workdps(60):
        assert abs(res.value - mpmath.mpf(exact.numerator) / exact.denominator) \
            <= res.error_estimate


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=-1, max_value=16, max_denominator=12).filter(lambda x: x > -1),
       st.sampled_from([(0, 4096), (3, 1 << 14)]))
def test_direct_sum_oracle_radius_covers_the_exact_relation_product(x, setting):
    # the relation product is exactly 1 + x; its log-terms decay like 1/n,
    # so the Abel bound, 3 sqrt(6N) |c_1| / N, dominates the radius
    levels, terms = setting
    res = eval_pm_rs(rs_relation(x), EvalOptions(precision=30, rs_split_levels=levels,
                                                terms=terms))
    with mpmath.workdps(60):
        assert abs(res.value - (1 + mpmath.mpf(x.numerator) / x.denominator)) \
            <= res.error_estimate
