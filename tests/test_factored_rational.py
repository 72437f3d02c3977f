import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from digitprod import (ConvergenceTag, DigitprodError, EvaluationError,
                       FactoredRational, InputError, ParseError, classify,
                       dyadic_split, log_term, pole_check, rs_split,
                       thue_morse)
from digitprod.evaluator import _head
from digitprod.factored_rational import (positivity_check, rs_split_power_sums,
                                         rs_split_rational)

WR = FactoredRational.parse("(2n+1)/(2n+2)")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_monic():
    r = FactoredRational.from_raw_factors([(4, 3, 1)])
    assert r.scale == 4
    assert r.offset_dict() == {F(3, 4): 1}


def test_normalize_cancellation():
    r = FactoredRational.from_raw_factors([(2, 1, 1), (2, 1, -1)])
    assert r.is_one


def test_normalize_theorem_five_rational():
    r = FactoredRational.from_raw_factors([(1, 1, 1), (4, 5, 1), (1, 2, -1), (4, 1, -1)])
    assert r.scale == 1
    assert r.offset_dict() == {F(1): 1, F(5, 4): 1, F(2): -1, F(1, 4): -1}


def test_normalize_rejects_bad_input():
    with pytest.raises(InputError):
        FactoredRational.from_raw_factors([(-1, 1, 1)])
    with pytest.raises(InputError):
        FactoredRational.from_raw_factors([(0, 1, 1)])
    with pytest.raises(InputError):
        FactoredRational.from_raw_factors([(2, 1, 0)])


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_woods_robbins():
    assert WR.scale == 1
    assert WR.offset_dict() == {F(1, 2): 1, F(1): -1}


def test_parse_golay_shapiro_rational():
    r = FactoredRational.parse("4(n+2)(2n+1)^3(2n+3)^3/((n+3)(n+1)^2(4n+3)^4)")
    assert r.scale == 1
    assert r.offset_dict() == {F(2): 1, F(1, 2): 3, F(3, 2): 3,
                               F(3): -1, F(1): -2, F(3, 4): -4}


def test_parse_unbalanced_is_not_a_parse_error():
    r = FactoredRational.parse("(n+1)")
    assert r.offset_dict() == {F(1): 1}
    assert classify(r).tag is ConvergenceTag.DIVERGENT


@pytest.mark.parametrize("text", [
    "(2n-1)(4n+1)/((2n+1)(4n-1))",
    "(n+3/4)",
    "(4n)(4n+3)",
    "3(n+1/2)^2/(2(n+3/4)^2)",
    "1/(n+1)",
    "5/(2(n+2))",
    "(2n−1)/(2n+1)",  # unicode minus
])
def test_parse_accepts_grammar_forms(text):
    FactoredRational.parse(text)


@pytest.mark.parametrize("text", ["", "(n", "n+1", "(2x+1)", "(n+1)^0",
                                  "(n+1)/()", "(1.5n+1)"])
def test_parse_rejects_malformed(text):
    with pytest.raises((ParseError, InputError)):
        FactoredRational.parse(text)


@pytest.mark.parametrize("text", ["(n+1)/0", "3/0", "(n+1)/(0)", "(0)^-1"])
def test_parse_refuses_a_zero_scale_before_inverting_it(text):
    with pytest.raises(InputError, match="scale contribution must be positive, got 0"):
        FactoredRational.parse(text)


def test_parse_powered_parenthesized_denominator_is_one_term():
    assert FactoredRational.parse("(n+1)/(3)^2") == FactoredRational.parse("(n+1)/9")


_TERMS = st.lists(st.tuples(st.sampled_from(["(n+1)", "(2n-1/2)", "(n)", "(3)",
                                             "(0)", "(-2)", "3", "0"]),
                            st.sampled_from(["", "^2", "^-1"])).map("".join),
                  min_size=1, max_size=3).map("".join)
_TOKENS = ["n", "(", ")", "^", "+", "-", "/", "*", "0", "1", "12"]


@st.composite
def near_grammar_texts(draw):
    """A product of grammar terms, a zero or a power among them, with up
    to two tokens inserted; the spaces around an inserted token keep each
    integer to at most 12, so no power grows large."""
    den = draw(st.sampled_from(["", "/{}", "/({})"]))
    text = draw(_TERMS) + den.format(draw(_TERMS))
    for token in draw(st.lists(st.sampled_from(_TOKENS), max_size=2)):
        at = draw(st.integers(0, len(text)))
        text = f"{text[:at]} {token} {text[at:]}"
    return text


@given(near_grammar_texts())
@settings(max_examples=300, deadline=None)
def test_parse_returns_or_raises_a_package_error(text):
    try:
        r = FactoredRational.parse(text)
    except DigitprodError:
        return
    assert FactoredRational.parse(r.render()) == r


def test_parse_reports_position():
    with pytest.raises(ParseError) as info:
        FactoredRational.parse("(2n+1)/(2x+2)")
    assert info.value.position > 0


def test_render_round_trip_catalog():
    from digitprod import catalog
    for identity in catalog():
        r = identity.spec.rational
        assert FactoredRational.parse(r.render()) == r


@st.composite
def balanced_rationals(draw):
    pairs = draw(st.integers(min_value=1, max_value=3))
    offsets = draw(st.lists(
        st.fractions(min_value=F(1, 8), max_value=4,
                     max_denominator=8),
        min_size=2 * pairs, max_size=2 * pairs, unique=True))
    return FactoredRational.from_offsets(
        {a: (1 if i < pairs else -1) for i, a in enumerate(offsets)})


@given(balanced_rationals())
@settings(max_examples=100, deadline=None)
def test_render_round_trip_random(r):
    assert FactoredRational.parse(r.render()) == r


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_woods_robbins():
    cls = classify(WR)
    assert cls.tag is ConvergenceTag.PM_CONVERGENT
    assert not cls.fully


def test_classify_fully_convergent():
    r = FactoredRational.parse("(n+1)(4n+5)/((n+2)(4n+1))")
    assert classify(r).tag is ConvergenceTag.FULLY_CONVERGENT
    # equal offset sums on both sides: 1 + 5/4 = 2 + 1/4
    assert r.power_sum(1) == 0


def test_classify_divergent_scale():
    cls = classify(FactoredRational.parse("(2n+1)/(3n+2)"))
    assert cls.tag is ConvergenceTag.DIVERGENT
    assert "leading coefficient" in cls.detail


def test_classify_divergent_degree():
    cls = classify(FactoredRational.parse("(n+1)(n+2)/(n+3)"))
    assert cls.tag is ConvergenceTag.DIVERGENT
    assert "degree" in cls.detail


def test_classify_invariant_under_reordering(rng):
    raw = [(2, 1, 1), (4, 5, 1), (2, 3, -1), (4, 3, -1)]
    tags = set()
    for _ in range(6):
        rng.shuffle(raw)
        tags.add(classify(FactoredRational.from_raw_factors(raw)).tag)
    assert len(tags) == 1


@given(balanced_rationals(),
       st.fractions(min_value=F(1, 4), max_value=3, max_denominator=6))
@settings(max_examples=50, deadline=None)
def test_classify_invariant_under_common_factor(r, a):
    common = FactoredRational.from_offsets({a: 1})
    assert classify(r * common / common).tag == classify(r).tag


# ---------------------------------------------------------------------------
# Poles, positivity, log terms
# ---------------------------------------------------------------------------

def test_pole_check_examples():
    assert pole_check(FactoredRational.parse("(2n-1)(4n+1)/((2n+1)(4n-1))"), 1) is None
    assert pole_check(FactoredRational.parse("(n-1)"), 0) == 1
    assert pole_check(FactoredRational.parse("(n+1)/(n+2)"), 0) is None
    assert pole_check(FactoredRational.parse("(4n+1)/(4n)"), 0) == 0
    assert pole_check(FactoredRational.parse("(4n+1)/(4n)"), 1) is None


def test_positivity_check():
    positivity_check(FactoredRational.parse("(2n-1)/(2n+1)"), 1)
    with pytest.raises(EvaluationError):
        positivity_check(FactoredRational.parse("(n-3/2)/(n+1)"), 1)


def positivity_walk(r, start):
    """Reference: the exact value at every integer from start to the
    largest root, past which every factor is positive."""
    pole = pole_check(r, start)
    if pole is not None:
        raise EvaluationError(f"factor vanishes at n = {pole} (n >= {start})")
    bound = max([start] + [-(u // r.denominator) + 1 for u, _ in r.numerators])
    for n, value in zip(range(start, bound + 1), r.values_at(range(start, bound + 1))):
        if value <= 0:
            raise EvaluationError(f"R({n}) = {value} is not positive; "
                                  f"real logarithms require R(n) > 0 for n >= {start}")


def _outcome(check, r, start):
    try:
        check(r, start)
    except EvaluationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.fractions(min_value=-12, max_value=4, max_denominator=6),
                       st.integers(-3, 3).filter(bool), max_size=6),
       st.sampled_from([F(1), F(3, 2)]), st.integers(0, 3))
def test_positivity_check_matches_the_walk(offsets, scale, start):
    # the same first failing n and the same message, or both pass
    r = FactoredRational.from_offsets(offsets, scale)
    assert _outcome(positivity_check, r, start) == _outcome(positivity_walk, r, start)


def test_positivity_check_evaluates_one_point_per_sign_run(monkeypatch):
    # roots near 10^6: the walk would evaluate a million points
    r = FactoredRational.parse("(n-2000001/2)(n-4000001/4)/(n-8000003/8)^2")
    seen = []
    values_at = FactoredRational.values_at

    def record(self, points):
        points = list(points)
        seen.append(len(points))
        return values_at(self, points)
    monkeypatch.setattr(FactoredRational, "values_at", record)
    positivity_check(r, 0)
    assert len(seen) == 1 and seen[0] <= len(r.numerators) + 1
    seen.clear()
    # R < 0 only between the roots 1000000.5 and 1000002.5
    with pytest.raises(EvaluationError, match=r"R\(1000001\)"):
        positivity_check(FactoredRational.parse("(n-2000001/2)(n-2000005/2)/(n+1)^2"), 0)
    assert len(seen) == 1 and seen[0] <= 4


def test_log_term_values():
    import mpmath
    with mpmath.workdps(50):
        assert abs(log_term(WR, 0, 40) + mpmath.log(2)) < mpmath.mpf("1e-39")
        assert abs(log_term(FactoredRational.parse("(n+1)(4n+5)/((n+2)(4n+1))"),
                            1, 40) - mpmath.log(mpmath.mpf(6) / 5)) < mpmath.mpf("1e-39")
    assert log_term(FactoredRational.one(), 7, 30) == 0


def test_log_term_rejects_nonpositive():
    with pytest.raises(EvaluationError):
        log_term(FactoredRational.parse("(n-2)/(n+1)"), 1, 30)


def test_value_at():
    assert WR.value_at(0) == F(1, 2)
    assert WR.value_at(F(1, 2)) == F(2, 3)
    assert WR.value_at(F(-1, 2)) == 0
    # scale 3/2 and net degree 1
    assert FactoredRational.parse("3(n+1)^2/(2n+1)").value_at(F(1, 3)) == F(16, 5)
    with pytest.raises(EvaluationError):
        FactoredRational.parse("1/(n-1)").value_at(1)


# ---------------------------------------------------------------------------
# Dyadic split
# ---------------------------------------------------------------------------

def test_dyadic_split_single_factor_pair():
    a, b = F(1, 3), F(5, 7)
    r = FactoredRational.from_offsets({a: 1, b: -1})
    split, boundary = dyadic_split(r, 1)
    assert boundary == (1 + b) / (1 + a)
    assert split.offset_dict() == {a / 2: 1, (1 + b) / 2: 1,
                                   (1 + a) / 2: -1, b / 2: -1}


def test_dyadic_split_identity_rational():
    split, boundary = dyadic_split(FactoredRational.one(), 1)
    assert split.is_one and boundary == 1


def test_dyadic_split_woods_robbins_start0():
    split, boundary = dyadic_split(WR, 0)
    assert split == FactoredRational.parse("(4n+1)(4n+4)/((4n+2)(4n+3))")
    assert boundary == F(2, 3)


def test_dyadic_split_rejects_divergent():
    with pytest.raises(InputError):
        dyadic_split(FactoredRational.parse("(2n+1)/(3n+2)"), 1)


@pytest.mark.parametrize("start", [0, 1])
def test_dyadic_split_exact_finite_identity(rng, start):
    # prod_{n=start}^{2N+1} R(n)^eps equals boundary * prod_{n=1}^{N} of the
    # split rational exactly: the regrouping pairs indices (2n, 2n+1)
    from conftest import random_pm_convergent
    for _ in range(5):
        r = random_pm_convergent(rng)
        split, boundary = dyadic_split(r, start)
        n_top = 64
        lhs = F(1)
        for n in range(start, 2 * n_top + 2):
            lhs *= r.value_at(n) ** (1 - 2 * thue_morse(n))
        rhs = boundary
        for n in range(1, n_top + 1):
            rhs *= split.value_at(n) ** (1 - 2 * thue_morse(n))
        assert lhs == rhs


def test_dyadic_split_float_identity(rng):
    from conftest import naive_signed_product, random_pm_convergent
    r = random_pm_convergent(rng)
    split, boundary = dyadic_split(r, 0)
    n_top = 2 ** 12
    lhs = naive_signed_product(r, 0, 2 * n_top + 2)
    rhs = float(boundary) * naive_signed_product(split, 1, n_top + 1)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_dyadic_split_decay_promotion():
    # |log R| <= C/n^k turns into |log R_split| = O(1/n^{k+1})
    r = FactoredRational.from_offsets({F(1, 2): 1, F(3, 2): -1})
    for k in (1, 2, 3):
        split, _ = dyadic_split(r, 1)
        worst = max(abs(float(log_term(split, n, 25))) * n ** (k + 1)
                    for n in range(2 ** 10, 2 ** 11, 37))
        assert worst < 16.0
        r = split


# ---------------------------------------------------------------------------
# Rudin-Shapiro split
# ---------------------------------------------------------------------------

def test_rs_split_reconstructs_golay_shapiro_relation():
    # with R(X) = (X+2)^2/((X+1)(X+3)), the relation
    # prod (R(n) R(2n+1) / (R(2n) R(4n+1)^2))^{(-1)^{v_n}} = R(1) means the
    # combined rational must match the catalog entry evaluated to one
    base = FactoredRational.parse("(n+2)^2/((n+1)(n+3))")
    combined = (base * base.regroup([(2, 1, 1)])
                / (base.regroup([(2, 0, 1)]) * base.regroup([(4, 1, 1)]) ** 2))
    expected = FactoredRational.parse("4(n+2)(2n+1)^3(2n+3)^3/((n+3)(n+1)^2(4n+3)^4)")
    assert combined == expected
    split, boundary = rs_split(base)
    assert boundary == F(9, 8)
    assert base / split == expected


def test_rs_split_halves_slow_component():
    r = FactoredRational.parse("(2n+1)^2/((n+1)(4n+1))")
    p1 = r.power_sum(1)
    for _ in range(4):
        r = rs_split_rational(r)
        p1 /= 2
        assert r.power_sum(1) == p1


def test_rs_split_preserves_balance(rng):
    from conftest import random_pm_convergent
    r = random_pm_convergent(rng)
    split, _ = rs_split(r)
    assert split.degree_sum() == 0 and split.scale == 1


def test_rs_split_rejects_divergent():
    with pytest.raises(InputError):
        rs_split(FactoredRational.parse("(n+1)(n+2)/(n+3)"))


def test_rs_split_rational_equals_operator_chain(rng):
    from conftest import random_pm_convergent
    for _ in range(10):
        r = random_pm_convergent(rng)
        chain = (r.regroup([(2, 0, 1)]) * r.regroup([(4, 1, 1)]) ** 2
                 / r.regroup([(2, 1, 1)]))
        assert rs_split_rational(r) == chain


# ---------------------------------------------------------------------------
# Algebra helpers
# ---------------------------------------------------------------------------

def test_regroup_one_linear_map():
    r = FactoredRational.parse("(n+1)/(n+2)")
    even = r.regroup([(2, 0, 1)])
    assert even.offset_dict() == {F(1, 2): 1, F(1): -1}
    assert even.scale == 1
    assert even.value_at(3) == r.value_at(6)


def test_mul_div_pow():
    r = FactoredRational.parse("(n+1)/(n+2)")
    s = FactoredRational.parse("(n+2)/(n+3)")
    assert (r * s) == FactoredRational.parse("(n+1)/(n+3)")
    assert (r / r).is_one
    assert (r ** 2).offset_dict() == {F(1): 2, F(2): -2}


def test_power_sum():
    r = FactoredRational.parse("(2n+1)^2/((n+1)(4n+1))")
    assert r.power_sum(1) == F(-1, 4)
    assert r.power_sum(2) == 2 * F(1, 4) - 1 - F(1, 16)
    assert r.power_sums(2) == [r.degree_sum(), r.power_sum(1), r.power_sum(2)]


@st.composite
def _rational_and_point(draw):
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    offsets = draw(st.dictionaries(fracs, st.integers(-3, 3).filter(bool),
                                   max_size=5))
    scale = draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8))
    if offsets and draw(st.booleans()):
        n = -draw(st.sampled_from(sorted(offsets)))  # a zero or a pole
    else:
        n = draw(fracs)
    return FactoredRational.from_offsets(offsets, scale), offsets, scale, n


@settings(max_examples=200, deadline=None)
@given(_rational_and_point(), st.integers(0, 8))
def test_value_at_and_power_sums_match_fraction_oracle(case, j_max):
    r, offsets, scale, n = case
    assert r.power_sums(j_max) == [sum((m * a ** j for a, m in offsets.items()), F(0))
                                   for j in range(j_max + 1)]
    roots = [m for a, m in offsets.items() if n + a == 0]
    if roots and roots[0] < 0:
        with pytest.raises(EvaluationError):
            r.value_at(n)
        return
    expected = scale
    for a, m in offsets.items():
        expected *= (n + a) ** m if n + a else 0
    assert r.value_at(n) == expected


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.fractions(min_value=-16, max_value=16, max_denominator=97),
                       st.integers(-3, 3).filter(bool), max_size=5),
       st.integers(0, 300))
def test_power_sum_numerators_are_the_power_sums_over_d_to_the_j(offsets, j):
    # S_j = p_j D^j exactly, for offsets of both signs and |m_i| up to 3
    r = FactoredRational.from_offsets(offsets)
    p_j = sum((m * a ** j for a, m in offsets.items()), F(0))
    sums = r.power_sum_numerators(j)
    assert len(sums) == j + 1
    assert sums[j] == p_j * r.denominator ** j
    assert r.power_sum(j) == p_j


@settings(max_examples=200, deadline=None)
@given(_rational_and_point(), st.integers(0, 4), st.integers(0, 30))
def test_rs_split_power_sums_match_the_split_chain(case, levels, j_max):
    # offsets of either sign with denominators up to 6, any net degree and
    # scale; a chain whose split rational has a pole at n >= 1 is skipped
    r = case[0]
    split = r
    try:
        for _ in range(levels):
            split = rs_split_rational(split)
    except EvaluationError:
        assume(False)
    assert rs_split_power_sums(r, levels, j_max) == split.power_sums(j_max)


@st.composite
def _signed_rationals(draw):
    # offsets of both signs, at and below -1 too; scale 1 half the time,
    # so that R = 1 is drawn
    offsets = draw(st.dictionaries(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.integers(-3, 3).filter(bool), max_size=5))
    scale = draw(st.one_of(st.just(F(1)), st.fractions(
        min_value=F(1, 8), max_value=8, max_denominator=8)))
    return FactoredRational.from_offsets(offsets, scale)


@settings(max_examples=300, deadline=None)
@given(_signed_rationals())
def test_rs_split_turns_no_other_rational_into_one(r):
    # the split sends a to a/2, (1+a)/4 (weight 2) and (1+a)/2: if
    # max a > -1, (1 + max a)/2 has no other preimage, else (min a)/2 has
    # none; the scale s goes to s^2
    try:
        split = rs_split_rational(r)
    except EvaluationError:
        assume(False)
    assert split.is_one == r.is_one


@settings(max_examples=200, deadline=None)
@given(_rational_and_point(), st.lists(st.fractions(min_value=-4, max_value=4,
                                                    max_denominator=6), max_size=6),
       st.booleans())
def test_values_at_matches_value_at(case, points, with_roots):
    # one pass over all points equals one value_at per point, zeros of R
    # included; a pole anywhere in the list raises
    r, offsets, _, _ = case
    if with_roots:
        points = points + [-a for a in offsets]
    poles = [n for n in points if any(n + a == 0 and m < 0 for a, m in offsets.items())]
    if poles:
        with pytest.raises(EvaluationError):
            r.values_at(points)
        return
    assert r.values_at(points) == [r.value_at(n) for n in points]
    assert r.values_at(iter(points)) == r.values_at(points)


# ---------------------------------------------------------------------------
# Regrouping
# ---------------------------------------------------------------------------

def regroup_reference(r, maps):
    """prod R(c*n + d)^w built offset by offset in Fraction arithmetic."""
    degree = r.degree_sum()
    scale = F(1)
    offsets = {}
    for c, d, w in maps:
        if c <= 0:
            raise InputError(f"coefficient of n must be positive, got {c}")
        scale *= (r.scale * F(c) ** degree) ** w
        for f in r.factors:
            a = (f.offset + d) / c
            offsets[a] = offsets.get(a, 0) + f.multiplicity * w
    return FactoredRational.from_offsets(offsets, scale)


@st.composite
def _maps(draw):
    """(c, d, w) lists: c an int or an integral Fraction, d a Fraction with
    denominator up to 6, w in -3..3; maybe a repeated map whose weights
    cancel."""
    c = st.integers(1, 6) | st.integers(1, 6).map(F)
    d = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    maps = draw(st.lists(st.tuples(c, d, st.integers(-3, 3)), max_size=5))
    if maps and draw(st.booleans()):
        c0, d0, w0 = draw(st.sampled_from(maps))
        maps += [(c0, d0, w0 + 1), (c0, d0, -2 * w0 - 1)]
    return draw(st.permutations(maps))


@settings(max_examples=300, deadline=None)
@given(_rational_and_point(), _maps())
def test_regroup_matches_fraction_reference(case, maps):
    r = case[0]
    got, expected = r.regroup(maps), regroup_reference(r, maps)
    assert got.scale == expected.scale
    assert got.factors == expected.factors
    assert got == expected and hash(got) == hash(expected)


def test_regroup_reference_cases():
    # scale != 1, net degree != 0, non-integer d, repeated c: the common
    # denominator and the scale's c^degree both matter here
    r = FactoredRational.from_offsets({F(1, 2): 2, F(1, 3): -1}, F(3, 2))
    maps = [(2, F(1, 3), 1), (3, F(-1, 2), -2), (F(2), 0, 2), (5, F(5, 6), 0)]
    assert r.regroup(maps) == regroup_reference(r, maps)
    assert r.regroup(maps).scale == F(3, 2) * F(2) ** 3 * F(3) ** -2
    one = FactoredRational.one()
    assert one.regroup(maps) == one.regroup([]) == one
    constant = FactoredRational.from_offsets({}, F(2, 3))
    assert constant.regroup(maps) == constant  # the weights sum to 1


@pytest.mark.parametrize("c", [0, -1, F(-2), F(0)])
def test_regroup_rejects_nonpositive_coefficient(c):
    with pytest.raises(InputError, match="coefficient of n must be positive"):
        WR.regroup([(1, 0, 1), (c, 1, 1)])
    with pytest.raises(InputError, match="coefficient of n must be positive"):
        FactoredRational.one().regroup([(c, 0, 0)])


_MAPS = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3),
                           st.integers(-2, 2)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_rational_and_point(), _MAPS)
def test_regroup_matches_value_at_oracle(case, maps):
    r, offsets, scale, n = case
    assume(scale != 1 and r.degree_sum() != 0)
    assume(all(c * n + d + a != 0 for c, d, _ in maps for a in offsets))
    expected = F(1)
    for c, d, w in maps:
        expected *= r.value_at(c * n + d) ** w
    assert r.regroup(maps).value_at(n) == expected


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("levels", range(6))
def test_l_fold_regroup_is_iterated_dyadic_split(rng, start, levels):
    # R_L(n) = prod_{i<2^L} R(2^L n + i)^{(-1)^{t_i}} is L dyadic splits
    # in one; the evaluator's boundary is R_L(0) for start 0 and
    # prod_{1<=i<2^L} R(i)^{(-1)^{t_i}} (``_head``) for start 1
    from conftest import random_pm_convergent
    for _ in range(3):
        r = random_pm_convergent(rng)
        maps = [(2 ** levels, i, 1 - 2 * thue_morse(i)) for i in range(2 ** levels)]
        split, boundary, s = r, F(1), start
        for _ in range(levels):
            split, b = dyadic_split(split, s)
            boundary *= b
            s = 1
        assert r.regroup(maps) == split
        if start == 1:
            assert r.regroup(maps[1:]).value_at(0) == boundary
            assert _head(r, 1, 1 << levels, [w for _, _, w in maps]) == boundary
        elif levels:
            assert split.value_at(0) == boundary


def assert_canonical(r):
    """D is the lcm of the reduced offset denominators, the numerators are
    strictly increasing with nonzero multiplicities, and rebuilding from the
    offsets gives an equal value with an equal hash."""
    d, nums = r.denominator, r.numerators
    assert d == math.lcm(*(F(u, d).denominator for u, _ in nums))
    assert all(u < v for (u, _), (v, _) in zip(nums, nums[1:]))
    assert all(m != 0 for _, m in nums)
    again = FactoredRational.from_offsets(r.offset_dict(), r.scale)
    assert again == r and hash(again) == hash(r)


_RAW = st.lists(st.tuples(st.integers(1, 6),
                          st.fractions(min_value=-3, max_value=3, max_denominator=6),
                          st.integers(-3, 3).filter(bool)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(_rational_and_point(), _rational_and_point(), _maps(), _RAW,
       st.integers(-3, 3))
def test_every_constructor_gives_the_canonical_form(case, other, maps, raw, k):
    r, s = case[0], other[0]
    for value in (r, r.regroup(maps), r * s, r / s, r ** k,
                  FactoredRational.from_raw_factors(raw),
                  FactoredRational.parse(r.render())):
        assert_canonical(value)


@given(st.dictionaries(st.fractions(min_value=-6, max_value=6, max_denominator=8),
                       st.integers(-3, 3).filter(bool), max_size=6))
def test_max_abs_offset_is_max_over_factors(offsets):
    r = FactoredRational.from_offsets(offsets)
    assert r.max_abs_offset() == max((abs(a) for a in offsets), default=0)


# ---------------------------------------------------------------------------
# Validation branches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, error", [
    (lambda: dyadic_split(FactoredRational.parse("(n-1)/(n-2)"), 1), EvaluationError),
    (lambda: dyadic_split(FactoredRational.parse("(n)/(n+1)"), 0), EvaluationError),
    (lambda: dyadic_split(FactoredRational.parse("(n)/(n+1)"), 2), InputError),
    (lambda: dyadic_split(FactoredRational.parse("(n-3)/(n-2)"), 1), EvaluationError),
    (lambda: rs_split(FactoredRational.parse("(n-1)/(n-2)")), EvaluationError),
    # no split factor vanishes, so this reaches the boundary R(1) = 0
    (lambda: rs_split(FactoredRational.parse("(n-1)/(n+1)")), EvaluationError),
    (lambda: FactoredRational.parse("(n+1/0)"), ParseError),
    (lambda: FactoredRational.parse("(1/2n+1)"), ParseError),
    (lambda: FactoredRational.parse("(n+1)/(n+2))"), ParseError),
    (lambda: FactoredRational.parse("(-2)(n+1)/(n+2)"), InputError),
    (lambda: FactoredRational(F(-1), 1, ()), InputError),
], ids=["dyadic-r1-zero", "dyadic-r0-zero", "dyadic-start-2", "dyadic-split-pole",
        "rs-split-pole", "rs-boundary-r1-zero", "zero-denominator",
        "fractional-coefficient", "trailing-paren", "negative-scale",
        "negative-scale-constructed"])
def test_validation_raises_its_error_class(call, error):
    with pytest.raises(error) as info:
        call()
    assert info.type is error
