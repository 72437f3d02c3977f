import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import product_of

from digitprod import (CapabilityError, ConsistencyError, DigitprodError,
                       EvalOptions, ExponentKind, FactoredRational, InputError,
                       ProductSpec, catalog, catalog_entry, expr_from_spec,
                       family, reduce, verify, verify_all)
from digitprod.numerics import Rat, power_product_exponents
from digitprod import symbolic
from digitprod.symbolic import (MAX_REDUCE_DEPTH, UNIVERSE_CAP, GExpression,
                                _universe)

LIGHT = EvalOptions(precision=30, split_levels=6, terms=1024)


def g_expr(*pairs):
    return GExpression.build({F(x): F(c) for x, c in pairs})


def plus(left, right):
    # the term-by-term sum of two expressions
    terms, log_const = dict(left.terms), dict(left.log_const)
    for k, v in right.terms:
        terms[k] = terms.get(k, F(0)) + v
    for k, v in right.log_const:
        log_const[k] = log_const.get(k, F(0)) + v
    return GExpression.build(terms, log_const)


# ---------------------------------------------------------------------------
# GExpression and expr_from_spec
# ---------------------------------------------------------------------------

def test_expr_single_factor_pair():
    spec = ProductSpec(FactoredRational.from_offsets({F(1, 3): 1, F(5, 7): -1}),
                       ExponentKind.PM_THUE, 1)
    assert expr_from_spec(spec) == g_expr((F(1, 3), 1), (F(5, 7), -1))


def test_expr_identity_rational_is_zero():
    spec = ProductSpec(FactoredRational.from_offsets({}), ExponentKind.PM_THUE, 1)
    assert expr_from_spec(spec) == GExpression()


def test_expr_family_i_shape():
    a, b = F(1, 3), F(1, 5)  # chosen so that no two offsets collide
    ident = family("i", a, b)
    expected = g_expr((a, 1), (a / 2, -1), ((a + 1) / 2, 1),
                      (b, -1), (b / 2, 1), ((b + 1) / 2, -1))
    assert expr_from_spec(ident.spec) == expected


def test_expr_start_zero_shifts_into_log_const():
    spec = ProductSpec(FactoredRational.parse("(2n+1)/(2n+2)"),
                       ExponentKind.PM_THUE, 0)
    expr = expr_from_spec(spec)
    assert dict(expr.log_const) == {F(1, 2): F(1)}
    assert expr.terms_dict() == {F(1, 2): F(1), F(1): F(-1)}


def test_expr_rejects_wrong_kind():
    spec = ProductSpec(FactoredRational.parse("(n+1)(4n+5)/((n+2)(4n+1))"),
                       ExponentKind.ZERO_ONE_THUE, 0)
    with pytest.raises(InputError):
        expr_from_spec(spec)


def test_expr_rejects_divergent():
    spec = ProductSpec(FactoredRational.parse("(n+1)"), ExponentKind.PM_THUE, 1)
    with pytest.raises(InputError, match="divergent"):
        expr_from_spec(spec)


@pytest.mark.parametrize("spec", [
    ProductSpec(FactoredRational.parse("(n-1)/(n-2)"), ExponentKind.PM_THUE, 1),
    family("i", F(-3, 2), 0).spec,
], ids=["zero-then-pole", "family-i-negative-r1"])
def test_expr_refuses_what_validate_refuses(spec):
    # (n-1)/(n-2) vanishes at n = 1 and has a pole at n = 2; family (i) at
    # a = -3/2, b = 0 has R(1) = -1
    with pytest.raises(DigitprodError) as refused:
        spec.validate()
    with pytest.raises(refused.type) as info:
        expr_from_spec(spec)
    assert str(info.value) == str(refused.value)


def test_expr_respects_multiplication(rng):
    from conftest import random_pm_convergent
    r1, r2 = random_pm_convergent(rng), random_pm_convergent(rng)
    s = lambda r: ProductSpec(r, ExponentKind.PM_THUE, 1)
    assert expr_from_spec(s(product_of((r1, 1), (r2, 1)))) == plus(expr_from_spec(s(r1)), expr_from_spec(s(r2)))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def test_reduce_two_g_one():
    out = reduce(g_expr((1, 2)))
    assert out.reduced and isinstance(out.closed_form, Rat)
    assert out.closed_form.value == F(1, 2)


def test_reduce_g_half_is_one():
    out = reduce(g_expr((F(1, 2), 1)))
    assert out.reduced and out.exponents == {}
    assert out.closed_form.render() == "1"


def test_reduce_family_instance():
    out = reduce(expr_from_spec(family("i", 1, 2).spec))
    assert out.reduced and out.closed_form.value == F(3, 2)


def test_reduce_certificate_is_a_proof():
    # replaying the certificate must reproduce the expression exactly
    expr = expr_from_spec(family("i", F(3, 4), F(1, 4)).spec)
    out = reduce(expr)
    assert out.reduced
    rebuilt = {}
    for x, lam in out.certificate.items():
        for point, coef in ((x / 2, lam), ((x + 1) / 2, -lam), (x, -lam)):
            rebuilt[point] = rebuilt.get(point, F(0)) + coef
    assert {k: v for k, v in rebuilt.items() if v} == expr.terms_dict()


def test_reduce_relation_invariance():
    # adding a relation vector must not change the reduced constant
    expr = g_expr((1, 2))
    x = F(1, 2)
    relation = GExpression.build({x / 2: F(1), (x + 1) / 2: F(-1), x: F(-1)},
                                 {1 + x: F(-1)})
    out1, out2 = reduce(expr), reduce(plus(expr, relation))
    assert out1.reduced and out2.reduced
    assert out1.exponents == out2.exponents


@pytest.mark.parametrize("depth", [-1, MAX_REDUCE_DEPTH + 1, 40])
def test_reduce_rejects_depth_outside_range(depth, monkeypatch):
    # rejected before any universe is built
    def no_work(*args):
        raise AssertionError("reduce started work")
    monkeypatch.setattr(symbolic, "_universe", no_work)
    with pytest.raises(InputError, match="depth"):
        reduce(g_expr((1, 2)), depth)


def test_reduce_rejects_nonpositive_log_constant():
    for q in (F(-2), F(0)):
        with pytest.raises(InputError, match="not positive"):
            reduce(GExpression.build({F(1): F(2)}, {q: F(1)}))


def test_reduce_universe_above_cap_raises(monkeypatch):
    # the probe's universe has 128 points at depth 4, so the search stops
    # there instead of reporting a depth it did not search
    monkeypatch.setattr(symbolic, "UNIVERSE_CAP", 100)
    with pytest.raises(CapabilityError, match="depth-4 .* 100 points"):
        reduce(g_expr((F(1, 5), 1), (F(2, 5), -1)), 6)


def test_reduce_below_cap_keeps_lower_depth_result(monkeypatch):
    # WR's depth-1 universe has 6 points and its depth-2 universe 15
    monkeypatch.setattr(symbolic, "UNIVERSE_CAP", 6)
    out = reduce(expr_from_spec(catalog_entry("WR").spec))
    assert out.reduced and out.depth == 1
    assert out.exponents == {2: F(-1, 2)}


def test_reduce_irreducible_is_a_result():
    out = reduce(g_expr((0, 1), (F(1, 2), -1)))  # g(0): no known closed form
    assert not out.reduced
    assert out.residual is not None


def test_peel_skips_a_row_queued_twice():
    # rows 0 and 1 hold only x = 5: row 1 is queued at length 1, and again
    # when solving x from row 0 empties it
    for rhs1, expected in ((F(6), {5: F(3)}), (F(5), None)):
        rows = {0: {5: 1}, 1: {5: 2}}
        assert symbolic._peel(rows, {0: F(3), 1: rhs1},
                              lambda x: (0, 1)) == expected


def test_peel_stall_raises_instead_of_a_partial_solution():
    # no row of length <= 1 at the start, or none left after one step
    columns = {1: (1, 2), 2: (1, 2), 5: (0, 1)}
    for rows in ({1: {1: 1, 2: 1}, 2: {1: 1, 2: -1}},
                 {0: {5: 1}, 1: {5: 1, 1: 1, 2: 1}, 2: {1: 1, 2: -1}}):
        with pytest.raises(ConsistencyError, match="stalled with 2 rows"):
            symbolic._peel(rows, {0: F(1), 1: F(2)}, columns.get)


def test_reduce_random_family_instances(rng):
    for _ in range(20):
        a = F(rng.randint(1, 20), rng.randint(1, 20))
        b = F(rng.randint(1, 20), rng.randint(1, 20))
        ident = family("i", a, b)
        out = reduce(expr_from_spec(ident.spec))
        assert out.reduced and out.closed_form.value == (b + 1) / (a + 1)


def test_reduce_soundness_against_evaluator(rng):
    # when reduce produces a constant, the numerical evaluator agrees
    for fid, args in [("ii", (F(5, 3),)), ("iii", (F(7, 2),)), ("iv", (F(5, 4),))]:
        ident = family(fid, *args)
        out = reduce(expr_from_spec(ident.spec))
        res = __import__("digitprod").eval_pm_thue(ident.spec, LIGHT)
        assert out.reduced
        with mpmath.workdps(40):
            constant = out.closed_form.eval(30)
            assert abs(res.value - constant) < res.error_estimate


# ---------------------------------------------------------------------------
# Reduction against the Fraction-keyed reference solver
# ---------------------------------------------------------------------------

def universe_reference(points, depth):
    """Points reachable by x -> 2x, 2x-1, x/2, (x+1)/2, keyed by Fraction."""
    seen = set(points)
    frontier = list(points)
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for q in (2 * p, 2 * p - 1, p / 2, (p + 1) / 2):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
            if len(seen) > UNIVERSE_CAP:
                raise CapabilityError(f"more than {UNIVERSE_CAP} points")
        if not nxt:
            break
        frontier = nxt
    return sorted(seen)


def solve_reference(universe, target):
    """sum_x lambda_x r_x = target by general sparse Gaussian elimination
    over Fraction keys, each pivot the row with the least (length, point).
    Peeling in ``symbolic._solve_relations`` must reproduce its solution
    and its pivot order, which is the certificate's key order."""
    relations = {}
    for x in universe:
        if x <= -1:
            continue
        vec = {}
        for point, coef in ((x / 2, F(1)), ((x + 1) / 2, F(-1)), (x, F(-1))):
            vec[point] = vec.get(point, F(0)) + coef
        relations[x] = {k: v for k, v in vec.items() if v}
    rows, rhs = {}, {}
    for x, vec in relations.items():
        for p, coef in vec.items():
            rows.setdefault(p, {})[x] = coef
    for p, coef in target.items():
        rhs[p] = coef
        rows.setdefault(p, {})
    for p in rows:
        rhs.setdefault(p, F(0))
    var_rows = {}
    for p, row in rows.items():
        for x in row:
            var_rows.setdefault(x, set()).add(p)
    pivots = []
    active = set(rows)
    while True:
        best = None
        for p in active:
            if rows[p]:
                key = (len(rows[p]), p)
                if best is None or key < best[0]:
                    best = (key, p)
            elif rhs[p]:
                return None
        if best is None:
            break
        p = best[1]
        x = min(rows[p])
        c = rows[p][x]
        if c != 1:
            rows[p] = {k: v / c for k, v in rows[p].items()}
            rhs[p] /= c
        for p2 in list(var_rows.get(x, ())):
            if p2 == p:
                continue
            factor = rows[p2].get(x)
            if factor is None:
                continue
            for k, v in rows[p].items():
                newv = rows[p2].get(k, F(0)) - factor * v
                if newv:
                    rows[p2][k] = newv
                    var_rows.setdefault(k, set()).add(p2)
                else:
                    rows[p2].pop(k, None)
                    var_rows.get(k, set()).discard(p2)
            rhs[p2] -= factor * rhs[p]
        pivots.append((p, x))
        active.discard(p)
        var_rows.get(x, set()).discard(p)
    solution = {}
    for p, x in reversed(pivots):
        value = rhs[p]
        for k, v in rows[p].items():
            if k != x:
                value -= v * solution.get(k, F(0))
        solution[x] = value
    return {x: v for x, v in solution.items() if v}


def prime_exponents_reference(q):
    """{p: e} with q = prod p^e, by trial division."""
    out = {}
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        d = 2
        while n > 1:
            while n % d == 0:
                out[d] = out.get(d, 0) + sign
                n //= d
            d += 1
    return out


def reduce_reference(expr, depth):
    """(status, depth, certificate, exponents) of the reference solver."""
    target = expr.terms_dict()
    points = list(target) or [F(1)]
    for d in range(depth + 1):
        solution = solve_reference(universe_reference(points, d), target)
        if solution is not None:
            break
    else:
        return "irreducible", depth, {}, None
    exponents = {}
    for q, coef in [(1 + x, lam) for x, lam in solution.items()] + list(expr.log_const):
        for p, e in prime_exponents_reference(q).items():
            exponents[p] = exponents.get(p, F(0)) + e * coef
    return "reduced", d, solution, {p: e for p, e in exponents.items() if e}


def assert_matches_reference(expr, depth):
    out = reduce(expr, depth)
    expected = reduce_reference(expr, depth)
    assert (out.status, out.depth, out.certificate, out.exponents) == expected
    assert list(out.certificate) == list(expected[2])  # same pivot order


@st.composite
def _targets(draw):
    """G-parts with points in [-3, 4] (some <= -1), denominators up to 6,
    repeated points whose coefficients add up (and may cancel), a
    log-constant part, and relation vectors r_x mixed in: with x > -1 they
    make some targets reduce, with x <= -1 they must not help."""
    points = st.fractions(min_value=-3, max_value=4, max_denominator=6)
    coefs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pairs = draw(st.lists(st.tuples(points, coefs), max_size=4))
    if pairs and draw(st.booleans()):
        pairs.append((pairs[0][0], draw(coefs)))
    for x in draw(st.lists(points, max_size=3)):
        lam = draw(coefs)
        pairs += [(x / 2, lam), ((x + 1) / 2, -lam), (x, -lam)]
    terms = {}
    for x, c in pairs:
        terms[x] = terms.get(x, F(0)) + c
    log_const = draw(st.dictionaries(
        st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
        coefs, max_size=2))
    return GExpression.build(terms, log_const)


@settings(max_examples=150, deadline=None)
@given(_targets(), st.integers(0, 4))
def test_reduce_matches_fraction_reference(expr, depth):
    assert_matches_reference(expr, depth)
    points = list(expr.terms_dict()) or [F(1)]
    one = math.lcm(*(x.denominator for x in points)) << (depth + 1)
    universe = _universe([int(x * one) for x in points], depth, one)
    assert [F(k, one) for k in universe] == universe_reference(points, depth)


@pytest.mark.parametrize("expr,depth", [
    (g_expr((1, 2)), 0),
    (g_expr((0, 1), (F(1, 2), -1)), 4),  # irreducible
    (g_expr((-1, 1), (F(-5, 2), 1), (F(1, 3), -1)), 3),  # points <= -1
    (expr_from_spec(catalog_entry("C3l").spec), 4),  # reduces at depth 3
    (expr_from_spec(family("iv", F(5, 6)).spec), 2),
    (expr_from_spec(ProductSpec(FactoredRational.parse("(n+1/5)/(n+2/5)"),
                                ExponentKind.PM_THUE, 1)), 4),
    # the benchmark's depth-6 irreducible probes
    (g_expr((F(1, 5), 1), (F(2, 5), -1)), 6),
    (g_expr((F(1, 5), 1), (F(4, 5), -1)), 6),
    (g_expr((F(2, 5), 1), (F(3, 5), -1)), 6),
    (expr_from_spec(catalog_entry("C3k").spec), 6),
    (expr_from_spec(ProductSpec(
        FactoredRational.parse("(n+1/5)(n+3/7)/((n+2/5)(n+4/7))"),
        ExponentKind.PM_THUE, 1)), 5),
])
def test_reduce_reference_cases(expr, depth):
    assert_matches_reference(expr, depth)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_family_constants():
    assert family("i", 1, 2).closed_form.value == F(3, 2)
    assert family("ii", 0).closed_form.value == F(2)
    assert family("iii", F(1, 2)).closed_form.value == F(2, 3)
    assert family("iv", F(3, 4)).closed_form.value == F(6, 7)


def test_family_ii_is_i_with_shifted_b():
    a = F(2, 3)
    assert family("ii", a).spec.rational == family("i", a, a + 1).spec.rational


def test_family_iv_exclusions():
    with pytest.raises(InputError):
        family("iv", 0)
    with pytest.raises(InputError):
        family("iv", F(-1, 2))
    with pytest.raises(InputError):
        family("i", -1, 2)
    with pytest.raises(InputError):
        family("bogus", 1, 2)


@pytest.mark.parametrize("family_id", ["i", "ii", "iii", "iv"])
def test_family_requires_a(family_id):
    with pytest.raises(InputError, match="needs a"):
        family(family_id, None)


def test_family_degenerate_equal_parameters():
    ident = family("i", F(3, 2), F(3, 2))
    assert ident.spec.rational.is_one
    assert ident.closed_form.value == 1


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def test_catalog_has_eighteen_entries():
    entries = catalog()
    assert len(entries) == 18
    assert [e.name for e in entries] == [
        "WR", "C3b", "C3c", "C3d", "C3e", "C3f", "C3g", "C3h", "C3i", "C3j",
        "C3k", "C3l", "T5a", "T5b", "T5c", "T6a", "T6b", "GS"]


def test_catalog_entry_fields():
    wr = catalog_entry("WR")
    assert wr.spec.kind is ExponentKind.PM_THUE and wr.spec.start == 0
    assert power_product_exponents(wr.closed_form) == {2: F(-1, 2)}
    c3l = catalog_entry("C3l")
    assert c3l.spec.rational == FactoredRational.parse(
        "(8n+1)(8n+7)/((8n+3)(8n+5))")
    assert c3l.closed_form.value == F(1, 2)
    assert catalog_entry("C3c").spec.start == 1
    assert catalog_entry("GS").spec.start == 1
    assert catalog_entry("T6b").spec.kind is ExponentKind.ZERO_ONE_RS


def test_catalog_alias_and_unknown():
    for alias in ("C3a", "c3a", "C3A", "c3A"):
        assert catalog_entry(alias).name == "WR"
    assert catalog_entry("wr").name == "WR"
    with pytest.raises(InputError):
        catalog_entry("C9z")


def test_catalog_specs_validate():
    for entry in catalog():
        entry.spec.validate()


# ---------------------------------------------------------------------------
# Provenance re-derivations
# ---------------------------------------------------------------------------

def test_provenance_b_from_family_iii():
    inst = family("iii", F(1, 2))
    inverse = inst.spec.rational.regroup([(1, 0, -1)])
    assert inverse == catalog_entry("C3b").spec.rational
    # shift to start 0: multiply the family value's inverse by R(0)
    value = inverse.value_at(0) / inst.closed_form.value
    assert value == F(1, 2) == catalog_entry("C3b").closed_form.value


def test_provenance_d_from_family_i_and_wr():
    wr = FactoredRational.parse("(2n+1)/(2n+2)")
    inst = family("i", 1, 2)
    combined = product_of((inst.spec.rational, 1), (wr, 2))
    d = catalog_entry("C3d")
    assert combined == d.spec.rational
    # start-0 value: (family value * instance(0)) * (WR product)^2
    value = inst.closed_form.value * inst.spec.rational.value_at(0) * F(1, 2)
    assert value == d.closed_form.value == F(1, 2)


def test_provenance_e_from_family_i_and_wr():
    wr = FactoredRational.parse("(2n+1)/(2n+2)")
    inst = family("i", 1, F(3, 2))
    e = catalog_entry("C3e")
    assert product_of((inst.spec.rational, 1), (wr, 1)) == e.spec.rational
    value = inst.closed_form.value * inst.spec.rational.value_at(0)
    assert value == 1  # remaining factor: one Woods-Robbins product
    assert power_product_exponents(e.closed_form) == {2: F(-1, 2)}


def test_provenance_k_from_family_iv():
    inst = family("iv", F(3, 4))
    k = catalog_entry("C3k")
    assert inst.spec.rational == k.spec.rational
    assert inst.closed_form.value * inst.spec.rational.value_at(0) == \
        k.closed_form.value == 1


def test_provenance_l_from_family_i_and_b():
    inst = family("i", F(3, 4), F(1, 4))
    b = catalog_entry("C3b")
    l = catalog_entry("C3l")
    assert product_of((inst.spec.rational, 1), (b.spec.rational, 1)) == l.spec.rational
    value = (inst.closed_form.value * inst.spec.rational.value_at(0)
             * b.closed_form.value)
    assert value == l.closed_form.value == F(1, 2)


def test_provenance_h_is_f_over_b():
    f_ent, b_ent, h_ent = (catalog_entry(n) for n in ("C3f", "C3b", "C3h"))
    assert product_of((f_ent.spec.rational, 1), (b_ent.spec.rational, -1)) == h_ent.spec.rational


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_verify_woods_robbins():
    report = verify(catalog_entry("WR"))
    assert report.passed and report.symbolic_match is True
    assert float(report.abs_error) < 1e-30


def test_verify_c3f_close_to_one():
    # LIGHT's 6 levels and 1024 terms leave a tail of some 1e-27: verified
    # to 25 digits, not to LIGHT's 30
    assert not verify(catalog_entry("C3f"), LIGHT).passed
    report = verify(catalog_entry("C3f"), EvalOptions(precision=25, split_levels=6,
                                                      terms=1024))
    assert report.passed
    with mpmath.workdps(40):
        assert abs(report.computed - 1) < mpmath.mpf("1e-20")


def test_verify_t6a_within_rs_tolerance():
    report = verify(catalog_entry("T6a"))
    assert report.passed
    assert float(report.abs_error) < 1e-8


def test_verify_detects_wrong_constant():
    from digitprod.symbolic import Identity
    wrong = Identity("bogus", catalog_entry("WR").spec, Rat(F(1, 2)), "test")
    report = verify(wrong)
    assert not report.passed
    assert report.symbolic_match is False


def test_verify_tolerance_replaces_the_pass_rule(monkeypatch):
    # |computed - expected| <= tolerance decides, whatever the estimate;
    # WR at 60 digits is off by 9.06e-72
    wr, opts = catalog_entry("WR"), EvalOptions(precision=60)
    assert mpmath.nstr(verify(wr, opts).abs_error, 3) == "9.06e-72"
    assert verify(wr, opts, tolerance=1e-50).passed
    report = verify(wr, opts, tolerance=1e-80)
    assert not report.passed and report.symbolic_match is True
    # the exact reduction still gates a pm-t entry under any tolerance
    monkeypatch.setattr(symbolic, "reduce", lambda expr, depth=6: symbolic.ReduceResult(
        "irreducible", depth))
    report = verify(wr, opts, tolerance=1)
    assert not report.passed and report.symbolic_match is False


def test_verify_all_passes():
    # on the engine at 30 digits; an oracle's bound supports fewer (LIGHT's
    # Rudin-Shapiro sums of 1024 terms about 4)
    reports = verify_all(EvalOptions(precision=30))
    assert len(reports) == 18
    for report in reports:
        assert report.passed, report.name
        assert float(report.abs_error) < 1e-30
