"""The package's frozen records: construction, immutability, equality,
hashing, repr, copy and pickle, one case per class."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from mpmath import mpf

from digitprod import InputError, evaluator, numerics, symbolic
from digitprod import factored_rational as fr
from digitprod.sequences import ExponentKind

WR = fr.FactoredRational(F(1), 2, ((1, 1), (2, -1)))
SPEC = evaluator.ProductSpec(WR, ExponentKind.PM_THUE, 1)
RESULT = evaluator.EvalResult(mpf(0.5), mpf(0), 32, 0)
HALF = numerics.Rat(F(1, 2))
PI = numerics.Const("pi")
SPEC_REPR = ("ProductSpec(rational=FactoredRational(scale=Fraction(1, 1), "
             "denominator=2, numerators=((1, 1), (2, -1))), "
             "kind=<ExponentKind.PM_THUE: 'pm-t'>, start=1)")
RESULT_REPR = ("EvalResult(value=mpf('0.5'), error_estimate=mpf('0.0'), "
               "terms_used=32, split_levels=0)")

# (class, fields in order with a value each, the fields left to their
# defaults in the keyword form, a field and another value for it, repr)
CASES = [
    (numerics.Rat, {"value": F(1, 2)}, (), ("value", F(1, 3)),
     "Rat(value=Fraction(1, 2))"),
    (numerics.Const, {"name": "pi"}, (), ("name", "euler_gamma"),
     "Const(name='pi')"),
    (numerics.Pow, {"base": HALF, "exponent": F(-1, 2)}, (), ("exponent", F(1)),
     "Pow(base=Rat(value=Fraction(1, 2)), exponent=Fraction(-1, 2))"),
    (numerics.Mul, {"factors": (HALF, PI)}, (), ("factors", (PI,)),
     "Mul(factors=(Rat(value=Fraction(1, 2)), Const(name='pi')))"),
    (numerics.Sub, {"left": HALF, "right": PI}, (), ("right", HALF),
     "Sub(left=Rat(value=Fraction(1, 2)), right=Const(name='pi'))"),
    (fr.AffineFactor, {"offset": F(1, 2), "multiplicity": -1}, (),
     ("multiplicity", 2), "AffineFactor(offset=Fraction(1, 2), multiplicity=-1)"),
    (fr.FactoredRational,
     {"scale": F(1), "denominator": 2, "numerators": ((1, 1), (2, -1))}, (),
     ("scale", F(2)),
     "FactoredRational(scale=Fraction(1, 1), denominator=2, "
     "numerators=((1, 1), (2, -1)))"),
    (fr.ConvergenceClass, {"tag": fr.ConvergenceTag.DIVERGENT, "detail": "d"}, (),
     ("detail", "e"),
     "ConvergenceClass(tag=<ConvergenceTag.DIVERGENT: 'divergent'>, detail='d')"),
    (evaluator.ProductSpec, {"rational": WR, "kind": ExponentKind.PM_THUE,
                             "start": 1}, (), ("start", 0), SPEC_REPR),
    (evaluator.EvalOptions, {"precision": 60, "split_levels": None, "terms": 64,
                             "rs_split_levels": None},
     ("precision", "split_levels", "rs_split_levels"), ("terms", 128),
     "EvalOptions(precision=60, split_levels=None, terms=64, rs_split_levels=None)"),
    (evaluator.EvalResult, {"value": mpf(0.5), "error_estimate": mpf(0),
                            "terms_used": 32, "split_levels": 0}, (),
     ("terms_used", 64), RESULT_REPR),
    (evaluator._Automaton, {"name": "Thue-Morse", "sign": -1, "twisted": False,
                            "max_offset": 64, "tail_start": 32}, (),
     ("tail_start", 64),
     "_Automaton(name='Thue-Morse', sign=-1, twisted=False, max_offset=64, "
     "tail_start=32)"),
    (evaluator.FlajoletMartin, {"g0": RESULT, "ratio": RESULT, "phi": mpf(1),
                                "phi_via_g0": mpf(1), "cross_check_error": mpf(0),
                                "phi_error": mpf(0)}, (), ("phi", mpf(2)),
     f"FlajoletMartin(g0={RESULT_REPR}, ratio={RESULT_REPR}, phi=mpf('1.0'), "
     "phi_via_g0=mpf('1.0'), cross_check_error=mpf('0.0'), phi_error=mpf('0.0'))"),
    (evaluator.SignProbeRow, {"n": 3, "sign": 1, "expected": -1}, (),
     ("sign", -1), "SignProbeRow(n=3, sign=1, expected=-1)"),
    (evaluator.ScanPoint, {"x": F(1, 4), "value": mpf(1), "error_estimate": mpf(0)},
     (), ("x", F(1, 2)),
     "ScanPoint(x=Fraction(1, 4), value=mpf('1.0'), error_estimate=mpf('0.0'))"),
    (evaluator.ScanReport, {"points": [], "violations": [(F(0), F(1))]}, (),
     ("violations", []),
     "ScanReport(points=[], violations=[(Fraction(0, 1), Fraction(1, 1))])"),
    (symbolic.GExpression, {"terms": ((F(1, 2), F(1)),), "log_const": ()},
     ("log_const",), ("terms", ()),
     "GExpression(terms=((Fraction(1, 2), Fraction(1, 1)),), log_const=())"),
    (symbolic.ReduceResult, {"status": "irreducible", "depth": 6,
                             "closed_form": None, "exponents": None,
                             "certificate": {}, "residual": None},
     ("closed_form", "exponents", "certificate", "residual"), ("depth", 7),
     "ReduceResult(status='irreducible', depth=6, closed_form=None, "
     "exponents=None, certificate={}, residual=None)"),
    (symbolic.Identity, {"name": "WR", "spec": SPEC, "closed_form": HALF,
                         "provenance": "p"}, (), ("provenance", "q"),
     f"Identity(name='WR', spec={SPEC_REPR}, closed_form=Rat(value=Fraction(1, 2)), "
     "provenance='p')"),
    (symbolic.VerifyReport, {"name": "WR", "computed": mpf(1), "expected": mpf(1),
                             "abs_error": mpf(0), "passed": True,
                             "tolerance": mpf(0), "error_estimate": mpf(0),
                             "symbolic_match": None}, (), ("passed", False),
     "VerifyReport(name='WR', computed=mpf('1.0'), expected=mpf('1.0'), "
     "abs_error=mpf('0.0'), passed=True, tolerance=mpf('0.0'), "
     "error_estimate=mpf('0.0'), symbolic_match=None)"),
]


def fields_of(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, values, defaulted, changed, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record(cls, values, defaulted, changed, text):
    names = tuple(values)
    r = cls(*values.values())
    assert fields_of(r, names) == tuple(values.values())
    keyword = cls(**{k: v for k, v in values.items() if k not in defaulted})
    assert fields_of(keyword, names) == fields_of(r, names)
    assert repr(r) == text

    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert fields_of(r, names) == tuple(values.values())

    other = cls(**dict(values, **{changed[0]: changed[1]}))
    assert r != other
    assert r.__eq__(object()) is NotImplemented

    copies = [copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))]
    for c in copies:
        assert type(c) is cls and c is not r
        assert fields_of(c, names) == fields_of(r, names)
    if cls is evaluator._Automaton:
        # the engine's memo is keyed on the automaton itself
        assert r == r and r != keyword and all(c != r for c in copies)
        assert hash(r) == object.__hash__(r)
        return
    assert r == keyword and all(c == r for c in copies)
    try:
        expected = hash(fields_of(r, names))
    except TypeError:  # a list or dict field
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected == hash(keyword)


def test_record_checks_run_in_init():
    with pytest.raises(InputError, match="precision"):
        evaluator.EvalOptions(precision=0)
    with pytest.raises(InputError, match="terms"):
        evaluator.EvalOptions(terms=8)
    with pytest.raises(InputError, match="scale"):
        fr.FactoredRational(F(0), 1, ())


def test_reduce_result_certificates_are_not_shared():
    a = symbolic.ReduceResult("irreducible", 1)
    b = symbolic.ReduceResult("irreducible", 1)
    assert a.certificate == {} and a.certificate is not b.certificate
