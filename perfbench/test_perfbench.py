"""Self-tests of the benchmark harness: grading, references and tracing.

Run with ``python3 -m pytest perfbench`` from the repository root.  They
use synthetic inputs and mpmath only, except where noted.
"""

import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- grading -----------------------------------------------------------------

def _graded(value, estimate, digits=60):
    with mpmath.workdps(100):
        return workloads.grade("x", mpmath.mpf(value), mpmath.mpf(estimate),
                               mpmath.mpf(1) / 3, digits)


def test_perturbed_value_fails():
    with mpmath.workdps(100):
        good = _graded(mpmath.mpf(1) / 3 + mpmath.mpf("1e-45"), "1e-42")
        bad = _graded(mpmath.mpf(1) / 3 + mpmath.mpf("1e-30"), "1e-42")
    assert good["problem"] is None
    assert bad["problem"] is not None


def test_bound_that_does_not_cover_its_error_fails():
    with mpmath.workdps(100):
        row = _graded(mpmath.mpf(1) / 3 + mpmath.mpf("1e-40"), "1e-41")
    assert row["problem"] is not None
    assert row["slack"] < 1


def test_failures_raise_failed_frac():
    """``run.py`` counts a call as failed when any output has a problem."""
    import run

    class Stub(workloads.Workload):
        def __init__(self, outputs):
            self.calls = [{"op": "stub", "digits": 60}] * len(outputs)
            self._outputs = outputs

        def grade(self, call, out):
            return self._outputs[out]

    with mpmath.workdps(100):
        third = mpmath.mpf(1) / 3
        outputs = [[_graded(third + mpmath.mpf("1e-45"), "1e-42")],
                   [_graded(third + mpmath.mpf("1e-30"), "1e-42")],
                   [_graded(third + mpmath.mpf("1e-40"), "1e-41")]]
    report = {"calls": [{"time_s": 0.1, "error": None, "out": i} for i in range(3)]
              + [{"time_s": 0.1, "error": "ValueError: boom", "out": None}]}
    stub = Stub(outputs + [[]])
    rows = run.grade_pass(stub, report)
    assert [row["failed"] for row in rows] == [False, True, True, True]


def test_digits_are_capped_and_exact_outputs_have_unit_slack():
    with mpmath.workdps(100):
        row = _graded(mpmath.mpf(1) / 3, "1e-70")
    assert row["achieved_digits"] == 60 and row["slack"] == 1
    exact = workloads.grade_exact("r", [], 60)
    assert exact["achieved_digits"] == 60 and exact["slack"] == 1
    assert workloads.grade_exact("r", ["wrong"], 60)["problem"] == "wrong"


def test_numbers_cross_the_process_boundary_exactly():
    with mpmath.workdps(200):
        x = mpmath.sqrt(2)
        man, exp = x.man_exp
    assert workloads.decode([str(man), exp]) == x


# -- references ----------------------------------------------------------------

@pytest.fixture(scope="module")
def tm():
    return oracle.ThueMorseOracle(60, Fraction(4))


def test_thue_morse_oracle_reproduces_closed_forms(tm):
    with mpmath.workdps(70):
        # Woods-Robbins: (1/2) f(1/2, 1) = 2^(-1/2); g(1/2) = 1 so h(1/2) = 3/2
        wr = tm.product({Fraction(1, 2): 1, Fraction(1): -1}) / 2
        assert abs(wr - 1 / mpmath.sqrt(2)) < mpmath.mpf(10) ** -65
        assert abs(tm.h(Fraction(1, 2)) - mpmath.mpf(3) / 2) < mpmath.mpf(10) ** -65
        # Flajolet-Martin: R g(0) = 3/2
        ratio = tm.product(workloads.FM_RATIO_OFFSETS)
        assert abs(ratio * tm.h(Fraction(0)) - mpmath.mpf(3) / 2) < mpmath.mpf(10) ** -65


def test_thue_morse_oracle_does_not_depend_on_its_tail_start(tm):
    other = oracle.ThueMorseOracle(60, Fraction(4), m=128)
    with mpmath.workdps(70):
        assert abs(tm.h(Fraction(37, 8)) - other.h(Fraction(37, 8))) < mpmath.mpf(10) ** -65


def test_closed_form_trees_use_mpmath_constants():
    refs = workloads.load_references()
    assert len(refs) == 18
    with mpmath.workdps(50):
        t6b = oracle.eval_tree(refs["T6b"]["closed_form"], 40)
        assert abs(t6b - 8 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(0.25) ** 2) < 1e-38
        t5c = oracle.eval_tree(refs["T5c"]["closed_form"], 40)
        assert abs(t5c - mpmath.sqrt(2 * mpmath.sqrt(2) - 2)) < 1e-38


def test_product_text_parser():
    offsets, at_zero = oracle.parse_product_text("(2n-1)(4n+1)/((2n+1)(4n-1))")
    assert offsets == {Fraction(-1, 2): 1, Fraction(1, 4): 1,
                       Fraction(1, 2): -1, Fraction(-1, 4): -1}
    assert at_zero == 1
    offsets, at_zero = oracle.parse_product_text("(2n+1)^2/((n+1)(4n+1))")
    assert offsets == {Fraction(1, 2): 2, Fraction(1): -1, Fraction(1, 4): -1}


# -- exact certificates --------------------------------------------------------

def test_certificate_check_accepts_a_true_relation_and_rejects_a_wrong_one():
    # r_1: G(1/2) - G(1) - G(1) = log 2, so -G(1/2) + 2G(1) reduces to 1/2
    target = {Fraction(1, 2): Fraction(-1), Fraction(1): Fraction(2)}
    certificate = {Fraction(1): Fraction(-1)}
    expected = oracle.rational_exponents(Fraction(1, 2))
    assert oracle.certificate_problems(certificate, target, {}, expected) == []
    assert oracle.certificate_problems({Fraction(1): Fraction(-2)}, target, {}, expected)
    assert oracle.certificate_problems(certificate, target, {},
                                       oracle.rational_exponents(Fraction(2)))


# -- tracing -------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_and_remainder_sum_to_wall():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def outer(inner):
        clock.now += 1.0
        inner()
        clock.now += 0.5

    leaf_t = tracer.wrap(leaf, "factored_rational.split_s", "dyadic_split_stub")
    outer_t = tracer.wrap(outer, "evaluator.self_s", "outer")
    clock.now += 0.25          # untraced harness time
    outer_t(leaf_t)
    clock.now += 0.25
    split = spans.attribution(tracer.spans, wall=4.0)
    assert split["self_s"]["evaluator.self_s"] == pytest.approx(1.5)
    assert split["self_s"]["factored_rational.split_s"] == pytest.approx(2.0)
    assert split["remainder_s"] == pytest.approx(0.5)
    assert split["problems"] == []
    # a wall that the spans overrun is reported
    assert spans.attribution(tracer.spans, wall=3.0)["problems"]


def test_install_wraps_every_import_site():
    import types
    tracer = spans.Tracer()
    modules = {}
    for name in ("cli", "evaluator", "factored_rational", "numerics", "symbolic"):
        modules[name] = types.ModuleType(name)
    for module_name, fn_name, _ in spans.TRACED:
        setattr(modules[module_name], fn_name, (lambda n: lambda *a: n)(fn_name))
    engine = modules["evaluator"].eval_pm_thue
    modules["evaluator"]._DISPATCH = {"pm-t": engine}
    modules["cli"].eval_pm_thue = engine  # a second import site
    spans.install(tracer, modules)
    assert modules["cli"].eval_pm_thue is modules["evaluator"].eval_pm_thue
    assert modules["evaluator"]._DISPATCH["pm-t"] is modules["evaluator"].eval_pm_thue
    assert modules["evaluator"].eval_pm_thue is not engine
    modules["symbolic"].family()
    assert [s.name for s in tracer.spans] == ["family"]


def test_reference_times_follow_the_calibration_kernel():
    import run
    ref = run.KERNEL_REF_S
    # a pass on a processor at half the reference speed, which sped up
    # to the reference speed during the second call
    report = {"setup_s": 0.4, "kernel_s": [2 * ref, 2 * ref, 2 * ref, ref],
              "calls": [{"time_s": 1.0}, {"time_s": 1.5}]}
    timed = run.reference_times(report)
    assert timed["setup_s"] == pytest.approx(0.2)
    assert timed["calls"] == pytest.approx([0.5, 1.0])
