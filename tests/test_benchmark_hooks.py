"""The benchmark harness in ``perfbench/`` finds package functions by name.

Its tracer wraps every ``(module, name)`` listed in ``perfbench/spans.py``
``TRACED``, also where ``evaluator._DISPATCH`` holds it, and every pass
reads ``numerics.gamma.cache_info``.  These tests keep those names
resolvable, so that removing or renaming one fails here rather than only
when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {SPANS}")


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module_name, name, _ in traced:
        module = importlib.import_module(f"digitprod.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_gamma_reports_cache_info():
    from digitprod import numerics
    info = numerics.gamma.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_dispatch_maps_every_kind_to_a_callable():
    # ``spans.install`` rewrites this dict's values in place, so that
    # ``eval_product`` reaches the wrapped evaluators
    from digitprod import evaluator
    from digitprod.sequences import ExponentKind
    assert set(evaluator._DISPATCH) == set(ExponentKind)
    assert all(callable(f) for f in evaluator._DISPATCH.values())
