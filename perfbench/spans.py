"""Outside-in tracing: spans around the public functions of each layer.

``install`` replaces every module-level reference to a traced function
(its import sites, plus the evaluator's dispatch table) with a wrapper
that records a span.  Spans nest through a stack, so a span's self time
is its duration minus the durations of its direct children, and each
self time is charged to one metric group.  Spans stay in memory until
the pass ends.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, Dict, List

# (module, public function, per-layer metric that its self time is charged to)
TRACED = [
    ("cli", "main", "cli.self_s"),
    ("evaluator", "eval_product", "evaluator.self_s"),
    ("evaluator", "eval_pm_thue", "evaluator.self_s"),
    ("evaluator", "eval_pm_rs", "evaluator.self_s"),
    ("evaluator", "eval_plain", "evaluator.self_s"),
    ("evaluator", "eval_zero_one_thue", "evaluator.self_s"),
    ("evaluator", "eval_zero_one_rs", "evaluator.self_s"),
    ("evaluator", "f_value", "evaluator.self_s"),
    ("evaluator", "g_value", "evaluator.self_s"),
    ("evaluator", "flajolet_martin", "evaluator.self_s"),
    ("evaluator", "monotonicity_scan", "evaluator.self_s"),
    ("factored_rational", "dyadic_split", "factored_rational.split_s"),
    ("factored_rational", "rs_split_rational", "factored_rational.split_s"),
    ("numerics", "gamma", "numerics.gamma_s"),
    ("numerics", "log_fraction", "numerics.self_s"),
    ("numerics", "constant", "numerics.self_s"),
    ("numerics", "eval_closed_form", "numerics.self_s"),
    ("symbolic", "verify", "symbolic.self_s"),
    ("symbolic", "expr_from_spec", "symbolic.self_s"),
    ("symbolic", "family", "symbolic.self_s"),
    ("symbolic", "reduce", "symbolic.reduce_s"),
]

GROUPS = ["cli.self_s", "evaluator.self_s", "factored_rational.split_s",
          "numerics.gamma_s", "numerics.self_s", "symbolic.reduce_s",
          "symbolic.self_s"]

COUNTS = ["evaluator.calls", "evaluator.terms", "factored_rational.split_calls",
          "factored_rational.split_factors", "numerics.gamma_calls",
          "symbolic.reduce_calls", "symbolic.solves", "symbolic.certificate_terms"]

# The engines that do the summation; counting here counts each
# evaluation once however it was reached.
ENGINES = {"eval_pm_thue", "eval_pm_rs", "eval_plain"}


def _counts(name: str, result) -> Dict[str, int]:
    if name in ENGINES:
        return {"evaluator.calls": 1, "evaluator.terms": result.terms_used}
    if name == "dyadic_split":
        return {"factored_rational.split_calls": 1,
                "factored_rational.split_factors": len(result[0].factors)}
    if name == "rs_split_rational":
        return {"factored_rational.split_calls": 1,
                "factored_rational.split_factors": len(result.factors)}
    if name == "gamma":
        return {"numerics.gamma_calls": 1}
    if name == "reduce":
        return {"symbolic.reduce_calls": 1, "symbolic.solves": result.depth + 1,
                "symbolic.certificate_terms": len(result.certificate)}
    return {}


class Span:
    __slots__ = ("group", "name", "request", "parent", "start", "end", "children")

    def __init__(self, group, name, request, parent, start):
        self.group = group
        self.name = name
        self.request = request
        self.parent = parent
        self.start = start
        self.end = start
        self.children = 0.0  # summed durations of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """Records spans; ``request`` tags the spans of one benchmark call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.request = 0
        self._stack: List[Span] = []

    def wrap(self, fn: Callable, group: str, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(group, name, self.request, parent, self.clock())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent.children += span.duration
                self.spans.append(span)
            for key, value in _counts(name, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced


def install(tracer: Tracer, modules: Dict[str, object]) -> None:
    """Replace every module-level reference to a traced function, and the
    evaluator's dispatch table entries."""
    wrappers = {}
    for module_name, name, group in TRACED:
        original = getattr(modules[module_name], name)
        wrappers[id(original)] = (original, tracer.wrap(original, group, name))
    sites = [vars(module) for module in modules.values()]
    sites.append(modules["evaluator"]._DISPATCH)
    for site in sites:
        for key, value in list(site.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                site[key] = hit[1]


def attribution(spans: List[Span], wall: float) -> dict:
    """Self time per group, overall and per call, plus the untraced
    remainder of ``wall``.

    The group self times and the remainder must sum to ``wall``; every
    self time and the remainder must be non-negative.
    """
    selfs = {group: 0.0 for group in GROUPS}
    per_call: Dict[int, Dict[str, float]] = {}
    for span in spans:
        selfs[span.group] += span.self_time
        groups = per_call.setdefault(span.request, {})
        groups[span.group] = groups.get(span.group, 0.0) + span.self_time
    roots = math.fsum(s.duration for s in spans if s.parent is None)
    remainder = wall - roots
    total = math.fsum(selfs.values()) + remainder
    tolerance = 1e-9 * max(1, len(spans)) + 1e-12 * wall
    problems = []
    if any(s.self_time < -tolerance for s in spans):
        problems.append("a span's children outlast it")
    if remainder < -tolerance:
        problems.append("spans cover more than the pass")
    if abs(total - wall) > tolerance:
        problems.append(f"self times plus remainder {total} differ from wall {wall}")
    return {"self_s": selfs, "per_call": per_call, "remainder_s": remainder,
            "problems": problems}


def layer_report(tracer: Tracer, wall: float, gamma_info) -> dict:
    """Per-call self times by metric, work counts and the attribution check."""
    split = attribution(tracer.spans, wall)
    counts = {key: tracer.counts.get(key, 0) for key in COUNTS}
    lookups = gamma_info.hits + gamma_info.misses
    counts["numerics.gamma_hit_ratio"] = gamma_info.hits / lookups if lookups else 0.0
    return {"per_call": split["per_call"], "counts": counts,
            "problems": split["problems"]}
