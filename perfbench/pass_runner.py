"""One benchmark pass in a fresh interpreter.

Reads a job (JSON on stdin): the package source directory, the calls and
whether to trace.  Times the set-up (importing ``digitprod``, building
the CLI parser and the catalog), then each call, and writes one JSON
object to stdout with the raw outputs.  Grading happens in ``run.py``,
which never imports ``digitprod``.
"""

import contextlib
import io
import json
import resource
import sys
import time

_KERNEL_WORDS = [(3 ** j) << 200 for j in range(40)]


def calibrate() -> float:
    """Median of three timings of a fixed kernel of about 1 ms.

    The kernel mixes big-integer and Fraction arithmetic, like the
    package's hot loops, and shares no code with the package, so its time
    follows the processor's speed and nothing else.
    """
    from fractions import Fraction
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for n in range(1000, 1080):
            h = 0
            for word in _KERNEL_WORDS:
                h = (h + word) // n
        total = Fraction(0)
        for n in range(1, 130):
            total += Fraction(n, n * n + 1)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def exact(x):
    """An mpf as an exact (mantissa, exponent) pair."""
    man, exp = x.man_exp
    return [str(man), exp]


def main() -> int:
    job = json.load(sys.stdin)
    kernel_s = [calibrate()]  # brackets the set-up, then each call
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    from fractions import Fraction

    from digitprod import cli, evaluator, factored_rational, numerics, symbolic
    from digitprod.evaluator import EvalOptions, ProductSpec
    from digitprod.sequences import ExponentKind
    cli.build_parser()
    catalog = {identity.name: identity for identity in symbolic.catalog()}
    setup_s = time.perf_counter() - start
    kernel_s.append(calibrate())

    gamma_cache_info = numerics.gamma.cache_info
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer, {"cli": cli, "evaluator": evaluator,
                               "factored_rational": factored_rational,
                               "numerics": numerics, "symbolic": symbolic})

    def run(call):
        op = call["op"]
        opts = EvalOptions(precision=call["digits"])
        if op == "verify":
            return symbolic.verify(catalog[call["name"]], opts)
        if op == "cli":
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(call["argv"])
            return code, buffer.getvalue()
        if op == "scan":
            return evaluator.monotonicity_scan(Fraction(call["lo"]), Fraction(call["hi"]),
                                               call["steps"], opts)
        if op == "g":
            return evaluator.g_value(Fraction(call["x"]), opts)
        if op == "fm":
            return evaluator.flajolet_martin(opts)
        if op == "reduce":
            if call["source"] == "catalog":
                spec = catalog[call["name"]].spec
            elif call["source"] == "family":
                b = Fraction(call["b"]) if "b" in call else None
                spec = symbolic.family(call["family"], Fraction(call["a"]), b).spec
            else:
                rational = factored_rational.FactoredRational.from_offsets(
                    {Fraction(call["p"]): 1, Fraction(call["q"]): -1})
                spec = ProductSpec(rational, ExponentKind.PM_THUE, 1)
            return symbolic.reduce(symbolic.expr_from_spec(spec), call["depth"])
        raise ValueError(f"unknown op {op!r}")

    results = []
    for request, call in enumerate(job["calls"]):
        if tracer is not None:
            tracer.request = request
        t0 = time.perf_counter()
        try:
            result, error = run(call), None
        except Exception as exc:  # a failed call is a measured outcome
            result, error = None, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - t0, result, error))
        kernel_s.append(calibrate())
    wall_s = sum(elapsed for elapsed, _, _ in results)

    calls = []
    for call, (elapsed, result, error) in zip(job["calls"], results):
        out = None if error else describe(call["op"], result)
        calls.append({"time_s": elapsed, "error": error, "out": out})
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
    }
    if tracer is not None:
        import spans
        report["trace"] = spans.layer_report(tracer, wall_s, gamma_cache_info())
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


def describe(op, result):
    """The raw outputs of one call, with numbers exact."""
    if op == "verify":
        return {"computed": exact(result.computed), "expected": exact(result.expected),
                "error_estimate": exact(result.error_estimate),
                "passed": result.passed, "symbolic": result.symbolic_match}
    if op == "cli":
        code, stdout = result
        return {"exit": code, "stdout": stdout}
    if op == "scan":
        return {"points": [[str(p.x), exact(p.value), exact(p.error_estimate)]
                           for p in result.points],
                "decreasing": result.strictly_decreasing}
    if op == "g":
        return {"value": exact(result.value),
                "error_estimate": exact(result.error_estimate)}
    if op == "fm":
        return {"g0": [exact(result.g0.value), exact(result.g0.error_estimate)],
                "ratio": [exact(result.ratio.value), exact(result.ratio.error_estimate)],
                "phi": exact(result.phi), "phi_via_g0": exact(result.phi_via_g0)}
    return {"status": result.status, "depth": result.depth,
            "exponents": {str(p): str(e) for p, e in (result.exponents or {}).items()},
            "certificate": {str(x): str(v) for x, v in result.certificate.items()}}


if __name__ == "__main__":
    sys.exit(main())
