"""digitprod benchmark: time to digits on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

This script builds the workload's calls from the seed, computes their
references with mpmath alone (see ``oracle.py``), then runs passes one
after another, each in a fresh interpreter (``pass_runner.py``), until
``--seconds`` are used.  It grades every output, writes one row per call
to ``perfbench/out/``, and prints one JSON line: the end-to-end metrics
with ``--trace 0``, or the per-layer metrics of traced passes with
``--trace 1`` (untraced and traced passes then alternate, and the
difference of their wall times is the tracing overhead).

It never imports ``digitprod`` and starts no threads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import mpmath

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
OVERRUN_S = 100  # a hung pass is stopped this long after --seconds
SETUP_SAMPLES = 5  # extra set-up-only interpreters per run, for a steady setup_s
KERNEL_REF_S = 1e-3  # reference speed: the calibration kernel takes 1 ms


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": metadata.version("numpy"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_pass(calls: list, traced: bool, timeout: float) -> dict:
    """Run one pass in a fresh interpreter; return its report or an error."""
    env = {key: value for key, value in os.environ.items()
           if key != "DIGITPROD_DIGITS"}
    # one thread per pass: no BLAS pool, and a fixed hash seed
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    job = json.dumps({"src": str(SRC), "calls": calls, "trace": traced})
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "pass_runner.py")],
                              input=job, capture_output=True, text=True,
                              env=env, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "pass did not finish in time",
                "elapsed": time.perf_counter() - started}
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        return {"error": f"pass exited {proc.returncode}: {proc.stderr[-2000:]}",
                "elapsed": elapsed}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["elapsed"] = elapsed
    report["traced"] = traced
    return report


def grade_pass(workload: workloads.Workload, report: dict) -> list:
    """One row per call: its time, digits, estimate, error and verdict."""
    rows = []
    for call, result in zip(workload.calls, report["calls"]):
        outputs = []
        problem = result["error"]
        if problem is None:
            try:
                outputs = workload.grade(call, result["out"])
            except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
                problem = f"malformed output: {type(exc).__name__}: {exc}"
            problem = problem or "; ".join(
                f"{o['label']}: {o['problem']}" for o in outputs if o["problem"]) or None
        worst = min(outputs, key=lambda o: o["achieved_digits"]) if outputs else {}
        rows.append({
            "call": call,
            "time_s": result["time_s"],
            "requested_digits": call["digits"],
            "achieved_digits": worst.get("achieved_digits", 0.0),
            "error_estimate": worst.get("error_estimate"),
            "actual_error": worst.get("actual_error"),
            "outputs": outputs,
            "failed": problem is not None,
            "problem": problem,
        })
    return rows


def reference_times(report: dict) -> dict:
    """Set-up and call times of one pass in reference seconds.

    Each time is scaled by KERNEL_REF_S over the mean of the calibration
    kernel timings just before and just after it, so that it reads as on
    a processor that runs the kernel in KERNEL_REF_S.  Processor speed on
    shared machines swings by 20-40 % for stretches of seconds to minutes;
    the kernel, which the package cannot affect, moves with it.
    """
    kernel = report["kernel_s"]
    scales = [2 * KERNEL_REF_S / (a + b) for a, b in zip(kernel, kernel[1:])]
    return {"setup_s": report["setup_s"] * scales[0],
            "calls": [c["time_s"] * s for c, s in zip(report["calls"], scales[1:])],
            "scales": scales[1:]}


def end_to_end(passes: list, setups: list, graded: list) -> dict:
    """Medians over the run's passes (and set-up-only interpreters)."""
    median = statistics.median
    timed = [reference_times(p) for p in passes]
    metrics = {
        "setup_s": median([reference_times(p)["setup_s"] for p in setups]
                          + [t["setup_s"] for t in timed]),
        "wall_s": median(math.fsum(t["calls"]) for t in timed),
        "call_p50_s": median(median(t["calls"]) for t in timed),
        "call_max_s": median(max(t["calls"]) for t in timed),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    metrics.update(workloads.summarize(graded))
    return metrics


def per_layer(passes: list) -> dict:
    """Medians over traced passes of self times (reference seconds) and
    counts; overhead from the untraced passes' wall times."""
    median = statistics.median
    samples = []
    for p in (p for p in passes if p["traced"]):
        timed = reference_times(p)
        per_call = p["trace"]["per_call"]
        values = {name: 0.0 for name in spans.GROUPS}
        values["trace.remainder_s"] = 0.0
        for i, (raw, scale) in enumerate(zip(p["calls"], timed["scales"])):
            selfs = per_call.get(str(i), {})
            for name, self_s in selfs.items():
                values[name] += self_s * scale
            values["trace.remainder_s"] += (raw["time_s"] - math.fsum(selfs.values())) * scale
        values.update(p["trace"]["counts"])
        values["wall"] = math.fsum(timed["calls"])
        samples.append(values)
    metrics = {name: median(v[name] for v in samples) for name in samples[0]}
    base = median(math.fsum(reference_times(p)["calls"])
                  for p in passes if not p["traced"])
    metrics["trace.overhead_frac"] = metrics.pop("wall") / base - 1
    return metrics


UNITS = {
    "setup_s": "s", "wall_s": "s", "call_p50_s": "s", "call_max_s": "s",
    "peak_rss_mb": "MB", "digits_min": "digits", "digits_frac_mean": "frac",
    "bound_slack_ratio": "ratio", "numerics.gamma_hit_ratio": "ratio",
    "trace.overhead_frac": "frac",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "digitprod" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = workloads.Workload(args.workload, args.seed)
    # byte-compile once so that every pass imports the same way
    compileall.compile_dir(str(SRC), quiet=1)

    deadline = time.perf_counter() + args.seconds

    def remaining():
        return deadline + OVERRUN_S - time.perf_counter()

    setups, problems = [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        report = run_pass([], False, remaining())
        if "error" in report:
            problems.append(report["error"])
            break
        setups.append(report)

    schedule = [False, True] if args.trace else [False]
    passes, rows = [], []
    longest = 0.0
    while not problems:
        traced = schedule[len(passes) % len(schedule)]
        report = run_pass(workload.calls, traced, remaining())
        longest = max(longest, report["elapsed"])
        passes.append(report)
        if "error" in report:
            problems.append(report["error"])
            break
        problems += report.get("trace", {}).get("problems", [])
        per_call = report.get("trace", {}).get("per_call", {})
        reference = reference_times(report)["calls"]
        rows += [row | {"pass": len(passes) - 1, "traced": traced,
                        "reference_time_s": reference[i],
                        "layers_self_s": per_call.get(str(i))}
                 for i, row in enumerate(grade_pass(workload, report))]
        if len(passes) >= len(schedule) and time.perf_counter() + longest > deadline:
            break

    complete = bool(passes) and not any("error" in p for p in passes)
    attempted = len(workload.calls) * max(1, len(passes))
    failed = sum(row["failed"] for row in rows) + (0 if complete else len(workload.calls))
    metrics = {}
    if complete:
        values = per_layer(passes) if args.trace else end_to_end(passes, setups, rows)
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in values.items()}
    result = {"correct": complete and failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "passes": [{k: p.get(k) for k in ("traced", "setup_s", "wall_s", "kernel_s",
                                          "peak_rss_mb", "elapsed", "error")}
                   for p in passes],
        "problems": problems, "rows": rows, "result": result,
    }, indent=1) + "\n")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    for row in rows:
        if row["failed"]:
            print(f"FAILED {row['call']}: {row['problem']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
