"""Record perfbench results for this checkout in ``BENCH_<label>.json``.

Usage (from anywhere; paths are taken relative to this file):

    python3 tools/bench_record.py --label main --seeds 1 2 3 --seconds 10
    python3 tools/bench_record.py --label ci --seeds 1 --seconds 2 --workloads tm-ladder

For every workload and seed it runs ``python3 perfbench/run.py`` twice,
untraced (``--trace 0``, the end-to-end metrics) and traced (``--trace 1``,
the per-layer metrics), and writes one JSON file at the repository root
with, per workload:

* ``end_to_end`` and ``per_layer``: each metric's median over the seeds,
  its unit and the value of every run;
* ``digits_min`` next to every time (unit ``s``): the lowest achieved
  digits of any call in the runs the time comes from, read from the
  per-call rows that ``perfbench/out/`` keeps;
* ``correct``, ``attempted`` and ``failed`` summed over all its runs.

The file also holds the environment block of ``perfbench/out/`` (Python,
mpmath and numpy versions, mpmath backend, processor count), the commit
measured, the seeds and the seconds.  Like perfbench, this script never
imports ``digitprod``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("catalog", "tm-ladder", "scan", "reduce")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line, lowest achieved digits and
    environment block."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "digits_min": min((row["achieved_digits"] for row in record["rows"]),
                              default=0.0),
            "environment": record["environment"]}


def aggregate(runs: list) -> dict:
    """Each metric's median over ``runs``, its unit and its value in every
    run; each run is ``{"result": <run.py's last line>, "digits_min":
    <lowest achieved digits of the run>}``.

    A metric missing from a run (a failed run has none) is left out of its
    list; every time carries the lowest ``digits_min`` of the runs it was
    taken from.
    """
    metrics = {}
    for name in dict.fromkeys(n for run in runs for n in run["result"]["metrics"]):
        measured = [run for run in runs if name in run["result"]["metrics"]]
        values = [run["result"]["metrics"][name]["value"] for run in measured]
        entry = {"value": statistics.median(values),
                 "unit": measured[0]["result"]["metrics"][name]["unit"],
                 "runs": values}
        if entry["unit"] == "s":
            entry["digits_min"] = min(run["digits_min"] for run in measured)
        metrics[name] = entry
    return metrics


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)

    report = {"label": args.label, "commit": commit(), "seeds": args.seeds,
              "seconds": args.seconds, "environment": None, "workloads": {}}
    for workload in args.workloads:
        untraced = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = [run_once(workload, seed, args.seconds, 1) for seed in args.seeds]
        every = untraced + traced
        report["environment"] = every[-1]["environment"]
        report["workloads"][workload] = {
            "correct": all(run["result"]["correct"] for run in every),
            "attempted": sum(run["result"]["attempted"] for run in every),
            "failed": sum(run["result"]["failed"] for run in every),
            "end_to_end": aggregate(untraced),
            "per_layer": aggregate(traced),
        }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
