"""``tools/bench_record.py``'s aggregation, on canned perfbench result lines."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def line(wall, digits_min):
    # the last line of ``perfbench/run.py --trace 0``, cut to three metrics
    return {"correct": True, "attempted": 66, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "digits_min": {"value": digits_min, "unit": "digits"},
                        "peak_rss_mb": {"value": 25.0, "unit": "MB"}}}


def test_aggregate_takes_medians_and_puts_digits_next_to_times():
    runs = [{"result": line(0.18, 60.0), "digits_min": 60.0},
            {"result": line(0.30, 60.0), "digits_min": 59.5},
            {"result": line(0.20, 60.0), "digits_min": 60.0}]
    metrics = bench_record.aggregate(runs)
    assert list(metrics) == ["wall_s", "digits_min", "peak_rss_mb"]
    assert metrics["wall_s"] == {"value": 0.20, "unit": "s",
                                 "runs": [0.18, 0.30, 0.20], "digits_min": 59.5}
    # only times carry digits
    assert metrics["digits_min"] == {"value": 60.0, "unit": "digits",
                                     "runs": [60.0, 60.0, 60.0]}
    assert "digits_min" not in metrics["peak_rss_mb"]


def test_aggregate_skips_a_run_without_metrics():
    failed = {"result": {"correct": False, "attempted": 66, "failed": 66,
                         "metrics": {}}, "digits_min": 0.0}
    metrics = bench_record.aggregate([{"result": line(0.18, 60.0), "digits_min": 60.0},
                                      failed])
    assert metrics["wall_s"]["runs"] == [0.18]
    assert metrics["wall_s"]["digits_min"] == 60.0
