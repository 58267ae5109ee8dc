"""The benchmark recorder's per-metric summary, on synthetic pairs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _pair(parent: dict, change: dict) -> dict:
    def side(values):
        return {"metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}
    return {"parent": side(parent), "change": side(change)}


def test_summary_signs_changes_so_positive_is_worse_and_flags_bounds():
    bounds = {"work_per_s": {"better": "higher", "bound": 0.25},
              "op_ms_p50": {"better": "lower", "bound": 0.25},
              "peak_rss_mb": {"better": "lower", "bound": 0.15}}
    pairs = [_pair({"work_per_s": w0, "op_ms_p50": t0, "peak_rss_mb": r0, "extra": 1.0},
                   {"work_per_s": w1, "op_ms_p50": t1, "peak_rss_mb": r1, "extra": 9.0})
             for w0, w1, t0, t1, r0, r1 in [(100.0, 120.0, 1.0, 0.8, 90.0, 100.0),
                                            (110.0, 60.0, 1.2, 1.0, 90.0, 110.0),
                                            (90.0, 70.0, 1.0, 0.9, 100.0, 120.0)]]
    summary = bench_record._summary(pairs, bounds)
    work = summary["work_per_s"]
    assert (work["better"], work["parent_median"], work["change_median"]) == ("higher", 100.0, 70.0)
    assert work["change_wins"] == 1 and work["pairs"] == 3
    assert work["parent_quartiles"] == [90.0, 110.0]
    # 30% fewer ops per second: worse, beyond 0.25
    assert work["change_rel"] == pytest.approx(0.3) and work["beyond_bound"]
    p50 = summary["op_ms_p50"]
    assert p50["better"] == "lower" and p50["change_wins"] == 3
    # 10% faster: a negative (better) change, never beyond its bound
    assert p50["change_rel"] == pytest.approx(-0.1) and not p50["beyond_bound"]
    rss = summary["peak_rss_mb"]
    # 90 -> 110 MB is 22% worse: inside 0.25, beyond the tighter 0.15
    assert rss["change_rel"] == pytest.approx(20.0 / 90.0) and rss["beyond_bound"]
    # a metric BENCHMARK.json does not declare has no bound to pass
    extra = summary["extra"]
    assert extra["better"] == "lower" and extra["change_rel"] == pytest.approx(8.0)
    assert not extra["beyond_bound"]


def test_bounds_come_from_the_declared_end_to_end_metrics():
    bounds = bench_record._bounds()
    assert bounds["work_per_s"]["better"] == "higher"
    assert all(m["better"] in ("higher", "lower") and m["bound"] > 0 for m in bounds.values())
