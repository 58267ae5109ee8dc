"""One command for the whole benchmark: every workload, untraced and traced.

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints, per workload, every end-to-end metric with its unit and the error
rate from the output checks, then the per-layer metrics of the traced run
with the same seed, the tracing overhead (traced minus untraced), how much
of op wall time the layer self times account for, and whether the layers
predicted to do no work on that workload (tracer.PREDICTED_ZERO) did none.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py failed on {workload} (trace {trace})")
    detail, result = done.stdout.strip().split("\n")[-2:]
    return json.loads(detail), json.loads(result)


def report(workload: str, seed: int, seconds: float) -> None:
    wl = WORKLOADS[workload]
    detail, result = _run(workload, seed, seconds, 0)
    tdetail, tresult = _run(workload, seed, seconds, 1)
    print(f"== {workload}  (seed {seed}, {seconds:g} s, closed loop, one caller)")
    for name, m in result["metrics"].items():
        label = f"{name} ({wl.work_alias})" if name == "work_per_s" else name
        print(f"  {label:34s} {m['value']:14.6g} {m['unit']}")
    tail = detail["op_ms_tail"]
    print(f"  {'op_ms_tail percentile':34s} p{tail['pct']:g}: {tail['beyond']} of "
          f"{tail['samples']} samples beyond")
    print(f"  {'error_rate':34s} {detail['error_rate']:14.6g} fraction "
          f"({detail['failed_ops']} of {detail['ops'] + detail['untimed_ops']} ops failed; "
          f"{result['failed']} of {result['attempted']} distinct inputs, "
          f"correct={result['correct']})")
    for cls, count in detail["failures"].items():
        flag = "  (not a known defect, or above its share)" if cls in \
            detail["unexpected_failure_classes"] else ""
        print(f"    {count:6d} ops, {detail['failing_inputs'][cls]:4d} of "
              f"{detail['distinct_inputs']} distinct inputs  {cls}{flag}")
    print(f"  traced run, per layer ({tresult['failed']} of {tresult['attempted']} distinct "
          f"inputs failed, "
          f"correct={tresult['correct']}):")
    for name, m in tresult["metrics"].items():
        print(f"    {name:32s} {m['value']:14.6g} {m['unit']}")
    tm = tresult["metrics"]
    accounted = sum(own for layer, own in tdetail["layer_self_s"].items() if layer != "op")
    print(f"  layer self times {accounted:.4g} s + untraced {tm['trace.untraced_s']['value']:.4g} s"
          f" = op wall {tm['trace.op_s']['value']:.4g} s")
    for label, traced, untraced in (("", tdetail, detail),
                                     (" (wall)", tdetail["wall"], detail["wall"])):
        print(f"  tracing overhead{label}: {wl.work_alias} "
              f"{traced[wl.work_alias] - untraced[wl.work_alias]:+.6g} 1/s, "
              f"op_ms_p50 {traced['op_ms_p50'] - untraced['op_ms_p50']:+.6g} ms")
    violations = tracer.predicted_zero_violations(workload, tm)
    print("  predicted zeros: " + ("all hold" if not violations else "; ".join(violations)))
    if tdetail["means_by_family"]:
        print("  means self time by family:")
        for family, row in sorted(tdetail["means_by_family"].items()):
            per = 1e9 * row["self_s"] / row["elements"] if row["elements"] else float("nan")
            print(f"    {family:10s} {row['self_s']:10.4g} s {row['elements']:12d} elements "
                  f"{per:10.3g} ns/element")
    print()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args()
    for workload in WORKLOADS:
        report(workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
