"""The benchmark: one closed-loop workload, checked, with end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each is here): integral_chains,
compare_sweep, discrete_bulk, cli_cold.  The seed fixes the generated
inputs.  With ``--trace 0`` the ops run untraced for S seconds in a fresh
interpreter and the end-to-end metrics of BENCHMARK.json are reported;
set-up time is the median over several fresh interpreters.  With
``--trace 1`` the same inputs go through the layer tracer and the per-layer
metrics are reported.  Every op's output is checked after the run.

The last stdout line is the result object; the line before it holds the
details (throughput under its workload name, the tail percentile and its
sample count, error rate, failures by class, and for traced runs the
per-family split of means self time).  Scratch files go under
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH_DIR, SRC_DIR]

import checks  # noqa: E402
import tracer  # noqa: E402
from worker import REF_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

REF_WINDOW_S = 1.0        # reference-kernel samples this close to an op set its speed
# The ops speed up less than the reference kernel when the machine does: over
# ten seeds per workload, scaling by (kernel speed) ** 0.65 to 0.8 left the
# least spread between runs on all four workloads, and 1.0 overcorrected.
SPEED_EXPONENT = 0.7
SETUP_PROBES = 6          # set-up-only interpreters; the timed worker is one more sample
RUN_BUDGET_S = 170        # every worker must be done by then, so run.py ends inside 180 s


def _worker(run_dir: str, mode: str, deadline: float) -> dict:
    # own session, so a worker that overruns is killed with any CLI child it started
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"), run_dir, mode],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker ({mode}) did not finish within {RUN_BUDGET_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    path = os.path.join(run_dir, f"result-{mode}.pkl")
    with open(path, "rb") as fh:
        result = pickle.load(fh)
    os.remove(path)
    return result


def _check(name: str, pool: list, outputs: list) -> tuple:
    """Check each distinct input once; every repeat must match its first output.

    Returns the failed op count, the number of distinct inputs that failed,
    failed ops and failing distinct inputs by class, and a few examples.
    """
    if name == "discrete_bulk":
        from ineqmeans import chain_catalog
        specs = chain_catalog()
        x, y = pool[0]["x"], pool[0]["y"]

        def check_one(k, out):
            return checks.check_discrete(specs[k], x, y, out)
    else:
        check = {"integral_chains": checks.check_chain, "compare_sweep": checks.check_verdict,
                 "cli_cold": checks.check_cli}[name]

        def check_one(k, out):
            return check(pool[k], out)

    first, verdicts = {}, {}
    by_class, failed, examples = Counter(), 0, []
    inputs_by_class = {}
    for k, out in outputs:
        if k not in first:
            first[k] = out
            verdicts[k] = check_one(k, out)
            examples.extend(f"{k}: {cls}: {detail}" for cls, detail in verdicts[k])
        classes = {cls for cls, _ in verdicts[k]}
        if out != first[k]:
            classes.add("nondeterministic")
        for cls in classes:
            inputs_by_class.setdefault(cls, set()).add(k)
        by_class.update(classes)
        failed += bool(classes)
    failing_inputs = {cls: len(ks) for cls, ks in inputs_by_class.items()}
    failed_inputs = len(set().union(*inputs_by_class.values()))
    return failed, failed_inputs, dict(by_class), failing_inputs, examples[:8]


def _at_reference_speed(latencies: list, starts: list, refs: list) -> list:
    """Op times scaled to the reference kernel's nominal speed.

    Each op's time is multiplied by REF_NOMINAL_S over the median reference
    kernel time measured within REF_WINDOW_S of the op, to the power
    SPEED_EXPONENT, which takes out the machine's own speed changes while the
    op ran.
    """
    ref_t = [t for t, _ in refs]
    ref_d = [d for _, d in refs]
    scaled = []
    for t, d in zip(starts, latencies):
        lo = bisect.bisect_left(ref_t, t - REF_WINDOW_S)
        hi = bisect.bisect_right(ref_t, t + d + REF_WINDOW_S)
        if hi == lo:  # no sample in the window: take the nearest one
            lo = min(bisect.bisect_left(ref_t, t), len(ref_t) - 1)
            hi = lo + 1
        scaled.append(d * (REF_NOMINAL_S / statistics.median(ref_d[lo:hi])) ** SPEED_EXPONENT)
    return scaled


def _tail(latencies: list, pct: float) -> dict:
    ordered = sorted(latencies)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return {"pct": pct, "ms": 1e3 * value, "samples": len(ordered),
            "beyond": sum(1 for v in ordered if v > value)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC_DIR, "ineqmeans", "__init__.py")):
        print(f"run.py: no library source at {SRC_DIR}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    pool = generate(wl.name, args.seed, run_dir)
    with open(os.path.join(run_dir, "pool.pkl"), "wb") as fh:
        pickle.dump(pool, fh)
    with open(os.path.join(run_dir, "job.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seconds": args.seconds,
                   "whole_cycles": wl.whole_cycles, "trace_cycles": wl.trace_cycles}, fh)

    if args.trace:
        result = _worker(run_dir, "traced", deadline)
    else:
        # the first interpreter also writes the bytecode caches; it is not a sample
        _worker(run_dir, "setup", deadline)
        setups = [_worker(run_dir, "setup", deadline) for _ in range(SETUP_PROBES)]
        result = _worker(run_dir, "timed", deadline)
        setups.append(result)
    os.remove(os.path.join(run_dir, "pool.pkl"))

    outputs, latencies = result["outputs"], result["latencies"]
    checked = outputs + result["untimed_outputs"]
    failed, failed_inputs, failures, failing_inputs, examples = _check(wl.name, pool, checked)
    distinct = len({k for k, _ in checked})
    unexpected = checks.over_share(wl.name, failing_inputs, distinct)
    scaled = _at_reference_speed(latencies, result["starts"], result["refs"])
    work_per_s = result["work"] / sum(scaled)
    p50_ms = 1e3 * statistics.median(scaled)
    tail = _tail(scaled, wl.tail_pct)
    wall_tail = _tail(latencies, wl.tail_pct)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "ops": len(outputs), "untimed_ops": len(result["untimed_outputs"]),
              "distinct_inputs": distinct,
              wl.work_alias: work_per_s, "op_ms_p50": p50_ms, "op_ms_tail": tail,
              "wall": {wl.work_alias: result["work"] / sum(latencies),
                       "op_ms_p50": 1e3 * statistics.median(latencies),
                       "op_ms_tail": wall_tail["ms"]},
              "machine_speed": REF_NOMINAL_S / statistics.median(d for _, d in result["refs"]),
              "error_rate": failed / len(checked), "failed_ops": failed, "failures": failures,
              "failing_inputs": failing_inputs,
              "unexpected_failure_classes": unexpected, "failure_examples": examples}
    if wl.name == "discrete_bulk":
        detail["vector_length"] = len(pool[0]["x"])
        detail["vector_bytes"] = int(pool[0]["x"].nbytes)

    if args.trace:
        summary = result["trace"]
        metrics = {name: {"value": value, "unit": tracer.unit_of(name)}
                   for name, value in tracer.layer_metrics(summary, len(outputs)).items()}
        detail["means_by_family"] = {
            family: {"self_s": own, "elements": summary["counts"].get("means.elements." + family, 0)}
            for family, own in summary["family_self_s"].items()}
        detail["layer_self_s"] = tracer.layer_self_s(summary)
        detail["spans_file"] = os.path.relpath(os.path.join(run_dir, "spans.csv"), ROOT)
        detail["spans_dropped"] = summary["spans_dropped"]
    else:
        rss_kb = result["children_maxrss_kb"] if wl.name == "cli_cold" else result["maxrss_kb"]
        setup_scaled = [r["setup_s"] * (REF_NOMINAL_S / r["setup_ref_s"]) ** SPEED_EXPONENT
                        for r in setups]
        detail["setup_samples_s"] = setup_scaled
        detail["wall"]["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        metrics = {
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            "op_ms_p50": {"value": p50_ms, "unit": "ms"},
            "op_ms_tail": {"value": tail["ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    with open(os.path.join(run_dir, "latencies.json"), "w", encoding="utf-8") as fh:
        json.dump({"wall_s": latencies, "at_reference_speed_s": scaled,
                   "reference": result["refs"]}, fh)
    with open(os.path.join(run_dir, "detail.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    # attempted and failed count distinct inputs, each checked once, so they
    # depend on the seed alone and not on how many ops fitted in the run
    print(json.dumps({"correct": not unexpected, "attempted": distinct,
                      "failed": failed_inputs, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
