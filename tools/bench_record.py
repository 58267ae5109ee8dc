"""Record alternating parent/change benchmark runs in a BENCH_<n>.json file.

    python3 tools/bench_record.py --parent-rev REV --out BENCH_6.json \\
        --runs discrete_bulk:701-710 integral_chains:41-43 [--seconds 25]

REV is exported with ``git archive`` into ``.bench_build/record-parent/``;
the change is this checkout as it stands.  For each workload and seed the
parent's and the change's ``perfbench/run.py`` run one after the other, each
in a fresh interpreter; every seed gives one pair, and the side that runs first
alternates from pair to pair (the parent first on the first).  The file holds
both result lines (the last stdout line of run.py) of every pair, the
medians and the parent's quartiles of each end-to-end metric, the number of
pairs the change wins, and the machine: CPU count and model, Python and
numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT_DIR = os.path.join(ROOT, ".bench_build", "record-parent")


def _run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _export(rev: str) -> None:
    shutil.rmtree(PARENT_DIR, ignore_errors=True)
    os.makedirs(PARENT_DIR)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", PARENT_DIR], input=archive.stdout, check=True)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _machine() -> dict:
    import numpy
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def _summary(pairs: list) -> dict:
    out = {}
    for name, metric in pairs[0]["parent"]["metrics"].items():
        before = [p["parent"]["metrics"][name]["value"] for p in pairs]
        after = [p["change"]["metrics"][name]["value"] for p in pairs]
        higher = name == "work_per_s"
        wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
        q = statistics.quantiles(before, n=4) if len(before) > 1 else [before[0]] * 3
        out[name] = {"unit": metric["unit"], "better": "higher" if higher else "lower",
                     "parent_median": statistics.median(before),
                     "parent_quartiles": [q[0], q[2]],
                     "change_median": statistics.median(after),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent-rev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD:FIRST-LAST")
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args()
    _export(args.parent_rev)
    record = {"parent": _git("rev-parse", args.parent_rev),
              "change": _git("describe", "--always", "--dirty"),
              "seconds": args.seconds, "machine": _machine(), "workloads": {}}
    for spec in args.runs:
        workload, _, seeds = spec.partition(":")
        pairs = []
        for i, seed in enumerate(_seeds(seeds)):
            sides = [("parent", PARENT_DIR), ("change", ROOT)]
            pair = {"seed": seed, "first": sides[i % 2][0]}
            for side, checkout in sides[i % 2:] + sides[:i % 2]:
                pair[side] = _run(checkout, workload, seed, args.seconds)
            pairs.append(pair)
            print(workload, seed, {k: round(pair[k]["metrics"]["work_per_s"]["value"], 1)
                                   for k in ("parent", "change")}, flush=True)
        record["workloads"][workload] = {"summary": _summary(pairs), "pairs": pairs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
