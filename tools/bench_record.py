"""Record alternating parent/change benchmark runs in a BENCH_<n>.json file.

    python3 tools/bench_record.py --parent-rev REV --out BENCH_6.json \\
        --runs discrete_bulk:701-710 integral_chains:41-43 [--seconds 25]

REV is exported with ``git archive`` into ``.bench_build/record-parent/``;
the change is this checkout as it stands.  For each workload and seed the
parent's and the change's ``perfbench/run.py`` run one after the other, each
in a fresh interpreter; every seed gives one pair, and the side that runs first
alternates from pair to pair (the parent first on the first).  A side's
``src`` is byte-compiled before each of its runs, so no run compiles the
library from source in its timed interpreters, even under
PYTHONDONTWRITEBYTECODE, and a source file edited during a recording does
not leave stale bytecode for the runs after the edit.  The file holds
both result lines (the last stdout line of run.py) of every pair, the
medians and the parent's quartiles of each end-to-end metric, the number of
pairs the change wins, the median change signed so that positive is worse
(``change_rel``) and whether that exceeds the metric's bound (``beyond_bound``;
direction and bound from BENCHMARK.json's ``end_to_end`` entries), and the
machine: CPU count and model, Python and numpy versions.  The file is
rewritten after each pair; after each workload, every metric beyond its
bound is printed to stderr.  A run that exits
non-zero, or whose result is not ``correct`` or has failed inputs, stops the
recording: the file keeps the pairs before it plus a ``failed_run`` entry,
the run's side, workload, seed, exit code, detail line and stderr tail are
printed to stderr, and the script exits 1.
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


STDERR_TAIL_LINES = 20


class RunFailed(Exception):
    """A run.py run that exited non-zero or reported a failed or incorrect result;
    its one argument is a dict of the exit code, detail line and stderr tail."""


def _run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    _compile(checkout)
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct") or result.get("failed", 0) > 0:
        raise RunFailed({
            "exit_code": done.returncode,
            # run.py prints the detail line just before the result line
            "detail": lines[-2] if len(lines) > 1 else "\n".join(lines),
            "stderr_tail": "\n".join(done.stderr.splitlines()[-STDERR_TAIL_LINES:])})
    return result


def _export(rev: str) -> None:
    shutil.rmtree(PARENT_DIR, ignore_errors=True)
    os.makedirs(PARENT_DIR)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", PARENT_DIR], input=archive.stdout, check=True)


def _compile(checkout: str) -> None:
    # compileall writes .pyc files whatever PYTHONDONTWRITEBYTECODE says
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


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


def _bounds() -> dict:
    """BENCHMARK.json's end-to-end metrics by name: direction and bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def _summary(pairs: list, bounds: dict) -> dict:
    """Per metric: medians, the parent's quartiles, the change's wins and
    ``change_rel``, the relative change of the medians signed so that
    positive is worse, which is ``beyond_bound`` when it exceeds the
    metric's bound in ``bounds`` (a metric without one is never beyond)."""
    out = {}
    for name, metric in pairs[0]["parent"]["metrics"].items():
        before = [p["parent"]["metrics"][name]["value"] for p in pairs]
        after = [p["change"]["metrics"][name]["value"] for p in pairs]
        declared = bounds.get(name, {})
        higher = declared.get("better", "lower") == "higher"
        wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
        q = statistics.quantiles(before, n=4) if len(before) > 1 else [before[0]] * 3
        parent, change = statistics.median(before), statistics.median(after)
        worse = (parent - change) if higher else (change - parent)
        change_rel = worse / abs(parent) if parent else 0.0
        out[name] = {"unit": metric["unit"], "better": "higher" if higher else "lower",
                     "parent_median": parent, "parent_quartiles": [q[0], q[2]],
                     "change_median": change, "change_wins": wins, "pairs": len(pairs),
                     "change_rel": change_rel,
                     "beyond_bound": "bound" in declared and change_rel > declared["bound"]}
    return out


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _save(record: dict, path: str) -> None:
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    os.replace(path + ".tmp", path)  # never a half-written record


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent-rev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD:FIRST-LAST")
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args()
    _export(args.parent_rev)
    bounds = _bounds()
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
                try:
                    pair[side] = _run(checkout, workload, seed, args.seconds)
                except RunFailed as exc:
                    failed = record["failed_run"] = {"side": side, "workload": workload,
                                                     "seed": seed, **exc.args[0]}
                    _save(record, args.out)
                    print("run failed:", *(f"{k}: {v}" for k, v in failed.items()),
                          sep="\n", file=sys.stderr)
                    sys.exit(1)
            pairs.append(pair)
            print(workload, seed, {k: round(pair[k]["metrics"]["work_per_s"]["value"], 1)
                                   for k in ("parent", "change")}, flush=True)
            record["workloads"][workload] = {"summary": _summary(pairs, bounds), "pairs": pairs}
            _save(record, args.out)
        for name, summary in record["workloads"][workload]["summary"].items():
            if summary["beyond_bound"]:
                print(f"{workload} {name}: {summary['change_rel']:+.1%} worse in the median, beyond "
                      f"its bound {bounds[name]['bound']:.0%}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
