"""Runs one workload's ops in a fresh interpreter and records what they returned.

    python3 worker.py RUN_DIR MODE        MODE is setup, timed or traced

``RUN_DIR/job.json`` names the workload and the run length; the input pool
is in ``RUN_DIR/pool.pkl``, written by run.py.  Set-up time is the time of
``import ineqmeans`` plus one untimed warm-up op; loading the pool in
between is input handling and is not counted.  ``setup`` mode stops there.
``timed`` runs a closed loop over the pool for the run length, then runs
once, untimed, any input the loop did not reach; ``traced`` goes through the
pool a fixed number of times with the layer tracer installed.  Results go
to ``RUN_DIR/result-MODE.pkl``; run.py checks them.
"""

import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
CHILD_TIMEOUT_S = 120
# A fixed reference kernel, independent of the library, runs between ops at
# most every REF_INTERVAL_S; run.py scales op times by REF_NOMINAL_S over the
# kernel's time around each op (see README.md, "Machine and steadiness").
REF_INTERVAL_S = 0.25
REF_NOMINAL_S = 2.0e-3
SETUP_REF_SAMPLES = 9     # kernel runs right after a set-up measurement


def _reference_kernel():
    import numpy as np

    xs = np.linspace(0.0, 1.0, 257)

    def kernel():
        total = 0.0
        for i in range(300):
            total += float(np.sum(np.exp(0.5 * xs) * xs)) + 0.5 * i
        return total

    return kernel


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def _chain(r):
    return (r.left, r.middle, r.right, r.slack_left, r.slack_right, r.ordered)


def _verdict(v):
    return (v.relation.value, v.trials, tuple((w.middle_a, w.middle_b) for w in v.witnesses))


def _integral_ops(pool, run_dir, trace):
    from ineqmeans import integral, parse_function, parse_mean
    from reference import fn_spec

    def op(inp):
        f = parse_function(fn_spec(*inp["f"]))
        g = parse_function(fn_spec(*inp["g"]))
        spec = parse_mean(inp["mean"])
        b = inp["b"]
        if inp["form"] == "mean":
            return lambda: integral.integral_mean_chain(f, g, 0.0, b, spec, tol=inp["tol"])
        return lambda: integral.integral_logderiv_chain(
            f, g, 0.0, b, spec, inner_tol=inp["inner_tol"], outer_tol=inp["outer_tol"])

    return [op(inp) for inp in pool], _chain, lambda out: 1


def _compare_ops(pool, run_dir, trace):
    from ineqmeans import ChainKind, integral, parse_mean

    def op(inp):
        a, b = parse_mean(inp["a"]), parse_mean(inp["b"])
        kind = ChainKind(inp["kind"])
        return lambda: integral.compare_generalizations(a, b, inp["trials"], inp["seed"],
                                                        kind=kind)

    return [op(inp) for inp in pool], _verdict, lambda out: out[1]


def _discrete_ops(pool, run_dir, trace):
    from ineqmeans import chain_catalog, discrete

    x, y = pool[0]["x"], pool[0]["y"]
    ops = [lambda spec=spec: discrete.cbs_chain(x, y, spec) for spec in chain_catalog()]
    return ops, _chain, lambda out: len(x)


def _cli_ops(pool, run_dir, trace):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    shim = os.path.join(BENCH_DIR, "cli_shim.py")

    def op(i, argv):
        if not trace:
            cmd = [sys.executable, "-m", "ineqmeans.cli", *argv]
            return lambda: subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True,
                                          text=True, timeout=CHILD_TIMEOUT_S)
        stats = os.path.join(run_dir, f"child-{i}.json")

        def traced():
            spawned = time.monotonic()
            done = subprocess.run([sys.executable, shim, stats, *argv], cwd=run_dir, env=env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            done.spawned, done.stats_path = spawned, stats
            return done

        return traced

    ops = [op(i, inp["argv"]) for i, inp in enumerate(pool)]
    return ops, lambda p: (p.returncode, p.stdout, p.stderr), lambda out: 1


BUILDERS = {"integral_chains": _integral_ops, "compare_sweep": _compare_ops,
            "discrete_bulk": _discrete_ops, "cli_cold": _cli_ops}


def _warm_up(workload, pool, run_dir, ops):
    if workload != "cli_cold":
        ops[0]()
        return
    # a CLI op is a child interpreter; warm this one up by dispatching in process
    from ineqmeans.cli import dispatch
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        dispatch(pool[0]["argv"])
    finally:
        os.chdir(cwd)


def _merge_child(tr_summary, op_id, done, tracer_mod):
    """Fold a traced CLI child's timings and spans into the worker's trace."""
    with open(done.stats_path, encoding="utf-8") as fh:
        child = json.load(fh)
    tracer_mod.merge(tr_summary, child["summary"])
    for name, seconds in (("cli.interpreter", child["started"] - done.spawned),
                          ("cli.import", child["import_s"])):
        for key in ("incl_s", "self_s"):
            tr_summary[key][name] = tr_summary[key].get(name, 0.0) + seconds
        tr_summary["calls"][name] = tr_summary["calls"].get(name, 0) + 1
    return [(op_id, *span[1:]) for span in child["spans"]]


def main():
    run_dir, mode = sys.argv[1], sys.argv[2]
    # one CPU for the ops, their CLI children and the reference kernel, so the
    # kernel times the processor the ops ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(os.path.join(run_dir, "job.json"), encoding="utf-8") as fh:
        job = json.load(fh)
    workload = job["workload"]
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(1, BENCH_DIR)

    t0 = time.perf_counter()
    import ineqmeans  # noqa: F401  (timed: the import is part of set-up)
    t1 = time.perf_counter()
    with open(os.path.join(run_dir, "pool.pkl"), "rb") as fh:
        pool = pickle.load(fh)
    ops, convert, work_of = BUILDERS[workload](pool, run_dir, mode == "traced")
    t2 = time.perf_counter()
    _warm_up(workload, pool, run_dir, ops)
    setup_s = (t1 - t0) + (time.perf_counter() - t2)
    kernel = _reference_kernel()
    kernel()
    result = {"setup_s": setup_s, "setup_ref_s": statistics.median(
        _timed(kernel) for _ in range(SETUP_REF_SAMPLES))}

    if mode != "setup":
        tracer_mod = tr = None
        if mode == "traced":
            import tracer as tracer_mod
            tr = tracer_mod.Tracer()
            tracer_mod.install(tr)
        n_ops = len(ops)
        limit = n_ops * job["trace_cycles"] if tr else None
        latencies, starts, outputs, refs = [], [], [], []
        start = time.perf_counter()
        deadline = start + job["seconds"]
        next_ref = start
        i = 0
        while True:
            k = i % n_ops
            if limit is not None:
                if i >= limit:
                    break
            elif (i and time.perf_counter() >= deadline
                  and (k == 0 or not job["whole_cycles"])):
                break
            if time.perf_counter() >= next_ref:
                next_ref = time.perf_counter() + REF_INTERVAL_S
                refs.append((time.perf_counter(), _timed(kernel)))
            if tr:
                tr.op_id = i
                frame = tr.enter("op")
            t = time.perf_counter()
            try:
                out = ops[k]()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = exc
            latencies.append(time.perf_counter() - t)
            starts.append(t)
            if tr:
                tr.exit(frame)
            outputs.append((k, out))
            i += 1
        refs.append((time.perf_counter(), _timed(kernel)))
        # every input is checked, so a run's failed count depends on the seed
        # alone: inputs the timed loop did not reach run once more, untimed
        reached = {k for k, _ in outputs}
        untimed = []
        for k in range(n_ops):
            if k not in reached:
                try:
                    untimed.append((k, ops[k]()))
                except Exception as exc:
                    untimed.append((k, exc))

        def converted(pairs):
            return [(k, ("exception", type(out).__name__, repr(out)))
                    if isinstance(out, Exception) else (k, convert(out)) for k, out in pairs]

        timed_outputs = converted(outputs)
        work = sum(work_of(out) for _, out in timed_outputs if out[0] != "exception")
        result.update(latencies=latencies, starts=starts, refs=refs, outputs=timed_outputs,
                      untimed_outputs=converted(untimed), work=work)
        if tr:
            summary = tr.summary()
            spans = list(tr.spans)
            if workload == "cli_cold":
                for op_id, (k, out) in enumerate(outputs):
                    if not isinstance(out, Exception):
                        spans.extend(_merge_child(summary, op_id, out, tracer_mod))
            tracer_mod.write_spans(os.path.join(run_dir, "spans.csv"), spans)
            result["trace"] = summary

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.path.join(run_dir, f"result-{mode}.pkl"), "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()
