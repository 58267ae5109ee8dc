"""Outside-in layer tracing for the traced benchmark run.

``install`` replaces the entry points of each layer *where the calling
module has bound them* (``ineqmeans.integral.quadrature``,
``ineqmeans.discrete.mean_values``, ...) and the methods of
``FunctionSpec`` and ``CubicHermite`` with wrappers that record a span
(name, start, end, parent, op id) and counts.  No library source changes.

A span's self time is its duration minus the time its child spans cover.
Each span name belongs to the layer named before its first dot, so a
layer's self time is the sum over its span names.  The op itself is the
root span ``op``; its self time is the part of op wall time that no layer
span covers (the untraced remainder).

This module imports nothing from numpy or the library at import time, so a
traced CLI child can time ``import ineqmeans`` after importing it.
"""

from __future__ import annotations

import csv
from collections import Counter
from time import perf_counter

SPAN_CAP = 200_000  # spans kept in memory for the spans file; counts are exact


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, span id, start, child seconds]
        self.spans = []
        self.dropped = 0
        self.op_id = -1
        self._next_id = 0
        self.calls = Counter()
        self.incl_s = Counter()
        self.self_s = Counter()
        self.family_self_s = Counter()
        self.counts = Counter()
        self.depth_max = 0

    def parent_name(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, self._next_id, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, family: str = "") -> None:
        end = perf_counter()
        self.stack.pop()
        name, span_id, start, child = frame
        duration = end - start
        own = duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.incl_s[name] += duration
        self.self_s[name] += own
        if family:
            self.family_self_s[family] += own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op_id, span_id, parent[1] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "incl_s": dict(self.incl_s),
                "self_s": dict(self.self_s), "family_self_s": dict(self.family_self_s),
                "counts": dict(self.counts), "depth_max": self.depth_max,
                "spans_dropped": self.dropped}


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _span(tr: Tracer, name: str, fn, after=None, family_arg=None):
    def traced(*args, **kwargs):
        parent = tr.parent_name()
        frame = tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit(frame, args[family_arg].family.value if family_arg is not None else "")
        if after is not None:
            after(parent, args, kwargs, out)
        return out

    traced.__wrapped__ = fn
    return traced


def _patch(tr: Tracer, module, attr: str, name: str, **kw) -> None:
    setattr(module, attr, _span(tr, name, getattr(module, attr), **kw))


def install(tr: Tracer) -> None:
    """Wrap every layer entry point at its call-site binding."""
    from ineqmeans import cli, discrete, elliptic, functions, integral, means, young

    counts = tr.counts

    evaluations = ("means.mean_values", "means.conjugate_values", "means.eval_mean")

    def means_entry(parent, args, kwargs, out):
        # count evaluations entering the layer, not conjugate_values' own mean call
        if parent not in evaluations:
            counts["means.calls"] += 1
            counts["means.elements"] += _size(out)
            counts["means.elements." + args[0].family.value] += _size(out)

    for module in (integral, discrete, means):
        _patch(tr, module, "mean_values", "means.mean_values", after=means_entry, family_arg=0)
    for module in (discrete, means):
        _patch(tr, module, "conjugate_values", "means.conjugate_values",
               after=means_entry, family_arg=0)
    _patch(tr, cli, "eval_mean", "means.eval_mean", after=means_entry, family_arg=0)
    for attr in ("check_axioms", "check_h_conditions"):
        _patch(tr, cli, attr, "means." + attr, family_arg=0)

    def function_elements(parent, args, kwargs, out):
        counts["functions.elements"] += _size(out)

    spec = functions.FunctionSpec
    spec.__call__ = _span(tr, "functions.value", spec.__call__, after=function_elements)
    spec.derivative = _span(tr, "functions.derivative", spec.derivative,
                            after=function_elements)
    _patch(tr, integral, "validate_positive", "validate.positive")
    _patch(tr, integral, "validate_nonneg_derivative", "validate.nonneg_derivative")

    def simpson_grid(parent, args, kwargs, out):
        counts["fixedgrid.nodes"] += len(out[0])
        if parent == "integral.tabulate":
            counts["tabulate.grids"] += 1

    _patch(tr, integral, "simpson_nodes", "fixedgrid.simpson_nodes", after=simpson_grid)
    _patch(tr, integral, "composite_simpson", "fixedgrid.composite_simpson")
    _patch(tr, integral, "cumulative_simpson", "fixedgrid.cumulative_simpson")
    hermite = integral.CubicHermite
    hermite.__call__ = _span(tr, "hermite", hermite.__call__)

    for module in (integral, elliptic, young):
        module.quadrature = _traced_quadrature(tr, module.quadrature,
                                               module.__name__.rsplit(".", 1)[-1])

    for attr, name in (("integral_mean_chain", "integral.mean_chain"),
                       ("integral_logderiv_chain", "integral.logderiv_chain"),
                       ("_tabulate_antiderivative", "integral.tabulate"),
                       ("_middle_fixed", "integral.middle_fixed")):
        _patch(tr, integral, attr, name)
    _patch(tr, cli, "integral_mean_chain", "integral.mean_chain")

    def compare_trials(parent, args, kwargs, out):
        counts["compare.trials_run"] += out.trials
        counts["compare.trials_requested"] += kwargs.get("trials", args[2] if len(args) > 2 else 0)

    _patch(tr, integral, "compare_generalizations", "compare", after=compare_trials)
    _patch(tr, cli, "compare_generalizations", "compare", after=compare_trials)
    _patch(tr, integral, "spawn_rng", "sampling.spawn_rng")

    _patch(tr, discrete, "cbs_chain", "discrete.cbs_chain")
    for attr in ("cbs_chain", "q_cbs_chain", "lorentz_chain", "dft_uncertainty"):
        _patch(tr, cli, attr, "discrete." + attr)
    _patch(tr, cli, "bounds", "elliptic.bounds")
    for attr in ("young_pair", "critical_y", "young_integral_gap"):
        _patch(tr, cli, attr, "young." + attr)
    _patch(tr, cli, "dispatch", "cli.dispatch")


def _traced_quadrature(tr: Tracer, quad, caller: str):
    counts = tr.counts
    integrand_name = caller + ".integrand"

    def traced(f, *args, **kwargs):
        batches = 0

        def integrand(xs):
            nonlocal batches
            frame = tr.enter(integrand_name)
            try:
                return f(xs)
            finally:
                tr.exit(frame)
                batches += 1
                counts["quadrature.batches"] += 1
                counts["quadrature.evals"] += _size(xs)

        frame = tr.enter("quadrature")
        try:
            return quad(integrand, *args, **kwargs)
        finally:
            tr.exit(frame)
            # one probe batch, then one batch per bisection level
            tr.depth_max = max(tr.depth_max, batches - 1)

    traced.__wrapped__ = quad
    return traced


# ---------------------------------------------------------------------------
# summaries -> per-layer metrics
# ---------------------------------------------------------------------------

def merge(total: dict, part: dict) -> None:
    """Add one summary (e.g. a traced CLI child's) into another."""
    for key in ("calls", "incl_s", "self_s", "family_self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    total["depth_max"] = max(total.get("depth_max", 0), part.get("depth_max", 0))
    total["spans_dropped"] = total.get("spans_dropped", 0) + part.get("spans_dropped", 0)


# Layers predicted to do no work on a workload, by metric-name prefix; the
# README's per-layer table gives the whole layer -> end-to-end map.
PREDICTED_ZERO = {
    "integral_chains": ("sampling.", "elliptic."),
    "compare_sweep": ("quadrature.", "elliptic."),
    "discrete_bulk": ("quadrature.", "fixedgrid.", "tabulate.", "hermite.", "functions.",
                      "validate.", "integral.", "compare.", "elliptic."),
}


def predicted_zero_violations(workload: str, metrics: dict) -> list:
    """Count metrics of layers predicted to do no work that are not 0."""
    return [f"{name} = {m['value']}" for name, m in metrics.items()
            if name.startswith(PREDICTED_ZERO.get(workload, ()))
            and m["unit"] == "count" and m["value"] != 0]


def layer_self_s(summary: dict) -> dict:
    layers = Counter()
    for name, own in summary.get("self_s", {}).items():
        layers[name.split(".", 1)[0]] += own
    return dict(layers)


def layer_metrics(summary: dict, ops: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from a (merged) trace summary."""
    calls = Counter(summary.get("calls", {}))
    counts = Counter(summary.get("counts", {}))
    incl = Counter(summary.get("incl_s", {}))
    own = Counter(layer_self_s(summary))

    def calls_of(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    op_s = incl["op"]
    traced_s = sum(v for k, v in own.items() if k != "op")
    return {
        "quadrature.calls": calls["quadrature"],
        "quadrature.evals": counts["quadrature.evals"],
        "quadrature.batches": counts["quadrature.batches"],
        "quadrature.depth_max": summary.get("depth_max", 0),
        "quadrature.self_s": own["quadrature"],
        "fixedgrid.calls": calls_of("fixedgrid."),
        "fixedgrid.nodes": counts["fixedgrid.nodes"],
        "fixedgrid.self_s": own["fixedgrid"],
        "tabulate.calls": calls["integral.tabulate"],
        "tabulate.grids": counts["tabulate.grids"],
        "tabulate.s": incl["integral.tabulate"],
        "hermite.calls": calls["hermite"],
        "hermite.self_s": own["hermite"],
        "means.calls": counts["means.calls"],
        "means.elements": counts["means.elements"],
        "means.elements_per_call": (counts["means.elements"] / counts["means.calls"]
                                    if counts["means.calls"] else 0.0),
        "means.self_s": own["means"],
        "functions.calls": calls_of("functions."),
        "functions.elements": counts["functions.elements"],
        "functions.self_s": own["functions"],
        "validate.calls": calls_of("validate."),
        "validate.self_s": own["validate"],
        "integral.self_s": own["integral"],
        "compare.self_s": own["compare"],
        "compare.trials_run": counts["compare.trials_run"],
        "compare.trials_requested": counts["compare.trials_requested"],
        "compare.middle_calls": calls["integral.middle_fixed"],
        "compare.middle_s": incl["integral.middle_fixed"],
        "sampling.calls": calls_of("sampling."),
        "sampling.self_s": own["sampling"],
        "discrete.calls": calls_of("discrete."),
        "discrete.self_s": own["discrete"],
        "elliptic.calls": calls["elliptic.bounds"],
        "elliptic.self_s": own["elliptic"],
        "cli.interpreter_s": incl["cli.interpreter"],
        "cli.import_s": incl["cli.import"],
        "cli.dispatch_s": incl["cli.dispatch"],
        "trace.ops": ops,
        "trace.op_s": op_s,
        "trace.untraced_s": op_s - traced_s,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "elem/call" if metric.endswith("_per_call") else "count"


def write_spans(path: str, spans) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(("op", "span", "parent", "name", "start", "end"))
        out.writerows(spans)
