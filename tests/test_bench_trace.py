"""The traced benchmark patches library names by attribute; a refactor that
unbinds one of them must fail here rather than in a traced benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer
tr = tracer.Tracer()
tracer.install(tr)
from ineqmeans import ChainKind, integral, parse_function, parse_mean
for kind in ChainKind:
    integral.compare_generalizations(parse_mean("power:0"), parse_mean("power:2"),
                                     40, 5, kind)
integral.integral_mean_chain(parse_function("exp:1"), parse_function("affine:1,2"),
                             0.0, 1.0, parse_mean("power:2"), tol=1e-9)
before = dict(tr.calls)
integral.integral_logderiv_chain(parse_function("exp:2"), parse_function("affine:2,1"),
                                 0.0, 1.0, parse_mean("power:2"))
logderiv = {{name: n - before.get(name, 0) for name, n in tr.calls.items()}}
print(json.dumps({{"summary": tr.summary(), "logderiv": logderiv}}))
"""


def test_traced_bench_layers_bind():
    code = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    summary = out["summary"]
    for span in ("compare", "integral.middle_fixed", "sampling.spawn_rng",
                 "means.mean_values", "fixedgrid.simpson_nodes",
                 "fixedgrid.composite_simpson", "fixedgrid.cumulative_simpson",
                 "integral.mean_chain", "quadrature", "validate.positive"):
        assert summary["calls"].get(span, 0) > 0, span
    # entered from the log-derivative chain itself
    for span in ("integral.logderiv_chain", "integral.tabulate", "hermite",
                 "validate.positive", "validate.nonneg_derivative",
                 "fixedgrid.cumulative_simpson", "means.mean_values", "quadrature"):
        assert out["logderiv"].get(span, 0) > 0, span
    assert summary["counts"]["compare.trials_run"] == 80
