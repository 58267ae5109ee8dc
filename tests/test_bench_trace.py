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
compare = dict(tr.calls)
integral.integral_mean_chain(parse_function("exp:1"), parse_function("affine:1,2"),
                             0.0, 1.0, parse_mean("power:2"), tol=1e-9)
before = dict(tr.calls)
integral.integral_logderiv_chain(parse_function("exp:2"), parse_function("affine:2,1"),
                                 0.0, 1.0, parse_mean("power:2"))
logderiv = {{name: n - before.get(name, 0) for name, n in tr.calls.items()}}
print(json.dumps({{"summary": tr.summary(), "compare": compare, "logderiv": logderiv}}))
"""


def test_traced_bench_layers_bind():
    code = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    summary = out["summary"]
    for span in ("compare", "integral.middle_fixed", "means.mean_values",
                 "integral.mean_chain", "quadrature", "validate.positive"):
        assert summary["calls"].get(span, 0) > 0, span
    # the comparator integrates on its own fixed panels: no Simpson helper and
    # no adaptive quadrature under compare
    compare = out["compare"]
    assert compare.get("integral.middle_fixed", 0) > 0
    # trials are read off raw words in blocks; spawn_rng is called only to
    # read on past a rejected interval draw, which none of these 80 trials has
    assert compare.get("sampling.spawn_rng", 0) == 0, compare
    assert not [span for span in compare
                if span.startswith("fixedgrid.") or span.startswith("quadrature")], compare
    # entered from the log-derivative chain itself, which integrates on its
    # own Gauss-Kronrod partition: no Simpson helper, no Hermite table and no
    # call of quadrature
    logderiv = out["logderiv"]
    for span in ("integral.logderiv_chain", "integral.tabulate", "validate.positive",
                 "validate.nonneg_derivative", "means.mean_values"):
        assert logderiv.get(span, 0) > 0, span
    assert not [span for span, n in logderiv.items() if n and (
        span.startswith(("fixedgrid.", "hermite")) or span == "quadrature")], logderiv
    assert summary["counts"]["compare.trials_run"] == 80
