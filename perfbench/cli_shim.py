"""Traced stand-in for ``python -m ineqmeans.cli`` in the traced cli_cold run.

    python3 cli_shim.py STATS_JSON ARGV...

Runs the CLI exactly as ``-m ineqmeans.cli`` would (same stdout, stderr and
exit code, tracebacks included) with the layer tracer installed, and writes
to STATS_JSON when the interpreter started (``time.monotonic``, which the
parent compares with its spawn time), how long ``import ineqmeans.cli``
took, and the trace summary and spans.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main():
    stats_path = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    t0 = time.perf_counter()
    import ineqmeans.cli as cli
    import_s = time.perf_counter() - t0
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        cli.main()
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"started": STARTED, "import_s": import_s,
                       "summary": tr.summary(), "spans": tr.spans}, fh)


if __name__ == "__main__":
    main()
