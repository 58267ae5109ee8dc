"""Workload definitions: seeded input generation and the facts each op is checked against.

Everything here runs in the benchmark's parent process and uses numpy only;
the library under test never generates its own inputs.  Each workload turns
a seed into a pool of inputs.  The timed run cycles through the pool in a
closed loop (one caller, the next op starts when the previous one returns);
the traced run goes through the pool ``trace_cycles`` times, so per-layer
counts are a fixed amount of work for a given seed.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from reference import FUNCTION_KINDS, fn_derivative, fn_value


@dataclass(frozen=True)
class Workload:
    name: str
    work_alias: str      # what work_per_s counts here, as the docs name it
    tail_pct: float      # op_ms_tail percentile, fixed so it stays comparable
    whole_cycles: bool   # stop the timed loop only at the end of a pool cycle
    trace_cycles: int    # pool passes in the traced run


WORKLOADS = {w.name: w for w in (
    Workload("integral_chains", "chains_per_s", 95.0, False, 1),
    Workload("compare_sweep", "trials_per_s", 75.0, False, 1),
    Workload("discrete_bulk", "elements_per_s", 95.0, True, 3),
    Workload("cli_cold", "children_per_s", 75.0, False, 1),
)}


def _stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# integral_chains: criterion-09-style draws, mean form alternating with the
# log-derivative form
# ---------------------------------------------------------------------------

CHAIN_MEANS = ("power:0", "power:1", "power:2", "power:inf",
               "rado:-1", "rado:0", "wgeom:0.75,0.25")
CHAIN_POOL = 4000
MEAN_TOL = 1e-9
LOGDERIV_INNER_TOL = 1e-10
LOGDERIV_OUTER_TOL = 1e-8


def _increasing_function(rng):
    kind = FUNCTION_KINDS[int(rng.integers(0, 3))]
    c = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
    coeffs = {"exp": c[:1], "affine": c[:2], "poly": c}[kind]
    return kind, tuple(float(v) for v in coeffs)


def _increasing_pair(rng):
    f = _increasing_function(rng)
    g = _increasing_function(rng)
    return f, g, float((0.5, 1.0, 2.0)[int(rng.integers(0, 3))])


def _suitable_pair(rng):
    # the log-derivative chain is only claimed for pairs whose log-derivative
    # difference keeps one sign on [0, b]
    while True:
        f, g, b = _increasing_pair(rng)
        ts = np.linspace(0.0, b, 257)
        d = fn_derivative(*f, ts) / fn_value(*f, ts) - fn_derivative(*g, ts) / fn_value(*g, ts)
        if not (np.any(d > 0) and np.any(d < 0)):
            return f, g, b


def _integral_chains(seed, run_dir):
    rng = _stream(seed, "integral_chains")
    pool = []
    for i in range(CHAIN_POOL):
        mean = CHAIN_MEANS[(i // 2) % len(CHAIN_MEANS)]
        if i % 2 == 0:
            f, g, b = _increasing_pair(rng)
            pool.append({"form": "mean", "mean": mean, "f": f, "g": g, "b": b,
                         "tol": MEAN_TOL})
        else:
            f, g, b = _suitable_pair(rng)
            pool.append({"form": "logderiv", "mean": mean, "f": f, "g": g, "b": b,
                         "inner_tol": LOGDERIV_INNER_TOL, "outer_tol": LOGDERIV_OUTER_TOL})
    return pool


# ---------------------------------------------------------------------------
# compare_sweep: the order facts the test suite asserts, at the CLI default
# of 1000 trials
# ---------------------------------------------------------------------------

COMPARE_TRIALS = 1000
COMPARE_REPEATS = 4
# the early-exit pair appears three times per pass (three seeds): its trial
# count varies by seed, and with 3 of 11 verdicts cheap the median op falls
# inside the mean-form group and p75 inside the log-derivative group rather
# than on the edge between them
COMPARE_FACTS = (
    ("mean", 0.0, 2.0, "a-prec-b"),
    ("mean", 0.0, 1.0, "a-prec-b"),
    ("mean", 1.0, 2.0, "a-prec-b"),
    ("mean", 0.5, 3.0, "a-prec-b"),
    ("logderiv", 0.0, 2.0, "b-prec-a"),
    ("logderiv", -1.0, 3.0, "b-prec-a"),
    ("logderiv", 0.5, 1.5, "b-prec-a"),
    ("logderiv", 0.5, 1.4, "b-prec-a"),
    ("logderiv", 0.5, 2.0, "incomparable"),
    ("logderiv", 0.5, 2.0, "incomparable"),
    ("logderiv", 0.5, 2.0, "incomparable"),
)


def _compare_sweep(seed, run_dir):
    rng = _stream(seed, "compare_sweep")
    return [{"kind": kind, "a": f"power:{a!r}", "b": f"power:{b!r}", "expected": rel,
             "trials": COMPARE_TRIALS, "seed": int(rng.integers(0, 2**31))}
            for _ in range(COMPARE_REPEATS) for kind, a, b, rel in COMPARE_FACTS]


# ---------------------------------------------------------------------------
# discrete_bulk: one long log-uniform vector pair through every chain mean
# ---------------------------------------------------------------------------

BULK_LENGTH = 1 << 20  # 8 MiB per float64 vector: far below the L3 size


def _discrete_bulk(seed, run_dir):
    rng = _stream(seed, "discrete_bulk")
    lo, hi = np.log(1e-3), np.log(1e3)
    x = np.exp(rng.uniform(lo, hi, size=BULK_LENGTH))
    y = np.exp(rng.uniform(lo, hi, size=BULK_LENGTH))
    # one op per chain_catalog() mean; the worker takes the catalog from the
    # library, so the pool is the vector pair alone
    return [{"x": x, "y": y}]


# ---------------------------------------------------------------------------
# cli_cold: README examples plus the numeric-boundary inputs, one fresh
# interpreter per op
# ---------------------------------------------------------------------------

# (argv, documented exit code or None where no code is documented)
README_EXAMPLES = (
    ("means eval --spec power:0 --x 4 --y 9", 0),
    ("means axioms --spec wgeom:0.7,0.3 --samples 1000 --seed 7", 1),  # asymmetric mean
    ("means h-check --spec power:2 --grid 0,0.5,1,2", 0),
    ("young classify --x 5 --y 130 --p 4", 0),
    ("young critical --x 0.5 --p 4", 0),
    ("young integral-gap --f pow:3 --a 1 --b 0.5", 0),
    ("cbs discrete --mean power:2 --input vectors.csv", 0),
    ("cbs integral --mean power:inf --f pow:1 --g affine:1,-1 --a 0 --b 1", 0),
    ("cbs q --mean power:2 --f poly:1 --g pow:1 --q 0.5", 0),
    ("compare --a power:0.5 --b power:2 --trials 1000 --seed 1 --kind logderiv", 0),
    ("elliptic bounds --grid 0.1:0.9:0.1 --format csv", 0),
    ("dft uncertainty --input complex.csv", 0),
    ("lorentz chain --x0 2 --x 1,1 --y0 3 --y 1,2 --mean power:2", 0),
)
# non-finite and overflowing inputs; the unbounded `elliptic bounds --grid`
# case is left out because it allocates without limit
BOUNDARY_INPUTS = (
    "means eval --spec power:2 --x nan --y 1",
    "means eval --spec power:2 --x inf --y 1",
    "means eval --spec power:2 --x 1e200 --y 1e200",
    "means eval --spec rado:2 --x 1e300 --y 1e-300",
    "means h-check --spec max --grid 0,1,800",
    "young classify --x 5 --y 1e300 --p 4",
)
CSV_HEADERS = {"elliptic bounds": "x,L0,L1,L2,K,G2,G1,G0,chain_ok"}


def _cli_cold(seed, run_dir):
    rng = _stream(seed, "cli_cold")
    xy = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(64, 2)))
    with open(os.path.join(run_dir, "vectors.csv"), "w", encoding="utf-8") as fh:
        fh.writelines("%r,%r\n" % (float(a), float(b)) for a, b in xy)
    re_im = rng.normal(size=(16, 2)) * (rng.uniform(size=(16, 1)) < 0.5)
    re_im[0] = (1.0, 0.0)  # keep the vector nonzero
    with open(os.path.join(run_dir, "complex.csv"), "w", encoding="utf-8") as fh:
        fh.writelines("%r,%r\n" % (float(a), float(b)) for a, b in re_im)
    pool = [{"argv": cmd.split(), "expected_exit": code, "boundary": False}
            for cmd, code in README_EXAMPLES]
    pool += [{"argv": cmd.split(), "expected_exit": None, "boundary": True}
             for cmd in BOUNDARY_INPUTS]
    return pool


GENERATORS = {
    "integral_chains": _integral_chains,
    "compare_sweep": _compare_sweep,
    "discrete_bulk": _discrete_bulk,
    "cli_cold": _cli_cold,
}


def generate(name: str, seed: int, run_dir: str) -> list:
    """The input pool of workload ``name`` for ``seed``; same seed, same pool."""
    return GENERATORS[name](seed, run_dir)
