"""Command-line front end.

Subcommands mirror the library: ``means eval|axioms|h-check``,
``young classify|critical|integral-gap``, ``cbs discrete|integral|q``,
``compare``, ``elliptic bounds``, ``dft uncertainty``, ``lorentz chain``.
Payloads are JSON on stdout (CSV for grid emitters, 17 significant digits);
diagnostics go to stderr.  Output is byte-identical across runs for a fixed
argv.

Exit codes: 0 success, 1 a mathematically meaningful verification failure
(an inequality chain violated beyond the tolerance its terms were computed
to; never bad flags), 2
usage/parse errors (including a non-finite numeric argument), 3 numeric/domain
errors (including an arithmetic overflow or a non-finite result, which is
never written as NaN or Infinity).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass

import numpy as np

from .discrete import cbs_chain, dft_uncertainty, lorentz_chain, q_cbs_chain
from .elliptic import CHAIN_FIELDS, bounds
from .errors import ConvergenceError, DomainError, ParameterError
from .functions import parse_function
from .integral import ChainKind, compare_generalizations, integral_mean_chain
from .means import check_axioms, check_h_conditions, eval_mean, parse_mean
from .reports import ChainReport, holds
from .young import GAP_TOL, critical_y, young_integral_gap, young_pair

__all__ = ["CommandResult", "dispatch", "main"]

# most points an --grid may expand to (elliptic bounds: about 50 us a point)
GRID_MAX_POINTS = 100_000


@dataclass(frozen=True)
class CommandResult:
    exit_code: int  # 0 ok, 1 verification failure, 2 usage/parse, 3 numeric
    stdout: str
    stderr: str


def _fmt17(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if not math.isfinite(v):
        raise DomainError(f"result is not finite ({v!r})")
    return "%.17g" % v


def _dumps(payload) -> str:
    """Strict JSON: a NaN or infinite result is a DomainError, never NaN/Infinity."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError:
        raise DomainError("result is not finite") from None


def _finite(values: list, text: str) -> list:
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"numbers must be finite, got {text!r}")
    return values


def _check_finite_args(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"--{name.replace('_', '-')} must be finite, got {value!r}")


def _chain_result(report: ChainReport, **fields) -> tuple:
    """(exit code, payload) of a chain command: exit 1 exactly when the
    report is not ``ordered``."""
    payload = {**fields, "left": report.left, "middle": report.middle,
               "right": report.right, "slack_left": report.slack_left,
               "slack_right": report.slack_right, "ordered": report.ordered}
    return (0 if report.ordered else 1), _dumps(payload)


def _parse_grid(text: str) -> list:
    try:
        start, stop, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise ParameterError(f"grid must be start:stop:step, got {text!r}") from None
    _finite([start, stop, step], text)
    if step <= 0 or stop < start:
        raise ParameterError(f"bad grid range {text!r}")
    steps = (stop - start) / step  # inf once the step underflows the ratio
    # round(steps) + 1 points; compared as a float, before any int() or list
    if not steps < GRID_MAX_POINTS - 0.5:
        raise ParameterError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
    count = int(round(steps)) + 1
    return [start + i * step for i in range(count)]


def _read_columns(path: str, ncols: int) -> np.ndarray:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != ncols:
                raise ParameterError(f"{path}:{lineno}: expected {ncols} columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: non-numeric value in {row}") from None
            if not all(math.isfinite(v) for v in values):
                raise ParameterError(f"{path}:{lineno}: values must be finite, got {row}")
            rows.append(values)
    if not rows:
        raise ParameterError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _csv_floats(text: str) -> list:
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}") from None
    return _finite(values, text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ineqmeans",
        description="Means algebra, Young comparison, Cauchy-Bunyakovsky chain "
                    "refinements, and elementary bounds for the elliptic integral K. "
                    "Elliptic arguments are the modulus x (the x^2 under the root), "
                    "not the parameter m = x^2.")
    sub = p.add_subparsers(dest="command", required=True)

    means = sub.add_parser("means", help="evaluate means and check their axioms")
    means_sub = means.add_subparsers(dest="subcommand", required=True)
    m_eval = means_sub.add_parser("eval", help="evaluate M(x, y)")
    m_eval.add_argument("--spec", required=True, help="mean spec, e.g. power:2 or iter:warith:0.5,0.5|power:0")
    m_eval.add_argument("--x", type=float, required=True)
    m_eval.add_argument("--y", type=float, required=True)
    m_ax = means_sub.add_parser("axioms", help="randomized abstract-mean axiom check")
    m_ax.add_argument("--spec", required=True)
    m_ax.add_argument("--samples", type=int, default=1000)
    m_ax.add_argument("--seed", type=int, default=0)
    m_h = means_sub.add_parser("h-check", help="h-representation conditions on a grid")
    m_h.add_argument("--spec", required=True)
    m_h.add_argument("--grid", default="0,0.5,1,2", help="comma-separated nonnegative ascending t values")

    young = sub.add_parser("young", help="the two Young inequalities")
    young_sub = young.add_subparsers(dest="subcommand", required=True)
    y_cls = young_sub.add_parser("classify", help="compare the two right-hand sides")
    y_cls.add_argument("--x", type=float, required=True)
    y_cls.add_argument("--y", type=float, required=True)
    y_cls.add_argument("--p", type=float, required=True)
    y_cr = young_sub.add_parser("critical", help="critical y solving the transcendental equation")
    y_cr.add_argument("--x", type=float, required=True)
    y_cr.add_argument("--p", type=float, required=True)
    y_cr.add_argument("--tol", type=float, default=1e-12)
    y_gap = young_sub.add_parser("integral-gap", help="int f + int f^-1 - ab")
    y_gap.add_argument("--f", required=True, help="function spec, e.g. pow:3")
    y_gap.add_argument("--a", type=float, required=True)
    y_gap.add_argument("--b", type=float, required=True)

    cbs = sub.add_parser("cbs", help="Cauchy-Bunyakovsky chain refinements")
    cbs_sub = cbs.add_subparsers(dest="subcommand", required=True)
    c_d = cbs_sub.add_parser("discrete", help="discrete chain from a two-column CSV")
    c_d.add_argument("--mean", required=True)
    c_d.add_argument("--input", required=True, help="CSV path, two positive columns x,y")
    c_i = cbs_sub.add_parser("integral", help="integral chain for catalog functions")
    c_i.add_argument("--mean", required=True)
    c_i.add_argument("--f", required=True)
    c_i.add_argument("--g", required=True)
    c_i.add_argument("--a", type=float, required=True)
    c_i.add_argument("--b", type=float, required=True)
    c_i.add_argument("--tol", type=float, default=1e-10)
    c_q = cbs_sub.add_parser("q", help="Jackson q-integral chain")
    c_q.add_argument("--mean", required=True)
    c_q.add_argument("--f", required=True)
    c_q.add_argument("--g", required=True)
    c_q.add_argument("--q", type=float, required=True)
    c_q.add_argument("--tail-tol", type=float, default=1e-12)

    cmp_p = sub.add_parser("compare", help="order two middle-term generalizations")
    cmp_p.add_argument("--a", required=True, help="first mean spec")
    cmp_p.add_argument("--b", required=True, help="second mean spec")
    cmp_p.add_argument("--trials", type=int, default=1000)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--kind", choices=[k.value for k in ChainKind], default="mean")

    ell = sub.add_parser("elliptic", help="elliptic integral bounds")
    ell_sub = ell.add_subparsers(dest="subcommand", required=True)
    e_b = ell_sub.add_parser("bounds", help="six elementary bounds and reference K")
    grp = e_b.add_mutually_exclusive_group(required=True)
    grp.add_argument("--x", type=float)
    grp.add_argument("--grid", help="start:stop:step over the modulus")
    e_b.add_argument("--format", choices=["json", "csv"], default="json")

    dft = sub.add_parser("dft", help="discrete Fourier transform relations")
    dft_sub = dft.add_subparsers(dest="subcommand", required=True)
    d_u = dft_sub.add_parser("uncertainty", help="support-size uncertainty A*B >= n")
    d_u.add_argument("--input", required=True, help="CSV path, one complex column as re,im")
    d_u.add_argument("--zero-tol", type=float, default=1e-9)

    lor = sub.add_parser("lorentz", help="reversed chain for time-like vectors")
    lor_sub = lor.add_subparsers(dest="subcommand", required=True)
    l_c = lor_sub.add_parser("chain")
    l_c.add_argument("--x0", type=float, required=True)
    l_c.add_argument("--x", required=True, help="comma-separated positive spatial components")
    l_c.add_argument("--y0", type=float, required=True)
    l_c.add_argument("--y", required=True)
    l_c.add_argument("--mean", required=True)
    return p


def _run(args) -> tuple:
    """Return (exit_code, payload_text)."""
    _check_finite_args(args)
    cmd = args.command
    if cmd == "means":
        spec = parse_mean(args.spec)
        if args.subcommand == "eval":
            value = eval_mean(spec, args.x, args.y)
            return 0, _dumps({"spec": spec.to_string(), "x": args.x, "y": args.y,
                              "value": value})
        if args.subcommand == "axioms":
            report = check_axioms(spec, args.samples, args.seed)
            payload = {"spec": spec.to_string(), **asdict(report)}
            return (0 if report.all_passed else 1), _dumps(payload)
        grid = _csv_floats(args.grid)
        check = check_h_conditions(spec, grid)
        payload = {"spec": spec.to_string(), "h0_value": check.h0_value,
                   "ratio_violations": [list(v) for v in check.ratio_violations],
                   "even_violations": [list(v) for v in check.even_violations],
                   "grid": list(check.grid), "ok": check.ok}
        return (0 if check.ok else 1), _dumps(payload)

    if cmd == "young":
        if args.subcommand == "classify":
            c = young_pair(args.x, args.y, args.p)
            payload = {"x": c.x, "y": c.y, "p": c.p, "q": c.q, "product": c.product,
                       "rhs_standard": c.rhs_standard, "rhs_swapped": c.rhs_swapped,
                       "case": c.case_id.value, "winner": c.winner.value,
                       "y_critical": c.y_critical}
            return 0, _dumps(payload)
        if args.subcommand == "critical":
            y = critical_y(args.x, args.p, args.tol)
            return 0, _dumps({"x": args.x, "p": args.p, "y_critical": y})
        f = parse_function(args.f)
        gap = young_integral_gap(f, args.a, args.b, GAP_TOL)
        # the terms are int f, int f^-1 and ab, whose largest is ab + max(gap, 0)
        code = 0 if holds(gap, args.a * args.b + max(gap, 0.0), GAP_TOL) else 1
        return code, _dumps({"f": f.to_string(), "a": args.a, "b": args.b, "gap": gap})

    if cmd == "cbs":
        spec = parse_mean(args.mean)
        if args.subcommand == "discrete":
            data = _read_columns(args.input, 2)
            return _chain_result(cbs_chain(data[:, 0], data[:, 1], spec),
                                 mean=spec.to_string(), n=len(data))
        f = parse_function(args.f)
        g = parse_function(args.g)
        names = {"mean": spec.to_string(), "f": f.to_string(), "g": g.to_string()}
        if args.subcommand == "integral":
            report = integral_mean_chain(f, g, args.a, args.b, spec, tol=args.tol)
            return _chain_result(report, **names, a=args.a, b=args.b)
        return _chain_result(q_cbs_chain(f, g, args.q, spec, tail_tol=args.tail_tol),
                             **names, q=args.q)

    if cmd == "compare":
        spec_a = parse_mean(args.a)
        spec_b = parse_mean(args.b)
        verdict = compare_generalizations(spec_a, spec_b, args.trials, args.seed,
                                          kind=ChainKind(args.kind))
        payload = {"a": spec_a.to_string(), "b": spec_b.to_string(),
                   "kind": args.kind, "relation": verdict.relation.value,
                   "trials": verdict.trials, "seed": verdict.seed,
                   "witnesses": [asdict(w) for w in verdict.witnesses],
                   "note": ("incomparable is a two-witness certificate; directional "
                            "verdicts mean 'consistent with the order over the sampled trials'")}
        return 0, _dumps(payload)

    if cmd == "elliptic":
        xs = [args.x] if args.x is not None else _parse_grid(args.grid)
        reports = [bounds(x) for x in xs]
        all_ok = all(r.chain_ok for r in reports)
        if args.format == "csv":
            out = io.StringIO()
            out.write("x," + ",".join(CHAIN_FIELDS) + ",chain_ok\n")
            for r in reports:
                row = (r.x, *r.chain(), r.chain_ok)
                out.write(",".join(_fmt17(v) for v in row) + "\n")
            return (0 if all_ok else 1), out.getvalue().rstrip("\n")
        payload = [asdict(r) for r in reports]  # the fields, in order, are the keys
        return (0 if all_ok else 1), _dumps(payload if args.x is None else payload[0])

    if cmd == "dft":
        data = _read_columns(args.input, 2)
        vec = data[:, 0] + 1j * data[:, 1]
        report = dft_uncertainty(vec, zero_tol=args.zero_tol)
        return (0 if report.holds else 1), _dumps(asdict(report))

    # lorentz chain
    spec = parse_mean(args.mean)
    report = lorentz_chain(args.x0, _csv_floats(args.x), args.y0, _csv_floats(args.y), spec)
    return _chain_result(report, mean=spec.to_string(), x0=args.x0, y0=args.y0,
                         reversed=True)


def dispatch(argv) -> CommandResult:
    """Route an argv list; deterministic output for fixed argv."""
    parser = _build_parser()
    err = io.StringIO()
    out = io.StringIO()
    try:
        with redirect_stderr(err), redirect_stdout(out):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(2 if code != 0 else 0, out.getvalue(), err.getvalue())
    try:
        # overflow shows up as a non-finite result, a DomainError; numpy's
        # RuntimeWarnings would only leak to stderr ahead of the error line
        with np.errstate(all="ignore"):
            code, payload = _run(args)
        return CommandResult(code, payload + "\n", "")
    except ParameterError as exc:
        return CommandResult(2, "", f"error: {exc}\n")
    except (DomainError, ConvergenceError) as exc:
        return CommandResult(3, "", f"error: {exc}\n")
    except ArithmeticError as exc:  # e.g. OverflowError from math.exp
        return CommandResult(3, "", f"error: {type(exc).__name__}: {exc}\n")
    except OSError as exc:
        return CommandResult(2, "", f"error: {exc}\n")


def main() -> None:
    result = dispatch(sys.argv[1:])
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
