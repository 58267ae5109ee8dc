"""Integral Cauchy-Bunyakovsky chains and the ordering of their middle terms.

Two families of refinements are implemented.  The mean form inserts

    (int fg)^2 <= int M(f,g)^2 * int M*(f,g)^2 <= int f^2 * int g^2

for any unbiased homogeneous monotone mean M.  The log-derivative form
(for positive nondecreasing f, g) inserts

    Phi1(x) = exp(2 int_a^x M(Lf, Lg) dy),  Phi2 = f^2 g^2 / Phi1,

with Lh = h'/h; the factors of this second family are deliberately not
squares of homogeneous expressions, which is why it has no discrete
counterpart.  Both families extend to an arbitrary admissible h-function
via M(u, v) = (u + v) h(ln(v/u)).

In both forms the five integrals [fg, Phi1, Phi2, f^2, g^2] share their
nodes, so the errors of near-equal terms (Phi1 and g^2 when max picks Lg)
cancel.  Both forms adapt a Gauss-Kronrod partition from the same start:
8 uniform panels, split at the kinks of a min/max-type mean
(``_start_panels``).  The mean form adapts the five integrands together on
it.  The log-derivative form runs its inner integral int_a^x M(Lf, Lg) and
the outer ones on one such partition, with f, g, f' and g' evaluated once
per node (notes/decisions.md, "Log-derivative partition").

Middle terms of two refinements are partially ordered by pointwise
domination; the sampling comparator searches a fixed function catalog for
directional evidence or a certified two-sided (incomparable) witness pair,
each trial's middles from fixed Gauss-Kronrod panels with an error bar,
evaluated in blocks of rows with the digits of one trial at a time
(notes/decisions.md, "Comparator panels" and "Comparator blocks").  The
chain and the comparator share one kink scan (``_find_kinks``) and, in the
log-derivative form, one factor kernel: ``_inner_sums`` for v at the nodes,
``_log_factors`` for Phi1 and Phi2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .functions import (FunctionFamily, FunctionSpec, _grid, validate_nonneg_derivative,
                        validate_positive)
from .means import (MeanFamily, MeanSpec, OrderKind, check_h_function, conjugate_from_mean,
                    mean_values)
from .quadrature import (_WEIGHTS, _accepted, _adapt, _bisect, _cumulative_weights, _interval,
                         _nodes, _panels, _per_panel)
# no caller in this module: the traced benchmark binds these names here until
# its fixed-grid, Hermite and quadrature spans move (ROADMAP item 5)
from .quadrature import (CubicHermite, composite_simpson,  # noqa: F401
                         cumulative_simpson, quadrature, simpson_nodes)
from .reports import ChainReport, chain_report
from .sampling import _MASK32, _lemire, _unit, spawn_raw, spawn_rng

__all__ = ["ChainKind", "integral_mean_chain", "integral_logderiv_chain",
           "logderiv_phi1", "product_identity_check", "general_h_chain",
           "Relation", "Witness", "OrderVerdict", "compare_generalizations"]


class ChainKind(Enum):
    MEAN_FORM = "mean"
    LOG_DERIV_FORM = "logderiv"


# ---------------------------------------------------------------------------
# mean callables
# ---------------------------------------------------------------------------

def _mean_fn_from_h(h: Callable[[float], float]) -> Callable:
    hv = np.vectorize(h, otypes=[float])

    def fn(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        pos = (u > 0) & (v > 0)
        t = np.where(pos, np.log(np.where(pos, v, 1.0) / np.where(pos, u, 1.0)), 0.0)
        # a zero argument corresponds to t -> +-inf; 700 is past double range
        t = np.where(pos, t, np.where(v > u, 700.0, -700.0))
        return (u + v) * hv(np.clip(t, -700.0, 700.0))

    return fn


# ---------------------------------------------------------------------------
# mean-form chain
# ---------------------------------------------------------------------------

# Both integral chains start their adaptation on this many uniform panels,
# plus the kinks: from one panel a mean-form chain needed 1.69 levels and a
# log-derivative chain 2.7, each a fixed cost (notes/decisions.md,
# "Log-derivative partition").
_START_PANELS = 8


def _start_panels(a: float, b: float, breaks: Sequence[float] = ()) -> tuple:
    """Midpoints and half-widths of the start panels of [a, b]: the
    ``_START_PANELS`` uniform panels split at the interior ``breaks``.  A
    break on a uniform edge merges with it, so no panel has zero width."""
    edges = _grid(a, b, _START_PANELS + 1)
    if len(breaks):
        edges = np.union1d(edges, breaks)
    return _panels(edges)


def _kinks_on_diagonal(spec: MeanSpec) -> bool:
    """True when M(x, y) is not differentiable where x = y (min/max types)."""
    family = spec.family
    if family is MeanFamily.ITERATED:
        return any(_kinks_on_diagonal(inner) for inner in spec.inner)
    if family in (MeanFamily.POWER, MeanFamily.RADO):
        return spec.order.kind in (OrderKind.NEG_INF, OrderKind.POS_INF)
    return family in (MeanFamily.MIN, MeanFamily.MAX)


def _mean_chain(f, g, a: float, b: float, mfn: Callable, tol: float,
                kinked: bool) -> ChainReport:
    """The mean-form chain of f, g, validated here, from one adaptation of
    [fg, M^2, M*^2, f^2, g^2] on the start panels; ``kinked`` marks a mean
    that kinks on the diagonal, so the integrands kink where f and g cross
    and the panels are split there."""
    validate_positive(f, a, b, "f")
    validate_positive(g, a, b, "g")

    def integrand(t):
        ft = np.asarray(f(t), dtype=float)
        gt = np.asarray(g(t), dtype=float)
        m = mfn(ft, gt)
        rows = np.empty((5,) + t.shape)
        np.multiply(ft, gt, out=rows[0])
        np.multiply(m, m, out=rows[1])
        conj = conjugate_from_mean(ft, gt, m)
        np.multiply(conj, conj, out=rows[2])
        np.multiply(ft, ft, out=rows[3])
        np.multiply(gt, gt, out=rows[4])
        return rows

    breaks = ()
    if kinked:
        breaks = _find_kinks(lambda t: np.asarray(f(t), dtype=float) - np.asarray(g(t), dtype=float),
                             a, b)
    fg, mid1, mid2, ff, gg = _adapt(integrand, a, b, tol, *_start_panels(a, b, breaks)).total.tolist()
    # judged at the tolerance the terms were computed to
    return chain_report(fg ** 2, mid1 * mid2, ff * gg, tol)


def integral_mean_chain(f, g, a: float, b: float, spec: MeanSpec,
                        tol: float = 1e-10) -> ChainReport:
    """Evaluate (int fg)^2 <= int M^2 * int M*^2 <= int f^2 int g^2.

    The five integrals [fg, M^2, M*^2, f^2, g^2] share one adaptive
    Gauss-Kronrod partition, started, as the log-derivative chain's is, from
    8 uniform panels split where f and g cross (for min/max-type means,
    which kink there), each interval bisected until every row meets its
    width share of max(tol, tol |I|).
    """
    a, b = _interval(a, b, tol)
    return _mean_chain(f, g, a, b, lambda u, v: mean_values(spec, u, v), tol,
                       _kinks_on_diagonal(spec))


# ---------------------------------------------------------------------------
# log-derivative chain
# ---------------------------------------------------------------------------

def _logderiv_mean(spec: MeanSpec) -> Callable:
    """M(Lf, Lg), Lh = h'/h, as a callable on node values (f, g, f', g')."""
    if spec.family is MeanFamily.MEDIANT:
        # mediant of the formal fractions f'/f and g'/g
        return lambda fv, gv, dfv, dgv: (dfv + dgv) / (fv + gv)
    return _of_logderivs(lambda u, v: mean_values(spec, u, v))


def _of_logderivs(mfn: Callable) -> Callable:
    return lambda fv, gv, dfv, dgv: mfn(dfv / fv, dgv / gv)


# the kink scan's grid, linspace(a, b, 1025): 1024 cells
_SCAN_POINTS = 1025


def _find_kinks(diff_fn: Callable, a: float, b: float,
                even: Optional[np.ndarray] = None) -> list:
    """Interior sign changes of diff_fn (where min/max-type means kink).

    A scan of diff_fn on the 1025-point scan grid brackets each change;
    ``even`` gives its values at the even nodes when the caller has them
    (the comparator, from its block scan).  Rounds of 257-point subdivision
    then narrow each bracket, to ulp width or for at most 6 rounds.
    """
    ts = _grid(a, b, _SCAN_POINTS)
    d = np.empty(len(ts))
    d[::2] = diff_fn(ts[::2]) if even is None else even
    d[1::2] = diff_fn(ts[1::2])
    kinks = []
    for i in np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]:
        lo, hi, side = ts[i], ts[i + 1], np.sign(d[i])
        for _ in range(6):
            if np.nextafter(lo, hi) >= hi:
                break
            sub = np.linspace(lo, hi, 257)
            # sub[0] = lo keeps the sign; the first change (or zero) closes the bracket
            j = int(np.argmax(np.sign(np.asarray(diff_fn(sub), dtype=float)) != side))
            lo, hi = sub[j - 1], sub[j]
        kinks.append(0.5 * (float(lo) + float(hi)))
    eps = 1e-10 * (b - a)
    return [k for k in kinks if a + eps < k < b - eps]


@functools.lru_cache(maxsize=None)
def _inner_weights() -> np.ndarray:
    """(15, 17): a panel's inner integral at its 15 nodes (the integration
    matrix S^T), its K15 total and its K15 - G7 difference.  Built on first
    use, so commands without a log-derivative integral do not build it."""
    return np.concatenate([_cumulative_weights().T, _WEIGHTS], axis=1)


def _inner_sums(mv: np.ndarray, hw: np.ndarray) -> tuple:
    """v = int mv on GK15 panels of half-widths hw (..., P), left to right on
    the last axis, from node-major mv (15, ..., P): the panel sums (17, ...,
    P), ``_inner_weights`` times hw, and the K15 totals to each panel's left
    (..., P), so v = sums[:15] + start at the nodes."""
    sums = _per_panel(mv, _inner_weights())
    sums *= hw
    start = np.zeros_like(hw)
    np.cumsum(sums[15, ..., :-1], axis=-1, out=start[..., 1:])
    return sums, start


def _log_factors(sums: np.ndarray, start: np.ndarray, fg: np.ndarray,
                 phi1: np.ndarray, phi2: np.ndarray) -> None:
    """Phi1 = exp(2v) and Phi2 = (fg)^2 exp(-2v) at the nodes, v from
    ``_inner_sums``, written into phi1 and phi2 (15, ..., P) one after the
    other (why: notes/decisions.md, "Comparator panels")."""
    np.add(sums[:15], start, out=phi1)
    phi1 *= 2.0
    np.negative(phi1, out=phi2)
    np.exp(phi1, out=phi1)
    np.exp(phi2, out=phi2)
    phi2 *= fg * fg


@dataclass(frozen=True)
class _Antiderivative:
    """v(x) = int_a^x lmean on an accepted GK15 partition of [a, b].

    The intervals run left to right; ``values`` holds lmean, f and g at their
    15 nodes, node-major (3, 15, n), and ``sample`` evaluates that stack at
    new nodes.  Within an interval v is the integral of the degree-14 interpolant
    of lmean through its nodes (the integration matrix S, or K15 mapped onto
    [-1, u] at other points), plus ``start``, the K15 totals of the intervals
    to its left.
    """

    a: float
    b: float
    sample: Callable
    tol: float  # the inner target that every interval meets
    mid: np.ndarray
    hw: np.ndarray
    depth: np.ndarray
    values: np.ndarray
    sums: np.ndarray   # (17, n): S applied to lmean, its K15 and K15 - G7, times hw
    start: np.ndarray  # (n,)

    @classmethod
    def on(cls, a: float, b: float, sample: Callable, tol: float, mid: np.ndarray,
           hw: np.ndarray, depth: np.ndarray, values: np.ndarray) -> "_Antiderivative":
        return cls(a, b, sample, tol, mid, hw, depth, values, *_inner_sums(values[0], hw))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = np.empty(xs.size)
        # the weights take (points, 15, 15) temporaries: a block of points at a time
        for lo in range(0, xs.size, 1024):
            pts = xs.ravel()[lo:lo + 1024]
            idx = np.clip(np.searchsorted(self.mid - self.hw, pts, side="right") - 1,
                          0, len(self.mid) - 1)
            weights = _cumulative_weights(np.clip((pts - self.mid[idx]) / self.hw[idx], -1, 1))
            m = self.values[0][:, idx]
            # node by node, as the panel sums add them
            inner = weights[:, 0] * m[0]
            for k in range(1, 15):
                inner += weights[:, k] * m[k]
            out[lo:lo + 1024] = inner * self.hw[idx] + self.start[idx]
        return out.reshape(xs.shape)

    def refined(self, bad: np.ndarray) -> "_Antiderivative":
        """The table with each ``bad`` interval bisected and its halves
        adapted to the inner target again.  The halves count as one level
        deeper than the deepest bad interval, so the engine's caps bound the
        refinement."""
        depth = int(self.depth[bad].max())
        mid, hw = _bisect(self.mid[bad], self.hw[bad], depth, self.a, self.b)
        keep = ~bad
        halves = _adapt(self.sample, self.a, self.b, self.tol, mid, hw, judged=1,
                        accepted=float(self.sums[15, keep].sum()),
                        depth=depth + 1).partition()
        merged = [np.concatenate([old[..., keep], new], axis=-1)
                  for old, new in zip((self.mid, self.hw, self.depth, self.values), halves)]
        order = np.argsort(merged[0])
        return self.on(self.a, self.b, self.sample, self.tol, *(x[..., order] for x in merged))


def _tabulate_antiderivative(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                             lmean: Callable, inner_tol: float,
                             breaks: Sequence[float] = ()) -> _Antiderivative:
    """int_a^x lmean(f, g, f', g') on the GK15 partition that meets inner_tol:
    the start panels split at the ``breaks`` (interior kinks), each interval
    bisected until lmean meets its share of the target."""

    def sample(t):  # one evaluation of each of f, g, f' and g'
        fv = np.asarray(f(t), dtype=float)
        gv = np.asarray(g(t), dtype=float)
        return np.stack([lmean(fv, gv, f.derivative(t), g.derivative(t)), fv, gv])

    mid, hw = _start_panels(a, b, breaks)
    return _Antiderivative.on(a, b, sample, inner_tol,
                              *_adapt(sample, a, b, inner_tol, mid, hw, judged=1).partition())


def _outer_integrals(table: _Antiderivative, tol: float) -> tuple:
    """The five chain integrals [fg, Phi1, Phi2, f^2, g^2] on the table's
    nodes, Phi1 = exp(2v) and Phi2 = f^2 g^2 exp(-2v), and the mask of the
    intervals where one of them misses its width share of max(tol, tol |I|)."""
    fv, gv = table.values[1], table.values[2]
    rows = np.empty((15, 5) + table.hw.shape)
    np.multiply(fv, gv, out=rows[:, 0])
    _log_factors(table.sums, table.start, rows[:, 0], rows[:, 1], rows[:, 2])
    np.multiply(fv, fv, out=rows[:, 3])
    np.multiply(gv, gv, out=rows[:, 4])
    if not np.isfinite(rows).all():
        raise DomainError("log-derivative chain integrand is not finite on [a, b]")
    sums = _per_panel(rows, _WEIGHTS)
    sums *= table.hw
    totals = sums[0].sum(axis=-1)
    return totals, ~_accepted(sums[1], totals, tol, table.b - table.a, table.hw)


def _logderiv_gap(fv, gv, dfv, dgv):
    return dfv / fv - dgv / gv


def _logderiv_breaks(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                     kinked: bool) -> list:
    """Certify f, g > 0 and f', g' >= 0 on [a, b] for the log-derivative
    forms.  ``kinked`` marks a mean that kinks on the diagonal: then the
    crossings of Lf - Lg are returned, scanned on the 1025 scan nodes; else
    no breaks."""
    validate_positive(f, a, b, "f", strict=True)
    validate_positive(g, a, b, "g", strict=True)
    validate_nonneg_derivative(f, a, b, "f")
    validate_nonneg_derivative(g, a, b, "g")
    if not kinked:
        return []
    return _find_kinks(lambda t: _logderiv_gap(f(t), g(t), f.derivative(t), g.derivative(t)),
                       a, b)


def _logderiv_chain(f: FunctionSpec, g: FunctionSpec, a: float, b: float, lmean: Callable,
                    inner_tol: float, outer_tol: float, kinked: bool) -> ChainReport:
    breaks = _logderiv_breaks(f, g, a, b, kinked)
    table = _tabulate_antiderivative(f, g, a, b, lmean, inner_tol, breaks)
    while True:
        totals, bad = _outer_integrals(table, outer_tol)
        if not bad.any():
            break
        table = table.refined(bad)
    fg, mid1, mid2, ff, gg = totals.tolist()
    # the inner integral's error enters Phi1 and Phi2 alongside the outer one
    return chain_report(fg ** 2, mid1 * mid2, ff * gg, max(inner_tol, outer_tol))


def integral_logderiv_chain(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                            spec: MeanSpec, inner_tol: float = 1e-10,
                            outer_tol: float = 1e-8) -> ChainReport:
    """Chain with Phi1 = exp(2 int_a^x M(Lf, Lg)) and Phi2 = f^2 g^2 / Phi1.

    Requires f, g positive with nonnegative derivatives on [a, b].  Inner and
    outer integrals share one adaptive Gauss-Kronrod partition: started from
    8 uniform panels (and the crossings of the log-derivatives, where
    min/max-type means kink), bisected until M(Lf, Lg) meets inner_tol; its
    antiderivative at every node comes from the spectral integration matrix
    plus the totals to the left, and the five chain integrands are formed at
    the same nodes.  An interval where one of them misses outer_tol is
    bisected, and the outer integrals are taken again.

    Nonnegative log-derivatives alone do not make the right inequality hold
    for every mean: when Lf - Lg changes sign, means far from the arithmetic
    one (max, or power orders around 50 on concrete pairs) can push the
    middle above int f^2 int g^2.  When Lf - Lg keeps one sign, min and max
    give exact equality with the right side and every intermediate mean stays
    inside the chain.  The report carries honest slacks either way.
    """
    a, b = _interval(a, b, inner_tol, outer_tol)
    return _logderiv_chain(f, g, a, b, _logderiv_mean(spec), inner_tol, outer_tol,
                           _kinks_on_diagonal(spec))


def logderiv_phi1(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                  spec: MeanSpec, inner_tol: float = 1e-10) -> Callable:
    """The first log-derivative factor Phi1 as a callable on [a, b].

    Exposed separately so the non-homogeneity of the factors (Phi1 is
    invariant under f, g -> lam f, lam g rather than quadratic in lam) can be
    witnessed directly.  It raises ParameterError at a point outside [a, b].
    """
    a, b = _interval(a, b, inner_tol)
    breaks = _logderiv_breaks(f, g, a, b, _kinks_on_diagonal(spec))
    table = _tabulate_antiderivative(f, g, a, b, _logderiv_mean(spec), inner_tol, breaks)
    return lambda x: np.exp(2.0 * table(_inside(x, a, b)))


def _inside(x, a: float, b: float) -> np.ndarray:
    """x as floats; ParameterError unless every point lies in [a, b] (NaN not)."""
    xs = np.asarray(x, dtype=float)
    if not ((xs >= a) & (xs <= b)).all():
        raise ParameterError(f"points must lie inside [{a}, {b}]")
    return xs


# ---------------------------------------------------------------------------
# product identity (both chain kinds)
# ---------------------------------------------------------------------------

def product_identity_check(f, g, a: float, b: float, kind: ChainKind,
                           spec: MeanSpec, grid: Optional[Sequence[float]] = None,
                           rtol: float = 1e-10, phi2: Optional[Callable] = None):
    """Verify Phi1(x) Phi2(x) = f(x)^2 g(x)^2 pointwise on the grid.

    For the mean form Phi1 = M^2, Phi2 = M*^2; for the log-derivative form
    Phi2 is recomputed independently as f(a)^2 g(a)^2 exp(2 int (Lf+Lg-M))
    so the identity is a genuine two-route check.  ``phi2`` overrides the
    second factor (negative-control hook).  Returns (ok, max relative
    deviation).
    """
    a, b = _interval(a, b, rtol)
    xs = _inside(grid if grid is not None else np.linspace(a, b, 32), a, b)
    fx = np.asarray(f(xs), dtype=float)
    gx = np.asarray(g(xs), dtype=float)
    rhs = (fx * gx) ** 2
    if kind is ChainKind.MEAN_FORM:
        m = mean_values(spec, fx, gx)
        phi1_vals = m ** 2
        phi2_vals = (np.asarray(phi2(xs), dtype=float) if phi2 is not None
                     else conjugate_from_mean(fx, gx, m) ** 2)
    else:
        breaks = _logderiv_breaks(f, g, a, b, _kinks_on_diagonal(spec))
        lmean = _logderiv_mean(spec)
        table1 = _tabulate_antiderivative(f, g, a, b, lmean, 1e-12, breaks)
        phi1_vals = np.exp(2.0 * table1(xs))
        if phi2 is not None:
            phi2_vals = np.asarray(phi2(xs), dtype=float)
        else:
            def complement(fv, gv, dfv, dgv):
                return dfv / fv + dgv / gv - lmean(fv, gv, dfv, dgv)

            table2 = _tabulate_antiderivative(f, g, a, b, complement, 1e-12, breaks)
            phi2_vals = (float(f(a)) * float(g(a))) ** 2 * np.exp(2.0 * table2(xs))
    worst = float(np.max(np.abs(phi1_vals * phi2_vals - rhs) / np.maximum(np.abs(rhs), 1e-300)))
    return worst <= rtol, worst


# ---------------------------------------------------------------------------
# general h-form chains
# ---------------------------------------------------------------------------

_H_VALIDATION_GRID = tuple(np.linspace(0.0, 4.0, 17))


def general_h_chain(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                    h: Callable[[float], float], kind: ChainKind,
                    validation_grid: Optional[Sequence[float]] = None,
                    tol: float = 1e-10) -> ChainReport:
    """Chain built from an arbitrary admissible h via M(u,v) = (u+v) h(ln(v/u)).

    h must be even with h(0) = 1/2 and satisfy the two-sided ratio growth
    bound; this is validated on a grid before use and a violation raises
    ParameterError.
    """
    a, b = _interval(a, b, tol)
    check = check_h_function(h, validation_grid or _H_VALIDATION_GRID, rtol=1e-9)
    if not check.ok:
        raise ParameterError(
            f"h violates the mean-representation conditions: h(0)={check.h0_value!r}, "
            f"{len(check.ratio_violations)} ratio and {len(check.even_violations)} evenness violations")
    mfn = _mean_fn_from_h(h)
    if kind is ChainKind.MEAN_FORM:
        return _mean_chain(f, g, a, b, mfn, tol, kinked=True)  # h is opaque
    # h is opaque: scan for crossings of the log-derivatives
    return _logderiv_chain(f, g, a, b, _of_logderivs(mfn), tol, max(tol, 1e-8), kinked=True)


# ---------------------------------------------------------------------------
# comparison of generalizations (the precedence order on middle terms)
# ---------------------------------------------------------------------------

class Relation(Enum):
    A_PREC_B = "a-prec-b"
    B_PREC_A = "b-prec-a"
    INCOMPARABLE = "incomparable"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Witness:
    f: str
    g: str
    a: float
    b: float
    middle_a: float
    middle_b: float


@dataclass(frozen=True)
class OrderVerdict:
    relation: Relation
    witnesses: tuple
    trials: int
    seed: int


_COMPARE_INTERVALS = (0.5, 1.0, 2.0)
# GK15 panels per row: 120 nodes in the mean form, 480 in the log-derivative
# form, whose factors exp(+-2v) amplify the inner integral's error
_PANELS = {ChainKind.MEAN_FORM: 8, ChainKind.LOG_DERIV_FORM: 32}
# trials per evaluated block: small at first so an early exit wastes few
# trials, then doubling while a block holds at most _BLOCK_NODES panel nodes
# (256 rows in the mean form, 64 in the log-derivative form)
_BLOCK_FIRST = 8
_BLOCK_NODES = 2 ** 15
# QUADPACK's floor on a rule's error estimate, relative to its total
_ROUNDING = 50.0 * np.finfo(float).eps


# catalog kinds in draw order; each member takes the first _KIND_ARITY of the
# three coefficients drawn for it
_KIND_FAMILIES = (FunctionFamily.EXP, FunctionFamily.AFFINE, FunctionFamily.POLY,
                  FunctionFamily.EXP_OF_POLY)
_KIND_ARITY = (1, 2, 3, 2)


def _kind_slots(family: FunctionFamily, arity: int) -> tuple:
    # where c0, c1, c2 of the member's c0 + c1 t + c2 t^2 sit in
    # (0, drawn coefficients...); exp:k is exp(k t)
    if family is FunctionFamily.EXP:
        return (0, 1, 0)
    return tuple(j + 1 if j < arity else 0 for j in range(3))


_KIND_SLOTS = np.array([_kind_slots(f, n) for f, n in zip(_KIND_FAMILIES, _KIND_ARITY)])
_KIND_EXP = np.array([f in (FunctionFamily.EXP, FunctionFamily.EXP_OF_POLY)
                      for f in _KIND_FAMILIES])


def _catalog_member(kind: int, c) -> FunctionSpec:
    return FunctionSpec(_KIND_FAMILIES[kind], tuple(float(v) for v in c[:_KIND_ARITY[kind]]))


def _read_on(seed: int, index: int, n: int) -> int:
    """The draw after a rejected low half of word 7 of trial ``index``, as
    integers(0, n) takes it: the high half of word 7, then each later word
    of the stream low half first, until one is accepted."""
    bits = spawn_rng(seed, index).bit_generator
    halves = bits.random_raw(8)[7:] >> np.uint64(32)
    while True:
        values, rejected = _lemire(halves, n)
        if not rejected.all():
            return int(values[np.argmin(rejected)])
        word = bits.random_raw(1)
        halves = np.concatenate([word & np.uint64(_MASK32), word >> np.uint64(32)])


def _draw_block(seed: int, start: int, stop: int) -> tuple:
    """Kinds (2, n) and coefficients (2, n, 3) of f and g, and interval
    indices (n,), of trials start..stop-1, each read off the raw words of
    its own stream (``spawn_raw``), so a trial does not depend on its block.

    f's kind is the low half of word 0 and its coefficients 10 ** (2u - 1)
    for the doubles u of words 1-3, g's kind the high half of word 0 and its
    coefficients words 4-6, and the interval the low half of word 7. Four
    kinds divide 2**32, so no kind draw is rejected; a rejected interval
    draw (probability 2**-32) reads on (``_read_on``).
    """
    w = spawn_raw(seed, start, stop)
    low, high = w & np.uint64(_MASK32), w >> np.uint64(32)
    kinds = _lemire(np.stack([low[:, 0], high[:, 0]]), len(_KIND_FAMILIES))[0]
    coeffs = (10.0 ** (-1.0 + 2.0 * _unit(w[:, 1:7]))).reshape(-1, 2, 3).transpose(1, 0, 2)
    intervals, redraw = _lemire(low[:, 7], len(_COMPARE_INTERVALS))
    for row in np.flatnonzero(redraw):
        intervals[row] = _read_on(seed, start + row, len(_COMPARE_INTERVALS))
    return kinds, coeffs, intervals


def _catalog_rows(kinds: np.ndarray, coeffs: np.ndarray, xs: np.ndarray, derivative: bool):
    """Values (and derivatives, else None) of catalog members on the rows of
    xs: member [m, i], of kind kinds[m, i] with the drawn coefficients
    coeffs[m, i, :], on row i, xs[..., i, :] (any leading axes of xs are
    shared by every member); the result has shape (len(kinds),) + xs.shape.

    Every catalog family is an optional exp of c0 + c1 t + c2 t^2 (exp:k is
    (0, k, 0)); Horner in numpy polyval's order on the zero-padded
    coefficients reproduces FunctionSpec.__call__ and .derivative bit for bit.
    """
    padded = np.concatenate([np.zeros(coeffs.shape[:-1] + (1,)), coeffs], axis=-1)
    poly = np.take_along_axis(padded, _KIND_SLOTS[kinds], axis=-1)
    # (members, 1 per leading axis of xs, rows, 1 point)
    shape = kinds.shape[:1] + (1,) * (xs.ndim - 2) + kinds.shape[1:] + (1,)
    c0, c1, c2 = (poly[..., i].reshape(shape) for i in range(3))
    values = c2 * xs  # c0 + (c1 + c2 t) t, in place
    values += c1
    values *= xs
    values += c0
    exp_rows = _KIND_EXP[kinds].reshape(shape)
    np.exp(values, out=values, where=exp_rows)
    if not derivative:
        return values, None
    slopes = (2.0 * c2) * xs
    slopes += c1
    np.multiply(slopes, values, out=slopes, where=exp_rows)
    return values, slopes


def _panel_nodes(edges: np.ndarray) -> tuple:
    """Nodes (15, rows, P), node-major, and half-widths (rows, P) of the GK15
    panels between consecutive edges (rows, P + 1)."""
    mid, hw = _panels(edges)
    return _nodes(mid, hw), hw


@dataclass(frozen=True)
class _PanelRows:
    """A block's rows on their panels: f, g (and f', g' in the log-derivative
    form) at the nodes, (15, rows, P), and the panels' half-widths."""

    hw: np.ndarray  # (rows, P)
    fv: np.ndarray
    gv: np.ndarray
    dfv: Optional[np.ndarray]
    dgv: Optional[np.ndarray]


def _rows_on_panels(kind: ChainKind, kinds: np.ndarray, coeffs: np.ndarray,
                    nodes: np.ndarray, hw: np.ndarray) -> _PanelRows:
    (fv, gv), slopes = _catalog_rows(kinds, coeffs, nodes, kind is ChainKind.LOG_DERIV_FORM)
    return _PanelRows(hw, fv, gv, *((None, None) if slopes is None else slopes))


def _member_gap(kind: ChainKind, kinds: np.ndarray, coeffs: np.ndarray, ts: np.ndarray):
    """f - g (mean form) or Lf - Lg of the catalog rows at ts: where it
    changes sign, min/max-type means kink."""
    (fv, gv), slopes = _catalog_rows(kinds, coeffs, ts, kind is ChainKind.LOG_DERIV_FORM)
    return fv - gv if slopes is None else _logderiv_gap(fv, gv, *slopes)


def _snap(edges: np.ndarray, roots: np.ndarray) -> Optional[np.ndarray]:
    """``edges`` of one row with an interior edge moved onto each root
    (sorted): the nearest one, else the next free one to its right, else to
    its left. None when there are more roots than interior edges."""
    panels = len(edges) - 1
    step = (edges[-1] - edges[0]) / panels
    k = np.clip(np.rint((roots - edges[0]) / step).astype(int), 1, panels - 1)
    for i in range(1, len(k)):
        k[i] = max(k[i], k[i - 1] + 1)
    k[-1] = min(k[-1], panels - 1)
    for i in range(len(k) - 2, -1, -1):
        k[i] = min(k[i], k[i + 1] - 1)
    if k[0] < 1:
        return None
    out = edges.copy()
    out[k] = roots
    return out


def _snapped_rows(kind: ChainKind, kinds: np.ndarray, coeffs: np.ndarray, edges: np.ndarray,
                  first: int) -> _PanelRows:
    """The block on panels with an edge on each crossing of the kink gap, for
    means that kink on the diagonal.

    _find_kinks finds each row's crossings from its own scan grid, one
    catalog call scanning the whole block (a crossing row's odd nodes are
    evaluated again). A trial with more crossings than interior panel edges
    raises ConvergenceError; ``first`` is the index of the block's first
    trial.
    """
    scan = np.stack([_grid(lo, hi, _SCAN_POINTS) for lo, hi in edges[:, [0, -1]].tolist()])
    gaps = _member_gap(kind, kinds, coeffs, scan)
    moved = edges.copy()
    for row in np.nonzero((np.sign(gaps[:, :-1]) * np.sign(gaps[:, 1:]) < 0).any(axis=1))[0]:
        mine = kinds[:, row:row + 1], coeffs[:, row:row + 1]
        roots = _find_kinks(lambda t: _member_gap(kind, *mine, t[None])[0],
                            edges[row, 0], edges[row, -1], gaps[row, ::2])
        if not roots:
            continue
        snapped = _snap(edges[row], np.array(roots))
        if snapped is None:
            raise ConvergenceError(f"trial {first + row}: {len(roots)} kinks, more than the "
                                   f"{len(edges[row]) - 2} interior panel edges to snap")
        moved[row] = snapped
    return _rows_on_panels(kind, kinds, coeffs, *_panel_nodes(moved))


def _panel_integrals(values: np.ndarray, hw: np.ndarray) -> tuple:
    """Totals of each of values (k, 15, rows, P) over the GK15 panels of
    half-widths hw (rows, P), and their error estimates: the sum over panels
    of max(|K15 - G7|, 50 eps |K15|)."""
    est, diff = np.stack([_per_panel(v, _WEIGHTS) for v in values], axis=1) * hw
    err = np.maximum(np.abs(diff), _ROUNDING * np.abs(est))
    return est.sum(axis=-1), err.sum(axis=-1)


# per-trial cost against the Simpson grids and the adaptive chain:
# notes/decisions.md, "Comparator panels"
def _middle_fixed(kind: ChainKind, spec: MeanSpec, rows: _PanelRows) -> tuple:
    """Middle terms of a block, one per row, and their relative error bars.

    The mean form integrates M^2 and M*^2 over the row's panels. The
    log-derivative form takes v = int_0^x M(Lf, Lg) at every node (the
    integration matrix within a panel plus the totals of the panels before
    it) and integrates Phi1 = exp(2v) and Phi2 = f^2 g^2 exp(-2v). A bar sums
    each factor's error estimate relative to its total, plus, in the
    log-derivative form, the inner integral's estimate twice per factor:
    an error e in v moves exp(+-2v) by a relative 2e.
    """
    if kind is ChainKind.MEAN_FORM:
        m = mean_values(spec, rows.fv, rows.gv)
        conj = conjugate_from_mean(rows.fv, rows.gv, m)
        (i1, i2), (e1, e2) = _panel_integrals((m * m, conj * conj), rows.hw)
        return i1 * i2, e1 / np.abs(i1) + e2 / np.abs(i2)
    sums, start = _inner_sums(_logderiv_mean(spec)(rows.fv, rows.gv, rows.dfv, rows.dgv),
                              rows.hw)
    inner = np.maximum(np.abs(sums[16]), _ROUNDING * np.abs(sums[15])).sum(axis=-1)
    phi = np.empty((2, 15) + rows.hw.shape)
    _log_factors(sums, start, rows.fv * rows.gv, phi[0], phi[1])
    (i1, i2), (e1, e2) = _panel_integrals(phi, rows.hw)
    return i1 * i2, e1 / np.abs(i1) + e2 / np.abs(i2) + 4.0 * inner


def _witness(draws: tuple, row: int, ma: float, mb: float) -> Witness:
    """The witness of row ``row`` of the block ``draws``."""
    kinds, coeffs, intervals = draws
    f, g = (_catalog_member(kinds[m, row], coeffs[m, row]).to_string() for m in range(2))
    return Witness(f, g, 0.0, _COMPARE_INTERVALS[intervals[row]], ma, mb)


def compare_generalizations(spec_a: MeanSpec, spec_b: MeanSpec, trials: int,
                            seed: int, kind: ChainKind = ChainKind.MEAN_FORM,
                            tie_rtol: float = 1e-9) -> OrderVerdict:
    """Sampled comparison of two middle terms over the function catalog.

    Returns A_PREC_B when middle(A) <= middle(B) in every trial with at
    least one strict win (a directional verdict is only consistency
    evidence), INCOMPARABLE once strict wins in both directions are
    witnessed (a genuine two-witness certificate, reported), and
    UNDETERMINED when every trial ties.  A trial is a strict win when the
    middles differ, relative to the larger, by more than tie_rtol plus the
    error bars of both.

    Trial i is defined by the raw PCG64 words of its own stream,
    spawn_rng(seed, i) (sampling.py): f, g and the interval end are read
    off its first eight words, so the verdict does not depend on evaluation
    order and a witness reproduces from (seed, i) on any numpy that keeps
    the raw stream (NEP 19), whatever its Generator methods do.

    Each trial's middles come from fixed Gauss-Kronrod panels (8 per row in
    the mean form, 32 in the log-derivative form).  For means that kink on
    the diagonal (min, max, power:+-inf) an interior panel edge is moved
    onto each crossing of f and g (mean form) or of their log-derivatives;
    a trial with more crossings than interior edges raises ConvergenceError.
    Trials are drawn and evaluated in blocks (8 rows, doubling while a block
    holds at most 2**15 panel nodes: up to 256 rows in the mean form, 64 in
    the log-derivative form) and scanned in index order; a block's rows are
    computed exactly as lone trials would be (every sum runs in a fixed
    order, none through a matrix product), so blocking changes no digit of
    the verdict.
    """
    if isinstance(trials, bool) or not isinstance(trials, Integral):
        raise ParameterError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not (isinstance(tie_rtol, Real) and math.isfinite(tie_rtol) and tie_rtol >= 0):
        raise ParameterError(f"tie_rtol must be finite and >= 0, got {tie_rtol!r}")
    edges = np.stack([np.linspace(0.0, b, _PANELS[kind] + 1) for b in _COMPARE_INTERVALS])
    nodes, hw = _panel_nodes(edges)
    snap = (_kinks_on_diagonal(spec_a), _kinks_on_diagonal(spec_b))
    best_a = best_b = None  # (separation, _witness arguments)
    wins_a = wins_b = 0
    ran = 0
    size = _BLOCK_FIRST
    while ran < trials:
        draws = _draw_block(seed, ran, min(ran + size, trials))
        if 2 * size * 15 * _PANELS[kind] <= _BLOCK_NODES:
            size *= 2
        kinds, coeffs, intervals = draws
        # the plain panels, and the snapped ones for a mean that kinks
        rows = {kinked: (_snapped_rows(kind, kinds, coeffs, edges[intervals], ran) if kinked else
                         _rows_on_panels(kind, kinds, coeffs, nodes[:, intervals], hw[intervals]))
                for kinked in set(snap)}
        (middles_a, bars_a), (middles_b, bars_b) = (
            [x.tolist() for x in _middle_fixed(kind, spec, rows[kinked])]
            for spec, kinked in zip((spec_a, spec_b), snap))
        for row, (ma, mb) in enumerate(zip(middles_a, middles_b)):
            ran += 1
            scale = max(abs(ma), abs(mb))
            diff = (mb - ma) / scale
            if abs(diff) <= tie_rtol + bars_a[row] + bars_b[row]:
                continue
            if diff > 0:
                wins_a += 1
                if best_a is None or diff > best_a[0]:
                    best_a = (diff, (draws, row, ma, mb))
            else:
                wins_b += 1
                if best_b is None or -diff > best_b[0]:
                    best_b = (-diff, (draws, row, ma, mb))
            if wins_a and wins_b:
                return OrderVerdict(Relation.INCOMPARABLE, (_witness(*best_a[1]),
                                                            _witness(*best_b[1])),
                                    ran, seed)
    if wins_a:
        return OrderVerdict(Relation.A_PREC_B, (_witness(*best_a[1]),), ran, seed)
    if wins_b:
        return OrderVerdict(Relation.B_PREC_A, (_witness(*best_b[1]),), ran, seed)
    return OrderVerdict(Relation.UNDETERMINED, (), ran, seed)
