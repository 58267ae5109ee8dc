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

In both forms the five integrals [Phi1, Phi2, fg, f^2, g^2] share their
nodes, so the errors of near-equal terms (Phi1 and g^2 when max picks Lg)
cancel.  The chains and the comparator compute middle terms with one
routine (``_middles``; notes/decisions.md, "One middle routine"): a chain
is one row with its left and right terms, a comparator block many rows.
One row builder samples the integrands (``_row_builder``), the engine
(``quadrature._adapt``) adapts them from 8 uniform panels split at the
kinks of a min/max-type mean (``_start_panels``, ``_breaks``; the kink
scan is skipped where the gap is certified to keep one sign,
``_one_signed``), and one bar rule refines them: a term's relative bar
sums |K15 - G7| / |I| over its two factors, and while it exceeds the
target the intervals whose share of it exceeds their width share are
bisected.  The log-derivative form runs its inner integral
int_a^x M(Lf, Lg) and the outer ones on one partition, with f, g, f' and
g' evaluated once per node (``_outer_sums``; notes/decisions.md,
"Log-derivative partition").

Middle terms of two refinements are partially ordered by pointwise
domination; the sampling comparator searches a fixed function catalog for
directional evidence or a certified two-sided (incomparable) witness pair,
with the digits of one trial at a time (notes/decisions.md, "Comparator
panels" and "Comparator blocks").
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
from .functions import (FunctionFamily, FunctionSpec, _beyond, _gap_polynomial, _grid,
                        validate_nonneg_derivative, validate_positive)
from .means import (MeanFamily, MeanSpec, OrderKind, check_h_function, conjugate_from_mean,
                    mean_values)
from .quadrature import (_WEIGHTS, _adapt, _cumulative_weights, _interval, _nodes,
                         _panels, _per_panel, _Partition, _raise_first)
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


@functools.lru_cache(maxsize=32)
def _uniform_start(a: float, b: float) -> tuple:
    """Midpoints and half-widths of the ``_START_PANELS`` uniform panels of
    [a, b], and their node-major nodes (15, 8), cached read-only: the chains
    and the comparator start on a few intervals over and over, and the
    start costs a few small numpy calls.  a = -0.0 shares 0.0's entry: its
    panels and nodes have the same bits."""
    mid, hw = _panels(_grid(a, b, _START_PANELS + 1))
    out = mid, hw, _nodes(mid, hw)
    for x in out:
        x.setflags(write=False)
    return out


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


def _row_builder(log: bool, means: tuple, riders: int) -> Callable:
    """The one sampler of the middle terms' integrands: build(fv, gv,
    slopes, out) writes at node values of f, g (and f', g' in the log form)
    the log form's M(Lf, Lg) of each mean (``means`` on f, g, f', g') or the
    mean form's M^2 of each, then M*^2 of each (``means`` on u, v), then fg
    (riders 1) or fg, f^2 and g^2 (riders 3), into out (fresh when None)."""
    j = len(means) if log else 2 * len(means)

    def build(fv, gv, slopes=None, out=None):
        if out is None:
            out = np.empty((j + riders,) + fv.shape)
        for i, mean in enumerate(means):
            if log:
                out[i] = mean(fv, gv, *slopes)
            else:
                m = mean(fv, gv)
                np.multiply(m, m, out=out[i])
                np.square(conjugate_from_mean(fv, gv, m), out=out[len(means) + i])
        if riders:
            np.multiply(fv, gv, out=out[j])
        if riders > 1:
            np.multiply(fv, fv, out=out[j + 1])
            np.multiply(gv, gv, out=out[j + 2])
        return out

    return build


def _spec_row(f, g, a: float, b: float, log: bool, mean: Callable, riders: int,
              breaks: Sequence[float]) -> tuple:
    """One row of f and g for ``_middles``: the row builder at the nodes (in
    the log form one value-and-slope pass of each) and the start panels
    split at the breaks, or the cached uniform start, sampled."""
    build = _row_builder(log, (mean,), riders)

    def sample(row, t):
        if log:
            fv, dfv = f._value_and_slope(t)
            gv, dgv = g._value_and_slope(t)
            return build(fv, gv, (dfv, dgv))
        return build(np.asarray(f(t), dtype=float), np.asarray(g(t), dtype=float))

    if len(breaks):
        return sample, (*_start_panels(a, b, breaks), None, None)
    mid, hw, nodes = _uniform_start(a, b)
    return sample, (mid, hw, None, sample(None, nodes))


def _chain(f, g, a: float, b: float, log: bool, mean: Callable, kinked: bool, tol: float,
           inner_tol: Optional[float] = None) -> ChainReport:
    """The chain of f, g on [a, b], certified here: one row of ``_middles``
    with its sides, each term to a relative bar of 2 tol (the outer tol in
    the log form).  ``kinked`` marks a mean that kinks on the diagonal, so
    the start panels are split where f and g (or Lf and Lg) cross."""
    if log:
        breaks = _logderiv_breaks(f, g, a, b, kinked)
    else:
        validate_positive(f, a, b, "f")
        validate_positive(g, a, b, "g")
        breaks = _breaks(f, g, a, b, kinked, False)
    sample, start = _spec_row(f, g, a, b, log, mean, 3, breaks)
    totals, _, failed = _middles(log, 1, True, sample, a, b, start, 2.0 * tol, inner_tol)
    _raise_first(failed)
    mid1, mid2, fg, ff, gg = totals[:, 0].tolist()
    # judged at the tolerances the factors were computed to
    return chain_report(fg ** 2, mid1 * mid2, ff * gg, max(tol, inner_tol or tol))


def _spec_mean(spec: MeanSpec) -> Callable:
    """M(u, v) of spec, through ``mean_values`` as bound when called."""
    return lambda u, v: mean_values(spec, u, v)


def integral_mean_chain(f, g, a: float, b: float, spec: MeanSpec,
                        tol: float = 1e-10) -> ChainReport:
    """Evaluate (int fg)^2 <= int M^2 * int M*^2 <= int f^2 int g^2.

    The five integrals share one adaptive Gauss-Kronrod partition, started
    from 8 uniform panels split where f and g cross (for min/max-type means,
    which kink there).  Each interval is bisected until every integral
    meets its width share of max(tol, tol |I|), then by the bar rule: each
    term, a product of two integrals, is held to a relative error bar of
    2 tol, however small the integrals.
    """
    a, b = _interval(a, b, tol)
    return _chain(f, g, a, b, False, _spec_mean(spec), _kinks_on_diagonal(spec), tol)


# ---------------------------------------------------------------------------
# log-derivative chain
# ---------------------------------------------------------------------------

def _logderiv_mean(spec: MeanSpec) -> Callable:
    """M(Lf, Lg), Lh = h'/h, as a callable on node values (f, g, f', g')."""
    if spec.family is MeanFamily.MEDIANT:
        # mediant of the formal fractions f'/f and g'/g
        return lambda fv, gv, dfv, dgv: (dfv + dgv) / (fv + gv)
    return _of_logderivs(_spec_mean(spec))


def _of_logderivs(mfn: Callable) -> Callable:
    return lambda fv, gv, dfv, dgv: mfn(dfv / fv, dgv / gv)


# the kink scan's grid, linspace(a, b, 1025): 1024 cells
_SCAN_POINTS = 1025
# a narrowing round's 257 points are lo + k (hi - lo) / 256 for these k
_SUBDIVISION = np.arange(257.0)


def _find_kinks(gap: Callable, a: np.ndarray, b: np.ndarray) -> list:
    """Interior sign changes of a gap (where min/max-type means kink), one
    sorted list per row of the intervals [a, b] (arrays of shape (rows,)).

    ``gap(rows, ts)`` evaluates the selected rows (an index array, repeats
    allowed) at ts of shape (len(rows), n).  One call scans every row on its
    1025-point scan grid.  A scan node where the gap is exactly 0 between
    nodes of opposite, nonzero signs is a root as it stands; a touching zero
    or a run of zeros is not.  Each sign change between neighbouring nodes
    is a bracket, and 6 rounds of 257-point subdivision narrow all brackets
    of all rows together, each to ulp width or as far as 6 rounds go.
    """
    ts = np.stack([_grid(lo, hi, _SCAN_POINTS) for lo, hi in zip(a.tolist(), b.tolist())])
    s = np.sign(gap(np.arange(len(ts)), ts))
    node_row, node = np.nonzero((s[:, 1:-1] == 0) & (s[:, :-2] * s[:, 2:] < 0))
    on_node = ts[node_row, node + 1]
    bracket_row, cell = np.nonzero(s[:, :-1] * s[:, 1:] < 0)
    if not (len(node_row) or len(bracket_row)):  # most chains' scans: skip the bookkeeping
        return [[] for _ in ts]
    lo, hi, side = ts[bracket_row, cell], ts[bracket_row, cell + 1], s[bracket_row, cell, None]
    at = np.arange(len(bracket_row))
    for _ in range(6):
        # linspace(lo, hi, 257) of each bracket, as numpy builds it (at a third
        # of the cost of the call on arrays); sub[:, 0] = lo keeps the sign,
        # the first change (or zero) closes the bracket, and a bracket already
        # an ulp wide comes out as it went in (its points are lo, then hi)
        sub = _SUBDIVISION * ((hi - lo) / 256.0)[:, None]
        sub += lo[:, None]
        sub[:, -1] = hi
        j = np.argmax(np.sign(gap(bracket_row, sub)) != side, axis=1)
        lo, hi = sub[at, j - 1], sub[at, j]
    kink_row = np.concatenate([node_row, bracket_row])
    kinks = np.concatenate([on_node, 0.5 * (lo + hi)])
    eps = 1e-10 * (b - a)
    inside = (a[kink_row] + eps[kink_row] < kinks) & (kinks < b[kink_row] - eps[kink_row])
    found = [[] for _ in ts]
    for r, k in sorted(zip(kink_row[inside].tolist(), kinks[inside].tolist())):
        found[r].append(k)
    return found


def _one_signed(f: FunctionSpec, g: FunctionSpec, a: float, b: float, log: bool) -> bool:
    """True when the gap a chain scans, f - g (or Lf - Lg when ``log``), is
    certified to keep one sign, or be 0, at every scan node of [a, b], so
    that ``_find_kinks`` would return [] for it: the gap's sign is a
    polynomial's, certified on [a, b] with a margin past the rounding of the
    gap in floats (``functions._gap_polynomial``, ``_beyond``).
    False when that is not certified, and the chain scans.

    In the mean form an end at t = 0 where f and g have the same constant
    term is left out: Horner's value there is that term and exp(0) = 1, so
    the gap is exactly 0 at that scan node, and the certificate starts at
    the next one."""
    gap = _gap_polynomial(f, g, log, max(abs(a), abs(b)))
    if gap is None:
        return False
    r, bound = gap
    lo, hi = a, b
    if not log and r[0] == 0.0 and 0.0 in (a, b):
        grid = _grid(a, b, _SCAN_POINTS)
        lo, hi = (float(grid[1]), b) if a == 0.0 else (a, float(grid[-2]))
    return _beyond(r, lo, hi, bound)


def _breaks(f, g, a: float, b: float, kinked: bool, log: bool) -> list:
    """The kinks a chain's start panels split at: none unless ``kinked``
    marks a mean that kinks on the diagonal; then the crossings of f - g
    (or Lf - Lg when ``log``), scanned on the 1025 scan nodes unless the gap
    is certified to keep one sign (``_one_signed``)."""
    if not kinked or _one_signed(f, g, a, b, log):
        return []

    def gap(rows, ts):  # in the log form, as the sampler evaluates f, g, f' and g'
        if not log:
            return f(ts) - g(ts)
        fv, dfv = f._value_and_slope(ts)
        gv, dgv = g._value_and_slope(ts)
        return _logderiv_gap(fv, gv, dfv, dgv)

    return _find_kinks(gap, np.array([a]), np.array([b]))[0]


def _tabulate_antiderivative(sample: Callable, a, b, start: tuple, inner_tol: float,
                             judged: int = 1) -> _Partition:
    """The log form's first stage: the partition on which the first ``judged``
    integrands of sample (M(Lf, Lg) of each mean) meet inner_tol from start."""
    return _adapt(sample, a, b, inner_tol, *start[:3], values=start[3], judged=judged).partition()


def _outer_sums(part: _Partition, riders: int) -> np.ndarray:
    """Each interval's K15 and |K15 - G7| sums (2, 2 j + riders, n) of
    Phi1 = exp(2v) and Phi2 = f^2 g^2 exp(-2v) of the partition's j judged
    inner integrals v (``_Partition.cumulative``), then of the ``riders``
    values after the judged ones, the first of which is fg.  The rows are
    factor-major, (k, 15, n), with Phi1 and Phi2 written in place one after
    the other (notes/decisions.md, "Log-derivative partition").
    DomainError on a non-finite sum."""
    j = part.judged
    sums, start = part.cumulative()
    rows = np.empty((2 * j + riders, 15) + part.hw.shape)
    phi1, phi2 = rows[:j], rows[j:2 * j]
    np.add(sums.transpose(1, 0, 2), start[:, None], out=phi1)
    phi1 *= 2.0
    np.negative(phi1, out=phi2)
    np.exp(phi1, out=phi1)
    np.exp(phi2, out=phi2)
    fg = part.values[j]
    phi2 *= fg * fg
    rows[2 * j:] = part.values[j:j + riders]
    out = _per_panel(rows, _WEIGHTS, 1)
    out *= part.hw
    if not np.isfinite(out).all():
        raise DomainError("log-derivative integrand is not finite on [a, b]")
    np.abs(out[1], out=out[1])
    return out


@functools.lru_cache(maxsize=None)
def _term_factors(means: int, sides: bool) -> tuple:
    """Each term's two factor rows: middles (i, means + i), then fg fg, f^2 g^2."""
    pairs = [(i, means + i) for i in range(means)]
    if sides:
        pairs += [(2 * means, 2 * means), (2 * means + 1, 2 * means + 2)]
    return tuple(np.array(x) for x in zip(*pairs))


def _middles(log: bool, means: int, sides: bool, sample: Callable, a, b, start: tuple,
             target: float, inner_tol: Optional[float]) -> tuple:
    """Each row's factor totals (2 means + 3 sides, rows): each middle
    term's first factor, then its second, then fg, f^2 and g^2 when
    ``sides``; the terms' relative bars (terms, rows), the sides' after the
    middles'; and the rows that hit the engine's caps, {row: message}.  Row
    r runs on [a[r], b[r]] from its panels in ``start``; sample is the row
    builder.  The mean form adapts every factor at target / 2; the log form
    tabulates each v at inner_tol and forms Phi1 = exp(2v), Phi2 = f^2 g^2
    exp(-2v) and the sides at the nodes (``_outer_sums``).  A bar sums its
    factors' |K15 - G7| / |I|, plus, for Phi1 Phi2, 4 times the inner
    |K15 - G7| (an error e in v moves exp(+-2v) by a relative 2e).  While a
    row's bar exceeds target, its intervals whose share of a bar exceeds
    their width share are bisected and adapted again.
    """
    first, second = _term_factors(means, sides)

    def bar(err, totals):  # each term's, over the columns of err
        rel = err / np.abs(totals)
        out = rel.take(first, axis=0)
        out += rel.take(second, axis=0)
        if log:
            out[:means] += 4.0 * err[-means:]
        return out

    def interval_sums(part):  # K15 and |K15 - G7| (2, factors [+ inner integrals], n)
        return np.concatenate([_outer_sums(part, 3 * sides), part.sums], 1) if log else part.sums

    if log:
        part = _tabulate_antiderivative(sample, a, b, start, inner_tol, means)
        sums = interval_sums(part)
        (totals, errors), failed = part.row_sums(sums), part.failed
    else:  # the row totals from the engine until a row is refined, then from the partition
        adaptation = _adapt(sample, a, b, target / 2.0, *start[:3], values=start[3])
        part = sums = None
        totals, errors, failed = adaptation.total, adaptation.error, adaptation.failed
    # a failed row may have no intervals left: its bars are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            bars = bar(errors, totals)
            over = bars > target
            if not np.count_nonzero(over):  # a chain's usual case: one cheap check
                break
            redo = over.any(axis=0)
            redo[list(failed)] = False
            if not redo.any():
                break
            if part is None:
                part = adaptation.partition()
                sums = interval_sums(part)
            shares = bar(sums[1], totals.take(part.row, axis=-1))
            width = target * (2.0 * part.hw) / (part.b - part.a)[part.row]
            bad = redo[part.row] & (shares > width).any(axis=0)
            if not bad.any():
                break
            part = part.refined(bad)
            failed = part.failed
            sums = interval_sums(part)
            totals[:, redo], errors[:, redo] = part.row_sums(sums)[..., redo]
    return totals[:2 * means + 3 * sides], bars, failed


def _antiderivative(f: FunctionSpec, g: FunctionSpec, a: float, b: float, lmean: Callable,
                    inner_tol: float, breaks: Sequence[float]) -> Callable:
    """v(x) = int_a^x lmean(f, g, f', g') at any points x in [a, b], on the
    partition where lmean alone meets inner_tol from the start panels split
    at the ``breaks``: within an interval the integral of the degree-14
    interpolant through its nodes (K15 mapped onto [-1, u]), plus the K15
    totals of the intervals to its left (``_Partition.cumulative``)."""
    sample, start = _spec_row(f, g, a, b, True, lmean, 0, breaks)
    part = _tabulate_antiderivative(sample, a, b, start, inner_tol)
    _raise_first(part.failed)
    left = part.cumulative()[1][0]
    order = part.in_order(np.arange(len(part.mid)))
    mid, hw = part.mid[order], part.hw[order]

    def v(x):
        xs = np.asarray(x, dtype=float)
        out = np.empty(xs.size)
        # the weights take (points, 15, 15) temporaries: a block of points at a time
        for lo in range(0, xs.size, 1024):
            pts = xs.ravel()[lo:lo + 1024]
            idx = np.clip(np.searchsorted(mid - hw, pts, side="right") - 1, 0, len(mid) - 1)
            weights = _cumulative_weights(np.clip((pts - mid[idx]) / hw[idx], -1, 1))
            m = part.values[0][:, order[idx]]
            # node by node, as the panel sums add them
            inner = weights[:, 0] * m[0]
            for k in range(1, 15):
                inner += weights[:, k] * m[k]
            out[lo:lo + 1024] = inner * hw[idx] + left[order[idx]]
        return out.reshape(xs.shape)

    return v


def _logderiv_gap(fv, gv, dfv, dgv):
    return dfv / fv - dgv / gv


def _logderiv_breaks(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                     kinked: bool) -> list:
    """Certify f, g > 0 and f', g' >= 0 on [a, b] for the log-derivative
    forms, and return the ``_breaks`` of Lf - Lg."""
    validate_positive(f, a, b, "f", strict=True)
    validate_positive(g, a, b, "g", strict=True)
    validate_nonneg_derivative(f, a, b, "f")
    validate_nonneg_derivative(g, a, b, "g")
    return _breaks(f, g, a, b, kinked, True)


def integral_logderiv_chain(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                            spec: MeanSpec, inner_tol: float = 1e-10,
                            outer_tol: float = 1e-8) -> ChainReport:
    """Chain with Phi1 = exp(2 int_a^x M(Lf, Lg)) and Phi2 = f^2 g^2 / Phi1.

    Requires f, g positive with nonnegative derivatives on [a, b].  Inner and
    outer integrals share one adaptive Gauss-Kronrod partition, started as
    the mean form's (split where Lf and Lg cross) and bisected until
    M(Lf, Lg) meets inner_tol; the five chain integrands are formed at its
    nodes from the antiderivative there.  Then the bar rule holds each term,
    a product of two integrals, to a relative error bar of 2 outer_tol, the
    inner integral's error included.

    Nonnegative log-derivatives alone do not make the right inequality hold
    for every mean: when Lf - Lg changes sign, means far from the arithmetic
    one (max, or power orders around 50 on concrete pairs) can push the
    middle above int f^2 int g^2.  When Lf - Lg keeps one sign, min and max
    give exact equality with the right side and every intermediate mean stays
    inside the chain.  The report carries honest slacks either way.
    """
    a, b = _interval(a, b, inner_tol, outer_tol)
    return _chain(f, g, a, b, True, _logderiv_mean(spec), _kinks_on_diagonal(spec), outer_tol,
                  inner_tol)


def logderiv_phi1(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                  spec: MeanSpec, inner_tol: float = 1e-10) -> Callable:
    """The first log-derivative factor Phi1 as a callable on [a, b].

    Exposed separately so the non-homogeneity of the factors (Phi1 is
    invariant under f, g -> lam f, lam g rather than quadratic in lam) can be
    witnessed directly.  It raises ParameterError at a point outside [a, b].
    """
    a, b = _interval(a, b, inner_tol)
    v = _antiderivative(f, g, a, b, _logderiv_mean(spec), inner_tol,
                        _logderiv_breaks(f, g, a, b, _kinks_on_diagonal(spec)))
    return lambda x: np.exp(2.0 * v(_inside(x, a, b)))


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
        phi1_vals = np.exp(2.0 * _antiderivative(f, g, a, b, lmean, 1e-12, breaks)(xs))
        if phi2 is not None:
            phi2_vals = np.asarray(phi2(xs), dtype=float)
        else:
            def complement(fv, gv, dfv, dgv):
                return dfv / fv + dgv / gv - lmean(fv, gv, dfv, dgv)

            phi2_vals = (float(f(a)) * float(g(a))) ** 2 * np.exp(
                2.0 * _antiderivative(f, g, a, b, complement, 1e-12, breaks)(xs))
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
    ParameterError.  The terms are computed as the mean form's
    (``integral_mean_chain``) and the log form's (``integral_logderiv_chain``,
    inner tol, outer max(tol, 1e-8)) are, each to a relative bar of 2 tol
    (2 max(tol, 1e-8) in the log form).
    """
    a, b = _interval(a, b, tol)
    check = check_h_function(h, validation_grid or _H_VALIDATION_GRID, rtol=1e-9)
    if not check.ok:
        raise ParameterError(
            f"h violates the mean-representation conditions: h(0)={check.h0_value!r}, "
            f"{len(check.ratio_violations)} ratio and {len(check.even_violations)} evenness violations")
    mfn = _mean_fn_from_h(h)
    if kind is ChainKind.MEAN_FORM:
        return _chain(f, g, a, b, False, mfn, True, tol)  # h is opaque: scan for crossings
    return _chain(f, g, a, b, True, _of_logderivs(mfn), True, max(tol, 1e-8), tol)


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
# trials per evaluated block: 64 at first, then doubling while a block holds
# at most _BLOCK_NODES start-panel nodes (256 rows of 8 panels, in either
# form).  Each block adapts level by level, and a level costs about the same
# however few rows it holds, so a small first block saves an early exit less
# than its levels cost (notes/decisions.md, "Comparator blocks")
_BLOCK_FIRST = 64
_BLOCK_NODES = 2 ** 15
# trials drawn at once (``_draw_block``), each block taking its slice: a
# draw costs about 0.2 ms whatever its rows, and a span of 1024 holds 72 KB
# of draws (0.7 MB at its peak while drawn)
_SPAN = 1024
# a row's bars are held to tie_rtol / 10, and to at least this, which the
# G7 estimates still meet far above their rounding noise
_BAR_FLOOR = 1e-13


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


def _catalog_poly(kinds: np.ndarray, coeffs: np.ndarray) -> tuple:
    """c0, c1, c2 (..., 3) of each catalog member's c0 + c1 t + c2 t^2 (exp:k
    is (0, k, 0)), for kinds (...) and the drawn coefficients (..., 3), and
    the mask of the members that take its exp."""
    padded = np.concatenate([np.zeros(coeffs.shape[:-1] + (1,)), coeffs], axis=-1)
    return np.take_along_axis(padded, _KIND_SLOTS[kinds], axis=-1), _KIND_EXP[kinds]


def _catalog_rows(poly: np.ndarray, exp: np.ndarray, xs: np.ndarray, derivative: bool):
    """Values (and derivatives, else None) of catalog members on the rows of
    xs: member [m, i], of polynomial poly[m, i, :] and exp mask exp[m, i]
    (``_catalog_poly``), on row i, xs[..., i, :] (any leading axes of xs are
    shared by every member); the result has shape (len(poly),) + xs.shape.

    Horner in numpy polyval's order on the zero-padded coefficients
    reproduces FunctionSpec.__call__ and .derivative bit for bit.
    """
    # (members, 1 per leading axis of xs, rows, 1 point)
    shape = poly.shape[:1] + (1,) * (xs.ndim - 2) + poly.shape[1:2] + (1,)
    c0, c1, c2 = (poly[..., i].reshape(shape) for i in range(3))
    values = c2 * xs  # c0 + (c1 + c2 t) t, in place
    values += c1
    values *= xs
    values += c0
    exp_rows = exp.reshape(shape)
    np.exp(values, out=values, where=exp_rows)
    if not derivative:
        return values, None
    slopes = (2.0 * c2) * xs
    slopes += c1
    np.multiply(slopes, values, out=slopes, where=exp_rows)
    return values, slopes


def _member_gap(kind: ChainKind, poly: np.ndarray, exp: np.ndarray, ts: np.ndarray):
    """f - g (mean form) or Lf - Lg of the catalog rows (``_catalog_poly``)
    at ts, where min/max-type means kink; formed in place (as _logderiv_gap
    forms it), so a 256-row scan holds no 2 MB array beyond the values."""
    (fv, gv), slopes = _catalog_rows(poly, exp, ts, kind is ChainKind.LOG_DERIV_FORM)
    if slopes is not None:
        fv, gv = np.divide(slopes[0], fv, out=slopes[0]), np.divide(slopes[1], gv, out=slopes[1])
    fv -= gv
    return fv


def _compare_start() -> tuple:
    """Midpoints and half-widths (3, 8) of the start panels of the three
    comparator intervals, and their nodes (3, 15, 8): the chains' cached
    uniform starts, stacked."""
    return tuple(np.array(x) for x in zip(*(_uniform_start(0.0, end)
                                            for end in _COMPARE_INTERVALS)))


def _block_start(kind: ChainKind, specs: tuple, poly: np.ndarray, exp: np.ndarray,
                 intervals: np.ndarray, b: np.ndarray) -> tuple:
    """Midpoints, half-widths and rows of a block's start panels, by row and
    left to right: each row's ``_start_panels`` on [0, b], split at the
    kinks of its gap when a spec kinks on the diagonal (one _find_kinks call
    for every row).  Without a kink in the block, also their nodes as
    (15, rows, 8), each row's 120 together in memory, where the catalog's
    coefficients broadcast (twice as fast as node-major), else None."""
    found = [()] * len(b)
    if any(map(_kinks_on_diagonal, specs)):
        found = _find_kinks(lambda rows, ts: _member_gap(kind, poly[:, rows], exp[:, rows], ts),
                            np.zeros(len(b)), b)
    mid, hw, nodes = _compare_start()
    if not any(found):
        return (mid[intervals].ravel(), hw[intervals].ravel(),
                np.repeat(np.arange(len(b)), _START_PANELS), nodes[intervals].transpose(1, 0, 2))
    panels = [_start_panels(0.0, end, kinks) if kinks else (mid[i], hw[i])
              for i, end, kinks in zip(intervals.tolist(), b.tolist(), found)]
    mid, hw = (np.concatenate(x) for x in zip(*panels))
    return mid, hw, np.repeat(np.arange(len(panels)), [len(m) for m, _ in panels]), None


# The block's middle terms: adaptive now, it keeps the name of the fixed-panel
# routine it replaced, which the traced benchmark binds by attribute
# (span integral.middle_fixed).
def _middle_fixed(kind: ChainKind, specs: tuple, draws: tuple, target: float,
                  buffer: np.ndarray) -> tuple:
    """Middle terms of both specs (2, rows) on a block's trials, their
    relative bars (2, rows) and the rows that hit the engine's caps: the
    catalog rows through ``_middles`` to bars of ``target`` (inner integrals
    at target / 8).  ``buffer`` (4 doubles per start-panel node, kept from
    block to block) takes the first level: a fresh array each block cost
    more in page faults than its integrals."""
    kinds, coeffs, intervals = draws
    b = np.array(_COMPARE_INTERVALS)[intervals]
    log = kind is ChainKind.LOG_DERIV_FORM
    poly, exp = _catalog_poly(kinds, coeffs)
    build = _row_builder(log, tuple(map(_logderiv_mean if log else _spec_mean, specs)),
                         int(log))

    def values_at(poly, exp, xs, out=None):  # the integrands, catalog row i on xs[..., i, :]
        (fv, gv), slopes = _catalog_rows(poly, exp, xs, log)
        return build(fv, gv, slopes, out)

    def sample(row, ts):  # a catalog row per panel: its coefficients broadcast along its nodes
        return values_at(poly.take(row, axis=1), exp.take(row, axis=1),
                         np.ascontiguousarray(ts.T)).transpose(0, 2, 1)

    k = 3 if log else 4
    mid, hw, row, nodes = _block_start(kind, specs, poly, exp, intervals, b)
    # uniform start panels: the first level on the block's (15, rows, 8) nodes
    values = nodes if nodes is None else values_at(
        poly, exp, nodes, buffer[:k * nodes.size].reshape((k,) + nodes.shape))
    totals, bars, failed = _middles(log, 2, False, sample, np.zeros(len(b)), b,
                                    (mid, hw, row, values), target, target / 8.0)
    return totals[:2] * totals[2:], bars, failed


def _best(best, won: np.ndarray, sep: np.ndarray, draws: tuple, ma: np.ndarray,
          mb: np.ndarray):
    """The carried best (separation, _witness arguments), replaced by the
    first largest separation ``sep`` of the rows ``won`` where that is
    strictly larger."""
    if not won.any():
        return best
    row = int(np.where(won, sep, -np.inf).argmax())
    if best is not None and not sep[row] > best[0]:
        return best
    return sep[row], (draws, row, float(ma[row]), float(mb[row]))


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

    Both middles of a trial come from the chains' middle-term routine, on
    one partition of [0, b] split where f and g (mean form) or their
    log-derivatives cross for min/max-type means, each to a relative bar of
    at most max(tie_rtol / 10, 1e-13).  A trial that hits the engine's caps
    raises ConvergenceError, naming it, when the scan reaches it.  Trials
    are drawn in spans of up to 1024 and evaluated in blocks of 64 rows,
    doubling up to 256.  Every sum runs in a fixed order, none through a
    matrix product, and a block is scanned by the rules of a scan in index
    order (the first largest separation is the witness, and a capped row
    raises only when no earlier row decided), so neither spans nor blocks
    change a digit of the verdict.
    """
    if isinstance(trials, bool) or not isinstance(trials, Integral):
        raise ParameterError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not (isinstance(tie_rtol, Real) and math.isfinite(tie_rtol) and tie_rtol >= 0):
        raise ParameterError(f"tie_rtol must be finite and >= 0, got {tie_rtol!r}")
    target = max(tie_rtol / 10.0, _BAR_FLOOR)
    buffer = np.empty(0)
    best_a = best_b = None  # (separation, _witness arguments)
    wins_a = wins_b = 0
    ran = 0
    size = _BLOCK_FIRST
    span, first = None, 0  # the trials drawn, from trial `first` on
    while ran < trials:
        stop = min(trials, ran + size)
        if span is None or stop - first > len(span[2]):
            span, first = _draw_block(seed, ran, min(trials, ran + max(_SPAN, size))), ran
        kinds, coeffs, intervals = span
        rows = slice(ran - first, stop - first)
        draws = kinds[:, rows], coeffs[:, rows], intervals[rows]
        if 2 * size * 15 * _START_PANELS <= _BLOCK_NODES:
            size *= 2
        if buffer.size < 4 * 15 * _START_PANELS * (stop - ran):  # grows to the largest block
            buffer = np.empty(4 * 15 * _START_PANELS * (stop - ran))
        middles, bars, failed = _middle_fixed(kind, (spec_a, spec_b), draws, target, buffer)
        # the scan reaches the rows before the first failed one
        reach = min(failed, default=stop - ran)
        (ma, mb), (bar_a, bar_b) = middles[:, :reach], bars[:, :reach]
        diff = (mb - ma) / np.maximum(np.abs(ma), np.abs(mb))
        won = ~(np.abs(diff) <= tie_rtol + bar_a + bar_b)  # not a tie (a NaN diff is b's win)
        won_a = won & (diff > 0)
        won_b = won & ~won_a
        decided = (wins_a + np.cumsum(won_a) > 0) & (wins_b + np.cumsum(won_b) > 0)
        exits = bool(decided.any())
        end = int(decided.argmax()) + 1 if exits else reach  # rows scanned
        best_a = _best(best_a, won_a[:end], diff[:end], draws, ma, mb)
        best_b = _best(best_b, won_b[:end], -diff[:end], draws, ma, mb)
        if exits:
            return OrderVerdict(Relation.INCOMPARABLE, (_witness(*best_a[1]),
                                                        _witness(*best_b[1])),
                                ran + end, seed)
        if reach in failed:
            raise ConvergenceError(f"trial {ran + reach}: {failed[reach]}")
        wins_a += int(won_a.sum())
        wins_b += int(won_b.sum())
        ran = stop
    if wins_a:
        return OrderVerdict(Relation.A_PREC_B, (_witness(*best_a[1]),), ran, seed)
    if wins_b:
        return OrderVerdict(Relation.B_PREC_A, (_witness(*best_b[1]),), ran, seed)
    return OrderVerdict(Relation.UNDETERMINED, (), ran, seed)
