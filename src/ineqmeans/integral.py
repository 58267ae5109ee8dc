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

Both forms share one assembler: the five integrals [fg, Phi1, Phi2, f^2,
g^2] come from one adaptive quadrature on shared nodes, so the errors of
near-equal terms (Phi1 and g^2 when max picks Lg) cancel.

Middle terms of two refinements are partially ordered by pointwise
domination; the sampling comparator searches a fixed function catalog for
directional evidence or a certified two-sided (incomparable) witness pair.
It evaluates its trials in blocks on stacked fixed grids, with the same
digits as one trial at a time (notes/decisions.md, "Comparator blocks").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, ReproducibilityError
from .functions import (_VALIDATION_POINTS, FunctionFamily, FunctionSpec, _grid,
                        validate_nonneg_derivative, validate_positive)
from .means import (MeanFamily, MeanSpec, OrderKind, check_h_function, conjugate_from_mean,
                    conjugate_values, mean_values)
from .quadrature import (CubicHermite, composite_simpson, cumulative_simpson,
                         quadrature, simpson_nodes)
from .reports import ChainReport, chain_report
from .sampling import _MASK32, spawn_raw, spawn_rng

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
# the three-term chain, both forms
# ---------------------------------------------------------------------------

def _chain_terms(f, g, a: float, b: float, factors: Callable, tol: float,
                 breaks: Sequence[float] = ()) -> tuple:
    """(int fg)^2, int Phi1 * int Phi2 and int f^2 int g^2 from one quadrature.

    ``factors(t, f(t), g(t))`` returns (Phi1, Phi2) at the nodes t; ``breaks``
    are the points where they may kink.  Each caller judges the terms at the
    tolerance they were computed to.
    """
    def integrand(t):
        ft = np.asarray(f(t), dtype=float)
        gt = np.asarray(g(t), dtype=float)
        phi1, phi2 = factors(t, ft, gt)
        return np.stack([ft * gt, phi1, phi2, ft * ft, gt * gt])

    fg, mid1, mid2, ff, gg = quadrature(integrand, a, b, tol, breaks=breaks).tolist()
    return fg ** 2, mid1 * mid2, ff * gg


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
    """The mean-form chain of f, g, validated here; ``kinked`` marks a mean
    that kinks on the diagonal, so the integrands kink where f and g cross."""
    fe = validate_positive(f, a, b, "f")
    ge = validate_positive(g, a, b, "g")

    def factors(t, ft, gt):
        m = mfn(ft, gt)
        return m * m, conjugate_from_mean(ft, gt, m) ** 2

    breaks = ()
    if kinked:
        odd = _scan_odd_nodes(a, b)
        breaks = _find_kinks(lambda t: np.asarray(f(t), dtype=float) - np.asarray(g(t), dtype=float),
                             a, b, _fill_odd(fe, f(odd)) - _fill_odd(ge, g(odd)))
    return chain_report(*_chain_terms(f, g, a, b, factors, tol, breaks), tol)


def integral_mean_chain(f, g, a: float, b: float, spec: MeanSpec,
                        tol: float = 1e-10) -> ChainReport:
    """Evaluate (int fg)^2 <= int M^2 * int M*^2 <= int f^2 int g^2."""
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


def _logderiv_integrand(f: FunctionSpec, g: FunctionSpec, lmean: Callable) -> Callable:
    """t -> lmean(f(t), g(t), f'(t), g'(t)), e.g. M(Lf(t), Lg(t)) from _logderiv_mean."""
    return lambda t: lmean(np.asarray(f(t), dtype=float), np.asarray(g(t), dtype=float),
                           f.derivative(t), g.derivative(t))


# The scan grid linspace(a, b, 1025) holds the 513-node validation grid at its
# even nodes bit for bit (notes/decisions.md, "Tabulation"), so the samples a
# validator returns fill half of it and only the 512 odd nodes are new.
_SCAN_POINTS = 2 * _VALIDATION_POINTS - 1


def _scan_odd_nodes(a: float, b: float) -> np.ndarray:
    return _grid(a, b, _SCAN_POINTS)[1::2]


def _fill_odd(even: np.ndarray, odd) -> np.ndarray:
    """Values on the scan grid from its even-node and odd-node values."""
    out = np.empty(2 * len(even) - 1)
    out[::2] = even
    out[1::2] = odd
    return out


def _find_kinks(diff_fn: Callable, a: float, b: float,
                scan: Optional[np.ndarray] = None) -> list:
    """Interior sign changes of diff_fn (where min/max-type means kink).

    A scan of diff_fn on the 1025-point scan grid brackets each change
    (``scan`` passes those values when the caller has them); rounds of
    257-point subdivision then narrow the bracket, to ulp width or for at
    most 6 rounds.
    """
    ts = _grid(a, b, _SCAN_POINTS)
    d = np.asarray(diff_fn(ts) if scan is None else scan, dtype=float)
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


@dataclass(frozen=True)
class _PiecewiseAntiderivative:
    """Segment-wise cumulative tables glued continuously at the breakpoints."""

    starts: np.ndarray  # left endpoint of each segment
    tables: tuple       # CubicHermite per segment, holding absolute values

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.starts, xs, side="right") - 1,
                      0, len(self.tables) - 1)
        out = np.empty_like(xs)
        for i, table in enumerate(self.tables):
            mask = idx == i
            if np.any(mask):
                out[mask] = table(xs[mask])
        return out


def _tabulate_segment(m_integrand, a, b, inner_tol, offset, seed=None):
    prev = mv = None
    panels = 128
    while panels <= 16384:
        # linspace grids nest exactly: the previous grid is every second node
        # of this one, so only the new odd nodes are evaluated, and a seed on
        # the scan grid holds every grid up to 512 panels
        if seed is not None and 2 * panels < len(seed):
            h = (b - a) / (2 * panels)  # simpson_nodes' half-step
            new = seed[::(len(seed) - 1) // (2 * panels)]
        else:
            xs, h = simpson_nodes(a, b, panels)
            new = np.asarray(m_integrand(xs if mv is None else xs[1::2]), dtype=float)
        if not np.isfinite(new).all():
            raise DomainError("log-derivative integrand is not finite on [a, b]")
        if mv is None or len(new) == 2 * panels + 1:
            mv = new
        else:
            fine = np.empty(2 * panels + 1)
            fine[::2] = mv
            fine[1::2] = new
            mv = fine
        v = cumulative_simpson(mv, h)
        total = v[-1]
        if prev is not None and abs(total - prev) <= inner_tol * max(1.0, abs(total)):
            return CubicHermite(a, (b - a) / panels, v + offset, mv[::2]), total
        prev = total
        panels *= 2
    raise ConvergenceError("antiderivative tabulation did not converge")


def _tabulate_antiderivative(m_integrand: Callable, a: float, b: float,
                             inner_tol: float, breaks: Sequence[float] = (),
                             seed: Optional[np.ndarray] = None):
    """Adaptively refined cumulative-Simpson tables with exact Hermite slopes.

    ``breaks`` marks interior kinks (e.g. crossings of the log-derivatives
    under a min/max mean); each smooth segment gets its own uniform table.
    ``seed``, the integrand on the scan grid of [a, b], serves the grids up
    to 512 panels; it is given only when there are no breaks.
    """
    edges = [a] + sorted(breaks) + [b]
    tables = []
    offset = 0.0
    for left, right in zip(edges, edges[1:]):
        table, total = _tabulate_segment(m_integrand, left, right, inner_tol, offset, seed)
        tables.append(table)
        offset += total
    if len(tables) == 1:
        return tables[0]
    return _PiecewiseAntiderivative(np.asarray(edges[:-1]), tuple(tables))


def _logderiv_gap(fv, gv, dfv, dgv):
    return dfv / fv - dgv / gv


def _logderiv_scan(f: FunctionSpec, g: FunctionSpec, a: float, b: float):
    """Validate the pair; return (f, g, f', g') on the scan grid and the
    crossings of Lf - Lg, where min/max-type means kink."""
    scan = _validate_logderiv_pair(f, g, a, b)
    breaks = _find_kinks(_logderiv_integrand(f, g, _logderiv_gap), a, b, _logderiv_gap(*scan))
    return scan, breaks


def _logderiv_table(f: FunctionSpec, g: FunctionSpec, a: float, b: float, lmean: Callable,
                    inner_tol: float, scan: tuple, breaks: list):
    """Table of int_a^x lmean(f, g, f', g'); without breaks its grids up to
    512 panels come from lmean on the scan."""
    return _tabulate_antiderivative(_logderiv_integrand(f, g, lmean), a, b, inner_tol, breaks,
                                    None if breaks else lmean(*scan))


def _logderiv_chain(f: FunctionSpec, g: FunctionSpec, a: float, b: float, lmean: Callable,
                    inner_tol: float, outer_tol: float) -> ChainReport:
    scan, breaks = _logderiv_scan(f, g, a, b)
    table = _logderiv_table(f, g, a, b, lmean, inner_tol, scan, breaks)

    def factors(t, ft, gt):
        v = 2.0 * table(t)
        return np.exp(v), (ft * gt) ** 2 * np.exp(-v)

    # the table's error enters Phi1 and Phi2 alongside the quadrature's
    return chain_report(*_chain_terms(f, g, a, b, factors, outer_tol, breaks),
                        max(inner_tol, outer_tol))


def integral_logderiv_chain(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                            spec: MeanSpec, inner_tol: float = 1e-10,
                            outer_tol: float = 1e-8) -> ChainReport:
    """Chain with Phi1 = exp(2 int_a^x M(Lf, Lg)) and Phi2 = f^2 g^2 / Phi1.

    Requires f, g positive with nonnegative derivatives on [a, b].  The inner
    antiderivative is tabulated on an adaptively refined grid (split at
    crossings of the log-derivatives, where min/max-type means kink) and
    interpolated by cubics with exact slopes before the outer adaptive
    quadrature, which integrates the five chain integrands on shared nodes.

    Nonnegative log-derivatives alone do not make the right inequality hold
    for every mean: when Lf - Lg changes sign, means far from the arithmetic
    one (max, or power orders around 50 on concrete pairs) can push the
    middle above int f^2 int g^2.  When Lf - Lg keeps one sign, min and max
    give exact equality with the right side and every intermediate mean stays
    inside the chain.  The report carries honest slacks either way.
    """
    return _logderiv_chain(f, g, a, b, _logderiv_mean(spec), inner_tol, outer_tol)


def _validate_logderiv_pair(f, g, a, b) -> tuple:
    """Validate f, g for the log-derivative forms; return (f, g, f', g') on
    the scan grid, whose even nodes are the validators' samples."""
    fe = validate_positive(f, a, b, "f")
    ge = validate_positive(g, a, b, "g")
    if (fe <= 0).any() or (ge <= 0).any():
        raise DomainError("log-derivative chain requires strictly positive f, g")
    dfe = validate_nonneg_derivative(f, a, b, "f")
    dge = validate_nonneg_derivative(g, a, b, "g")
    odd = _scan_odd_nodes(a, b)
    return (_fill_odd(fe, f(odd)), _fill_odd(ge, g(odd)),
            _fill_odd(dfe, f.derivative(odd)), _fill_odd(dge, g.derivative(odd)))


def logderiv_phi1(f: FunctionSpec, g: FunctionSpec, a: float, b: float,
                  spec: MeanSpec, inner_tol: float = 1e-10) -> Callable:
    """The first log-derivative factor Phi1 as a callable on [a, b].

    Exposed separately so the non-homogeneity of the factors (Phi1 is
    invariant under f, g -> lam f, lam g rather than quadratic in lam) can be
    witnessed directly.
    """
    scan, breaks = _logderiv_scan(f, g, a, b)
    table = _logderiv_table(f, g, a, b, _logderiv_mean(spec), inner_tol, scan, breaks)
    return lambda x: np.exp(2.0 * table(x))


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
    xs = np.asarray(grid if grid is not None else np.linspace(a, b, 32), dtype=float)
    if np.any(xs < a) or np.any(xs > b):
        raise ParameterError("grid points must lie inside [a, b]")
    fx = np.asarray(f(xs), dtype=float)
    gx = np.asarray(g(xs), dtype=float)
    rhs = (fx * gx) ** 2
    if kind is ChainKind.MEAN_FORM:
        phi1_vals = mean_values(spec, fx, gx) ** 2
        phi2_vals = (np.asarray(phi2(xs), dtype=float) if phi2 is not None
                     else conjugate_values(spec, fx, gx) ** 2)
    else:
        scan, breaks = _logderiv_scan(f, g, a, b)
        lmean = _logderiv_mean(spec)
        table1 = _logderiv_table(f, g, a, b, lmean, 1e-12, scan, breaks)
        phi1_vals = np.exp(2.0 * table1(xs))
        if phi2 is not None:
            phi2_vals = np.asarray(phi2(xs), dtype=float)
        else:
            def complement(fv, gv, dfv, dgv):
                return dfv / fv + dgv / gv - lmean(fv, gv, dfv, dgv)

            table2 = _logderiv_table(f, g, a, b, complement, 1e-12, scan, breaks)
            fa = float(f(a))
            ga = float(g(a))
            phi2_vals = (fa * ga) ** 2 * np.exp(2.0 * table2(xs))
    dev = np.abs(phi1_vals * phi2_vals - rhs) / np.maximum(np.abs(rhs), 1e-300)
    worst = float(np.max(dev))
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
    check = check_h_function(h, validation_grid or _H_VALIDATION_GRID, rtol=1e-9)
    if not check.ok:
        raise ParameterError(
            f"h violates the mean-representation conditions: h(0)={check.h0_value!r}, "
            f"{len(check.ratio_violations)} ratio and {len(check.even_violations)} evenness violations")
    mfn = _mean_fn_from_h(h)
    if kind is ChainKind.MEAN_FORM:
        return _mean_chain(f, g, a, b, mfn, tol, kinked=True)  # h is opaque
    return _logderiv_chain(f, g, a, b, _of_logderivs(mfn), tol, max(tol, 1e-8))


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


_COMPARE_PANELS = 512
_COMPARE_INTERVALS = (0.5, 1.0, 2.0)
# trials per evaluated block: small at first so an early exit wastes few
# trials, then doubling up to a cap that bounds the working set (a few MB)
_BLOCK_FIRST = 8
_BLOCK_CAP = 32


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


def _draw_member(rng) -> tuple:
    # positive increasing catalog member: its kind, then three coefficients
    # log-uniform in [0.1, 10]
    return int(rng.integers(0, len(_KIND_FAMILIES))), 10.0 ** rng.uniform(-1.0, 1.0, size=3)


def _sample_function(rng) -> FunctionSpec:
    return _catalog_member(*_draw_member(rng))


def _sample_trials(seed: int, start: int, stop: int) -> tuple:
    """Kinds (2, n) and coefficients (2, n, 3) of f and g, and interval
    indices (n,), of trials start..stop-1, each drawn from its own
    spawn_rng(seed, i) stream, so a trial does not depend on its block."""
    n = stop - start
    kinds = np.empty((2, n), dtype=np.int64)
    coeffs = np.empty((2, n, 3))
    intervals = np.empty(n, dtype=np.int64)
    for row in range(n):
        rng = spawn_rng(seed, start + row)
        for member in range(2):
            kinds[member, row], coeffs[member, row] = _draw_member(rng)
        intervals[row] = rng.integers(0, len(_COMPARE_INTERVALS))
    return kinds, coeffs, intervals


def _lemire(draws: np.ndarray, n: int) -> tuple:
    """Generator.integers(0, n) on 32-bit draws, by Lemire's multiply-shift
    as numpy does it: the values, and where numpy rejects the draw and takes
    another."""
    m = draws * np.uint64(n)
    return (m >> np.uint64(32)).astype(np.int64), (m & np.uint64(_MASK32)) < (2**32 - n) % n


def _draw_block(seed: int, start: int, stop: int) -> tuple:
    """_sample_trials(seed, start, stop), read off the first eight raw words
    of each trial's stream (``spawn_raw``).

    PCG64 serves a 32-bit draw from the low half of a fresh word and keeps
    the high half for the next one; ``integers(0, k)`` takes a 32-bit draw and
    ``uniform`` a whole word. So f's kind is the low half of word 0 and its
    coefficients words 1-3, g's kind the high half of word 0 and its
    coefficients words 4-6, and the interval the low half of word 7. A trial
    with a draw numpy would reject (only the interval's can, with
    probability 2**-32) is drawn on its own.
    """
    w = spawn_raw(seed, start, stop)
    mask = np.uint64(_MASK32)
    kind_f, redraw_f = _lemire(w[:, 0] & mask, len(_KIND_FAMILIES))
    kind_g, redraw_g = _lemire(w[:, 0] >> np.uint64(32), len(_KIND_FAMILIES))
    intervals, redraw = _lemire(w[:, 7] & mask, len(_COMPARE_INTERVALS))
    kinds = np.stack([kind_f, kind_g])
    # uniform(-1, 1) is -1 + 2 * (the word's top 53 bits / 2**53)
    coeffs = 10.0 ** (-1.0 + 2.0 * ((w[:, 1:7] >> np.uint64(11)) * 2.0 ** -53))
    coeffs = coeffs.reshape(-1, 2, 3).transpose(1, 0, 2)
    for row in np.flatnonzero(redraw | redraw_f | redraw_g):
        k, c, j = _sample_trials(seed, start + row, start + row + 1)
        kinds[:, row], coeffs[:, row], intervals[row] = k[:, 0], c[:, 0], j[0]
    return kinds, coeffs, intervals


def _catalog_rows(kinds: np.ndarray, coeffs: np.ndarray, xs: np.ndarray, derivative: bool):
    """Values (and derivatives, else None) of catalog members on the rows of
    xs: member [..., i], of kind kinds[..., i] with the drawn coefficients
    coeffs[..., i, :], on row i.

    Every catalog family is an optional exp of c0 + c1 t + c2 t^2 (exp:k is
    (0, k, 0)); Horner in numpy polyval's order on the zero-padded
    coefficients reproduces FunctionSpec.__call__ and .derivative bit for bit.
    """
    padded = np.concatenate([np.zeros(coeffs.shape[:-1] + (1,)), coeffs], axis=-1)
    poly = np.take_along_axis(padded, _KIND_SLOTS[kinds], axis=-1)
    c0, c1, c2 = poly[..., 0:1], poly[..., 1:2], poly[..., 2:3]
    exp_rows = _KIND_EXP[kinds]
    values = c2 * xs  # c0 + (c1 + c2 t) t, in place
    values += c1
    values *= xs
    values += c0
    values[exp_rows] = np.exp(values[exp_rows])
    if not derivative:
        return values, None
    slopes = (2.0 * c2) * xs
    slopes += c1
    slopes[exp_rows] *= values[exp_rows]
    return values, slopes


# The comparator keeps its own fixed-grid integrator, batched over blocks of
# trials. At 1000 trials a whole trial (its draws read off its raw stream
# words, then both middle terms) costs about 0.05 ms in the mean form and
# 0.08 ms in the log-derivative form, against 0.10 and 0.13 ms when each trial
# built its own Generator and about 1.3 ms for one adaptive chain (medians,
# 2-vCPU x86 VM, Python 3.11, numpy 2.4).
def _middle_fixed(kind: ChainKind, spec: MeanSpec, fv: np.ndarray, gv: np.ndarray,
                  dfv: Optional[np.ndarray], dgv: Optional[np.ndarray],
                  h: np.ndarray) -> np.ndarray:
    """Middle terms of a block: row i holds f, g (and f', g' for the
    log-derivative form) on a 2 * _COMPARE_PANELS + 1 node grid of half-step h[i]."""
    if kind is ChainKind.MEAN_FORM:
        m = mean_values(spec, fv, gv)
        conj = conjugate_from_mean(fv, gv, m)
        return composite_simpson(m * m, h) * composite_simpson(conj * conj, h)
    mv = _logderiv_mean(spec)(fv, gv, dfv, dgv)
    v = cumulative_simpson(mv, h)
    fe, ge = fv[:, ::2], gv[:, ::2]
    phi1 = np.exp(2.0 * v)
    phi2 = (fe * ge) ** 2 * np.exp(-2.0 * v)
    return composite_simpson(phi1, 2.0 * h) * composite_simpson(phi2, 2.0 * h)


def _witness(seed: int, index: int, draws: tuple, row: int, ma: float, mb: float) -> Witness:
    """The witness of trial ``index``, row ``row`` of the block ``draws``. Its
    f and g are rebuilt the documented way, _sample_function on
    spawn_rng(seed, index), and must be the members the block drew."""
    rng = spawn_rng(seed, index)
    f, g = _sample_function(rng), _sample_function(rng)
    j = int(rng.integers(0, len(_COMPARE_INTERVALS)))
    kinds, coeffs, intervals = draws
    if (f, g, j) != (_catalog_member(kinds[0, row], coeffs[0, row]),
                     _catalog_member(kinds[1, row], coeffs[1, row]), intervals[row]):
        raise ReproducibilityError(
            f"trial {index} of seed {seed} does not rebuild from spawn_rng: numpy's "
            "Generator draws no longer match their raw-word reading")
    return Witness(f.to_string(), g.to_string(), 0.0, _COMPARE_INTERVALS[j], ma, mb)


def compare_generalizations(spec_a: MeanSpec, spec_b: MeanSpec, trials: int,
                            seed: int, kind: ChainKind = ChainKind.MEAN_FORM,
                            tie_rtol: float = 1e-9) -> OrderVerdict:
    """Sampled comparison of two middle terms over the function catalog.

    Returns A_PREC_B when middle(A) <= middle(B) in every trial with at
    least one strict win (a directional verdict is only consistency
    evidence), INCOMPARABLE once strict wins in both directions are
    witnessed (a genuine two-witness certificate, reported), and
    UNDETERMINED when every trial ties.  Trials are seeded independently by
    index, so the verdict does not depend on evaluation order.

    Trials are drawn and evaluated in blocks (8 rows, doubling up to 32)
    and scanned in index order; a block's rows are computed exactly as lone
    trials would be, so blocking changes no digit of the verdict.  A
    witness's f and g are rebuilt from spawn_rng(seed, index); should they
    differ from the block's draws, ReproducibilityError is raised.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    grids = [simpson_nodes(0.0, b, _COMPARE_PANELS) for b in _COMPARE_INTERVALS]
    nodes = np.stack([xs for xs, _ in grids])
    steps = np.array([h for _, h in grids])
    logderiv = kind is ChainKind.LOG_DERIV_FORM
    best_a = best_b = None  # (separation, _witness arguments)
    wins_a = wins_b = 0
    ran = 0
    size = _BLOCK_FIRST
    while ran < trials:
        draws = _draw_block(seed, ran, min(ran + size, trials))
        size = min(2 * size, _BLOCK_CAP)
        kinds, coeffs, intervals = draws
        (fv, gv), slopes = _catalog_rows(kinds, coeffs, nodes[intervals], logderiv)
        dfv, dgv = (None, None) if slopes is None else slopes
        h = steps[intervals]
        middles_a = _middle_fixed(kind, spec_a, fv, gv, dfv, dgv, h).tolist()
        middles_b = _middle_fixed(kind, spec_b, fv, gv, dfv, dgv, h).tolist()
        for row, (ma, mb) in enumerate(zip(middles_a, middles_b)):
            ran += 1
            scale = max(abs(ma), abs(mb))
            diff = (mb - ma) / scale
            if abs(diff) <= tie_rtol:
                continue
            if diff > 0:
                wins_a += 1
                if best_a is None or diff > best_a[0]:
                    best_a = (diff, (ran - 1, draws, row, ma, mb))
            else:
                wins_b += 1
                if best_b is None or -diff > best_b[0]:
                    best_b = (-diff, (ran - 1, draws, row, ma, mb))
            if wins_a and wins_b:
                return OrderVerdict(Relation.INCOMPARABLE, (_witness(seed, *best_a[1]),
                                                            _witness(seed, *best_b[1])),
                                    ran, seed)
    if wins_a:
        return OrderVerdict(Relation.A_PREC_B, (_witness(seed, *best_a[1]),), ran, seed)
    if wins_b:
        return OrderVerdict(Relation.B_PREC_A, (_witness(seed, *best_b[1]),), ran, seed)
    return OrderVerdict(Relation.UNDETERMINED, (), ran, seed)
