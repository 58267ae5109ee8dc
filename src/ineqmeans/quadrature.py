"""Deterministic numerical integration.

``quadrature`` is an adaptive Gauss-Kronrod 7-15 rule (QUADPACK's pair): each
level evaluates the 15 nodes of every pending interval in one integrand
batch, accepts an interval when its |K15 - G7| estimate fits its
width-proportional share of the absolute+relative target (``_accepted``),
and bisects the rest.  An integrand may return a ``(k, n)`` stack: the k
integrals share every node, and each row must meet its target.  Break points
split the initial panels at kinks (notes/decisions.md, "Integration
engine").  The point set depends only on the inputs.

Every weighted panel sum, K15, K15 - G7 and the integration matrix at the
nodes, goes through ``_per_panel``, which adds each panel's 15 terms in node
order: a panel's sums have the same bits alone and in a batch of any size
(notes/decisions.md, "Integration engine").  The panels are node-major
throughout: ``_nodes`` gives their nodes as (15, intervals), ``_panels`` the
midpoints and half-widths between edges.

The loop is ``_adapt``, and it has a row axis: the pending intervals of
any number of separate integrals (rows, each with its own [a, b]) go through
each level together, every interval carrying its row.  Totals, error sums,
acceptance and the caps are kept per row; each row's sums are added one
interval after the other in an order no other row changes (``_row_sums``,
np.bincount), so a row has the same bits alone and among any others, and a
row that hits a cap stops while the others go on (``_Adaptation.failed``).
The loop keeps every level's node values, so a caller can take the
accepted intervals as a ``_Partition``: sums over each row left to right,
each row's cumulative integral at every node, and ``refined``, which
bisects chosen intervals and adapts their halves again.  The integral
chains and the comparator run on it through one middle-term routine
(``integral._middles``): a chain is one row, a comparator block many.
``_bisect`` splits intervals and holds the depth, pending and resolution
caps, ``_interval`` the argument checks.

``_cumulative_weights`` builds the spectral integration matrix
S[j, k] = int_{-1}^{u_j} l_k of the degree-14 interpolant through the 15
nodes (Greengard, SIAM J. Numer. Anal. 28, 1991; Trefethen, *Approximation
Theory and Approximation Practice*, ch. 19): at the nodes themselves it
gives a panel's cumulative integral at its own nodes, and at any u in
[-1, 1] the integral up to u.

The fixed-grid helpers (plain and cumulative Simpson, a cubic Hermite
interpolant with exact slopes) have no caller in the package; the traced
benchmark binds them by name until its spans move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = ["quadrature", "simpson_nodes", "composite_simpson",
           "cumulative_simpson", "CubicHermite"]

DEPTH_CAP = 60
# a level may leave at most this many intervals pending; an integrand whose
# rounding noise exceeds its target would otherwise double them until memory
# runs out (well-posed integrands keep a handful pending)
PENDING_CAP = 1024
# below this many ulps of its own magnitude an interval's nodes (the closest
# 0.042 half-widths apart) are no longer distinct doubles: it cannot be split
RESOLUTION_ULPS = 64

_GK15 = np.array([  # Kronrod node in [0, 1), K15 weight, G7 weight (QUADPACK qk15)
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
])
_NODES = np.concatenate([-_GK15[:-1, 0], _GK15[::-1, 0]])
_W = np.concatenate([_GK15, _GK15[-2::-1]])
_WEIGHTS = np.stack([_W[:, 1], _W[:, 1] - _W[:, 2]], axis=1)  # columns K15 and K15 - G7


def _cumulative_weights(upper: np.ndarray = _NODES) -> np.ndarray:
    """S[j, k] = int_{-1}^{u_j} l_k for the Lagrange basis l_k of the 15
    Kronrod nodes and upper ends u_j in [-1, 1] (the nodes themselves by
    default): weights that integrate their degree-14 interpolant from -1 to
    each u_j.

    K15 itself, mapped onto [-1, u_j], integrates each l_k exactly (it is
    exact to degree 22), from the values of l_k at the mapped nodes.
    Plain numpy: numpy.polynomial would cost its import, about 2 ms, and a
    first LAPACK solve about 0.6 MB of peak memory.
    """
    half = (np.asarray(upper, dtype=float) + 1.0) / 2.0
    ts = half[:, None] * (_NODES + 1.0) - 1.0  # row j: K15's nodes on [-1, u_j]
    # l_k(t) = w_k prod_m (t - x_m) / (t - x_k), w_k = 1 / prod_{m != k} (x_k - x_m)
    gaps = _NODES[:, None] - _NODES
    np.fill_diagonal(gaps, 1.0)
    apart = ts[..., None] - _NODES
    # a mapped node on a Kronrod node x_k (none does at the default ends)
    # takes l_k = 1 and the other l = 0
    hit = apart == 0.0
    on_node = hit.any(axis=-1)
    apart[on_node] = 1.0
    # basis[j, i, k] = l_k(ts[j, i])
    basis = apart.prod(axis=-1)[..., None] / gaps.prod(axis=-1) / apart
    basis[on_node] = hit[on_node]
    return half[:, None] * (_WEIGHTS[:, :1] * basis).sum(axis=1)


@lru_cache(maxsize=None)
def _inner_weights() -> np.ndarray:
    """(15, 15): a panel's integral up to each of its 15 nodes, the
    integration matrix S^T.  Built on first use, so commands without a
    cumulative integral do not build it."""
    return _cumulative_weights().T


def _vectorize(f, probe: np.ndarray):
    """Return (array-callable, values at probe), wrapping scalar-only f."""
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape[-1:] == probe.shape and out.ndim <= 2:
            return f, out
    except (TypeError, ValueError):
        pass

    def g(xs):
        arr = np.atleast_1d(xs)
        return np.array([np.asarray(f(t), dtype=float) for t in arr]).T

    return g, g(probe)


def _panels(edges: np.ndarray) -> tuple:
    """Midpoints and half-widths of the panels between consecutive edges
    (on the last axis)."""
    hw = np.diff(edges, axis=-1) / 2.0
    return edges[..., :-1] + hw, hw


def _nodes(mid: np.ndarray, hw: np.ndarray) -> np.ndarray:
    """The 15 nodes of the intervals (mid, hw), node-major: (15,) + mid.shape."""
    return mid + np.multiply.outer(_NODES, hw)


def _per_panel(values: np.ndarray, weights: np.ndarray, node_axis: int = 0) -> np.ndarray:
    """Weights (15, c) applied panel by panel to values whose axis
    ``node_axis`` runs over the 15 nodes: (c,) + the other axes.

    numpy's own einsum loop, not a BLAS matrix product, adds each panel's 15
    terms in node order, so a panel's sums have the same bits alone and in a
    block of any size (a BLAS may choose its summation order by the matrix's
    size or alignment).  Both loops below add in node order: one einsum over
    a stack of few panels, and one per leading index over many, where numpy
    buffers a stack's einsum (2.8 times as slow on (4, 15, 2048); below 256
    panels the single call is faster).
    """
    lead = values.shape[:node_axis]
    stack = values.reshape(math.prod(lead), 15, -1)
    if stack.shape[-1] < 256:
        sums = np.einsum("ikn,kc->cin", stack, weights)
    else:
        sums = np.empty((weights.shape[1], len(stack), stack.shape[-1]))
        for i, v in enumerate(stack):
            np.einsum("kn,kc->cn", v, weights, out=sums[:, i])
    return sums.reshape(weights.shape[1:] + lead + values.shape[node_axis + 1:])


def _row_sums(values: np.ndarray, row: np.ndarray, rows: int) -> np.ndarray:
    """Sums of values (..., n) over the panels of each row, row (n,) in
    [0, rows): (..., rows).  ``np.bincount`` adds each row's terms one after
    the other in their order along n, so a row's sums have the same bits
    alone and beside any other rows (a reduction along a padded axis would
    group its terms by the padded length)."""
    if rows == 1:  # the same additions from 0: a running sum, + 0.0 for an all -0.0 row
        return np.add.accumulate(values, axis=-1)[..., -1:] + 0.0
    k = values.size // values.shape[-1]
    index = (np.arange(k)[:, None] * rows + row).ravel()
    return np.bincount(index, values.ravel(), k * rows).reshape(values.shape[:-1] + (rows,))


def _bisect(mid: np.ndarray, hw: np.ndarray, row: np.ndarray, depth: np.ndarray,
            a: np.ndarray, b: np.ndarray) -> tuple:
    """Both halves of each interval, the left halves first, with their rows
    and depths (one more than their parents'), and the rows that hit a cap
    as {row: message}: more than 1024 halves pending in the row, a half too
    narrow to split in doubles, or depth 60.  A failed row's halves are
    dropped; a, b are the rows' intervals."""
    hw = hw / 2.0
    mid = np.concatenate([mid - hw, mid + hw])
    hw = np.concatenate([hw, hw])
    row = np.concatenate([row, row])
    depth = np.concatenate([depth, depth]) + 1
    caps = [(hw <= RESOLUTION_ULPS * np.spacing(np.abs(mid) + hw),
             "cannot resolve [{}, {}] in doubles")]
    if len(row) > PENDING_CAP:
        caps.insert(0, (np.bincount(row)[row] > PENDING_CAP,
                        f"left more than {PENDING_CAP} intervals pending on [{{}}, {{}}]"))
    if depth.max() >= DEPTH_CAP:
        caps.append((depth >= DEPTH_CAP, f"exceeded depth {DEPTH_CAP} on [{{}}, {{}}]"))
    failed = {}
    for hit, message in caps:
        if hit.any():
            for r in np.unique(row[hit]).tolist():
                failed.setdefault(r, "adaptive quadrature " + message.format(a[r], b[r]))
    if failed:
        keep = ~np.isin(row, list(failed))
        mid, hw, row, depth = mid[keep], hw[keep], row[keep], depth[keep]
    return mid, hw, row, depth, failed


def _accepted(err: np.ndarray, total: np.ndarray, tol: float, span: np.ndarray,
              hw: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Mask of the intervals (half-widths hw, rows row) whose |K15 - G7|
    err (k, n) fits in every integrand their width share of
    max(tol, tol |I|), I = total (k, rows), the estimate of their row, whose
    length is span (rows,)."""
    target = np.abs(total)
    target *= tol
    np.maximum(target, tol, out=target)
    target /= span
    if len(span) > 1:  # one row's (k, 1) broadcasts as it is
        target = target.take(row, axis=1)
    target = target * (2.0 * hw)
    return (err <= target).all(axis=0)


def _raise_first(failed: dict) -> None:
    """ConvergenceError with the message of the first row that hit a cap."""
    if failed:
        raise ConvergenceError(next(iter(failed.values())))


class _Level(NamedTuple):
    """One evaluated level of ``_adapt``: its intervals' depths, midpoints,
    half-widths and rows, the values (k, 15, n) at their node-major nodes,
    the judged integrands' K15 and |K15 - G7| sums (2, judged, n) of the
    accepted intervals (0 elsewhere), and the accepted mask."""

    depth: np.ndarray
    mid: np.ndarray
    hw: np.ndarray
    row: np.ndarray
    values: np.ndarray
    sums: np.ndarray
    done: np.ndarray


class _Partition(NamedTuple):
    """The intervals an adaptation accepted, in the order it accepted them:
    their rows, midpoints, half-widths and depths, every integrand's values
    at their nodes, node-major (k, 15, n), and the judged integrands' K15
    and |K15 - G7| sums (2, judged, n); ``order`` sorts them by row and left
    to right (the values stay where they are: moving them cost more than
    using the order), None when they are in that order already.  ``f``,
    ``a``, ``b``, ``tol`` and ``judged`` are the adaptation's, and
    ``failed`` names the rows that hit a cap; their intervals stop where the
    cap was hit."""

    f: Callable
    a: np.ndarray
    b: np.ndarray
    tol: float
    judged: int
    row: np.ndarray
    mid: np.ndarray
    hw: np.ndarray
    depth: np.ndarray
    values: np.ndarray
    sums: np.ndarray
    order: Optional[np.ndarray]
    failed: dict

    def in_order(self, x: np.ndarray) -> np.ndarray:
        """Per-interval x (..., n) by row and left to right."""
        return x if self.order is None else x.take(self.order, axis=-1)

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        """Sums (..., rows) of per-interval x (..., n) over each row's
        intervals, added left to right."""
        return _row_sums(self.in_order(x), self.in_order(self.row), len(self.a))

    def cumulative(self) -> tuple:
        """int_a^x of each judged integrand at every node: each interval's
        integral up to its nodes (15, judged, n), ``_inner_weights`` times
        hw, and the K15 totals of its row's intervals to its left
        (judged, n), so the integral is sums + start.  The totals run along
        a zero-padded (rows, P) layout, each row one sequential cumsum
        whatever the other rows hold."""
        sums = _per_panel(self.values[:self.judged], _inner_weights(), 1)
        sums *= self.hw
        totals = self.in_order(self.sums[0])
        if len(self.a) == 1:  # one row: one cumsum (a zero total from 0 or not, the same v)
            running = np.zeros(totals.shape)
            np.cumsum(totals[:, :-1], axis=1, out=running[:, 1:])
        else:  # each interval's place in the (rows, width) layout, in sorted order
            ranked = self.in_order(self.row)
            at = np.arange(len(ranked)) - np.searchsorted(ranked, ranked)
            width = at.max() + 2
            at += ranked * width
            padded = np.zeros((self.judged, len(self.a) * width))
            padded[:, at + 1] = totals
            np.cumsum(padded.reshape(self.judged, -1, width), axis=-1,
                      out=padded.reshape(self.judged, -1, width))
            running = padded[:, at]
        if self.order is None:
            return sums, running
        start = np.empty_like(running)
        start[:, self.order] = running
        return sums, start

    def refined(self, bad: np.ndarray) -> "_Partition":
        """The partition with each ``bad`` interval bisected and its halves
        adapted again; the kept intervals' K15 sums count as accepted."""
        keep = ~bad
        mid, hw, row, depth, failed = _bisect(self.mid[bad], self.hw[bad], self.row[bad],
                                              self.depth[bad], self.a, self.b)
        names = ("row", "mid", "hw", "depth", "values", "sums")
        parts = [[getattr(self, name).compress(keep, axis=-1) for name in names]]
        if len(mid):  # unless every bisected row hit a cap
            # the bisected intervals add exact zeros
            halves = _adapt(self.f, self.a, self.b, self.tol, mid, hw, row, judged=self.judged,
                            accepted=self.row_sums(self.sums[0] * keep), depth=depth).partition()
            parts.append([getattr(halves, name) for name in names])
            failed.update(halves.failed)
        merged = dict(zip(names, (np.concatenate(x, axis=-1) for x in zip(*parts))))
        return self._replace(**merged, order=np.lexsort((merged["mid"], merged["row"])),
                             failed={**self.failed, **failed})


class _Adaptation(NamedTuple):
    """What ``_adapt`` did: the judged integrands' accepted K15 sums per row
    (k, rows), added level by level (``quadrature``'s result), their
    accepted sums of |K15 - G7| (k, rows), each evaluated ``_Level``, and
    the rows that hit a cap, {row: message}; with the integrand, intervals,
    target and number of judged integrands it ran on."""

    f: Callable
    a: np.ndarray
    b: np.ndarray
    tol: float
    judged: int
    total: np.ndarray
    error: np.ndarray
    levels: tuple
    failed: dict

    def partition(self) -> _Partition:
        """The accepted intervals, level by level.  When the first level
        accepted every interval they are its intervals as the caller gave
        them, which every start gives by row and left to right: no sort
        (``refined`` takes only the intervals of its unsorted halves)."""
        if len(self.levels) == 1 and self.levels[0].done.all():
            depth, mid, hw, row, values, sums, _ = self.levels[0]
            order = None
        else:
            depth, mid, hw, row, values, sums, done = (
                x[0] if len(x) == 1 else np.concatenate(x, axis=-1) for x in zip(*self.levels))
            if not done.all():
                depth, mid, hw, row, values, sums = (x.compress(done, axis=-1)
                                                     for x in (depth, mid, hw, row, values, sums))
            order = np.lexsort((mid, row))
        return _Partition(self.f, self.a, self.b, self.tol, self.judged, row, mid, hw, depth,
                          values, sums, order, self.failed)


def _adapt(f, a, b, tol: float, mid: np.ndarray, hw: np.ndarray, row: np.ndarray = None,
           values: np.ndarray = None, judged: int = None, accepted=None,
           depth: np.ndarray = None) -> _Adaptation:
    """Bisect the pending intervals (mid, hw) until each meets its width
    share of max(tol, tol |I|) in every judged integrand of its row.

    Rows are separate integrals over their own intervals [a[r], b[r]]
    (arrays, or floats for one row); ``row`` gives each interval's row (all
    0 when None).  Totals, acceptance and caps are kept per row, in an
    order that no other row changes, so a row's sums have the same bits
    alone and in any block.  A row that hits a cap stops there and is
    reported in ``failed``; the others go on.

    f(row, nodes) maps the node-major nodes (15, n) of a level and their
    intervals' rows to values (15, n) or a (k, 15, n) stack (flat (15 n,)
    or (k, 15 n) will do); ``values`` holds the first level's when the
    caller has them.  Only the first ``judged`` integrands (all when None)
    are integrated and judged; the rest ride along in the levels.
    ``accepted`` ((k, rows), or None for 0) is the sum of intervals accepted
    before (I counts it), and ``depth`` the pending intervals' depths (0).
    DomainError on a non-finite value.
    """
    a, b = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
    rows, span = len(a), b - a
    if row is None or depth is None:
        zeros = np.zeros(len(mid), dtype=np.intp)
        row = zeros if row is None else row
        depth = zeros if depth is None else depth
    levels = []
    failed = {}
    sums_so_far = None  # the accepted K15 and |K15 - G7| sums (2, k, rows)
    while len(mid):
        if values is None:
            values = f(row, _nodes(mid, hw))
        values = np.ascontiguousarray(values, dtype=float).reshape(-1, 15, len(mid))
        stack = values if judged is None else values[:judged]
        k = len(stack)
        if sums_so_far is None:
            sums_so_far = np.zeros((2, k, rows))
            if accepted is not None:
                sums_so_far[0] += accepted
        sums = _per_panel(stack, _WEIGHTS, 1)
        sums *= hw
        # every K15 weight is positive: a panel's sums are finite exactly
        # when its values are (or overflow where they are not)
        if not np.isfinite(sums).all():
            raise DomainError("integrand is not finite on [a, b]")
        err = np.abs(sums[1], out=sums[1])
        # each row's K15 and |K15 - G7| sums, in the level's order
        level = _row_sums(sums, row, rows)
        done = _accepted(err, sums_so_far[0] + level[0], tol, span, hw, row)
        finished = done.all()
        if not finished:  # the accepted intervals' sums: the others add exact zeros
            sums *= done
            level = _row_sums(sums, row, rows)
        sums_so_far += level
        levels.append(_Level(depth, mid, hw, row, values, sums, done))
        if finished:
            break
        pending = ~done
        mid, hw, row, depth, lost = _bisect(
            *(x.compress(pending) for x in (mid, hw, row, depth)), a, b)
        failed.update(lost)
        values = None
    return _Adaptation(f, a, b, tol, k, *sums_so_far, tuple(levels), failed)


def _interval(a, b, *tols) -> tuple:
    """(a, b) as floats; ParameterError unless -inf < a < b < inf and each tol > 0."""
    a, b = float(a), float(b)
    if not -math.inf < a < b < math.inf:  # NaN fails too
        raise ParameterError(f"integration requires finite endpoints with b > a, got [{a}, {b}]")
    if not all(tol > 0 for tol in tols):
        raise ParameterError(f"tolerances must be positive, got {tols}")
    return a, b


def quadrature(f, a: float, b: float, tol: float = 1e-10, breaks=()):
    """Integrate f over [a, b] to an absolute+relative error target tol.

    f maps n nodes to n values, or to a ``(k, n)`` stack of k integrands on
    the same nodes: the result is a float, or the array of the k integrals,
    each meeting tol.  ``breaks`` inside (a, b) split the initial panels.
    Raises ConvergenceError when an interval misses its target at depth 60
    or is too narrow to split, or when more than 1024 intervals are pending
    at once; DomainError on a non-finite integrand value.
    """
    a, b = _interval(a, b, tol)
    mid, hw = _panels(np.array([a] + sorted(float(t) for t in breaks if a < t < b) + [b]))
    # the first level doubles as the probe
    fv, values = _vectorize(f, _nodes(mid, hw).ravel())
    adaptation = _adapt(lambda row, ts: fv(ts.ravel()), a, b, tol, mid, hw, values=values)
    _raise_first(adaptation.failed)
    total = adaptation.total[:, 0]
    return float(total[0]) if values.ndim == 1 else total


def simpson_nodes(a: float, b: float, panels: int):
    """Uniform grid with 2*panels+1 nodes and half-step h for composite Simpson."""
    xs = np.linspace(a, b, 2 * panels + 1)
    return xs, (b - a) / (2 * panels)


def _simpson_values(values, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] < 3 or v.shape[-1] % 2 == 0:
        raise ParameterError(f"{what} Simpson needs an odd number of nodes >= 3")
    return v


def composite_simpson(values: np.ndarray, h):
    """Composite Simpson total for values on 2N+1 uniform nodes with step h.

    ``values`` may be a ``(k, n)`` stack with one step per row (h of shape
    ``(k,)``); the k totals then come back as an array, each bit-identical to
    the 1-D call on its row.
    """
    v = _simpson_values(values, "composite")
    total = h / 3.0 * (v[..., 0] + v[..., -1] + 4.0 * v[..., 1:-1:2].sum(axis=-1)
                       + 2.0 * v[..., 2:-1:2].sum(axis=-1))
    return float(total) if v.ndim == 1 else total


def cumulative_simpson(values: np.ndarray, h) -> np.ndarray:
    """Cumulative integral at the even nodes of a 2N+1-node uniform grid.

    Stacks as in ``composite_simpson``: a ``(k, n)`` stack with k steps gives
    k cumulative rows.
    """
    v = _simpson_values(values, "cumulative")
    step = h if v.ndim == 1 else np.asarray(h, dtype=float)[:, None]
    panels = step / 3.0 * (v[..., :-2:2] + 4.0 * v[..., 1:-1:2] + v[..., 2::2])
    out = np.empty(v.shape[:-1] + (panels.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(panels, axis=-1, out=out[..., 1:])
    return out


@dataclass(frozen=True)
class CubicHermite:
    """Piecewise cubic on a uniform grid with exact node values and slopes.

    Used for tabulated antiderivatives: the slope at each node is the known
    integrand value, so the interpolation error is O(step^4).
    """

    t0: float
    step: float
    values: np.ndarray
    slopes: np.ndarray

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        idx = np.clip(((xs - self.t0) / self.step).astype(int), 0, len(self.values) - 2)
        u = (xs - (self.t0 + idx * self.step)) / self.step
        u2 = u * u
        u3 = u2 * u
        h00 = 2.0 * u3 - 3.0 * u2 + 1.0
        h10 = u3 - 2.0 * u2 + u
        h01 = -2.0 * u3 + 3.0 * u2
        h11 = u3 - u2
        return (h00 * self.values[idx] + h10 * self.step * self.slopes[idx]
                + h01 * self.values[idx + 1] + h11 * self.step * self.slopes[idx + 1])
