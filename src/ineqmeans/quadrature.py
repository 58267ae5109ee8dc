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

The loop is ``_adapt``, which also keeps every level's node values, so a
caller can read the accepted partition back left to right
(``_Adaptation.partition``).  Both integral chains call it directly, from
one set of start panels (``integral._start_panels``: 8 uniform panels split
at the kinks): the mean form adapts its five integrands together, and the
log-derivative form integrates its inner and outer integrands on one
partition (notes/decisions.md, "Log-derivative partition").  ``_bisect``
splits intervals and holds the depth, pending and resolution caps,
``_interval`` the argument checks.

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
    size or alignment).
    """
    lead = values.shape[:node_axis]
    sums = np.einsum("ikn,kc->cin", values.reshape(math.prod(lead), 15, -1), weights)
    return sums.reshape(weights.shape[1:] + lead + values.shape[node_axis + 1:])


def _bisect(mid: np.ndarray, hw: np.ndarray, depth: int, a: float, b: float) -> tuple:
    """Both halves of each interval, the left halves first, for intervals
    ``depth`` bisections below the start panels.

    Raises ConvergenceError past 1024 halves, when a half is too narrow to
    split in doubles, or at depth 60.
    """
    hw = hw / 2.0
    mid = np.concatenate([mid - hw, mid + hw])
    hw = np.concatenate([hw, hw])
    if len(mid) > PENDING_CAP:
        raise ConvergenceError(
            f"adaptive quadrature left more than {PENDING_CAP} intervals pending on [{a}, {b}]")
    if np.any(hw <= RESOLUTION_ULPS * np.spacing(np.abs(mid) + hw)):
        raise ConvergenceError(f"adaptive quadrature cannot resolve [{a}, {b}] in doubles")
    if depth + 1 >= DEPTH_CAP:
        raise ConvergenceError(f"adaptive quadrature exceeded depth {DEPTH_CAP} on [{a}, {b}]")
    return mid, hw


def _accepted(diff: np.ndarray, total: np.ndarray, tol: float, span: float,
              hw: np.ndarray) -> np.ndarray:
    """Mask of the intervals (half-widths hw) whose K15 - G7 diff (k, n) fits
    in every row their width share of max(tol, tol |I|), I = total (k,)."""
    target = np.maximum(tol, tol * np.abs(total)) / span
    return (np.abs(diff) <= target[:, None] * (2.0 * hw)).all(axis=0)


@dataclass(frozen=True)
class _Adaptation:
    """What ``_adapt`` did: the judged rows' accepted sums, added level by
    level (``quadrature``'s result), and each evaluated level as (depth,
    midpoints, half-widths, values (k, 15 n) or (15 n,) at the node-major
    nodes of ``_nodes``, accepted mask)."""

    total: np.ndarray
    levels: tuple

    def partition(self) -> tuple:
        """The accepted intervals left to right: midpoints, half-widths,
        depths, and every row's values at their nodes, node-major
        (k, 15, intervals)."""
        mid = np.concatenate([m[done] for _, m, _, _, done in self.levels])
        hw = np.concatenate([h[done] for _, _, h, _, done in self.levels])
        depth = np.concatenate([np.full(np.count_nonzero(done), d)
                                for d, _, _, _, done in self.levels])
        values = np.concatenate([v.reshape(-1, 15, len(m))[..., done]
                                 for _, m, _, v, done in self.levels], axis=-1)
        order = np.argsort(mid)
        return mid[order], hw[order], depth[order], values[..., order]


def _adapt(f, a: float, b: float, tol: float, mid: np.ndarray, hw: np.ndarray,
           values: np.ndarray = None, judged: int = None, accepted: float = 0.0,
           depth: int = 0) -> _Adaptation:
    """Bisect the pending intervals (mid, hw) of [a, b] until each meets its
    width share of max(tol, tol |I|) in every judged row.

    f maps the nodes of a level to their values: (n,) or a (k, n) stack;
    ``values`` holds the first level's when the caller has them.  Only the
    first ``judged`` rows (all when None) are integrated and judged; the rest
    ride along in the levels.  ``accepted`` is the sum of intervals accepted
    before (I counts it), and ``depth`` that of the pending intervals.
    DomainError on a non-finite value.
    """
    levels = []
    total = None
    while True:
        if values is None:
            values = np.asarray(f(_nodes(mid, hw).ravel()), dtype=float)
        if not np.isfinite(values).all():
            raise DomainError("integrand is not finite on [a, b]")
        rows = values if judged is None else values[:judged]
        if total is None:
            total = np.full(1 if rows.ndim == 1 else len(rows), accepted)
        est, diff = _per_panel(rows.reshape(len(total), 15, len(mid)), _WEIGHTS, 1) * hw
        done = _accepted(diff, total + est.sum(axis=1), tol, b - a, hw)
        total += est[:, done].sum(axis=1)
        levels.append((depth, mid, hw, values, done))
        if done.all():
            return _Adaptation(total, tuple(levels))
        mid, hw = _bisect(mid[~done], hw[~done], depth, a, b)
        depth += 1
        values = None


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
    total = _adapt(fv, a, b, tol, mid, hw, values).total
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
