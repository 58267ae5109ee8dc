"""Deterministic numerical integration.

``quadrature`` is an adaptive Gauss-Kronrod 7-15 rule (QUADPACK's pair): each
level evaluates the 15 nodes of every pending interval in one integrand
batch, accepts an interval when its |K15 - G7| estimate fits its
width-proportional share of the absolute+relative target, and bisects the
rest.  An integrand may return a ``(k, n)`` stack: the k integrals share
every node, and each row must meet its target.  Break points split the
initial panels at kinks (notes/decisions.md, "Integration engine").  The
point set and summation order depend only on the inputs, so results are
bit-reproducible.

Fixed-grid helpers (plain and cumulative Simpson, a cubic Hermite interpolant
with exact slopes) serve the log-derivative tabulation and the comparator,
whose blocks pass the Simpson helpers a ``(k, n)`` stack, one step per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = ["quadrature", "simpson_nodes", "composite_simpson",
           "cumulative_simpson", "CubicHermite"]

DEPTH_CAP = 60
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


def quadrature(f, a: float, b: float, tol: float = 1e-10, breaks=()):
    """Integrate f over [a, b] to an absolute+relative error target tol.

    f maps n nodes to n values, or to a ``(k, n)`` stack of k integrands on
    the same nodes: the result is a float, or the array of the k integrals,
    each meeting tol.  ``breaks`` inside (a, b) split the initial panels.
    Raises ConvergenceError when an interval misses its target at depth 60
    or is too narrow to split, DomainError on a non-finite integrand value.
    """
    a, b = float(a), float(b)
    if not b > a:
        raise ParameterError(f"quadrature requires b > a, got [{a}, {b}]")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    span = b - a
    edges = np.array([a] + sorted(float(t) for t in breaks if a < t < b) + [b])
    hw = np.diff(edges) / 2.0
    mid = edges[:-1] + hw
    fv = None
    for _ in range(DEPTH_CAP):
        xs = (mid[:, None] + hw[:, None] * _NODES).ravel()
        if fv is None:  # the first level doubles as the probe
            fv, vals = _vectorize(f, xs)
            scalar = vals.ndim == 1
            accepted = np.zeros(1 if scalar else len(vals))
        else:
            vals = np.asarray(fv(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DomainError("integrand is not finite on [a, b]")
        sums = (vals.reshape(-1, 15) @ _WEIGHTS).reshape(len(accepted), len(mid), 2) * hw[:, None]
        est, err = sums[..., 0], np.abs(sums[..., 1])
        target = np.maximum(tol, tol * np.abs(accepted + est.sum(axis=1))) / span
        done = np.all(err <= target[:, None] * (2.0 * hw), axis=0)
        accepted += est[:, done].sum(axis=1)
        if bool(np.all(done)):
            return float(accepted[0]) if scalar else accepted
        mid = np.concatenate([mid[~done] - hw[~done] / 2.0, mid[~done] + hw[~done] / 2.0])
        hw = np.tile(hw[~done] / 2.0, 2)
        if np.any(hw <= RESOLUTION_ULPS * np.spacing(np.abs(mid) + hw)):
            raise ConvergenceError(f"adaptive quadrature cannot resolve [{a}, {b}] in doubles")
    raise ConvergenceError(f"adaptive quadrature exceeded depth {DEPTH_CAP} on [{a}, {b}]")


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
