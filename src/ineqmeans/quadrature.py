"""Deterministic numerical integration.

``quadrature`` is an adaptive composite Simpson rule with Richardson
acceptance: every pending subinterval is split at once (a work-queue of
arrays, so array-aware integrands are evaluated in batches), an interval is
accepted when its Richardson error estimate fits its width-proportional share
of the absolute+relative target, and the recursion depth is capped at 60.
An integrand may return a ``(k, n)`` stack for n nodes: the k integrals then
share every node, and an interval is accepted only when all k rows meet their
own targets.  The point set and summation order depend only on the inputs,
so results are bit-reproducible.

Fixed-grid composite helpers (plain and cumulative Simpson, and a cubic
Hermite interpolant with exact slopes) support the tabulated-antiderivative
machinery of the log-derivative chains; the Simpson helpers also take a
``(k, n)`` stack of rows, one step per row, for the comparator's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = ["quadrature", "simpson_nodes", "composite_simpson",
           "cumulative_simpson", "CubicHermite"]

DEPTH_CAP = 60


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


def quadrature(f, a: float, b: float, tol: float = 1e-10):
    """Integrate f over [a, b] to an absolute+relative error target tol.

    f maps n nodes to n values, or to a ``(k, n)`` stack of k integrands on
    the same nodes; the result is then a float, or an array of the k
    integrals, each meeting tol.  Deterministic for fixed inputs; raises
    ConvergenceError if the adaptive bisection exceeds depth 60 and
    DomainError on a non-finite integrand value.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ParameterError(f"quadrature requires b > a, got [{a}, {b}]")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    span = b - a
    probe = np.array([a, a + span / 2.0, b])
    fv, vals = _vectorize(f, probe)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand is not finite on [a, b]")
    scalar = vals.ndim == 1
    vals = np.atleast_2d(vals)

    lefts = np.array([a])
    widths = np.array([span])
    fl, fm, fr = vals[:, 0:1], vals[:, 1:2], vals[:, 2:3]
    S = widths / 6.0 * (fl + 4.0 * fm + fr)
    accepted = np.zeros(len(vals))
    i_est = S.sum(axis=1)

    for _ in range(DEPTH_CAP):
        h = widths / 2.0
        m1 = lefts + h / 2.0
        m2 = lefts + 3.0 * h / 2.0
        new = np.atleast_2d(fv(np.concatenate([m1, m2])))
        if not np.all(np.isfinite(new)):
            raise DomainError("integrand is not finite on [a, b]")
        k = len(lefts)
        f1, f2 = new[:, :k], new[:, k:]
        s_left = h / 6.0 * (fl + 4.0 * f1 + fm)
        s_right = h / 6.0 * (fm + 4.0 * f2 + fr)
        s2 = s_left + s_right
        err = (s2 - S) / 15.0
        target = np.maximum(tol, tol * np.abs(i_est))
        done = np.all(np.abs(err) <= target[:, None] * widths / span, axis=0)
        accepted += np.sum((s2 + err)[:, done], axis=1)
        if bool(np.all(done)):
            return float(accepted[0]) if scalar else accepted
        keep = ~done
        lefts = np.concatenate([lefts[keep], lefts[keep] + h[keep]])
        widths = np.concatenate([h[keep], h[keep]])
        fl, fm, fr = (np.concatenate([fl[:, keep], fm[:, keep]], axis=1),
                      np.concatenate([f1[:, keep], f2[:, keep]], axis=1),
                      np.concatenate([fm[:, keep], fr[:, keep]], axis=1))
        S = np.concatenate([s_left[:, keep], s_right[:, keep]], axis=1)
        i_est = accepted + S.sum(axis=1)
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
