"""Complete elliptic integral K and its elementary two-sided bounds.

K(x) = int_0^1 dt / sqrt((1-t^2)(1-x^2 t^2)) for modulus 0 <= x < 1, with a
logarithmic singularity as x -> 1.  Two independent evaluation routes are
provided: pi / (2 agm(1, sqrt(1-x^2))) and adaptive quadrature of the
integral after the substitution t = cos(phi) removes the endpoint
singularity.

The two-sided elementary bounds derive from splitting K into a scalar
product K = int_0^1 f g dt with

    f = 1 / ((1+t)^(1/2) (xt^2-(x+1)t+1)^(1/4)),
    g = 1 / ((1+xt)^(1/2) (xt^2-(x+1)t+1)^(1/4)),

(f <= g pointwise) and refining the Cauchy-Bunyakovsky estimate with the
quadratic-mean (Milne) pair.  Writing u = f^2, v = g^2, every stage reduces
to the base integral

    J(c, d) = int_0^1 dt / ((c+dt) sqrt((1-t)(1-xt)))
            = ln((2 sqrt(R) + (c+d) + (cx+d)) / (c(1-x))) / sqrt(R),

R = (c+d)(cx+d), which gives the closed forms

    L0 = int u          = J(1, 1)
    G0 = int v          = J(1, x)
    L1 = 2 int uv/(u+v) = J(1, (1+x)/2)
    G1 = int (u+v)/2    = (L0 + G0) / 2
    L2 = (5/2) int uv(u+v)/(u^2+3uv+v^2)    (partial fractions, sqrt(5) roots)
    G2 = (2/5) int (u^2+3uv+v^2)/(u+v) = (2/5) (L0 + G0 + L1/2)

and the chain L0 <= L1 <= L2 <= K <= G2 <= G1 <= G0 holds pointwise under
the integrals.  All nested constants are computed at import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DomainError
from .iteration import agm
from .quadrature import quadrature
from .reports import CHAIN_RTOL, holds

__all__ = ["KMethod", "elliptic_k", "BoundsReport", "bounds", "bounds_grid",
           "CHAIN_FIELDS"]

_SQRT5 = math.sqrt(5.0)
# roots of r^2 + 3r + 1 = 0 and the matching partial-fraction coefficients
# (5 -+ sqrt5)/4 of the second-stage lower bound
_LAMBDA_PLUS = (-3.0 + _SQRT5) / 2.0
_LAMBDA_MINUS = (-3.0 - _SQRT5) / 2.0
_COEF_PLUS = (5.0 - _SQRT5) / 4.0   # pairs with _LAMBDA_PLUS
_COEF_MINUS = (5.0 + _SQRT5) / 4.0  # pairs with _LAMBDA_MINUS

CHAIN_FIELDS = ("L0", "L1", "L2", "K", "G2", "G1", "G0")


class KMethod(Enum):
    AGM = "agm"
    QUADRATURE = "quadrature"


def elliptic_k(x: float, method: KMethod = KMethod.AGM, tol: float = 1e-12) -> float:
    """K(x) for modulus x in [0, 1).

    The AGM route is stable arbitrarily close to the x -> 1 singularity; the
    quadrature route integrates dphi / sqrt((1 - x)(1 + x) + x^2 sin^2 phi)
    over [0, pi/2] adaptively (phi = pi/2 - theta in the usual form).  It meets
    the quadrature's target max(tol, tol K) up to x = 1 - 1e-11 at the
    default tol (checked against mpmath at 40 digits); from about
    x = 1 - 5e-12 on it raises ConvergenceError.
    """
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"elliptic_k requires 0 <= x < 1, got {x}")
    if method is KMethod.AGM:
        return math.pi / (2.0 * agm(1.0, math.sqrt((1.0 - x) * (1.0 + x))))
    # with phi = pi/2 - theta, 1 - x^2 sin^2 theta = (1 - x)(1 + x) + x^2 sin^2 phi:
    # no cancellation as x -> 1, and the peak, of width about sqrt((1 - x)(1 + x)),
    # sits at the exact endpoint phi = 0, where sin phi keeps its relative accuracy
    # (a peak at the rounded pi/2 would lose 6e-17 / sqrt(gap) to the rounding)
    gap = (1.0 - x) * (1.0 + x)
    x2 = x * x

    def integrand(phi):
        s = np.sin(phi)
        return 1.0 / np.sqrt(gap + x2 * s * s)

    return quadrature(integrand, 0.0, math.pi / 2.0, tol)


def _j_affine(c: float, d: float, x: float) -> float:
    """J(c, d) = int_0^1 dt/((c+dt) sqrt((1-t)(1-xt))) in closed form."""
    r = (c + d) * (c * x + d)
    s = math.sqrt(r)
    # ln(1 + u) with u = (2s + 2d + 2cx) / (c(1 - x)): u -> 0 as x -> 0 for G0
    return math.log1p((2.0 * s + 2.0 * d + 2.0 * c * x) / (c * (1.0 - x))) / s


@dataclass(frozen=True)
class BoundsReport:
    x: float
    L0: float
    L1: float
    L2: float
    K: float
    G2: float
    G1: float
    G0: float
    chain_ok: bool
    max_violation: float  # most negative relative slack, clipped at 0

    def chain(self) -> tuple:
        return (self.L0, self.L1, self.L2, self.K, self.G2, self.G1, self.G0)


def bounds(x: float) -> BoundsReport:
    """All six elementary bounds plus the AGM reference K at modulus x.

    The formulas contain ln(. / (1-x)) and 1/sqrt(2x(x+1)) factors, so the
    domain is the open interval (0, 1).
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise DomainError(f"bounds requires 0 < x < 1, got {x}")
    l0 = _j_affine(1.0, 1.0, x)
    g0 = _j_affine(1.0, x, x)
    l1 = _j_affine(1.0, (1.0 + x) / 2.0, x)
    g1 = 0.5 * (l0 + g0)
    g2 = 0.4 * (l0 + g0 + 0.5 * l1)
    l2 = (_COEF_PLUS * _j_affine(1.0 - _LAMBDA_PLUS, x - _LAMBDA_PLUS, x)
          + _COEF_MINUS * _j_affine(1.0 - _LAMBDA_MINUS, x - _LAMBDA_MINUS, x))
    k = elliptic_k(x, KMethod.AGM)
    chain = (l0, l1, l2, k, g2, g1, g0)
    scale = max(chain)
    # closed forms and the AGM carry rounding error only: CHAIN_RTOL
    min_slack = min(b - a for a, b in zip(chain, chain[1:]))
    return BoundsReport(x, l0, l1, l2, k, g2, g1, g0,
                        chain_ok=holds(min_slack, scale, CHAIN_RTOL),
                        max_violation=max(0.0, -min_slack / scale))


def bounds_grid(xs: Sequence[float]):
    return [bounds(x) for x in xs]
