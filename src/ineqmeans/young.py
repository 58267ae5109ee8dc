"""The two Young inequalities, their comparison, and downstream refinements.

For conjugate exponents 1/p + 1/q = 1 the classical bound xy <= x^p/p + y^q/q
has an equally valid sibling xy <= x^q/q + y^p/p, and which right-hand side
is smaller depends on where x and y sit relative to 1: both above one favours
the standard form, both below one favours the swapped form, and when 1
separates them the winner flips at a unique critical y solving

    x^p/p - x^q/q = y^p/p - y^q/q.

The same case analysis refines the discrete Rogers-Holder-Riesz inequality
(normalized vectors always land in the below-one case), and the original
integral form of Young's inequality int_0^a f + int_0^b f^{-1} >= ab is
evaluated directly with a bisected inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import BracketError, DomainError, ParameterError
from .functions import FunctionSpec
from .quadrature import quadrature
from .reports import CHAIN_RTOL, ChainReport, chain_report, holds

__all__ = ["CaseId", "Winner", "YoungComparison", "young_pair", "critical_y",
           "young_integral_gap", "rgh_refined_chain"]

# quadrature tolerance of the areas in young_integral_gap
GAP_TOL = 1e-10


class CaseId(Enum):
    BOTH_ABOVE_ONE = "both-above-one"
    BOTH_BELOW_ONE = "both-below-one"
    STRADDLE = "straddle"


class Winner(Enum):
    STANDARD = "standard"
    SWAPPED = "swapped"
    TIE = "tie"


@dataclass(frozen=True)
class YoungComparison:
    x: float
    y: float
    p: float
    q: float
    product: float
    rhs_standard: float  # x^p/p + y^q/q
    rhs_swapped: float   # x^q/q + y^p/p
    case_id: CaseId
    winner: Winner
    y_critical: Optional[float]


def young_pair(x: float, y: float, p: float) -> YoungComparison:
    """Evaluate both Young right-hand sides and classify the comparison.

    Inputs are reported in the caller's coordinates; the case analysis is
    performed on the normalized configuration y >= x, p >= 2 >= q.  In the
    straddle case the critical value for the normalized small argument is
    included.
    """
    if not p > 1:
        raise ParameterError(f"young_pair requires p > 1, got {p}")
    if x < 0 or y < 0:
        raise DomainError("young_pair requires nonnegative x, y")
    q = p / (p - 1.0)
    rhs_standard = x ** p / p + y ** q / q
    rhs_swapped = x ** q / q + y ** p / p
    product = x * y

    lo, hi = min(x, y), max(x, y)
    if lo >= 1.0:
        case = CaseId.BOTH_ABOVE_ONE
    elif hi <= 1.0:
        case = CaseId.BOTH_BELOW_ONE
    else:
        case = CaseId.STRADDLE

    diff = rhs_standard - rhs_swapped
    # a tie when either side is below the other by no more than rounding
    if holds(-abs(diff), max(rhs_standard, rhs_swapped), CHAIN_RTOL):
        winner = Winner.TIE
    elif diff < 0:
        winner = Winner.STANDARD
    else:
        winner = Winner.SWAPPED

    y_crit = None
    if case is CaseId.STRADDLE and lo > 0.0:
        y_crit = critical_y(lo, max(p, q), tol=1e-12)
    return YoungComparison(x, y, p, q, product, rhs_standard, rhs_swapped,
                           case, winner, y_crit)


def critical_y(x: float, p: float, tol: float = 1e-12) -> float:
    """Solve x^p/p - x^q/q = y^p/p - y^q/q for the unique y >= 1.

    Bracketed bisection on [1, 1e6]; the residual of the equation at the
    returned value is <= tol.
    """
    if not 0.0 < x <= 1.0:
        raise DomainError(f"critical_y requires 0 < x <= 1, got {x}")
    if not p >= 2.0:
        raise ParameterError(f"critical_y requires p >= 2, got {p}")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    q = p / (p - 1.0)
    target = x ** p / p - x ** q / q

    def residual(y: float) -> float:
        return y ** p / p - y ** q / q - target

    lo = 1.0
    if abs(residual(lo)) <= tol:
        return lo
    hi = 2.0
    while residual(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise BracketError("no sign change of the critical equation in [1, 1e6]")
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= tol:
            return mid
        if r < 0.0:
            lo = mid
        else:
            hi = mid
    raise BracketError(f"bisection stalled; residual still above {tol}")


def _invert_increasing(f, target: float, hi: float) -> float:
    """Bisection for f^{-1}(target) on [0, hi], f increasing, to 1e-12 * hi."""
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float(f(mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def young_integral_gap(f: FunctionSpec, a: float, b: float, tol: float = GAP_TOL) -> float:
    """int_0^a f + int_0^b f^{-1} - ab for continuous increasing f with f(0)=0.

    Nonnegative, and zero exactly when b = f(a).  The inverse enters through
    the exact area complement int_0^b f^{-1} = b f^{-1}(b) - int_0^{f^{-1}(b)} f
    (valid for increasing f with f(0) = 0), with f^{-1}(b) evaluated by
    bisection on a monotone bracket; this keeps every quadrature on the
    smooth forward function.
    """
    if a <= 0 or b < 0:
        raise DomainError("young_integral_gap requires a > 0 and b >= 0")
    f0 = float(f(0.0))
    fa = float(f(a))
    if abs(f0) > 1e-12 * max(1.0, abs(fa)):
        raise DomainError(f"f(0) = {f0}; the integral Young inequality needs f(0) = 0")
    # monotonicity by sampled values: a vertical tangent at 0 (e.g. sqrt) is fine
    samples = np.asarray(f(np.linspace(0.0, a, 513)), dtype=float)
    if not np.all(np.isfinite(samples)) or np.any(np.diff(samples) < 0):
        raise DomainError("f must be finite and nondecreasing on [0, a]")
    hi = max(a, 1.0)
    for _ in range(200):
        if float(f(hi)) >= b:
            break
        hi *= 2.0
    else:
        raise DomainError("b exceeds the range of f on the search bracket")
    area_f = quadrature(f, 0.0, a, tol)
    if b == 0.0:
        area_inv = 0.0
    else:
        c = _invert_increasing(f, b, hi)
        area_inv = b * c - (quadrature(f, 0.0, c, tol) if c > 0.0 else 0.0)
    return area_f + area_inv - a * b


def rgh_refined_chain(a_vec, b_vec, p: float) -> ChainReport:
    """Refined Rogers-Holder-Riesz chain for normalized nonnegative vectors.

    With A = (sum a_k^p)^(1/p), B = (sum b_k^q)^(1/q) the chain is

        sum (a_k/A)(b_k/B)
          <= sum [ max(a_k/A, b_k/B)^p / p + min(a_k/A, b_k/B)^q / q ]
          <= 1.
    """
    a = np.asarray(a_vec, dtype=float)
    b = np.asarray(b_vec, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ParameterError("rgh_refined_chain requires two equal-length vectors")
    if np.any(a < 0) or np.any(b < 0):
        raise DomainError("vector entries must be nonnegative")
    if not p >= 2:
        raise ParameterError(f"rgh_refined_chain requires p >= 2, got {p}")
    q = p / (p - 1.0)
    norm_a = float(np.sum(a ** p)) ** (1.0 / p)
    norm_b = float(np.sum(b ** q)) ** (1.0 / q)
    if norm_a == 0.0 or norm_b == 0.0:
        raise DomainError("degenerate input: a zero vector has no normalization")
    u = a / norm_a
    v = b / norm_b
    left = float(np.sum(u * v))
    hi = np.maximum(u, v)
    lo = np.minimum(u, v)
    middle = float(np.sum(hi ** p / p + lo ** q / q))
    return chain_report(left, middle, 1.0)
