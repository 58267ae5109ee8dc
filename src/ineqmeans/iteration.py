"""Coupled mean-pair iteration and the arithmetic-geometric mean.

Given a pair of means (M, N) and start values (x0, y0), the recursion
x_{k+1} = M(x_k, y_k), y_{k+1} = N(x_k, y_k) converges (for the shipped
catalog) to a common limit which is itself a mean of (x0, y0).  The special
pair (arithmetic, geometric) is the classical AGM with its closed form
agm(x0, y0) = (pi/2) x0 / K(sqrt(1 - (y0/x0)^2)) for 0 < y0 < x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError
from .means import MeanSpec, coupled_limit, parse_mean

__all__ = ["IterationResult", "ITERATION_CAP", "iterate_means", "agm"]

ITERATION_CAP = 200
_ARITHMETIC = parse_mean("warith:0.5,0.5")
_GEOMETRIC = parse_mean("power:0")


@dataclass(frozen=True)
class IterationResult:
    value: float
    iterations: int
    final_gap: float  # |x_n - y_n| / max(x_n, y_n) at the stop (see coupled_limit)


def iterate_means(m: MeanSpec, n: MeanSpec, x0: float, y0: float,
                  tol: float) -> IterationResult:
    """Iterate the pair (M, N) from (x0, y0) until the relative gap <= tol.

    The relative gap is |x_n - y_n| / max(x_n, y_n); the result carries the
    value 0.5 (x_n + y_n), which lies in [min(x0, y0), max(x0, y0)], the
    step count n and that gap at the stop.  Raises ConvergenceError if the
    cap of 200 iterations is hit with gap > tol.
    """
    if not (0 < x0 < math.inf and 0 < y0 < math.inf):
        raise DomainError("iterate_means requires positive finite start values")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    values, iterations, gap = coupled_limit(m, n, x0, y0, tol, ITERATION_CAP)
    return IterationResult(float(values), iterations, gap)


def agm(x: float, y: float, tol: float = 1e-15) -> float:
    """Arithmetic-geometric mean; quadratically convergent and homogeneous.

    Raises ConvergenceError if the cap of 200 iterations is hit with the
    relative gap above tol.
    """
    if not (0 < x < math.inf and 0 < y < math.inf):
        raise DomainError("agm requires positive finite arguments")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    value, _, _ = coupled_limit(_ARITHMETIC, _GEOMETRIC, x, y, tol, ITERATION_CAP)
    return float(value)
