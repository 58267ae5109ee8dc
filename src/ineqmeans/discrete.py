"""Discrete Cauchy-Bunyakovsky chains built from means, and their relatives.

The central refinement interpolates a middle term between the two sides of
the classical inequality: for any unbiased, homogeneous, monotone mean M
(symmetry not required) with conjugate M* = xy/M,

    (sum x_k y_k)^2 <= sum M(x_k,y_k)^2 * sum M*(x_k,y_k)^2
                    <= sum x_k^2 * sum y_k^2.

The quadratic mean reproduces Milne's inequality, the weighted geometric
mean reproduces Callebaut's.  The same middle term drives the reversed
(Lorentz/time-like) chain and the Jackson q-integral analogue, and the
module also houses the Daykin-Eliezer-Carlitz condition checker and the
discrete-Fourier-transform support-size uncertainty relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .functions import FunctionSpec
from .means import MeanSpec, conjugate_from_mean, conjugate_values, mean_values
from .reports import ChainReport, chain_report

__all__ = ["cbs_chain", "cde_check", "cde_check_functions", "UncertaintyReport",
           "dft_uncertainty", "lorentz_chain", "q_jackson_integral", "q_cbs_chain"]


def _positive_finite(v) -> bool:
    # NaN fails both comparisons
    return bool(np.all((v > 0.0) & (v < math.inf)))


def _positive_vectors(x_vec, y_vec):
    x = np.asarray(x_vec, dtype=float)
    y = np.asarray(y_vec, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 1:
        raise ParameterError("cbs chain requires two equal-length vectors")
    if not (_positive_finite(x) and _positive_finite(y)):
        raise DomainError("cbs chain requires finite, strictly positive entries "
                          "(the conjugate mean divides by M)")
    return x, y


def cbs_chain(x_vec, y_vec, spec: MeanSpec) -> ChainReport:
    """Mean-parameterized refinement of the discrete Cauchy-Bunyakovsky bound."""
    x, y = _positive_vectors(x_vec, y_vec)
    m = mean_values(spec, x, y)
    mc = conjugate_from_mean(x, y, m)
    left = float(np.sum(x * y)) ** 2
    middle = float(np.sum(m * m)) * float(np.sum(mc * mc))
    right = float(np.sum(x * x)) * float(np.sum(y * y))
    return chain_report(left, middle, right)


# ---------------------------------------------------------------------------
# Daykin-Eliezer-Carlitz conditions
# ---------------------------------------------------------------------------

_CDE_LAMBDAS = (0.5, 2.0, 5.0)


def cde_check_functions(f: Callable, g: Callable, sample_grid: Sequence,
                        rtol: float = 1e-10,
                        lambdas: Sequence[float] = _CDE_LAMBDAS):
    """Check the middle-term admissibility conditions for a raw pair (f, g).

    On each grid pair (x, y):
      1. f(x,y) g(x,y) = x^2 y^2,
      2. f(lam x, lam y) = lam^2 f(x,y) for each sampled lam,
      3. the hybrid bound  y f(x,1)/(x f(y,1)) + x f(y,1)/(y f(x,1))
                             <= x/y + y/x.

    Returns (ok, violations); each violation is (condition, x, y, detail).
    """
    pairs = [(float(x), float(y)) for x, y in sample_grid]
    if not pairs:
        raise ParameterError("sample_grid must be nonempty")
    violations = []
    for x, y in pairs:
        fv = float(f(x, y))
        gv = float(g(x, y))
        prod = x * x * y * y
        if abs(fv * gv - prod) > rtol * max(abs(prod), 1e-300):
            violations.append(("product", x, y, fv * gv - prod))
            continue
        for lam in lambdas:
            scaled = float(f(lam * x, lam * y))
            if abs(scaled - lam * lam * fv) > rtol * max(abs(lam * lam * fv), 1e-300):
                violations.append(("homogeneity", x, y, lam))
                break
        fx1 = float(f(x, 1.0))
        fy1 = float(f(y, 1.0))
        lhs = y * fx1 / (x * fy1) + x * fy1 / (y * fx1)
        rhs = x / y + y / x
        if lhs > rhs * (1.0 + rtol):
            violations.append(("hybrid", x, y, lhs - rhs))
    return (not violations), violations


def cde_check(spec: MeanSpec, sample_grid: Sequence, rtol: float = 1e-10):
    """Run the CDE conditions on f = M^2, g = M*^2 for the given mean."""
    def f(x, y):
        return mean_values(spec, x, y) ** 2

    def g(x, y):
        return conjugate_values(spec, x, y) ** 2

    return cde_check_functions(f, g, sample_grid, rtol)


# ---------------------------------------------------------------------------
# DFT uncertainty relation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UncertaintyReport:
    n: int
    input_support: int  # nonzero entries of the input
    dft_support: int    # nonzero entries of its transform
    product: int
    holds: bool         # input_support * dft_support >= n
    equality: bool


def dft_uncertainty(vec, zero_tol: float = 1e-9) -> UncertaintyReport:
    """Support-size uncertainty for the normalized DFT.

    b_j = n^(-1/2) sum_k a_k w^(-jk) with w = exp(2 pi i / n), computed by
    the direct O(n^2) sum.  Entries count as nonzero when their modulus
    exceeds zero_tol times the vector's maximum modulus.
    """
    a = np.asarray(vec, dtype=complex)
    if a.ndim != 1 or len(a) < 1:
        raise ParameterError("dft_uncertainty requires a nonempty vector")
    if zero_tol < 0:
        raise ParameterError("zero_tol must be nonnegative")
    n = len(a)
    if not np.any(a != 0):
        raise DomainError("dft_uncertainty requires a nonzero vector")
    j = np.arange(n)
    w = np.exp(-2j * math.pi * np.outer(j, j) / n)
    b = w @ a / math.sqrt(n)

    def support(v):
        mags = np.abs(v)
        return int(np.sum(mags > zero_tol * mags.max()))

    sa, sb = support(a), support(b)
    return UncertaintyReport(n, sa, sb, sa * sb, sa * sb >= n, sa * sb == n)


# ---------------------------------------------------------------------------
# Lorentz (time-like) reversed chain
# ---------------------------------------------------------------------------

def lorentz_chain(x0: float, x_vec, y0: float, y_vec, spec: MeanSpec) -> ChainReport:
    """Reversed chain for time-like vectors (x0, x), (y0, y):

        (x0 y0 - sum x_k y_k)^2 >= (x0 y0 - sqrt(A))^2
                                 >= (x0^2 - sum x_k^2)(y0^2 - sum y_k^2)

    with A the mean-parameterized discrete middle term.  Requires
    x0^2 >= sum x_k^2, y0^2 >= sum y_k^2 and positive spatial components
    (the conjugate mean needs them).
    """
    x, y = _positive_vectors(x_vec, y_vec)
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise DomainError("lorentz_chain requires finite time components x0, y0")
    if x0 * x0 < float(np.sum(x * x)) or y0 * y0 < float(np.sum(y * y)):
        raise DomainError("lorentz_chain requires time-like vectors "
                          "(x0^2 >= sum x_k^2 and likewise for y)")
    m = mean_values(spec, x, y)
    mc = conjugate_from_mean(x, y, m)
    a_mid = float(np.sum(m * m)) * float(np.sum(mc * mc))
    left = (x0 * y0 - float(np.sum(x * y))) ** 2
    middle = (x0 * y0 - math.sqrt(a_mid)) ** 2
    right = (x0 * x0 - float(np.sum(x * x))) * (y0 * y0 - float(np.sum(y * y)))
    return chain_report(left, middle, right, reverse=True)


# ---------------------------------------------------------------------------
# Jackson q-integral
# ---------------------------------------------------------------------------

def _q_tail_length(q: float, tail_tol: float, bound: float) -> int:
    # smallest k with (1-q) q^k bound < tail_tol, via the geometric tail
    if bound <= 0:
        return 1
    k = math.log(tail_tol / ((1.0 - q) * bound)) / math.log(q)
    return max(1, int(math.ceil(k)) + 1)


def q_jackson_integral(f: FunctionSpec, q: float, tail_tol: float = 1e-12) -> float:
    """Jackson q-integral (1-q) sum_{k>=0} f(q^k) q^k over [0, 1].

    The series is truncated once the running geometric term bound drops
    below tail_tol; f must be bounded on (0, 1].
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"q must lie in (0, 1), got {q}")
    if not tail_tol > 0:
        raise ParameterError("tail_tol must be positive")
    kmax = _q_tail_length(q, tail_tol, f.sup_on_unit())
    nodes = q ** np.arange(kmax)
    return float((1.0 - q) * np.sum(np.asarray(f(nodes), dtype=float) * nodes))


def q_cbs_chain(f: FunctionSpec, g: FunctionSpec, q: float, spec: MeanSpec,
                tail_tol: float = 1e-12) -> ChainReport:
    """Mean-parameterized Cauchy-Bunyakovsky chain with Jackson q-integrals
    replacing the sums."""
    if not 0.0 < q < 1.0:
        raise ParameterError(f"q must lie in (0, 1), got {q}")
    sups = (f.sup_on_unit(), g.sup_on_unit())
    if not all(math.isfinite(s * s) for s in sups):
        raise DomainError("q_cbs_chain requires f^2, g^2 bounded on (0, 1] by a finite float")
    bound = max(sups)
    kmax = _q_tail_length(q, tail_tol, bound * bound)
    nodes = q ** np.arange(kmax)
    fv = np.asarray(f(nodes), dtype=float)
    gv = np.asarray(g(nodes), dtype=float)
    if not (_positive_finite(fv) and _positive_finite(gv)):
        raise DomainError("q_cbs_chain requires f, g finite and positive on (0, 1]")
    w = (1.0 - q) * nodes
    m = mean_values(spec, fv, gv)
    mc = conjugate_from_mean(fv, gv, m)
    left = float(np.sum(w * fv * gv)) ** 2
    middle = float(np.sum(w * m * m)) * float(np.sum(w * mc * mc))
    right = float(np.sum(w * fv * fv)) * float(np.sum(w * gv * gv))
    return chain_report(left, middle, right)
