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

The three chains take their five sums from one pass, ``_chain_sums``: it
walks numpy's pairwise-summation tree down to leaves of at most ``_BLOCK``
elements, evaluates M, M* and the five products on each leaf while it is
in cache, and adds the leaf sums back up the same tree, so every sum is
``np.sum`` of the whole-array product bit for bit (notes/decisions.md,
"Discrete chains in blocks").  A sum or a chain term past the float range
is a DomainError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .functions import FunctionSpec
from .means import MeanSpec, conjugate_from_mean, conjugate_values, mean_values
from .reports import ChainReport, chain_report

__all__ = ["cbs_chain", "cde_check", "cde_check_functions", "UncertaintyReport",
           "dft_uncertainty", "lorentz_chain", "q_jackson_integral", "q_cbs_chain"]


def _positive_finite(v) -> bool:
    # NaN fails both comparisons.  One comparison at a time keeps one mask
    # live (a byte an element: 1 MiB on a 2^20 vector), not three: glibc's
    # trim threshold, twice the largest freed mmapped block, then stays above
    # the scan's heap use, so the heap top is not returned to the kernel and
    # faulted back in by the next chain (notes/decisions.md, "The positivity
    # scan holds one mask at a time").  np.min/np.max would free no large
    # block and leave the mmap threshold at its 128 KiB start, a leaf's size.
    return bool((v > 0.0).all() and (v < math.inf).all())


def _positive_vectors(x_vec, y_vec):
    x = np.asarray(x_vec, dtype=float)
    y = np.asarray(y_vec, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 1:
        raise ParameterError("cbs chain requires two equal-length vectors")
    if not (_positive_finite(x) and _positive_finite(y)):
        raise DomainError("cbs chain requires finite, strictly positive entries "
                          "(the conjugate mean divides by M)")
    return x, y


# Leaf size of the blocked pass: a multiple of 8 and at least numpy's own
# pairwise block of 128, so every node split here is split alike by np.sum.
# 2^14 float64 (128 KiB a vector) keeps a leaf's temporaries in a 2 MiB L2.
# 128 KiB is also glibc's starting mmap threshold: on a 2^20 pair the
# scan's freed 1 MiB masks lift it, so the leaf temporaries come from heap
# pages that stay mapped from op to op (notes/decisions.md, "The positivity
# scan holds one mask at a time").
_BLOCK = 1 << 14


def _pairwise(leaf: Callable[[int, int], np.ndarray], lo: int, n: int) -> np.ndarray:
    """The leaf sums over [lo, lo + n), added up numpy's pairwise-summation tree.

    numpy sums n > 128 elements as the sum of the first n2 = n//2 - (n//2) % 8
    and of the other n - n2, so splitting by the same rule down to leaves of
    at most _BLOCK elements, each summed by np.sum, and adding the leaves back
    up gives np.sum of the whole array exactly (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 4).
    """
    if n <= _BLOCK:
        return leaf(lo, lo + n)
    half = n // 2
    half -= half % 8
    return _pairwise(leaf, lo, half) + _pairwise(leaf, lo + half, n - half)


_SUM_NAMES = ("sum x_k y_k", "sum M_k^2", "sum M*_k^2", "sum x_k^2", "sum y_k^2")


def _chain_sums(x: np.ndarray, y: np.ndarray, spec: MeanSpec, w=None) -> list:
    """[sum xy, sum M^2, sum M*^2, sum x^2, sum y^2], each weighted by w if given.

    M is evaluated once per element and M* = xy/M taken from its values, a
    leaf at a time; DomainError when a sum is not finite.  An unweighted
    leaf forms each product in one buffer the chain allocates once.
    """
    buf = np.empty(min(len(x), _BLOCK))

    def leaf(lo, hi):
        xs, ys = x[lo:hi], y[lo:hi]
        m = mean_values(spec, xs, ys)
        mc = conjugate_from_mean(xs, ys, m)
        # the products in the whole-array operand order, each summed as formed
        pairs = ((xs, ys), (m, m), (mc, mc), (xs, xs), (ys, ys))
        if w is None:
            out = buf[:hi - lo]
            return np.array([np.multiply(a, b, out=out).sum() for a, b in pairs])
        ws = w[lo:hi]
        return np.array([np.sum(ws * a * b) for a, b in pairs])

    with np.errstate(over="ignore", invalid="ignore"):
        sums = _pairwise(leaf, 0, len(x)).tolist()
    for name, value in zip(_SUM_NAMES, sums):
        if not math.isfinite(value):
            raise DomainError(f"{name} is not finite ({value!r}): past the float range")
    return sums


def _square(v: float) -> float:
    # float ** 2 raises OverflowError past the float range; _finite_report names the inf
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _finite_report(left: float, middle: float, right: float,
                   reverse: bool = False) -> ChainReport:
    for name, value in (("left", left), ("middle", middle), ("right", right)):
        if not math.isfinite(value):
            raise DomainError(f"the chain's {name} term is not finite ({value!r}): "
                              "past the float range")
    return chain_report(left, middle, right, reverse=reverse)


def cbs_chain(x_vec, y_vec, spec: MeanSpec) -> ChainReport:
    """Mean-parameterized refinement of the discrete Cauchy-Bunyakovsky bound."""
    x, y = _positive_vectors(x_vec, y_vec)
    sxy, smm, scc, sxx, syy = _chain_sums(x, y, spec)
    return _finite_report(_square(sxy), smm * scc, sxx * syy)


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
    if not pairs or not all(0 < t < math.inf for pair in pairs for t in pair):
        raise ParameterError("sample_grid must be nonempty, of positive finite pairs")
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
    if a.ndim != 1 or len(a) < 1 or not np.isfinite(a).all():
        raise ParameterError("dft_uncertainty requires a nonempty finite vector")
    if not 0 <= zero_tol < math.inf:  # NaN fails too
        raise ParameterError(f"zero_tol must be finite and nonnegative, got {zero_tol}")
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
    sxy, smm, scc, sxx, syy = _chain_sums(x, y, spec)
    if x0 * x0 < sxx or y0 * y0 < syy:
        raise DomainError("lorentz_chain requires time-like vectors "
                          "(x0^2 >= sum x_k^2 and likewise for y)")
    left = _square(x0 * y0 - sxy)
    middle = _square(x0 * y0 - math.sqrt(smm * scc))
    right = (x0 * x0 - sxx) * (y0 * y0 - syy)
    return _finite_report(left, middle, right, reverse=True)


# ---------------------------------------------------------------------------
# Jackson q-integral
# ---------------------------------------------------------------------------

# the longest q-series a chain sums: q = 0.99999 at tail_tol 1e-12 takes
# 1.6e6 nodes, and q = 1 - 1e-10 would take 4.6e10 (343 GiB per array)
Q_TAIL_CAP = 1 << 22


def _q_tail_length(q: float, tail_tol: float, bound: float) -> int:
    """How many nodes q^0, q^1, ... a q-series sums: one past the smallest k
    whose term bound (1-q) q^k bound falls below tail_tol.  ParameterError
    unless tail_tol > 0; ConvergenceError past Q_TAIL_CAP nodes, before any
    is allocated."""
    if not tail_tol > 0:  # NaN fails too
        raise ParameterError(f"tail_tol must be positive, got {tail_tol}")
    scale = (1.0 - q) * bound
    if scale <= tail_tol:
        return 1
    # a difference of logs: tail_tol / scale may underflow to 0
    n = math.ceil((math.log(tail_tol) - math.log(scale)) / math.log(q)) + 1
    if n > Q_TAIL_CAP:
        raise ConvergenceError(f"the q-series needs {n} nodes to reach tail_tol {tail_tol} "
                               f"at q = {q}, more than {Q_TAIL_CAP}")
    return n


def q_jackson_integral(f: FunctionSpec, q: float, tail_tol: float = 1e-12) -> float:
    """Jackson q-integral (1-q) sum_{k>=0} f(q^k) q^k over [0, 1].

    The series is truncated once the running geometric term bound drops
    below tail_tol; f must be bounded on (0, 1].
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"q must lie in (0, 1), got {q}")
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
    sfg, smm, scc, sff, sgg = _chain_sums(fv, gv, spec, w=(1.0 - q) * nodes)
    return _finite_report(_square(sfg), smm * scc, sff * sgg)
