"""Parsable positive test functions with analytic derivatives, and
certificates of their premises.

Five families cover the integral test surface: polynomials, exponentials
e^{kt}, powers t^p, affine maps, and exponentials of polynomials.  Every
family evaluates elementwise on numpy arrays and knows its derivative in
closed form.

The chains' premises on a concrete interval [a, b] (f finite and positive,
and in the log-derivative form f' finite and nonnegative) are decided by a
range enclosure per family, without evaluating f (notes/decisions.md,
"Premise certificates"):

- ``exp:k``: e^{kt} is positive and its slope has the sign of k; it is
  finite while kt <= log(DBL_MAX), decided at a and b.
- ``pow:p``: t^p and p t^(p-1) are monotone on each side of 0, so sign rules
  and their sizes at a and b decide them, plus the rule at t = 0 (a zero for
  p > 0, not finite for p < 0).
- ``affine`` and ``poly``, and the exponent of ``exppoly``: Bernstein
  coefficients on [a, b] (an affine map's are its two endpoint values) with
  a rounding margin, bisected by de Casteljau where they do not decide, up
  to 40 levels.  A sign still open there (a near-double root) raises
  DomainError and names the spec and the point.

The same enclosure certifies that the gap between two members keeps one
sign where that sign is a polynomial's (``_gap_polynomial``, ``_beyond``),
so a kinked chain can skip its kink scan (notes/decisions.md, "Certified
gaps").
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError

__all__ = ["FunctionFamily", "FunctionSpec", "parse_function",
           "validate_positive", "validate_nonneg_derivative"]


class FunctionFamily(Enum):
    POLY = "poly"
    EXP = "exp"
    POWER = "pow"
    AFFINE = "affine"
    EXP_OF_POLY = "exppoly"


@dataclass(frozen=True)
class FunctionSpec:
    family: FunctionFamily
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ParameterError("function spec needs at least one coefficient")
        if self.family in (FunctionFamily.EXP, FunctionFamily.POWER) and len(self.coeffs) != 1:
            raise ParameterError(f"{self.family.value} takes exactly one parameter")
        if self.family is FunctionFamily.AFFINE and len(self.coeffs) != 2:
            raise ParameterError("affine takes exactly two coefficients c0,c1")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        f = self.family
        if f is FunctionFamily.POLY or f is FunctionFamily.AFFINE:
            return _horner(self.coeffs, t)
        if f is FunctionFamily.EXP:
            return np.exp(self.coeffs[0] * t)
        if f is FunctionFamily.POWER:
            return t ** self.coeffs[0]
        return np.exp(_horner(self.coeffs, t))

    def derivative(self, t):
        return self._value_and_slope(t)[1]

    def _value_and_slope(self, t) -> tuple:
        """(f(t), f'(t)) in one pass, f with the bits of ``__call__`` (and f'
        those of ``derivative``, which reads it): ``exp`` and ``exppoly``
        take f' from f's own exp."""
        t = np.asarray(t, dtype=float)
        f, coeffs = self.family, self.coeffs
        if f is FunctionFamily.POLY or f is FunctionFamily.AFFINE:
            return _horner(coeffs, t), _horner(_derivative_coeffs(coeffs), t)
        if f is FunctionFamily.EXP:
            value = np.exp(coeffs[0] * t)
            return value, coeffs[0] * value
        if f is FunctionFamily.POWER:
            return t ** coeffs[0], coeffs[0] * t ** (coeffs[0] - 1.0)
        value = np.exp(_horner(coeffs, t))
        return value, _horner(_derivative_coeffs(coeffs), t) * value

    def sup_on_unit(self) -> float:
        """Upper bound for |f| on (0, 1]; DomainError if unbounded there or
        if the bound is past the float range."""
        f = self.family
        if f is FunctionFamily.POWER:
            if self.coeffs[0] < 0:
                raise DomainError("t^p is unbounded on (0, 1] for p < 0")
            return 1.0
        try:
            if f is FunctionFamily.POLY or f is FunctionFamily.AFFINE:
                bound = sum(abs(c) for c in self.coeffs)
            elif f is FunctionFamily.EXP:
                bound = math.exp(max(self.coeffs[0], 0.0))
            else:
                bound = math.exp(sum(abs(c) for c in self.coeffs))
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise DomainError(f"sup |{self}| on (0, 1] is past the float range")
        return bound

    def to_string(self) -> str:
        params = ",".join(_spec_number(c) for c in self.coeffs)
        return f"{self.family.value}:{params}"

    def __str__(self) -> str:
        return self.to_string()


def _spec_number(v: float) -> str:
    """v as a spec-string token: %g where that parses back to v, repr otherwise,
    so that every spec string round-trips."""
    s = "%g" % v
    return s if float(s) == v else repr(float(v))


def _parse_float(token: str, context: str) -> float:
    """A spec-string token as a float; ParameterError if it is not a number or is NaN."""
    try:
        v = float(token)
    except ValueError:
        raise ParameterError(f"cannot parse number {token!r} in {context!r}") from None
    if math.isnan(v):
        raise ParameterError(f"NaN is not a valid parameter in {context!r}")
    return v


def _horner(coeffs, t):
    """sum c_i t^i by Horner's rule, in numpy polyval's order: c[-1] + t*0,
    then c_i + v*t, so every value equals polyval's bit for bit."""
    v = coeffs[-1] + t * 0
    for c in coeffs[-2::-1]:
        v = c + v * t
    return v


def _derivative_coeffs(coeffs) -> tuple:
    return tuple([i * c for i, c in enumerate(coeffs)])[1:] or (0.0,)


def parse_function(text: str) -> FunctionSpec:
    """Parse ``poly:c0,c1,...``, ``exp:k``, ``pow:p``, ``affine:c0,c1``,
    ``exppoly:c0,c1,...`` (case-insensitive); every coefficient must be finite."""
    s = text.strip().lower()
    head, _, rest = s.partition(":")
    try:
        family = FunctionFamily(head)
    except ValueError:
        raise ParameterError(f"unknown function family {head!r} in {text!r}") from None
    if not rest:
        raise ParameterError(f"function spec {text!r} is missing coefficients")
    coeffs = tuple(_parse_float(tok, text) for tok in rest.split(","))
    if not all(math.isfinite(c) for c in coeffs):
        raise ParameterError(f"function coefficients must be finite, got {text!r}")
    return FunctionSpec(family, coeffs)


@lru_cache(maxsize=32)
def _cached_grid(a: float, b: float, n: int, signs: tuple) -> np.ndarray:
    # signs is part of the cache key only
    ts = np.linspace(a, b, n)
    ts.flags.writeable = False
    return ts


def _grid(a: float, b: float, n: int) -> np.ndarray:
    """``linspace(a, b, n)``, cached read-only: the chains scan and start
    their partitions on a few intervals over and over, and a linspace call
    costs as much as a 1000-node function evaluation.  The key keeps the
    signs, so -0.0 is not 0.0."""
    a, b = float(a), float(b)
    return _cached_grid(a, b, n, (math.copysign(1.0, a), math.copysign(1.0, b)))


# ---------------------------------------------------------------------------
# premise certificates
# ---------------------------------------------------------------------------

_LOG_MAX = math.log(sys.float_info.max)  # exp(x) is finite for x <= _LOG_MAX
_LOG_TINY = math.log(5e-324)  # and above 0 for x >= _LOG_TINY (the least subnormal)
_EPS = sys.float_info.epsilon
# bisection levels of [a, b] before a sign that is still open raises
_SUBDIVISION_CAP = 40

# what fails, as a certificate reports it with the point it concerns
_INFINITE = "infinite"    # past the float range (or NaN)
_NEGATIVE = "negative"    # below 0 at the point, beyond rounding
_ZERO_END = "zero-end"    # 0 at an endpoint where that is not allowed
_VANISHES = "vanishes"    # 0 inside, to rounding, or underflows to 0
_UNDECIDED = "undecided"  # within rounding of 0 near the point at the cap


def _scale(coeffs, reach: float) -> float:
    """sum |c_i| reach^i: a bound on |p(t)| for |t| <= reach."""
    scale = 0.0
    for c in reversed(coeffs):
        scale = scale * reach + abs(c)
    return scale


def _bernstein(coeffs, a: float, b: float):
    """Bernstein coefficients on [a, b] of sum c_i t^i, their rounding margin
    and the margin's growth per de Casteljau level; None when the polynomial
    may pass the float range there.

    Degree <= 2 takes the closed form p(a), p(a) + (h/2) p'(a), p(b), higher
    degrees a Taylor shift to a; the end coefficients are the endpoint
    values by Horner, as ``FunctionSpec`` computes them.  With the scale
    S = sum |c_i| (|a| + h)^i, the margin (4n + 8) eps S covers the rounding
    of each coefficient plus that of Horner's value at any t in [a, b], and
    each bisection level adds n eps S for its own averages.
    """
    n = len(coeffs) - 1
    h = b - a
    scale = _scale(coeffs, abs(a) + h)
    if n <= 2:  # Horner's order, as _horner takes it
        c0, c1, c2 = (*coeffs, 0.0, 0.0)[:3]
        pa, pb = c0 + (c1 + c2 * a) * a, c0 + (c1 + c2 * b) * b
        if n == 2:
            bern = [pa, pa + 0.5 * h * (c1 + 2.0 * c2 * a), pb]
        else:
            bern = [pa, pb] if n else [c0]
    else:
        d = list(coeffs)  # Taylor coefficients at a, then times h^k
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                d[j] += a * d[j + 1]
        hk = 1.0
        for k in range(1, n + 1):
            hk *= h
            d[k] *= hk
        bern = [sum(math.comb(i, k) / math.comb(n, k) * d[k] for k in range(i + 1))
                for i in range(n + 1)]
        bern[0], bern[n] = _horner(coeffs, a), _horner(coeffs, b)
    if not scale <= sys.float_info.max:  # NaN fails too
        return None
    return bern, (4 * n + 8) * _EPS * scale, n * _EPS * scale


def _halves(c: list) -> tuple:
    """de Casteljau at s = 1/2: the Bernstein coefficients of both halves."""
    left, right = [c[0]], [c[-1]]
    while len(c) > 1:
        c = [0.5 * (x + y) for x, y in zip(c, c[1:])]
        left.append(c[0])
        right.append(c[-1])
    return left, right[::-1]


def _poly_fault(coeffs, a: float, b: float, zero_ends: bool, zeros: bool):
    """Where sum c_i t^i fails to be positive on [a, b], as (kind, t), or None.

    ``zero_ends`` allows a zero at a or b, ``zeros`` a zero anywhere (then
    p >= 0 is certified).  A Bernstein coefficient within the rounding
    margin of 0 counts as 0; a zero at an end is divided out, (t - a) or
    (b - t) at a time, before the cells are bisected.
    """
    enclosure = _bernstein(coeffs, a, b)
    if enclosure is None:
        return _INFINITE, b
    c, margin, step = enclosure
    if min(c) > margin:
        return None
    # Horner's endpoint values are the samples FunctionSpec gives there
    for end, t in ((c[0], a), (c[-1], b)):
        if end < 0:
            return _NEGATIVE, t
        if end <= margin and not zero_ends:
            return _ZERO_END, t
    while c and abs(c[0]) <= margin:  # p / (t - a), up to a positive factor
        c = [x / (j + 1) for j, x in enumerate(c[1:])]
    while c and abs(c[-1]) <= margin:  # p / (b - t)
        c = [x / (len(c) - 1 - j) for j, x in enumerate(c[:-1])]
    if not c:  # 0 on all of [a, b] to rounding
        return None if zeros else (_VANISHES, 0.5 * (a + b))
    for end, t in ((c[0], a), (c[-1], b)):
        if end < 0:  # p < 0 next to a zero at this end
            return _NEGATIVE, t
    h = b - a
    cells = [(c, 0.0)]  # coefficients and left end, as a fraction of [a, b]
    width = 1.0
    for _ in range(_SUBDIVISION_CAP):
        cells = [cell for cell in cells if min(cell[0]) <= margin]
        if not cells:
            return None
        width *= 0.5
        margin += step
        split = []
        for cell, lo in cells:
            left, right = _halves(cell)
            mid = right[0]
            if mid < -margin:
                return _NEGATIVE, a + h * (lo + width)
            if mid <= margin and not zeros:
                return _VANISHES, a + h * (lo + width)
            split += [(left, lo), (right, lo + width)]
        cells = split
        if len(cells) > 8 * len(c):  # near 0 all along, not at a few roots
            break
    cells = [cell for cell in cells if min(cell[0]) <= margin]
    return (_UNDECIDED, a + h * (cells[0][1] + 0.5 * width)) if cells else None


def _power_fault(c: float, e: float, a: float, b: float, zero_ends: bool, zeros: bool,
                 steep_ends: bool):
    """Where c t^e fails to be positive on [a, b], as (kind, t), or None.

    c t^e is monotone on each side of t = 0, so its sign there and its
    magnitude |c| |t|^e at a and b decide it, plus the rule at t = 0: a zero
    for e > 0, c for e = 0, not finite for e < 0 (unless ``steep_ends``: an
    infinite slope of the right sign at an endpoint).  For t < 0 only an
    integer e is finite.
    """
    if not (math.isfinite(c) and math.isfinite(e)):
        return _INFINITE, a
    if a < 0:
        if not float(e).is_integer():
            return _INFINITE, a  # NaN for t < 0
        if c * (-1.0) ** e < 0:
            return _NEGATIVE, a
    if b > 0 and c < 0:
        return _NEGATIVE, b
    if a <= 0 <= b:
        inside = a < 0 < b
        if e < 0 and not (steep_ends and not inside and c > 0):
            return _INFINITE, 0.0
        if e > 0 and not (zeros if inside else zero_ends):
            return (_VANISHES if inside else _ZERO_END), 0.0
    if c != 0:
        for t in (a, b):
            if t != 0:
                size = math.log(abs(c)) + e * math.log(abs(t))
                if size > _LOG_MAX:
                    return _INFINITE, t
                if size < _LOG_TINY and not zeros:
                    return _VANISHES, t
    return None


def _exp_fault(k: float, a: float, b: float, slope: bool):
    """exp:k: e^{kt} is positive, finite while kt <= _LOG_MAX and above 0
    while kt >= _LOG_TINY, and its slope k e^{kt} has the sign of k."""
    lo, hi = sorted((k * a, k * b))
    if not hi <= _LOG_MAX:  # NaN fails too
        return _INFINITE, b if k > 0 else a
    if not slope:
        return (_VANISHES, a if k > 0 else b) if lo < _LOG_TINY else None
    if k < 0:
        return _NEGATIVE, a
    if k > 0 and math.log(k) + hi > _LOG_MAX:
        return _INFINITE, b
    return None


def _exppoly_fault(coeffs, a: float, b: float, slope: bool):
    """exppoly: e^p is positive, so only the range of the exponent p counts:
    finite for p <= _LOG_MAX, above 0 for p >= _LOG_TINY, each decided by
    p's Bernstein enclosure, and on the cells when the enclosure straddles
    the bound.  The slope p' e^p has the sign of p' and is bounded by
    max p' e^{max p}."""
    enclosure = _bernstein(coeffs, a, b)
    if enclosure is None:
        return _INFINITE, b
    c, margin, _ = enclosure
    top = max(c) + margin
    if top > _LOG_MAX:  # decide _LOG_MAX - p >= 0 on the cells
        fault = _poly_fault((_LOG_MAX - coeffs[0],) + tuple(-x for x in coeffs[1:]),
                            a, b, True, True)
        if fault is not None:
            return _INFINITE, fault[1]
    if not slope:
        if min(c) - margin < _LOG_TINY:  # decide p - _LOG_TINY >= 0 on the cells
            fault = _poly_fault((coeffs[0] - _LOG_TINY,) + tuple(coeffs[1:]), a, b, True, True)
            if fault is not None:
                return _VANISHES, fault[1]
        return None
    dcoeffs = _derivative_coeffs(coeffs)
    fault = _poly_fault(dcoeffs, a, b, True, True)
    if fault is not None:
        return fault
    dc, dmargin, _ = _bernstein(dcoeffs, a, b)
    dtop = max(dc) + dmargin
    if dtop > 0 and not math.log(dtop) + min(top, _LOG_MAX) <= _LOG_MAX:
        return _INFINITE, b
    return None


def _fault(f: FunctionSpec, a: float, b: float, slope: bool, strict: bool,
           steep_ends: bool = False):
    """The certificate of one premise on [a, b], by family: None when it
    holds, else (kind, t).  Without ``slope``, f > 0 inside, f >= 0 at a and
    b (f > 0 there too when ``strict``); with it, f' >= 0."""
    if not isinstance(f, FunctionSpec):
        raise ParameterError(f"premise certificates need a FunctionSpec, got {f!r}")
    family, coeffs = f.family, f.coeffs
    if family is FunctionFamily.EXP:
        return _exp_fault(coeffs[0], a, b, slope)
    if family is FunctionFamily.EXP_OF_POLY:
        return _exppoly_fault(coeffs, a, b, slope)
    if family is FunctionFamily.POWER:
        p = coeffs[0]
        return _power_fault(p, p - 1.0, a, b, True, True, steep_ends) if slope else \
            _power_fault(1.0, p, a, b, not strict, False, False)
    if slope:
        return _poly_fault(_derivative_coeffs(coeffs), a, b, True, True)
    return _poly_fault(coeffs, a, b, not strict, False)


# ---------------------------------------------------------------------------
# gap certificates
# ---------------------------------------------------------------------------

# numpy's exp is taken to be within 8 ulps of exp.  Members whose exponent
# may leave +-600, or whose polynomials' scales leave [1e-100, 1e100] (0
# allowed), are not certified, so no value, product or quotient below
# leaves the normal range, except an exp-type slope f' = P' e^P, whose
# underflow moves P' by at most 2e-63
_EXP_ULPS = 8
_EXPONENT_REACH = 600.0
_SCALE_RANGE = (1e-100, 1e100)
_UNDERFLOW = 1e-60


def _poly_mul(p, q) -> tuple:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def _poly_add(p, q) -> tuple:
    n = max(len(p), len(q))
    return tuple(x + y for x, y in zip(tuple(p) + (0.0,) * (n - len(p)),
                                       tuple(q) + (0.0,) * (n - len(q))))


def _gap_polynomial(f: FunctionSpec, g: FunctionSpec, log: bool, reach: float):
    """(R, bound): a polynomial R (coefficients) and a bound on |t| <= reach
    such that, wherever |R(t)| > bound, the gap the chains compute in
    floats at t has R's sign: f(t) - g(t) (mean form, ``log`` False), or
    f'(t)/f(t) - g'(t)/g(t) for f, g > 0 (log-derivative form).  None when
    the gap's sign is not a polynomial's: a ``pow`` member, or in the mean
    form an exp-type member (``exp``, ``exppoly``: e^P) against a plain one
    (``affine``, ``poly``).

    R is p - q for two plain members or P - Q for two exp-type ones (e^P -
    e^Q has the sign of P - Q); in the log-derivative form it is the gap
    times the positive f g (plain), g (f exp-type) or f (g exp-type):
    p'q - q'p, P'q - q', p' - Q'p or P' - Q'.  The bound is (8n + 32) eps
    times the same expression in |coefficients| at ``reach`` (n its degree):
    it covers the rounding of R's coefficients, of Horner's value of each
    member and derivative, of each product and quotient, plus 2 (8 + 1) eps
    for the two exps of the mean form and underflow (``_UNDERFLOW``).
    """
    members = []
    for h in (f, g):  # (polynomial, exp-type): p, or the exponent P of e^P
        if h.family is FunctionFamily.EXP:
            members.append(((0.0, h.coeffs[0]), True))
        elif h.family in (FunctionFamily.POLY, FunctionFamily.AFFINE):
            members.append((h.coeffs, False))
        elif h.family is FunctionFamily.EXP_OF_POLY:
            members.append((h.coeffs, True))
        else:
            return None
        poly, exp = members[-1]
        if exp and not _scale(poly, reach) <= _EXPONENT_REACH:
            return None
    (p, p_exp), (q, q_exp) = members
    if not log:
        if p_exp != q_exp:
            return None
        terms = [(p, (1.0,)), (q, (-1.0,))]
        extra, factor = (2.0 * (_EXP_ULPS + 1) * _EPS if p_exp else 0.0), 1.0
    else:  # Lf = P' or p'/p, times the plain members' values
        pv = (1.0,) if p_exp else p
        qv = (1.0,) if q_exp else q
        terms = [(_derivative_coeffs(p), qv), (_derivative_coeffs(q), tuple(-c for c in pv))]
        extra, factor = 0.0, _scale(pv, reach) * _scale(qv, reach)
    scales = [_scale(c, reach) for pair in terms for c in pair]
    if not all(s == 0.0 or _SCALE_RANGE[0] <= s <= _SCALE_RANGE[1] for s in scales):
        return None
    r, size = (0.0,), (0.0,)
    for x, y in terms:
        r = _poly_add(r, _poly_mul(x, y))
        size = _poly_add(size, _poly_mul([abs(c) for c in x], [abs(c) for c in y]))
    bound = (8 * (len(size) - 1) + 32) * _EPS * _scale(size, reach)
    while len(r) > 1 and r[-1] == 0.0:  # a leading term that cancels exactly
        r = r[:-1]
    return r, bound + extra + _UNDERFLOW * factor


def _beyond(coeffs, a: float, b: float, bound: float) -> bool:
    """True when |sum c_i t^i| > bound on all of [a, b], one sign throughout:
    p - bound (or -p - bound, by the sign of p(a)) is certified positive by
    ``_poly_fault``."""
    sign = 1.0 if _horner(coeffs, a) > 0 else -1.0
    shifted = [sign * c for c in coeffs]
    shifted[0] -= bound
    return _poly_fault(shifted, a, b, False, False) is None


def _where(t: float) -> str:
    return f" near t = {t!r}"


def validate_positive(f: FunctionSpec, a: float, b: float, name: str = "f",
                      strict: bool = False) -> None:
    """Require f finite on [a, b], f > 0 inside and f >= 0 at a and b (f > 0
    there too when ``strict``, as the log-derivative form needs).

    Decided from f's family and coefficients, without evaluating f (module
    docstring); returns None.  Raises DomainError naming what fails and
    where: not finite, negative (at a point where it is below 0 beyond
    rounding), a zero inside (to rounding, or by underflow), or a sign still
    open at the subdivision cap (a near-double root).
    """
    fault = _fault(f, a, b, False, strict)
    if fault is None:
        return
    kind, t = fault
    span = f"[{a}, {b}]"
    raise DomainError({
        _INFINITE: f"{name} is not finite on {span}",
        _NEGATIVE: f"{name} is negative on {span}{_where(t)}",
        _ZERO_END: f"{name} vanishes at the endpoint t = {t!r} of {span}; the "
                   "log-derivative chain requires strictly positive f, g",
        _VANISHES: f"{name} vanishes inside {span}{_where(t)}",
        _UNDECIDED: f"cannot certify {name} > 0 on {span}: {f} comes within rounding of 0"
                    f"{_where(t)} (a near-double root)",
    }[kind])


def validate_nonneg_derivative(f: FunctionSpec, a: float, b: float, name: str = "f",
                               steep_ends: bool = False) -> None:
    """Require f' finite and >= 0 on [a, b]; ``steep_ends`` also allows an
    infinite f' at an endpoint where f itself is finite (the vertical tangent
    of t^p, 0 < p < 1, at 0).

    Decided as ``validate_positive`` decides f > 0, applied to f'; returns
    None.  A zero of f' is allowed at a or b, and a crossing below 0 is a
    DomainError; a zero that f' only touches inside (a, b) leaves the cells
    around it open to the subdivision cap, and that raises DomainError too.
    """
    fault = _fault(f, a, b, True, False, steep_ends)
    if fault is None:
        return
    kind, t = fault
    span = f"[{a}, {b}]"
    raise DomainError({
        _INFINITE: f"{name}' is not finite on {span}",
        _NEGATIVE: f"{name} must be nondecreasing on {span}: {name}' < 0{_where(t)}",
        _UNDECIDED: f"cannot certify {name}' >= 0 on {span}: the derivative of {f} comes "
                    f"within rounding of 0{_where(t)} (a near-double root)",
    }[kind])
