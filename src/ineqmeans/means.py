"""Two-argument means: families, conjugation, axioms, h-representation, entropy.

A mean here is a function M(x, y) of two nonnegative reals that is unbiased
(M(x, x) = x), positively homogeneous, monotone in each argument, and usually
symmetric; intermediacy min <= M <= max follows.  The module ships the
classical families (power and Rado scales, Gini/Lehmer, weighted arithmetic
and geometric, logarithmic, identric, quasi-arithmetic, min/max, mediant, and
iterated pairs), their conjugates M*(x, y) = xy / M(x, y), a randomized axiom
checker, the h-function representation M(x, y) = (x + y) h(ln(y/x)) of
symmetric homogeneous means, and the generalized entropy -ln M.

All evaluators accept scalars or numpy arrays elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .functions import _parse_float, _spec_number
from .sampling import log_uniform, make_rng

__all__ = [
    "MeanFamily",
    "OrderKind",
    "ExtOrder",
    "MeanSpec",
    "parse_mean",
    "eval_mean",
    "mean_values",
    "conjugate_eval",
    "conjugate_values",
    "conjugate_from_mean",
    "coupled_limit",
    "AxiomCheck",
    "AxiomReport",
    "check_axioms",
    "h_of",
    "HFunctionCheck",
    "check_h_conditions",
    "check_h_function",
    "entropy",
    "rado_power_bound_orders",
    "mediant",
    "chain_catalog",
    "full_catalog",
]

# below this order (gap) the Rado and Gini-scale log routes equal their limits
# at 0 to the last bit; the floor keeps order * L out of the subnormals
_ORDER_FLOOR = 1e-300
_SUM_MIN, _FLOAT_MAX = 2.0 ** -1021, np.finfo(float).max  # see _in_range
_NORMAL_MIN = np.finfo(float).tiny
ITERATED_EVAL_TOL = 1e-14
ITERATED_CAP = 200


class MeanFamily(Enum):
    POWER = "power"
    RADO = "rado"
    GINI = "gini"
    LEHMER = "lehmer"
    WEIGHTED_ARITHMETIC = "warith"
    WEIGHTED_GEOMETRIC = "wgeom"
    QUASI_ARITHMETIC = "quasi"
    LOGARITHMIC = "log"
    IDENTRIC = "identric"
    MIN = "min"
    MAX = "max"
    MEDIANT = "mediant"
    ITERATED = "iter"


class OrderKind(Enum):
    """Tag for an extended-real order; exceptional values are explicit variants."""

    FINITE = "finite"
    ZERO = "zero"
    MINUS_ONE = "minus-one"  # exceptional only on the Rado scale
    NEG_INF = "-inf"
    POS_INF = "inf"


@dataclass(frozen=True)
class ExtOrder:
    """Order parameter in [-inf, +inf]; never a sentinel float for the limits."""

    kind: OrderKind
    value: float = 0.0

    @classmethod
    def of(cls, value: float, *, minus_one_exceptional: bool = False) -> "ExtOrder":
        v = float(value)
        if math.isnan(v):
            raise ParameterError("order must not be NaN")
        if math.isinf(v):
            return cls(OrderKind.POS_INF if v > 0 else OrderKind.NEG_INF)
        if v == 0.0:
            return cls(OrderKind.ZERO)
        if minus_one_exceptional and v == -1.0:
            return cls(OrderKind.MINUS_ONE)
        return cls(OrderKind.FINITE, v)

    def as_float(self) -> float:
        return {OrderKind.ZERO: 0.0, OrderKind.MINUS_ONE: -1.0, OrderKind.NEG_INF: -math.inf,
                OrderKind.POS_INF: math.inf}.get(self.kind, self.value)

    def __str__(self) -> str:
        return _spec_number(self.as_float())


_QUASI_GENERATORS = ("id", "ln", "exp", "pow")
_PARAM_COUNTS = {MeanFamily.GINI: 2, MeanFamily.LEHMER: 1,
                 MeanFamily.WEIGHTED_ARITHMETIC: 2, MeanFamily.WEIGHTED_GEOMETRIC: 2}
_OWN_FIELDS = {MeanFamily.POWER: "order", MeanFamily.RADO: "order",
               MeanFamily.QUASI_ARITHMETIC: "generator", MeanFamily.ITERATED: "inner"}


@dataclass(frozen=True)
class MeanSpec:
    """Tagged descriptor of a mean family plus its real parameters.

    ``order`` is used by the power and Rado scales, ``params`` by Gini (u, v),
    Lehmer (u,) and the weighted families (alpha, beta), ``generator`` (with
    ``gen_power`` for the power generator) by quasi-arithmetic means, and
    ``inner`` by iterated pairs.  Every other field stays at its default, and
    every parameter is finite: only the orders of the extended scales and the
    ``pow`` generator's exponent may be infinite.  The constructor is the one
    place that checks these rules, so every spec equals its own round trip
    through ``to_string`` and ``parse_mean``.
    """

    family: MeanFamily
    order: Optional[ExtOrder] = None
    params: tuple = ()
    generator: Optional[str] = None
    gen_power: Optional[float] = None
    inner: Optional[tuple] = None  # (MeanSpec, MeanSpec)

    def __post_init__(self):
        f = self.family
        own = _OWN_FIELDS.get(f)
        for name in ("order", "generator", "inner"):
            if name == own and getattr(self, name) is None:
                raise ParameterError(f"{f.value} mean requires {name}")
            if name != own and getattr(self, name) is not None:
                raise ParameterError(f"{f.value} mean takes no {name}")
        if self.gen_power is not None and self.generator != "pow":
            raise ParameterError(f"only the pow generator takes an exponent, got "
                                 f"{self.gen_power!r} for {f.value}")
        n = _PARAM_COUNTS.get(f, 0)
        if len(self.params) != n:
            raise ParameterError(f"{f.value} mean takes {n} parameters, got {self.params}")
        if not all(math.isfinite(p) for p in self.params):
            raise ParameterError(f"{f.value} parameters must be finite, got {self.params}")
        if f in (MeanFamily.WEIGHTED_ARITHMETIC, MeanFamily.WEIGHTED_GEOMETRIC):
            a, b = self.params
            if a < 0 or b < 0 or abs(a + b - 1.0) > 1e-12:
                raise ParameterError(
                    f"weights must satisfy alpha >= 0, beta >= 0, alpha + beta = 1; got {self.params}")
        elif own == "order":
            # the tag must be the one ExtOrder.of gives, or the kernels take
            # the wrong branch
            if self.order != ExtOrder.of(self.order.as_float(),
                                         minus_one_exceptional=f is MeanFamily.RADO):
                raise ParameterError(f"{f.value} order {self.order!r} is not in canonical form")
        elif f is MeanFamily.QUASI_ARITHMETIC:
            if self.generator not in _QUASI_GENERATORS:
                raise ParameterError(f"unknown quasi-arithmetic generator {self.generator!r}")
            # not abs(p) > 0 rejects NaN as well as 0
            if self.generator == "pow" and not abs(self.gen_power or 0.0) > 0.0:
                raise ParameterError("pow generator requires a nonzero exponent")
        elif f is MeanFamily.ITERATED:
            if len(self.inner) != 2:
                raise ParameterError("iterated mean requires an inner pair of specs")
            # the grammar has no brackets: iter:iter:...|...|... would not parse back
            if any(m.family is MeanFamily.ITERATED for m in self.inner):
                raise ParameterError("an iterated mean's inner means cannot be iterated")

    # -- string form -------------------------------------------------------

    def to_string(self) -> str:
        f = self.family
        if self.order is not None:
            return f"{f.value}:{self.order}"
        if f is MeanFamily.QUASI_ARITHMETIC:
            power = "" if self.gen_power is None else "," + _spec_number(self.gen_power)
            return f"quasi:{self.generator}{power}"
        if f is MeanFamily.ITERATED:
            return f"iter:{self.inner[0]}|{self.inner[1]}"
        params = ",".join(_spec_number(p) for p in self.params)
        return f"{f.value}:{params}" if params else f.value

    def __str__(self) -> str:
        return self.to_string()

    # -- structural facts ---------------------------------------------------

    def is_symmetric(self) -> bool:
        f = self.family
        if f in (MeanFamily.WEIGHTED_ARITHMETIC, MeanFamily.WEIGHTED_GEOMETRIC):
            a, b = self.params
            return a == b
        if f is MeanFamily.ITERATED:
            m, n = self.inner
            return m.is_symmetric() and n.is_symmetric()
        return True

    def requires_positive(self) -> bool:
        """True when a zero argument is outside the family's domain."""
        f = self.family
        if f is MeanFamily.LOGARITHMIC:
            return True
        if f is MeanFamily.GINI:
            u, v = self.params
            return min(u, v) < 0 or (u == v and u != 0)
        if f is MeanFamily.LEHMER:
            return self.params[0] < 0
        if f is MeanFamily.QUASI_ARITHMETIC:
            return self.generator == "ln" or (self.generator == "pow" and self.gen_power < 0)
        if f is MeanFamily.ITERATED:
            return self.inner[0].requires_positive() or self.inner[1].requires_positive()
        return False


def parse_mean(text: str) -> MeanSpec:
    """Parse the canonical string grammar, e.g. ``power:2``, ``gini:2,1``,
    ``wgeom:0.7,0.3``, ``quasi:ln``, ``iter:warith:0.5,0.5|power:0``.

    Parsing is case-insensitive and checks only the string's shape; the
    per-family rules are MeanSpec's, so a malformed string raises
    ParameterError from one or the other.
    """
    s = text.strip().lower()
    head, _, rest = s.partition(":")
    try:
        family = MeanFamily(head)
    except ValueError:
        raise ParameterError(f"unknown mean family {head!r} in {text!r}") from None
    if family is MeanFamily.ITERATED:
        parts = rest.split("|")
        if len(parts) != 2:
            raise ParameterError(f"iter spec needs exactly two '|'-separated means: {text!r}")
        return MeanSpec(family, inner=(parse_mean(parts[0]), parse_mean(parts[1])))
    toks = rest.split(",") if rest else []
    if family is MeanFamily.QUASI_ARITHMETIC:
        if len(toks) not in (1, 2):
            raise ParameterError(f"quasi takes a generator and at most one exponent: {text!r}")
        return MeanSpec(family, generator="id" if toks[0] == "identity" else toks[0],
                        gen_power=_parse_float(toks[1], text) if len(toks) == 2 else None)
    params = tuple(_parse_float(t, text) for t in toks)
    if family in (MeanFamily.POWER, MeanFamily.RADO):
        if len(params) != 1:
            raise ParameterError(f"{head} takes exactly one order: {text!r}")
        return MeanSpec(family, order=ExtOrder.of(
            params[0], minus_one_exceptional=family is MeanFamily.RADO))
    return MeanSpec(family, params=params)


# ---------------------------------------------------------------------------
# evaluation kernels (elementwise over numpy arrays)
# ---------------------------------------------------------------------------

def _gap_and_log(lo: np.ndarray, hi: np.ndarray):
    """z = (hi - lo)/lo and L = ln(hi/lo) = log1p(z) for 0 <= lo <= hi.

    The smaller argument is the base, so both are accurate near lo = hi and
    for wide ratios alike: no kernel built on them needs a series band or an
    equal-argument band.  z and L are +inf at lo = 0; where hi/lo is past
    the float range z is +inf and L is log(hi) - log(lo).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = (hi - lo) / lo
        L = np.log1p(z)
        if np.isinf(z).any():
            wide = np.isinf(z) & (lo > 0.0)
            L = np.where(wide, np.log(hi) - np.log(np.where(wide, lo, 1.0)), L)
    return z, L


def _base_exp(base: np.ndarray, e: np.ndarray) -> np.ndarray:
    """base exp(e) for base >= 0, as exp(ln base + e) where exp(e) leaves the range."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        out = base * np.exp(e)
        far = np.abs(e) > 700.0
        if np.any(far):
            out = np.where(far, np.exp(np.log(base) + e), out)
    return out


def _log_mean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # (hi - lo) / ln(hi/lo); 0 at a zero argument
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    d = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        main = d / _gap_and_log(lo, hi)[1]
    return np.where(d > 0.0, main, x)


def _identric(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # (1/e) (hi^hi / lo^lo)^(1/(hi - lo)) = lo exp(hi ln(hi/lo)/(hi - lo) - 1),
    # so the error does not grow with the magnitude of the arguments; hi/e at
    # a zero argument
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    d = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = hi * _gap_and_log(lo, hi)[1] / d - 1.0
    out = np.where(lo > 0.0, _base_exp(lo, e), hi / math.e)
    return np.where(d > 0.0, out, x)


def _power_values(order: ExtOrder, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if order.kind is OrderKind.NEG_INF:
        return np.minimum(x, y)
    if order.kind is OrderKind.POS_INF:
        return np.maximum(x, y)
    if order.kind is OrderKind.ZERO:
        # sqrt(x) sqrt(y) where x y leaves the normal floats: sqrt(x y) would leave [min, max]
        try:
            with np.errstate(over="raise", under="raise"):
                return np.sqrt(x * y)
        except FloatingPointError:
            with np.errstate(over="ignore", under="ignore"):
                xy = np.abs(x * y)
                return np.where((xy >= _NORMAL_MIN) & (xy <= _FLOAT_MAX), np.sqrt(x * y),
                                np.sqrt(x) * np.sqrt(y))
    return _gini_values(order.value, 0.0, x, y)


def _rado_values(order: ExtOrder, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if order.kind is OrderKind.NEG_INF:
        return np.minimum(x, y)
    if order.kind is OrderKind.POS_INF:
        return np.maximum(x, y)
    if order.kind is OrderKind.MINUS_ONE:
        return _log_mean(x, y)
    if order.kind is OrderKind.ZERO:
        return _identric(x, y)
    # ((hi^c - lo^c) / (c (hi - lo)))^(1/b), c = b + 1, on the gaps
    # z = hi/lo - 1 and zh = 1 - lo/hi and on L = log1p(z) = ln(hi/lo).  No
    # step below overflows while hi/lo is finite, however wide it is, and a
    # zero argument gives the limit directly: hi c^(-1/b) for b > -1, 0 for
    # b < -1
    b = order.value
    c = b + 1.0
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    z, L = _gap_and_log(lo, hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zh = (hi - lo) / hi
        if c < 0.0:
            # lo (expm1(c L) / (c z))^(1/b) with z = (hi/lo) zh
            out = (hi ** (-1.0 / b) * lo ** (1.0 + 1.0 / b)
                   * (np.expm1(c * L) / (c * zh)) ** (1.0 / b))
        elif abs(b) < 0.5:
            # the power 1/b would magnify the quotient's rounding by 1/|b|.
            # expm1(c L) = z e^(bL) (1 + w) with w = -expm1(-b L)/z, so
            # ln(R/hi) = (log1p(w) - log1p(b))/b, whose cancelling part is
            # O(b) and is divided by b without loss.  For b < 0, |w| is
            # about e^(-c L), so capping -b L at 700 leaves log1p(w) exact
            # and keeps w finite
            b = math.copysign(max(abs(b), _ORDER_FLOOR), b)
            w = np.expm1(np.minimum(-b * L, 700.0)) / -z
            out = hi * np.exp((np.log1p(w) - math.log1p(b)) / b)
        else:
            out = hi * (np.expm1(-c * L) / (-c * zh)) ** (1.0 / b)
    out = np.minimum(np.maximum(out, lo), hi)
    if np.isnan(out).any():
        # x = y comes out as 0/0 above
        out = np.where(hi > lo, out, x)
    return out


def _gini_parts(u: float, v: float, x: np.ndarray, y: np.ndarray) -> tuple:
    # x^u + y^u, x^v + y^v (2 at v = 0) and the plain quotient of the mean
    num, den = x ** u + y ** u, (2.0 if v == 0.0 else x ** v + y ** v)
    q = num / den
    return num, den, q if u - v == 1.0 else q ** (1.0 / (u - v))


def _in_range(num, den):
    # both sums and their quotient in [2**-1021, max float], so each sum's larger
    # term is a normal float and the plain quotient accurate; nothing here overflows
    return ((num >= _SUM_MIN) & (num <= _FLOAT_MAX) & (den >= _SUM_MIN) & (den <= _FLOAT_MAX)
            & (num >= _SUM_MIN * den) & (num / _FLOAT_MAX <= den))


def _gini_rescaled(u: float, v: float, x, y, num, den, out) -> np.ndarray:
    """``out`` recomputed where the sums left the normal range (the plain
    quotient overflowed, underflowed or lost digits to subnormals), in a
    homogeneous form whose factors all stay in range: with orders p >= m,
    t = lo/hi and a = (max(p, 0) - max(m, 0))/(p - m) (1 for orders >= 0, 0
    for orders < 0), M = hi^a lo^(1 - a) ((1 + t^|p|)/(1 + t^|m|))^(1/(p - m))."""
    x, y, num, den, out = map(np.array, np.broadcast_arrays(x, y, num, den, out))
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    redo = ~_in_range(num, den) & (hi > 0.0) & (hi < np.inf)
    lo, hi = lo[redo], hi[redo]
    p, m = max(u, v), min(u, v)
    a, t = (max(p, 0.0) - max(m, 0.0)) / (p - m), lo / hi
    out[redo] = (hi ** a * lo ** (1.0 - a)
                 * ((1.0 + t ** abs(p)) / (1.0 + t ** abs(m))) ** (1.0 / (p - m)))
    return out


def _gini_log_ratio(p: float, m: float, lo: np.ndarray, hi: np.ndarray,
                    L: np.ndarray) -> np.ndarray:
    """ln((1 + t^p)/(1 + t^m)) for orders p >= m >= 0, t = lo/hi, L = ln(hi/lo):
    log1p(s expm1(-(p - m) L)) with s = t^m/(1 + t^m), which keeps its digits
    however close p and m are (the gap is floored at ``_ORDER_FLOOR``)."""
    with np.errstate(invalid="ignore"):  # 0/0 at x = y = 0
        t = lo / hi
        w = t ** m
        if m > 0.0:
            # t underflows where hi/lo passes the float range; t^m need not
            w = np.where(t >= _NORMAL_MIN, w, np.exp(-m * L))
    return np.log1p(w / (1.0 + w) * np.expm1(-max(p - m, _ORDER_FLOOR) * L))


def _gini_values(u: float, v: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # ((x^u + y^u)/(x^v + y^v))^(1/(u - v)) and its u = v limit: the one kernel
    # of the power (v = 0) and Lehmer (u = v + 1) means (notes/decisions.md, "Gini scale")
    if abs(u - v) >= 0.5:
        # a zero argument at a negative order: inf ** (1/(u - v)) = 0, the
        # limit; for v > 0 the quotient is 0/0 at x = y = 0, where the limit is 0
        quiet = "ignore" if min(u, v) < 0.0 or v > 0.0 else None
        with np.errstate(divide=quiet, invalid=quiet, over="ignore"):
            num, den, out = _gini_parts(u, v, x, y)
            if num.size:  # the extreme sums bound every quotient
                d_lo, d_hi = (den, den) if v == 0.0 else (den.min(), den.max())
                if not (_in_range(num.min(), d_hi) & _in_range(num.max(), d_lo)):
                    out = _gini_rescaled(u, v, x, y, num, den, out)
        return np.where((x == 0.0) & (y == 0.0), 0.0, out) if v > 0.0 else out
    # orders closer than 0.5: with u >= v, d = u - v, t = lo/hi and
    # L = ln(hi/lo), ln(M/hi) = ln((1 + t^u)/(1 + t^v))/d, -s L at d = 0.
    # For u <= 0, M_{u,v}(x, y) = 1/M_{-v,-u}(1/x, 1/y) puts it on the base lo;
    # for v < 0 < u, ln(1 + t^v) = -v L + ln(1 + t^-v) keeps t^v from overflowing
    u, v = max(u, v), min(u, v)
    d = max(u - v, _ORDER_FLOOR)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    L = _gap_and_log(lo, hi)[1]
    if v >= 0.0:
        base, e = hi, _gini_log_ratio(u, v, lo, hi, L) / d
    elif u <= 0.0:
        base, e = lo, -_gini_log_ratio(-v, -u, lo, hi, L) / d
    else:
        ratio = _gini_log_ratio(max(u, -v), min(u, -v), lo, hi, L)
        base, e = hi, ((ratio if u >= -v else -ratio) + v * L) / d
    out = _base_exp(base, e)
    return np.where(hi > lo, np.minimum(np.maximum(out, lo), hi), lo)


def _wgeom_values(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x (y/x)^b, which is x at x = y, in place on the ratio; x^a y^b where
    # y/x raises a flag (a zero argument, a ratio past the normal floats)
    try:
        with np.errstate(all="raise"):
            r = np.asarray(y / x)
    except FloatingPointError:
        fi = np.finfo(float)
        with np.errstate(all="ignore"):
            r = y / x
            return np.where((r >= fi.tiny) & (r <= fi.max), x * r ** b, x ** a * y ** b)
    return np.multiply(np.power(r, b, out=r), x, out=r)


def _quasi_values(spec: MeanSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    g = spec.generator
    if g == "id":
        return 0.5 * (x + y)
    if g == "ln":
        return np.exp(0.5 * (np.log(x) + np.log(y)))
    if g == "exp":
        # log-sum-exp form avoids overflow for large arguments
        return np.logaddexp(x, y) - math.log(2.0)
    # the generator t^p gives the power mean of order p
    return _power_values(ExtOrder.of(spec.gen_power), x, y)


def coupled_limit(m: "MeanSpec", n: "MeanSpec", x: np.ndarray, y: np.ndarray,
                  tol: float, cap: int):
    """Run x <- M(x, y), y <- N(x, y) until the relative gap <= tol.

    Elementwise: each element stops at its own first gap <= tol, where its
    pair is recorded, so its value 0.5 (x + y) depends only on its own
    pair.  An element with a zero argument is judged by its gap relative to
    its starting scale max(x, y) instead, for as long as one of its sides is
    still exactly 0: where an inner mean stays 0 (the geometric mean of 0 and
    y), the relative gap stays 1 while both sides shrink to the limit 0.
    Once both sides are positive it goes back to the relative gap, which
    resolves a small positive limit.  Stopped elements keep stepping beside
    the open ones, outside every test below, until they are as many as the
    open ones; then, from the second step on, the working arrays drop them
    before the means are taken.  Returns (values, iterations of the slowest
    element, largest gap at a stop).  Raises ConvergenceError when any
    element still has gap > tol at the cap, and DomainError when a step
    leaves an open element bit for bit where it was (min and max, say): such
    a pair is a fixed point of the step and has no common limit.  That check
    runs only after a step that did not shrink the largest open gap, so
    converging pairs never pay for it, and a fixed point holding the largest
    gap is reported at its second step.
    """
    xm = np.asarray(x, dtype=float)
    ym = np.asarray(y, dtype=float)
    # the means take the operands as given (numpy's 0-d arithmetic can differ
    # from its array loops by an ulp); gaps and records read them broadcast
    xk, yk = (xm, ym) if xm.shape == ym.shape else np.broadcast_arrays(xm, ym)
    shape = xk.shape
    # decided once, so elements with positive arguments run as they would alone
    zero = None
    if np.min(xk, initial=np.inf) == 0.0 or np.min(yk, initial=np.inf) == 0.0:
        zero = (xk == 0.0) | (yk == 0.0)
        start = np.maximum(np.maximum(xk, yk), 1e-300)
    # ox, oy: each element's pair at its stop, by original flat index; the
    # values 0.5 (x + y) are formed at the return, so an x + y past the float
    # range warns only on a call that returns.  pos: the original flat index
    # of each working element once stopped ones are dropped.  thr: tol while
    # an element is open and NaN once it stops, so no gap is <= it and
    # thr == thr marks the open elements
    ox = oy = pos = thr = None
    live, riding, top = xk.size, 0, 0.0
    iterations = 0
    last = math.inf  # the largest open gap before the step
    while True:
        gap = np.abs(xk - yk)
        gap /= np.maximum(np.maximum(xk, yk), 1e-300)
        if zero is not None:
            gap = np.where(zero & ((xk == 0.0) | (yk == 0.0)), np.abs(xk - yk) / start, gap)
        new = gap <= (tol if thr is None else thr)
        k = np.count_nonzero(new)
        if k == live and ox is None:  # all stop at once: the arrays are the values
            return 0.5 * (xk + yk), iterations, float(np.max(gap, initial=0.0))
        if k:
            s = np.flatnonzero(new)
            if ox is None:
                ox, oy = np.empty(xk.size), np.empty(xk.size)
                thr = np.full(shape, tol, dtype=float)
            at = s if pos is None else pos.take(s)
            ox[at] = xk.take(s)
            oy[at] = yk.take(s)
            top = max(top, float(gap.take(s).max()))
            live -= k
            if not live:
                ox += oy
                ox *= 0.5
                return ox.reshape(shape), iterations, top
            thr.ravel()[s] = np.nan
            riding += k
        if riding:
            i = int(gap.argmax())
            largest = float(gap.flat[i])
            if math.isnan(thr.flat[i]):  # a stopped element's gap: take the open ones'
                largest = float(np.max(gap[thr == thr]))
        else:
            largest = float(np.max(gap, initial=0.0))
        if iterations == cap:
            raise ConvergenceError(
                f"mean-pair iteration did not converge in {cap} steps "
                f"(gap {largest:.3e} > tol {tol:.3e})")
        if riding >= live and iterations:  # the first means take the operands as given
            keep = np.flatnonzero(thr == thr)
            xk, yk, gap, thr = xk.take(keep), yk.take(keep), gap.take(keep), thr.take(keep)
            pos = keep if pos is None else pos.take(keep)
            if zero is not None:
                zero, start = zero.take(keep), start.take(keep)
            xm, ym, riding = xk, yk, 0
        nx = mean_values(m, xm, ym)
        ny = mean_values(n, xm, ym)
        if largest >= last:
            stuck = (nx == xk) & (ny == yk)
            if riding:
                stuck &= thr == thr
            if stuck.any():
                i = int(np.argmax(stuck))
                raise DomainError(
                    f"mean-pair iteration is stationary at ({float(xk.flat[i])!r}, "
                    f"{float(yk.flat[i])!r}) with gap {float(gap.flat[i]):.3e} > tol {tol:.3e}: "
                    "the pair has no common limit")
        last = largest
        xk = xm = nx
        yk = ym = ny
        iterations += 1


def mean_values(spec: MeanSpec, x, y) -> np.ndarray:
    """Elementwise M(x, y) over arrays; no domain validation (see eval_mean)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f = spec.family
    if f is MeanFamily.POWER:
        return _power_values(spec.order, x, y)
    if f is MeanFamily.RADO:
        return _rado_values(spec.order, x, y)
    if f is MeanFamily.GINI:
        return _gini_values(spec.params[0], spec.params[1], x, y)
    if f is MeanFamily.LEHMER:
        return _gini_values(spec.params[0] + 1.0, spec.params[0], x, y)
    if f is MeanFamily.WEIGHTED_ARITHMETIC:
        a, b = spec.params
        return a * x + b * y
    if f is MeanFamily.WEIGHTED_GEOMETRIC:
        return _wgeom_values(spec.params[0], spec.params[1], x, y)
    if f is MeanFamily.QUASI_ARITHMETIC:
        return _quasi_values(spec, x, y)
    if f is MeanFamily.LOGARITHMIC:
        return _log_mean(x, y)
    if f is MeanFamily.IDENTRIC:
        return _identric(x, y)
    if f is MeanFamily.MIN:
        return np.minimum(x, y)
    if f is MeanFamily.MAX:
        return np.maximum(x, y)
    if f is MeanFamily.MEDIANT:
        # mediant of x/1 and y/1
        return 0.5 * (x + y)
    values, _, _ = coupled_limit(spec.inner[0], spec.inner[1], x, y,
                                 ITERATED_EVAL_TOL, ITERATED_CAP)
    return values


def _validate_args(spec: MeanSpec, x, y) -> None:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (((x >= 0) & (x < np.inf)).all() and ((y >= 0) & (y < np.inf)).all()):
        raise DomainError("mean arguments must be finite and nonnegative")
    if spec.requires_positive() and (np.any(x == 0) or np.any(y == 0)):
        raise DomainError(f"mean {spec} requires strictly positive arguments")


def eval_mean(spec: MeanSpec, x: float, y: float) -> float:
    """M(x, y) with domain validation; min(x,y) <= M <= max(x,y).

    Evaluated as a one-element array: numpy's 0-d arithmetic can differ from
    its array loops by an ulp (power, for one), so this equals the value the
    pair gets inside any array.
    """
    _validate_args(spec, x, y)
    return float(mean_values(spec, [x], [y])[0])


def conjugate_values(spec: MeanSpec, x, y) -> np.ndarray:
    """Elementwise conjugate M*(x, y) = xy / M(x, y); 0 at a zero argument.

    The zero-argument value is the squeeze limit min <= M* <= max -> 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return conjugate_from_mean(x, y, mean_values(spec, x, y))


def conjugate_from_mean(x: np.ndarray, y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """xy / m for mean values m = M(x, y) already computed; 0 at a zero or
    NaN argument.

    A plain divide, then 0 wherever xy > 0 fails: the same bits as a divide
    masked by xy > 0 (NaN and -0.0 products give 0 too), without numpy's
    slower masked loop, and the zero fix runs only when some product is not
    positive.  Where the multiply or the divide raises an overflow or
    underflow flag, the products outside the normal floats take x (y/m)
    instead: xy would overflow to inf or flush to 0 where M* lies between
    x and y.
    """
    try:
        # 0/0 where xy = 0
        with np.errstate(over="raise", under="raise", divide="ignore", invalid="ignore"):
            xy = x * y
            out = np.divide(xy, m, out=np.empty_like(xy))
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            xy = x * y
            mag = np.abs(xy)
            out = np.where((mag >= _NORMAL_MIN) & (mag <= _FLOAT_MAX), xy / m, x * (y / m))
            # xy > 0 by the signs: an underflowed product reads 0
            out[~(np.sign(x) * np.sign(y) > 0)] = 0.0
        return out
    if not (xy.size and xy.min() > 0.0):  # NaN fails too
        out[~(xy > 0)] = 0.0
    return out


def conjugate_eval(spec: MeanSpec, x: float, y: float) -> float:
    """M*(x, y) = xy / M(x, y) for x, y > 0, as a one-element array (see eval_mean)."""
    if not (x > 0 and y > 0):
        raise DomainError("conjugate mean requires strictly positive arguments")
    _validate_args(spec, x, y)
    return float(conjugate_values(spec, [x], [y])[0])


def entropy(spec: MeanSpec, x: float, y: float) -> float:
    """Generalized entropy -ln M(x, y); Shannon form for weighted geometric."""
    if not (x > 0 and y > 0):
        raise DomainError("entropy requires strictly positive arguments")
    return -math.log(eval_mean(spec, x, y))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    status: str  # "pass" | "fail" | "not-applicable"
    worst_rel_error: float
    witness: Optional[tuple]  # (x, y, lambda) of the worst sample

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class AxiomReport:
    unbiasedness: AxiomCheck
    homogeneity: AxiomCheck
    monotonicity: AxiomCheck
    symmetry: AxiomCheck
    intermediacy: AxiomCheck
    samples_used: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in (self.unbiasedness, self.homogeneity,
                                      self.monotonicity, self.symmetry,
                                      self.intermediacy))


def _axiom_check(errors: np.ndarray, xs, ys, lams, tol: float) -> AxiomCheck:
    worst = int(np.argmax(errors))
    err = float(errors[worst])
    status = "pass" if err <= tol else "fail"
    return AxiomCheck(status, err, (float(xs[worst]), float(ys[worst]), float(lams[worst])))


def check_axioms(spec: MeanSpec, n_samples: int, seed: int, rtol: float = 1e-10) -> AxiomReport:
    """Randomized verification of the abstract-mean axioms.

    Samples (x, y, lambda) log-uniformly in [1e-3, 1e3] from the seeded
    generator and tests unbiasedness, homogeneity, strict monotonicity under
    a +50% perturbation of one argument, symmetry, and intermediacy.
    Failures are reported with reproducible witnesses, never raised.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, Integral) or n_samples < 1:
        raise ParameterError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not 0 <= rtol < math.inf:  # NaN fails too
        raise ParameterError(f"rtol must be finite and nonnegative, got {rtol}")
    rng = make_rng(seed)
    xs = log_uniform(rng, size=n_samples)
    ys = log_uniform(rng, size=n_samples)
    lams = log_uniform(rng, size=n_samples)

    m = mean_values(spec, xs, ys)

    e_unb = np.abs(mean_values(spec, xs, xs) - xs) / xs
    unbiasedness = _axiom_check(e_unb, xs, xs, lams, rtol)

    mh = mean_values(spec, lams * xs, lams * ys)
    e_hom = np.abs(mh - lams * m) / np.maximum(lams * m, 1e-300)
    homogeneity = _axiom_check(e_hom, xs, ys, lams, rtol)

    # strict monotonicity: a finite positive bump must strictly increase M
    up_x = mean_values(spec, 1.5 * xs, ys)
    up_y = mean_values(spec, xs, 1.5 * ys)
    gain = np.minimum(up_x - m, up_y - m) / np.maximum(m, 1e-300)
    e_mono = np.where(gain > 0, 0.0, np.where(gain == 0, 1.0, 1.0 + np.abs(gain)))
    monotonicity = _axiom_check(e_mono, xs, ys, lams, rtol)

    e_sym = np.abs(mean_values(spec, ys, xs) - m) / np.maximum(m, 1e-300)
    symmetry = _axiom_check(e_sym, xs, ys, lams, rtol)

    lo = np.minimum(xs, ys)
    hi = np.maximum(xs, ys)
    e_int = np.maximum(lo - m, m - hi) / hi
    e_int = np.maximum(e_int, 0.0)
    intermediacy = _axiom_check(e_int, xs, ys, lams, rtol)

    return AxiomReport(unbiasedness, homogeneity, monotonicity, symmetry,
                       intermediacy, n_samples, seed)


# ---------------------------------------------------------------------------
# h-function representation: M(x, y) = (x + y) h(ln(y/x))
# ---------------------------------------------------------------------------

_H_CLIP = 700.0  # beyond this exp() overflows; h has settled to its limit


def h_of(spec: MeanSpec, t: float) -> float:
    """h(t) = M(1, e^t) / (1 + e^t) for a homogeneous symmetric mean."""
    tc = min(max(float(t), -_H_CLIP), _H_CLIP)
    et = math.exp(tc)
    return eval_mean(spec, 1.0, et) / (1.0 + et)


@dataclass(frozen=True)
class HFunctionCheck:
    h0_value: float
    ratio_violations: tuple  # (t1, t2, ratio, lower_bound, upper_bound)
    even_violations: tuple  # (t, h(t), h(-t))
    grid: tuple
    rtol: float = 1e-10

    @property
    def ok(self) -> bool:
        return (abs(self.h0_value - 0.5) <= self.rtol
                and not self.ratio_violations and not self.even_violations)


def check_h_function(h: Callable[[float], float], t_grid: Sequence[float],
                     rtol: float = 1e-10) -> HFunctionCheck:
    """Verify h(0) = 1/2, evenness, and the double ratio growth bound

        e^{t1} (e^{t2}+1) / (e^{t2} (e^{t1}+1)) <= h(t1)/h(t2) <= (e^{t2}+1)/(e^{t1}+1)

    for every pair t1 <= t2 of the nonnegative ascending grid.
    """
    grid = tuple(float(t) for t in t_grid)
    if not grid:
        raise ParameterError("t_grid must be nonempty")
    if not all(0 <= t < math.inf for t in grid) or any(a > b for a, b in zip(grid, grid[1:])):
        raise ParameterError("t_grid must be finite, ascending and nonnegative")
    h0 = float(h(0.0))
    even_violations = []
    for t in grid:
        if t == 0.0:
            continue
        hp, hm = float(h(t)), float(h(-t))
        if abs(hp - hm) > rtol * max(abs(hp), abs(hm)):
            even_violations.append((t, hp, hm))
    hv = [float(h(t)) for t in grid]
    ratio_violations = []
    for i, t1 in enumerate(grid):
        for j in range(i, len(grid)):
            t2 = grid[j]
            if hv[j] <= 0:
                ratio_violations.append((t1, t2, math.inf, 0.0, 0.0))
                continue
            ratio = hv[i] / hv[j]
            e1, e2 = math.exp(t1), math.exp(t2)
            lower = e1 * (e2 + 1.0) / (e2 * (e1 + 1.0))
            upper = (e2 + 1.0) / (e1 + 1.0)
            if ratio < lower * (1.0 - rtol) or ratio > upper * (1.0 + rtol):
                ratio_violations.append((t1, t2, ratio, lower, upper))
    return HFunctionCheck(h0, tuple(ratio_violations), tuple(even_violations),
                          grid, rtol)


def check_h_conditions(spec: MeanSpec, t_grid: Sequence[float],
                       rtol: float = 1e-10) -> HFunctionCheck:
    """Run check_h_function on the spec's h-function."""
    return check_h_function(lambda t: h_of(spec, t), t_grid, rtol)


# ---------------------------------------------------------------------------
# Rado-scale two-sided power bounds and the mediant
# ---------------------------------------------------------------------------

def rado_power_bound_orders(beta: float):
    """Exact power-mean orders (lower, upper) with M_lower <= R_beta <= M_upper.

    Five regimes over the extended order beta; at regime boundaries both
    neighbouring formulas coincide.  The limiting case beta = 0 yields
    (2/3, ln 2), and beta = -1 (logarithmic mean) yields (0, 1/3).
    """
    b = float(beta)
    if math.isnan(b):
        raise ParameterError("beta must not be NaN")
    ln2 = math.log(2.0)
    if b == -math.inf:
        return (-math.inf, 0.0)
    if b == math.inf:
        return (math.inf, math.inf)
    third = (b + 2.0) / 3.0
    if b <= -2.0:
        return (third, 0.0)
    if b <= -1.0:
        return (0.0, third)
    log_order = ln2 if b == 0.0 else b * ln2 / math.log1p(b)
    if b <= -0.5:
        return (log_order, third)
    if b < 1.0:
        return (third, log_order)
    return (log_order, third)


def mediant(p1: int, q1: int, p2: int, q2: int):
    """Unreduced mediant (p1+p2, q1+q2) of the fractions p1/q1 and p2/q2."""
    if q1 <= 0 or q2 <= 0:
        raise ParameterError("mediant requires positive denominators")
    return (p1 + p2, q1 + q2)


# ---------------------------------------------------------------------------
# fixed catalogs shared by tests, property checks, and the CLI
# ---------------------------------------------------------------------------

def chain_catalog():
    """Means admissible in the Cauchy-Bunyakovsky middle term.

    Everything unbiased, homogeneous, and monotone; symmetry not required.
    quasi:exp is excluded (not homogeneous), and so are Gini/Lehmer members
    with positive Lehmer order such as gini:2,1: the contraharmonic mean is
    not monotone in each argument and genuinely violates the chain.
    """
    names = [
        "min", "power:-2", "power:0", "power:0.5", "power:1", "power:2", "max",
        "rado:-1", "rado:0", "rado:2",
        "gini:0.25,-0.25", "lehmer:-0.25",
        "wgeom:0.75,0.25", "warith:0.3,0.7",
        "iter:warith:0.5,0.5|power:0",
    ]
    return [parse_mean(n) for n in names]


def full_catalog():
    """Every shipped family with representative parameters."""
    extra = ["log", "identric", "mediant", "quasi:id", "quasi:ln", "quasi:exp",
             "quasi:pow,3", "power:-inf", "power:inf", "rado:-3",
             "gini:2,1", "gini:3,3", "lehmer:1"]
    return chain_catalog() + [parse_mean(n) for n in extra]
