"""Parsable positive test functions with analytic derivatives.

Five families cover the integral test surface: polynomials, exponentials
e^{kt}, powers t^p, affine maps, and exponentials of polynomials.  Every
family evaluates elementwise on numpy arrays and knows its derivative in
closed form; positivity or monotonicity on a concrete interval is validated
by dense sampling at the point of use, and the validators return their
samples for the caller to reuse.
"""

from __future__ import annotations

import math
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
        t = np.asarray(t, dtype=float)
        f = self.family
        if f is FunctionFamily.POLY or f is FunctionFamily.AFFINE:
            return _horner(_derivative_coeffs(self.coeffs), t)
        if f is FunctionFamily.EXP:
            k = self.coeffs[0]
            return k * np.exp(k * t)
        if f is FunctionFamily.POWER:
            p = self.coeffs[0]
            return p * t ** (p - 1.0)
        return _horner(_derivative_coeffs(self.coeffs), t) * np.exp(_horner(self.coeffs, t))

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
        params = ",".join("%g" % c for c in self.coeffs)
        return f"{self.family.value}:{params}"

    def __str__(self) -> str:
        return self.to_string()


def _horner(coeffs, t):
    """sum c_i t^i by Horner's rule, in numpy polyval's order: c[-1] + t*0,
    then c_i + v*t, so every value equals polyval's bit for bit."""
    v = coeffs[-1] + t * 0
    for c in coeffs[-2::-1]:
        v = c + v * t
    return v


def _derivative_coeffs(coeffs) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def parse_function(text: str) -> FunctionSpec:
    """Parse ``poly:c0,c1,...``, ``exp:k``, ``pow:p``, ``affine:c0,c1``,
    ``exppoly:c0,c1,...`` (case-insensitive)."""
    s = text.strip().lower()
    head, _, rest = s.partition(":")
    try:
        family = FunctionFamily(head)
    except ValueError:
        raise ParameterError(f"unknown function family {head!r} in {text!r}") from None
    if not rest:
        raise ParameterError(f"function spec {text!r} is missing coefficients")
    coeffs = []
    for tok in rest.split(","):
        try:
            coeffs.append(float(tok))
        except ValueError:
            raise ParameterError(f"cannot parse coefficient {tok!r} in {text!r}") from None
    return FunctionSpec(family, tuple(coeffs))


_VALIDATION_POINTS = 513


@lru_cache(maxsize=32)
def _cached_grid(a: float, b: float, n: int, signs: tuple) -> np.ndarray:
    # signs is part of the cache key only
    ts = np.linspace(a, b, n)
    ts.flags.writeable = False
    return ts


def _grid(a: float, b: float, n: int) -> np.ndarray:
    """``linspace(a, b, n)``, cached read-only: the chains sample a few
    intervals over and over, and a linspace call costs as much as a 1000-node
    function evaluation.  The key keeps the signs, so -0.0 is not 0.0."""
    a, b = float(a), float(b)
    return _cached_grid(a, b, n, (math.copysign(1.0, a), math.copysign(1.0, b)))


def validate_positive(f, a: float, b: float, name: str = "f") -> np.ndarray:
    """Require f >= 0 on [a, b] and f > 0 away from the endpoints.

    Zeros at the interval endpoints are tolerated (the conjugate-mean limit
    there is 0), interior zeros or sign changes are not.  Returns the
    checked values of f on ``linspace(a, b, 513)``.
    """
    vals = np.asarray(f(_grid(a, b, _VALIDATION_POINTS)), dtype=float)
    if not np.isfinite(vals).all():
        raise DomainError(f"{name} is not finite on [{a}, {b}]")
    if (vals < 0).any():
        raise DomainError(f"{name} is negative on [{a}, {b}]")
    if (vals[1:-1] <= 0).any():
        raise DomainError(f"{name} vanishes inside [{a}, {b}]")
    return vals


def validate_nonneg_derivative(f: FunctionSpec, a: float, b: float,
                               name: str = "f") -> np.ndarray:
    """Require f' finite and >= 0 on [a, b]; returns the checked values of
    f' on ``linspace(a, b, 513)``."""
    dv = np.asarray(f.derivative(_grid(a, b, _VALIDATION_POINTS)), dtype=float)
    if not np.isfinite(dv).all():
        raise DomainError(f"{name}' is not finite on [{a}, {b}]")
    if (dv < 0).any():
        raise DomainError(f"{name} must be nondecreasing on [{a}, {b}]")
    return dv
