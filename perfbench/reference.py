"""Independent reference formulas for the benchmark's inputs and output checks.

These re-derive the catalog functions and the chain means used by the
``integral_chains`` workload from their definitions, without calling the
library, so the scipy oracle in ``checks.py`` shares no code with the
program it checks.
"""

from __future__ import annotations

import math

import numpy as np

FUNCTION_KINDS = ("exp", "affine", "poly")


def fn_value(kind, coeffs, t):
    """f(t) for ``exp:k`` (e^{kt}), ``affine:c0,c1`` and ``poly:c0,c1,c2``."""
    if kind == "exp":
        return np.exp(coeffs[0] * t)
    return sum(c * t ** i for i, c in enumerate(coeffs))


def fn_derivative(kind, coeffs, t):
    if kind == "exp":
        return coeffs[0] * np.exp(coeffs[0] * t)
    return sum(i * c * t ** (i - 1) for i, c in enumerate(coeffs) if i > 0)


def fn_scalar(kind, coeffs):
    """A pure-Python scalar callable for the oracle's quadrature."""
    if kind == "exp":
        k = coeffs[0]
        return lambda t: math.exp(k * t)
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return lambda t: c0 + c1 * t
    c0, c1, c2 = coeffs
    return lambda t: c0 + t * (c1 + t * c2)


def fn_spec(kind, coeffs) -> str:
    """The library's spec string for a function, with exact float round-trip."""
    return kind + ":" + ",".join(repr(c) for c in coeffs)


def _logarithmic(x, y):
    # (x - y) / (ln x - ln y) = m d / atanh(d), m = (x+y)/2, d = (x-y)/(x+y)
    m = 0.5 * (x + y)
    d = (x - y) / (x + y)
    return m if d == 0.0 else m * d / math.atanh(d)


def _identric(x, y):
    # exp((x ln x - y ln y)/(x - y) - 1) in the same (m, d) coordinates
    m = 0.5 * (x + y)
    d = (x - y) / (x + y)
    if d == 0.0:
        return m
    core = ((1.0 + d) * math.log1p(d) - (1.0 - d) * math.log1p(-d)) / (2.0 * d)
    return m * math.exp(core - 1.0)


MEANS = {
    "power:0": lambda x, y: math.sqrt(x * y),
    "power:1": lambda x, y: 0.5 * (x + y),
    "power:2": lambda x, y: math.hypot(x, y) / math.sqrt(2.0),
    "power:inf": max,
    "rado:-1": _logarithmic,
    "rado:0": _identric,
    "wgeom:0.75,0.25": lambda x, y: x ** 0.75 * y ** 0.25,
}
