import math

import numpy as np
import pytest

from ineqmeans import (ConvergenceError, ParameterError, mean_values, parse_function, parse_mean,
                       quadrature)
from ineqmeans.quadrature import (CubicHermite, composite_simpson, cumulative_simpson,
                                  simpson_nodes)


def test_constant():
    assert quadrature(lambda t: np.ones_like(t), 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_linear():
    assert quadrature(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_cubic_exact():
    assert quadrature(lambda t: t ** 3, 0.0, 1.0) == pytest.approx(0.25, rel=1e-12)


def test_smooth_transcendental():
    val = quadrature(np.exp, 0.0, 1.0, tol=1e-13)
    assert val == pytest.approx(math.e - 1.0, rel=1e-12)


def test_scalar_only_integrand_is_wrapped():
    def f(t):
        if hasattr(t, "__len__"):
            raise TypeError("scalar only")
        return t * t

    assert quadrature(f, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_stacked_integrands_share_nodes():
    rows = (np.exp, lambda t: np.sin(3.0 * t) ** 2 + 1.0, lambda t: np.abs(t - 1.0 / 3.0))
    tol = 1e-11
    stacked = quadrature(lambda t: np.stack([f(t) for f in rows]), 0.0, 2.0, tol=tol)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (3,)
    for value, f in zip(stacked, rows):
        alone = quadrature(f, 0.0, 2.0, tol=tol)
        assert isinstance(alone, float)
        assert abs(value - alone) <= max(tol, tol * abs(alone))


def test_kinked_integrand():
    val = quadrature(lambda t: np.abs(t - 1.0 / 3.0), 0.0, 1.0, tol=1e-12)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert val == pytest.approx(exact, rel=1e-10)


def test_break_points_split_a_kink_near_a_dyadic_point():
    # 0.37523 sits in the outer 0.4% of the level-3 interval [0.375, 0.5],
    # beyond its outermost nodes: there K15 and G7 agree on a wrong value
    kink = 0.37522885712552384
    # a break outside (a, b), here 2.0, is ignored
    val = quadrature(lambda t: np.abs(t - kink), 0.0, 1.0, tol=1e-12, breaks=[kink, 2.0])
    exact = kink ** 2 / 2 + (1.0 - kink) ** 2 / 2
    assert abs(val - exact) <= 1e-12


def test_standalone_log_mean_square_against_scipy_oracle():
    # M^2 of the logarithmic mean of two catalog functions, integrated alone:
    # Richardson acceptance on coarse dyadic intervals misses it by 143 times
    # its budget (notes/decisions.md, "Integration engine")
    quad = pytest.importorskip("scipy.integrate").quad
    f = parse_function("poly:0.305239,7.77948,0.333982")
    g = parse_function("affine:0.603687,0.30396")
    spec = parse_mean("rado:-1")
    tol = 1e-9
    val = quadrature(lambda t: mean_values(spec, f(t), g(t)) ** 2, 0.0, 2.0, tol=tol)

    def log_mean(t):
        x, y = float(f(t)), float(g(t))
        return x if x == y else (x - y) / (math.log(x) - math.log(y))

    exact = quad(lambda t: log_mean(t) ** 2, 0.0, 2.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert abs(val - exact) <= 10.0 * max(tol, tol * exact)


def test_depth_cap_raises():
    # a jump at an irrational point can never satisfy the local target
    def f(t):
        return np.where(np.asarray(t) < 1.0 / math.pi, 0.0, 1.0)

    with pytest.raises(ConvergenceError):
        quadrature(f, 0.0, 1.0, tol=1e-15)


def test_bad_interval_rejected():
    with pytest.raises(ParameterError):
        quadrature(lambda t: t, 1.0, 0.0)


def test_deterministic():
    f = lambda t: np.sin(3.0 * t) ** 2 + 1.0
    a = quadrature(f, 0.0, 2.0, tol=1e-11)
    b = quadrature(f, 0.0, 2.0, tol=1e-11)
    assert a == b


def test_composite_and_cumulative_simpson_agree():
    xs, h = simpson_nodes(0.0, 2.0, 64)
    vals = np.exp(xs)
    total = composite_simpson(vals, h)
    cum = cumulative_simpson(vals, h)
    assert cum[-1] == pytest.approx(total, rel=1e-15)
    assert cum[0] == 0.0
    assert total == pytest.approx(math.e ** 2 - 1.0, rel=1e-9)


def test_cubic_hermite_reproduces_antiderivative():
    xs, h = simpson_nodes(0.0, 1.0, 128)
    vals = np.sin(xs)
    v = cumulative_simpson(vals, h)
    table = CubicHermite(0.0, 1.0 / 128, v, vals[::2])
    probe = np.linspace(0.0, 1.0, 501)
    exact = 1.0 - np.cos(probe)
    assert np.max(np.abs(table(probe) - exact)) < 1e-9
