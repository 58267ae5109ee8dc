import math

import numpy as np
import pytest

from ineqmeans import ConvergenceError, DomainError, bounds, bounds_grid, elliptic_k, quadrature
from ineqmeans.elliptic import KMethod


def test_k_at_zero_is_half_pi():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert elliptic_k(0.0, KMethod.QUADRATURE) == pytest.approx(math.pi / 2.0, rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_k_methods_agree(x):
    k_agm = elliptic_k(x, KMethod.AGM)
    k_quad = elliptic_k(x, KMethod.QUADRATURE, tol=1e-13)
    assert k_quad == pytest.approx(k_agm, rel=1e-10)


def test_k_against_scipy_oracle():
    scipy_special = pytest.importorskip("scipy.special")
    for x in (0.05, 0.3, 0.6, 0.85, 0.99):
        # scipy's ellipk takes the parameter m = x^2
        assert elliptic_k(x) == pytest.approx(float(scipy_special.ellipk(x * x)),
                                              rel=1e-12)


def test_k_unbounded_near_one():
    assert elliptic_k(1.0 - 1e-6) > elliptic_k(0.9)


def test_k_quadrature_near_one_against_mpmath():
    # under the root 1 - x^2 sin^2 is written (1 - x)(1 + x) + x^2 cos^2, which
    # does not cancel at theta = pi/2; at x = 0.99999 the cancelling form
    # doubled its pending intervals until memory ran out
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for x in (0.99999, 0.999999):
            ref = float(mp.ellipk(mp.mpf(x) ** 2))
            assert elliptic_k(x, KMethod.QUADRATURE) == pytest.approx(ref, rel=1e-13)
            assert elliptic_k(x, KMethod.QUADRATURE) == pytest.approx(elliptic_k(x), rel=1e-13)


def test_k_quadrature_closer_to_one_raises():
    # the integrand's peak is too narrow for the quadrature budget: a typed
    # error, not an allocation without limit (the AGM route serves there)
    with pytest.raises(ConvergenceError):
        elliptic_k(1.0 - 1e-12, KMethod.QUADRATURE)
    assert elliptic_k(1.0 - 1e-12) > elliptic_k(1.0 - 1e-6)


def test_k_domain():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            elliptic_k(bad)


def test_bounds_domain_is_open():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            bounds(bad)


def test_chain_ordering_on_dense_grid():
    for report in bounds_grid(np.arange(0.01, 1.0, 0.01)):
        chain = report.chain()
        scale = max(chain)
        slacks = [(b - a) / scale for a, b in zip(chain, chain[1:])]
        assert min(slacks) >= -1e-10, f"x={report.x}"
        assert report.chain_ok


def test_chain_holds_at_the_closed_form_tolerance_near_the_endpoints():
    # closed forms and the AGM are judged at reports.CHAIN_RTOL (1e-12);
    # their rounding stays below 1e-15 of scale, also within 1e-15 of 0 and 1
    xs = list(np.linspace(1e-4, 1.0 - 1e-4, 2001))
    xs += [1e-15, 1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15]
    for report in bounds_grid(xs):
        assert report.chain_ok, report.x
        assert report.max_violation <= 1e-15, report.x


def test_bounds_against_defining_integrals():
    # Dual route: each closed form is the integral over [0, 1] of a pointwise
    # combination of u = f^2, v = g^2 from the scalar-product split of K.
    # Substituting t = 1 - s^2 cancels the 1/sqrt(1-t) endpoint singularity
    # and leaves the same algebraic combination of U = 2/((1+t) sqrt(1-xt)),
    # V = 2/((1+xt) sqrt(1-xt)); integrate that as the oracle.
    for x in (0.2, 0.5, 0.8):
        def transformed(kind):
            def f(s):
                t = 1.0 - np.asarray(s) ** 2
                root = np.sqrt(1.0 - x * t)
                u = 2.0 / ((1.0 + t) * root)
                v = 2.0 / ((1.0 + x * t) * root)
                if kind == "L0":
                    return u
                if kind == "G0":
                    return v
                if kind == "L1":
                    return 2.0 * u * v / (u + v)
                if kind == "G1":
                    return 0.5 * (u + v)
                if kind == "G2":
                    return 0.4 * (u * u + 3.0 * u * v + v * v) / (u + v)
                return 2.5 * u * v * (u + v) / (u * u + 3.0 * u * v + v * v)

            return quadrature(f, 0.0, 1.0, tol=1e-12)

        report = bounds(x)
        for kind, value in (("L0", report.L0), ("G0", report.G0), ("L1", report.L1),
                            ("G1", report.G1), ("G2", report.G2), ("L2", report.L2)):
            assert transformed(kind) == pytest.approx(value, rel=1e-9), (x, kind)


def test_g0_against_mpmath_near_zero():
    # G0 = J(1, x) = int_0^1 dt / ((1 + xt) sqrt((1 - t)(1 - xt))); its closed
    # form takes ln(1 + O(sqrt x)) as x -> 0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for x in (1e-8, 1e-12, 1e-14):
            xm = mp.mpf(x)
            ref = mp.quad(lambda t: 1 / ((1 + xm * t) * mp.sqrt((1 - t) * (1 - xm * t))),
                          [0, 1])
            assert bounds(x).G0 == pytest.approx(float(ref), rel=1e-14), x


def test_refinements_tighten_the_envelope():
    report = bounds(0.9)
    assert (report.G0 - report.L0) > (report.G2 - report.L2)


def test_l1_finite_positive_on_domain():
    for x in np.linspace(0.001, 0.999, 200):
        report = bounds(float(x))
        assert math.isfinite(report.L1)
        assert report.L1 > 0


def test_all_bounds_diverge_like_k_near_one():
    for x in (0.99, 0.995, 0.999):
        report = bounds(x)
        for value in report.chain():
            assert 0.5 <= value / report.K <= 2.0
