import math

import pytest

from ineqmeans import (ConvergenceError, DomainError, ParameterError, agm, check_axioms,
                       elliptic_k, eval_mean, iterate_means, parse_mean)
from ineqmeans.elliptic import KMethod
from ineqmeans.sampling import log_uniform, make_rng

ARITH = parse_mean("power:1")
GEOM = parse_mean("power:0")


def test_equal_means_converge_in_one_step():
    result = iterate_means(ARITH, ARITH, 3.0, 7.0, tol=1e-14)
    assert result.value == pytest.approx(5.0, rel=1e-15)
    assert result.iterations == 1
    assert result.final_gap <= 1e-14


def test_equal_start_values_take_zero_iterations():
    result = iterate_means(ARITH, GEOM, 4.2, 4.2, tol=1e-14)
    assert result.value == 4.2
    assert result.iterations == 0


def test_arithmetic_geometric_pair_matches_agm():
    result = iterate_means(ARITH, GEOM, 1.0, 2.0, tol=1e-15)
    assert result.value == pytest.approx(agm(1.0, 2.0), rel=1e-12)


def test_result_lies_between_start_values():
    rng = make_rng(3)
    for _ in range(50):
        x0, y0 = (float(v) for v in log_uniform(rng, size=2))
        r = iterate_means(parse_mean("power:2"), parse_mean("rado:-1"), x0, y0, 1e-13)
        assert min(x0, y0) - 1e-12 <= r.value <= max(x0, y0) + 1e-12


def test_min_max_pair_never_converges():
    # min/max leave the pair fixed, so the gap stays put and the cap trips
    with pytest.raises(ConvergenceError):
        iterate_means(parse_mean("min"), parse_mean("max"), 1.0, 2.0, tol=1e-12)


def test_composite_mean_inherits_the_axioms():
    report = check_axioms(parse_mean("iter:warith:0.5,0.5|power:0"), 400, seed=8, rtol=1e-12)
    assert report.all_passed


def test_agm_of_equal_arguments():
    assert agm(1.0, 1.0) == 1.0


def test_agm_against_independent_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    assert agm(24.0, 6.0) == pytest.approx(float(mp.agm(24, 6)), rel=1e-14)
    # frozen from the oracle: mpmath.agm(24, 6)
    assert agm(24.0, 6.0) == pytest.approx(13.458171481725616, rel=1e-10)


def test_agm_is_homogeneous():
    rng = make_rng(4)
    for _ in range(50):
        x, y, lam = (float(v) for v in log_uniform(rng, size=3))
        assert agm(lam * x, lam * y) == pytest.approx(lam * agm(x, y), rel=1e-13)


def test_agm_between_geometric_and_arithmetic():
    rng = make_rng(5)
    xs = log_uniform(rng, size=500)
    ys = log_uniform(rng, size=500)
    for x, y in zip(xs, ys):
        value = agm(float(x), float(y))
        assert math.sqrt(x * y) - 1e-12 * value <= value <= 0.5 * (x + y) + 1e-12 * value


def test_agm_elliptic_closed_form_on_grid():
    # agm(x0, y0) * K(sqrt(1-(y0/x0)^2)) = (pi/2) x0 for 0 < y0 < x0,
    # cross-checked against the independent quadrature evaluation of K.
    rng = make_rng(6)
    checked = 0
    while checked < 20:
        x0, y0 = (float(v) for v in log_uniform(rng, 0.1, 10.0, size=2))
        if not y0 < x0:
            continue
        k = elliptic_k(math.sqrt(1.0 - (y0 / x0) ** 2), KMethod.QUADRATURE, tol=1e-13)
        assert agm(x0, y0) == pytest.approx(0.5 * math.pi * x0 / k, rel=1e-9)
        checked += 1


def test_agm_rejects_nonpositive():
    with pytest.raises(DomainError):
        agm(0.0, 1.0)
    with pytest.raises(DomainError):
        iterate_means(ARITH, GEOM, -1.0, 2.0, 1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, -math.inf, math.nan])
def test_agm_rejects_a_tol_that_is_not_positive(tol):
    # the check iterate_means makes; such a tol used to run all 200 steps
    # and raise ConvergenceError
    with pytest.raises(ParameterError):
        agm(1.0, 2.0, tol=tol)
    with pytest.raises(ParameterError):
        iterate_means(ARITH, GEOM, 1.0, 2.0, tol)
