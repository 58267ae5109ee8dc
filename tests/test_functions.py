import math

import numpy as np
import pytest

from ineqmeans import DomainError, ParameterError, parse_function
from ineqmeans.functions import (FunctionFamily, FunctionSpec, validate_nonneg_derivative,
                                 validate_positive)


@pytest.mark.parametrize("text,t,expected", [
    ("poly:1,2,3", 2.0, 1 + 4 + 12),
    ("exp:0.5", 2.0, math.e),
    ("pow:3", 2.0, 8.0),
    ("affine:1,4", 0.5, 3.0),
    ("exppoly:0,2", 1.5, math.exp(3.0)),
])
def test_eval(text, t, expected):
    f = parse_function(text)
    assert float(f(t)) == pytest.approx(expected, rel=1e-14)


def test_round_trip():
    for text in ("poly:1,2,3", "exp:0.5", "pow:3", "affine:1,4", "exppoly:0,2,1"):
        f = parse_function(text)
        assert parse_function(f.to_string()) == f


@pytest.mark.parametrize("bad", ["", "poly", "poly:a", "spline:1", "exp:1,2", "affine:1",
                                 "poly:nan", "exp:inf", "exppoly:1,-inf"])
def test_parse_rejects(bad):
    with pytest.raises(ParameterError):
        parse_function(bad)


def test_derivatives_match_finite_differences():
    h = 1e-6
    ts = np.linspace(0.1, 2.0, 23)
    for text in ("poly:1,2,3,0.5", "exp:0.7", "pow:2.5", "affine:1,4", "exppoly:0.1,0.3,0.2"):
        f = parse_function(text)
        numeric = (f(ts + h) - f(ts - h)) / (2 * h)
        assert np.allclose(f.derivative(ts), numeric, rtol=1e-7, atol=1e-7), text


def test_vectorized_evaluation():
    f = parse_function("poly:0,1")
    out = f(np.array([0.0, 1.0, 2.0]))
    assert out.shape == (3,)
    assert np.allclose(out, [0.0, 1.0, 2.0])


def test_sup_on_unit_bounds():
    assert parse_function("poly:1,2").sup_on_unit() == 3.0
    assert parse_function("exp:-3").sup_on_unit() == 1.0
    assert parse_function("pow:2").sup_on_unit() == 1.0
    with pytest.raises(DomainError):
        parse_function("pow:-0.5").sup_on_unit()
    # a bound past the float range is a DomainError, not an OverflowError
    assert parse_function("exp:709").sup_on_unit() == math.exp(709.0)
    for text in ("exp:1000", "exppoly:1,800", "poly:1e308,1e308"):
        with pytest.raises(DomainError):
            parse_function(text).sup_on_unit()


def test_validate_positive_allows_endpoint_zeros():
    validate_positive(parse_function("pow:1"), 0.0, 1.0)
    with pytest.raises(DomainError):
        validate_positive(parse_function("affine:-1,1"), 0.0, 2.0)


def test_validate_derivative_sign():
    validate_nonneg_derivative(parse_function("exp:2"), 0.0, 1.0)
    with pytest.raises(DomainError):
        validate_nonneg_derivative(parse_function("exp:-2"), 0.0, 1.0)


HORNER_SPECS = (
    FunctionSpec(FunctionFamily.POLY, (0.135914, 6.47054, 0.238318)),
    FunctionSpec(FunctionFamily.POLY, (1.5, -2.25, 0.0, 3.125, -0.7)),
    FunctionSpec(FunctionFamily.POLY, (2.5,)),
    FunctionSpec(FunctionFamily.POLY, (1, 2, 3)),
    FunctionSpec(FunctionFamily.AFFINE, (7.80273825046556, 4.20719812552979)),
    FunctionSpec(FunctionFamily.AFFINE, (1, 4)),
    FunctionSpec(FunctionFamily.EXP_OF_POLY, (0.1, 0.3, 0.2)),
    FunctionSpec(FunctionFamily.EXP_OF_POLY, (0, 2, 1)),
)


def _short_id(spec):
    """The spec with each coefficient at %g: a short label, not a spec string."""
    return f"{spec.family.value}:" + ",".join("%g" % c for c in spec.coeffs)


@pytest.mark.parametrize("spec", HORNER_SPECS, ids=_short_id)
def test_horner_matches_polyval_bit_for_bit(spec):
    polyval = np.polynomial.polynomial.polyval
    dcoef = tuple(i * c for i, c in enumerate(spec.coeffs))[1:] or (0.0,)
    rng = np.random.default_rng(11)
    ts = np.concatenate([np.linspace(-3.0, 3.0, 1025), rng.uniform(-50.0, 50.0, 1000)])
    if spec.family is FunctionFamily.EXP_OF_POLY:
        value = lambda t: np.exp(polyval(t, spec.coeffs))
        slope = lambda t: polyval(t, dcoef) * np.exp(polyval(t, spec.coeffs))
    else:
        value = lambda t: polyval(t, spec.coeffs)
        slope = lambda t: polyval(t, dcoef)
    with np.errstate(over="ignore"):
        for t in (ts, ts[1::2], np.asarray(0.37), np.asarray(-2.0), 1.25):
            for got, want in ((spec(t), value(t)), (spec.derivative(t), slope(t))):
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_validators_return_their_samples():
    f = parse_function("poly:1,2,3")
    ts = np.linspace(0.5, 2.0, 513)
    assert np.array_equal(validate_positive(f, 0.5, 2.0), f(ts))
    assert np.array_equal(validate_nonneg_derivative(f, 0.5, 2.0), f.derivative(ts))
