import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# premise certificates
# ---------------------------------------------------------------------------

def test_validate_positive_allows_endpoint_zeros():
    validate_positive(parse_function("pow:1"), 0.0, 1.0)
    with pytest.raises(DomainError):
        validate_positive(parse_function("affine:-1,1"), 0.0, 2.0)


def test_validate_derivative_sign():
    validate_nonneg_derivative(parse_function("exp:2"), 0.0, 1.0)
    with pytest.raises(DomainError):
        validate_nonneg_derivative(parse_function("exp:-2"), 0.0, 1.0)


def _raises(check, text, a, b, match, **kw):
    with pytest.raises(DomainError, match=match):
        check(parse_function(text), a, b, **kw)


@pytest.mark.parametrize("text, a, b", [
    ("pow:1", 0.0, 1.0), ("pow:3", 0.0, 2.0), ("pow:0.5", 0.0, 1.0),
    ("affine:1,-1", 0.0, 1.0), ("poly:0,0,1", 0.0, 1.0), ("poly:1,-2,1", 0.0, 1.0),
])
def test_certificate_allows_endpoint_zeros_unless_strict(text, a, b):
    # the conjugate-mean limit at a zero endpoint is 0; the log-derivative
    # form divides by f, so its strict flag refuses the same zero
    validate_positive(parse_function(text), a, b)
    _raises(validate_positive, text, a, b, "strictly positive", strict=True)


@pytest.mark.parametrize("text, a, b, match", [
    ("affine:1,-1", 0.0, 2.0, "negative"),            # its endpoint values
    ("pow:3", -1.0, 1.0, "negative"),                 # odd power for t < 0
    ("pow:2", -1.0, 1.0, "vanishes inside"),          # zero at an interior t = 0
    ("pow:2.5", -1.0, 1.0, "not finite"),             # NaN for t < 0
    ("pow:-1", 0.0, 1.0, "not finite"),
    ("poly:0.25,-1,1", 0.0, 1.0, "vanishes inside"),  # double root at 1/2
    ("exp:-1000", 0.0, 1.0, "vanishes inside"),       # underflows to 0
])
def test_certificate_rejects_by_family(text, a, b, match):
    _raises(validate_positive, text, a, b, match)


def test_certificate_derivative_signs():
    for text in ("exp:0", "affine:1,0", "pow:2", "pow:1", "poly:1,0,1", "exppoly:0.1,1,0.5"):
        validate_nonneg_derivative(parse_function(text), 0.0, 1.0)
    _raises(validate_nonneg_derivative, "affine:1,-1", 0.0, 1.0, "nondecreasing")
    _raises(validate_nonneg_derivative, "exppoly:0,1,-1", 0.0, 1.0, "nondecreasing")
    # a vertical tangent at 0: not finite for the chains, allowed on request
    _raises(validate_nonneg_derivative, "pow:0.5", 0.0, 1.0, "not finite")
    validate_nonneg_derivative(parse_function("pow:0.5"), 0.0, 1.0, steep_ends=True)


@pytest.mark.parametrize("check, text, a, b", [
    (validate_positive, "exp:710", 0.0, 1.0),
    (validate_positive, "exp:-710", -1.0, 0.0),
    (validate_positive, "exppoly:1,800", 0.0, 1.0),
    (validate_positive, "exppoly:0,0,720", 0.0, 1.0),
    (validate_positive, "poly:1e308,1e308", 0.0, 1.0),
    (validate_positive, "pow:100", 1.0, 1e10),
    (validate_nonneg_derivative, "exp:709", 0.0, 1.0),    # e^709 is finite, 709 e^709 not
    (validate_nonneg_derivative, "poly:0,0,0,0,5e307", 0.0, 1.0),  # f(1) = 5e307
])
def test_certificate_overflow_is_not_finite(check, text, a, b):
    assert check is validate_positive or math.isfinite(float(parse_function(text)(b)))
    _raises(check, text, a, b, "not finite")


def test_certificate_decides_the_near_double_roots():
    # f = t^2 - 1.001 t + 0.25050024 dips to -1e-8 on (0.5004, 0.5006),
    # between the 513-node grid's samples; the subdivision finds the dip
    with pytest.raises(DomainError, match="negative") as info:
        validate_positive(parse_function("poly:0.25050024,-1.001,1"), 0.0, 1.0)
    assert 0.5004 < float(str(info.value).rsplit("= ", 1)[1]) < 0.5006
    _raises(validate_nonneg_derivative, "poly:1,0.25050024,-0.5005,0.3333333333333333",
            0.0, 1.0, "nondecreasing")
    # f' = (t - 1/3)^2 in floats: within rounding of 0 near 1/3, so the
    # sign stays open at the cap and the error names the spec and the point
    with pytest.raises(DomainError, match=r"cannot certify f' >= 0 .*poly:1,0\.111.* near t = "
                                          r"0\.33333.*near-double root"):
        validate_nonneg_derivative(
            parse_function("poly:1,0.1111111111111111,-0.3333333333333333,0.3333333333333333"),
            0.0, 1.0)
    # the same root as a zero of f itself: it vanishes there, to rounding
    _raises(validate_positive, "poly:0.1111111111111111,-0.6666666666666666,1", 0.0, 1.0,
            "vanishes inside")


def test_certificates_return_nothing_and_never_evaluate(monkeypatch):
    def unexpected(self, t):
        raise AssertionError(f"{self} evaluated")

    monkeypatch.setattr(FunctionSpec, "__call__", unexpected)
    monkeypatch.setattr(FunctionSpec, "derivative", unexpected)
    for text in ("exp:1", "pow:2", "affine:1,2", "poly:1,2,3", "poly:1,2,3,4,5",
                 "exppoly:0.1,1,0.5"):
        f = parse_function(text)
        assert validate_positive(f, 0.5, 2.0, strict=True) is None
        assert validate_nonneg_derivative(f, 0.5, 2.0) is None


def test_certificate_needs_a_function_spec():
    with pytest.raises(ParameterError):
        validate_positive(np.exp, 0.0, 1.0)


_COEFFS = st.floats(-4.0, 4.0, allow_nan=False).map(lambda c: 0.0 if abs(c) < 1e-3 else c)


def _exact_range(coeffs, a, b):
    """min of sum c_i t^i over [a, b] and its real roots there, exactly (60
    digits): the roots by mpmath.polyroots, the minimum over the endpoints and
    the real roots of the derivative."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        cs = [mpmath.mpf(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()

        def real_roots(c):
            if len(c) < 2:
                return []
            found = mpmath.polyroots(c[::-1], maxsteps=400, extraprec=400)
            return [r.real for r in map(mpmath.mpc, found)
                    if abs(r.imag) <= 1e-30 and a <= r.real <= b]

        dcs = [i * c for i, c in enumerate(cs)][1:]
        points = [mpmath.mpf(a), mpmath.mpf(b)] + real_roots(dcs)
        low = min(mpmath.polyval(cs[::-1], t) for t in points)
        return float(low), [float(r) for r in real_roots(cs)]


def _sampled_check(values, zeros):
    # the 513-sample rules the certificates replaced: any negative sample, or
    # (for f itself) a zero inside, is a witness
    return (np.isfinite(values).all() and (values >= 0).all()
            and (zeros or (values[1:-1] > 0).all()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coeffs=st.lists(_COEFFS, min_size=1, max_size=5), a=st.floats(-2.0, 2.0),
       width=st.floats(1.0 / 64.0, 4.0))
def test_certificate_agrees_with_exact_roots(coeffs, a, width):
    # positivity of a random poly (degree <= 4) and of its derivative on a
    # random interval, against mpmath: a certificate never accepts a root
    # inside or a negative value, never rejects what is positive by more
    # than 1e-10 of its scale, and never accepts what the old 513-sample
    # check rejected (a failing sample is a witness)
    b = a + width
    f = FunctionSpec(FunctionFamily.POLY, tuple(coeffs))
    ts = np.linspace(a, b, 513)
    slope = [i * c for i, c in enumerate(coeffs)][1:] or [0.0]
    for check, cs, samples in ((validate_positive, coeffs, f(ts)),
                               (validate_nonneg_derivative, slope, f.derivative(ts))):
        scale = sum(abs(c) * (abs(a) + width) ** i for i, c in enumerate(cs))
        low, roots = _exact_range(cs, a, b)
        try:
            check(f, a, b)
            accepted = True
        except DomainError:
            accepted = False
        if accepted:
            assert low >= -1e-12 * scale, (check.__name__, low)
            assert _sampled_check(samples, check is validate_nonneg_derivative), check.__name__
            if check is validate_positive:
                slack = 1e-9 * width
                assert not [r for r in roots if a + slack < r < b - slack], roots
        if low > 1e-10 * scale:
            assert accepted, (check.__name__, low)
        if low < -1e-10 * scale:
            assert not accepted, (check.__name__, low)
