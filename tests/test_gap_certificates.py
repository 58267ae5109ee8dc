"""The polynomial gap certificate that lets a kinked chain skip its kink scan.

``integral._one_signed(f, g, a, b, log)`` claims that the gap a chain scans
(f - g, or Lf - Lg when ``log``) keeps one sign, or is 0, at every node of
the 1025-point scan of [a, b].  Whenever it claims that, ``_find_kinks``
must return [] for the gap as the chains compute it; when it cannot decide,
the chain scans as before.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqmeans import DomainError, parse_function, parse_mean
from ineqmeans import integral
from ineqmeans.functions import FunctionFamily, FunctionSpec, validate_positive
from ineqmeans.integral import _find_kinks, _logderiv_gap, _one_signed

CROSSING_F = parse_function("poly:0.135914,6.47054,0.238318")
CROSSING_G = parse_function("poly:1.07857,1.56503,8.91331")
_FAMILIES = (FunctionFamily.EXP, FunctionFamily.AFFINE, FunctionFamily.POLY,
             FunctionFamily.EXP_OF_POLY)
_ARITY = {FunctionFamily.EXP: 1, FunctionFamily.AFFINE: 2, FunctionFamily.POLY: 3,
          FunctionFamily.EXP_OF_POLY: 3}


def _gap(f: FunctionSpec, g: FunctionSpec, log: bool):
    """The gap as the chains scan it: f - g, or Lf - Lg from the sampler's
    value-and-slope pass."""
    if not log:
        return lambda rows, ts: f(ts) - g(ts)

    def gap(rows, ts):
        fv, dfv = f._value_and_slope(ts)
        gv, dgv = g._value_and_slope(ts)
        return _logderiv_gap(fv, gv, dfv, dgv)

    return gap


def _scan(f, g, a, b, log):
    """_find_kinks on [a, b], and the gap's signs at the scan nodes."""
    kinks = _find_kinks(_gap(f, g, log), np.array([a]), np.array([b]))[0]
    signs = np.sign(_gap(f, g, log)(None, np.linspace(a, b, integral._SCAN_POINTS)))
    return kinks, signs


_COEFF = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def _pairs(draw):
    """Two members of the four catalog families on an interval; g is often
    f with one coefficient nudged by a relative 1e-16 to 1e-2 (or f
    itself), so that the gap is within rounding of 0 or barely one-signed."""
    family = draw(st.sampled_from(_FAMILIES))
    coeffs = draw(st.lists(_COEFF, min_size=_ARITY[family], max_size=_ARITY[family]))
    f = FunctionSpec(family, tuple(coeffs))
    how = draw(st.sampled_from(["free", "nudged", "nudged", "same"]))
    if how == "free":
        family = draw(st.sampled_from(_FAMILIES))
        coeffs = draw(st.lists(_COEFF, min_size=_ARITY[family], max_size=_ARITY[family]))
    elif how == "nudged":
        i = draw(st.integers(0, len(coeffs) - 1))
        step = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-16, -2))
        coeffs[i] = coeffs[i] + step * max(abs(coeffs[i]), 1e-3)
    g = FunctionSpec(family, tuple(coeffs))
    a = draw(st.sampled_from([0.0, 0.0, -0.5, 0.25]))
    b = a + draw(st.sampled_from([0.5, 1.0, 2.0]))
    return f, g, a, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pair=_pairs(), log=st.booleans())
def test_a_certified_gap_has_no_kinks_on_the_scan(pair, log):
    f, g, a, b = pair
    if log:  # the log-derivative form's premise: f, g > 0
        try:
            validate_positive(f, a, b, strict=True)
            validate_positive(g, a, b, strict=True)
        except DomainError:
            assume(False)
    with np.errstate(all="ignore"):
        kinks, signs = _scan(f, g, a, b, log)
    assume(np.isfinite(signs).all())
    if _one_signed(f, g, a, b, log):
        assert kinks == []
        assert (signs >= 0).all() or (signs <= 0).all()


@pytest.mark.parametrize("f, g, b, log", [
    # Lf - Lg crosses once in (0, 1): the scan finds it
    (CROSSING_F, CROSSING_G, 1.0, True),
    # p - q = (t - 0.3)^2 - 1e-8: two crossings 2e-4 apart, inside one scan
    # cell of [0, 1], which the scan misses; the certificate sees p < q
    # between them
    (parse_function("poly:1.08999999,0.4,1"), parse_function("affine:1,1"), 1.0, False),
    # p - q = (t - 0.5)^2 touches 0 at a scan node: no kink for the scan,
    # undecided for the certificate
    (parse_function("poly:1.25,-1,1"), parse_function("affine:1,0"), 1.0, False),
    # identically 0 (f = g) in both forms
    (parse_function("exppoly:0.5,1,0.25"), parse_function("exppoly:0.5,1,0.25"), 2.0, False),
    (parse_function("exppoly:0.5,1,0.25"), parse_function("exppoly:0.5,1,0.25"), 2.0, True),
    # pow members, and mean-form exp against plain: the gap's sign is not a polynomial's
    (parse_function("pow:2"), parse_function("affine:0.1,1"), 1.0, False),
    (parse_function("exp:1"), parse_function("affine:0.5,1"), 1.0, False),
], ids=["logderiv-crossing", "two-in-a-cell", "touching", "equal-mean", "equal-logderiv",
        "pow", "exp-against-plain"])
def test_the_certificate_declines(f, g, b, log):
    assert not _one_signed(f, g, 0.0, b, log)


def test_the_declined_cases_scan_as_before():
    kinks, _ = _scan(CROSSING_F, CROSSING_G, 0.0, 1.0, True)
    assert len(kinks) == 1
    # the two-in-a-cell probe: still missed by the scan (ROADMAP item 11)
    kinks, _ = _scan(parse_function("poly:1.08999999,0.4,1"), parse_function("affine:1,1"),
                     0.0, 1.0, False)
    assert kinks == []


@pytest.mark.parametrize("f, g, log", [
    # exp:k against exp:k' have the same value 1 at t = 0: that scan node is
    # exactly 0 and left out, and the gap is certified from the next one
    ("exp:2", "exp:1.5", False),
    ("exppoly:0,1,3", "exp:0.5", False),
    ("poly:1,2,0.5", "affine:1,0.5", False),
    # Lf - Lg of every pair of plain and exp-type members
    ("exp:2", "exp:1.5", True),
    ("exp:2", "affine:1,1", True),
    ("affine:1,1", "exppoly:0.2,1.5,1", True),
    ("poly:1,0.5,2", "affine:2,0.1", True),
])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_one_signed_gaps_of_the_catalog_are_certified(f, g, log, b):
    f, g = parse_function(f), parse_function(g)
    assert _one_signed(f, g, 0.0, b, log)
    assert _scan(f, g, 0.0, b, log)[0] == []


def test_a_certified_chain_skips_the_scan(monkeypatch):
    # power:inf kinks on the diagonal; with a certified gap neither form
    # scans, and the reports are those of a chain that scanned and found
    # nothing
    calls = []
    find = integral._find_kinks

    def counted(*args):
        calls.append(args)
        return find(*args)

    f, g = parse_function("poly:1,0.5,2"), parse_function("affine:0.5,0.1")
    spec = parse_mean("power:inf")
    before = (integral.integral_mean_chain(f, g, 0.0, 1.0, spec),
              integral.integral_logderiv_chain(f, g, 0.0, 1.0, spec))
    monkeypatch.setattr(integral, "_find_kinks", counted)
    after = (integral.integral_mean_chain(f, g, 0.0, 1.0, spec),
             integral.integral_logderiv_chain(f, g, 0.0, 1.0, spec))
    assert calls == [] and after == before
    monkeypatch.setattr(integral, "_one_signed", lambda *args: False)
    assert (integral.integral_mean_chain(f, g, 0.0, 1.0, spec),
            integral.integral_logderiv_chain(f, g, 0.0, 1.0, spec)) == before
    assert len(calls) == 2
