import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqmeans import (ConvergenceError, DomainError, ExtOrder, FunctionFamily, FunctionSpec,
                       MeanFamily, MeanSpec, OrderKind, ParameterError, chain_catalog, check_axioms,
                       check_h_conditions, check_h_function, conjugate_eval, conjugate_values,
                       entropy, eval_mean, full_catalog, h_of, mean_values, mediant,
                       parse_function, parse_mean, rado_power_bound_orders)
from ineqmeans.means import (ITERATED_CAP, ITERATED_EVAL_TOL, _QUASI_GENERATORS, conjugate_from_mean,
                             coupled_limit)
from ineqmeans.sampling import log_uniform, make_rng


def spec(s):
    return parse_mean(s)


# ---------------------------------------------------------------------------
# parsing and representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "power:2", "power:inf", "power:-inf", "rado:0", "rado:-1", "gini:2,1",
    "lehmer:1", "wgeom:0.7,0.3", "warith:0.5,0.5", "log", "identric", "min",
    "max", "mediant", "quasi:ln", "quasi:pow,3", "iter:warith:0.5,0.5|power:0",
])
def test_parse_round_trip(text):
    sp = parse_mean(text)
    assert parse_mean(sp.to_string()) == sp


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _mean_specs(draw, depth=1):
    family = draw(st.sampled_from([f for f in MeanFamily
                                   if depth or f is not MeanFamily.ITERATED]))
    if family in (MeanFamily.POWER, MeanFamily.RADO):
        return MeanSpec(family, order=ExtOrder.of(draw(st.floats(allow_nan=False)),
                                                  minus_one_exceptional=family is MeanFamily.RADO))
    if family is MeanFamily.GINI:
        return MeanSpec(family, params=(draw(_finite), draw(_finite)))
    if family is MeanFamily.LEHMER:
        return MeanSpec(family, params=(draw(_finite),))
    if family in (MeanFamily.WEIGHTED_ARITHMETIC, MeanFamily.WEIGHTED_GEOMETRIC):
        a = draw(st.floats(0.0, 1.0))
        return MeanSpec(family, params=(a, 1.0 - a))
    if family is MeanFamily.QUASI_ARITHMETIC:
        gen = draw(st.sampled_from(_QUASI_GENERATORS))
        p = draw(_finite.filter(lambda p: p != 0.0)) if gen == "pow" else None
        return MeanSpec(family, generator=gen, gen_power=p)
    if family is MeanFamily.ITERATED:
        return MeanSpec(family, inner=(draw(_mean_specs(0)), draw(_mean_specs(0))))
    return MeanSpec(family)


@settings(max_examples=300, deadline=None)
@given(_mean_specs())
def test_spec_strings_round_trip(sp):
    # %g keeps six digits: gini:1,0.999999999 was written gini:1,1, another
    # mean; every drawn parameter now survives to_string and parse_mean
    assert parse_mean(sp.to_string()) == sp


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(FunctionFamily)), st.lists(_finite, min_size=1, max_size=4))
def test_function_strings_round_trip(family, coeffs):
    n = {FunctionFamily.EXP: 1, FunctionFamily.POWER: 1, FunctionFamily.AFFINE: 2}
    f = FunctionSpec(family, tuple((coeffs * 2)[:n.get(family, len(coeffs))]))
    assert parse_function(f.to_string()) == f


def test_round_tripping_numbers_keep_their_short_form():
    assert parse_mean("gini:0.25,-0.25").to_string() == "gini:0.25,-0.25"
    assert parse_mean("power:-inf").to_string() == "power:-inf"
    assert parse_mean("power:0.123456789").to_string() == "power:0.123456789"
    assert parse_function("poly:1.6741406716243536,1,0.5").to_string() == \
        "poly:1.6741406716243536,1,0.5"


def test_parse_case_insensitive():
    assert parse_mean("POWER:2") == parse_mean("power:2")
    assert parse_mean("Iter:WARITH:0.5,0.5|Power:0") == parse_mean("iter:warith:0.5,0.5|power:0")


@pytest.mark.parametrize("bad", [
    "", "power", "power:abc", "power:nan", "gini:1", "wgeom:0.7,0.4",
    "warith:-0.1,1.1", "quasi:cos", "quasi:pow,0", "iter:min", "log:1",
    "frobnicate:3", "lehmer:1,2", "quasi:ln,3", "quasi:pow", "quasi:", "power:1,2",
    "quasi:pow,1,2", "iter:min|max|log", "gini:1,2,3", "lehmer:", "rado:", "max:x",
    "gini:inf,1", "lehmer:-inf",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParameterError):
        parse_mean(bad)


@pytest.mark.parametrize("fields", [
    dict(family=MeanFamily.MIN, params=(1.0,)),
    dict(family=MeanFamily.LOGARITHMIC, order=ExtOrder.of(2.0)),
    dict(family=MeanFamily.POWER, order=ExtOrder.of(2.0), params=(5.0,)),
    dict(family=MeanFamily.QUASI_ARITHMETIC, generator="ln", gen_power=3.0),
    dict(family=MeanFamily.WEIGHTED_ARITHMETIC, params=(math.nan, 1.0)),
    dict(family=MeanFamily.QUASI_ARITHMETIC, generator="pow", gen_power=math.nan),
    dict(family=MeanFamily.POWER, order=ExtOrder(OrderKind.MINUS_ONE)),
    dict(family=MeanFamily.RADO, order=ExtOrder(OrderKind.FINITE, -1.0)),
    # iter:iter:warith:0.5,0.5|power:0|power:-1 has no parse
    dict(family=MeanFamily.ITERATED,
         inner=(parse_mean("iter:warith:0.5,0.5|power:0"), parse_mean("power:-1"))),
    dict(family=MeanFamily.ITERATED,
         inner=(parse_mean("min"), parse_mean("iter:power:3|power:0"))),
])
def test_spec_constructor_rejects_fields_its_string_drops(fields):
    # each of these printed a string that parsed back to another spec
    with pytest.raises(ParameterError):
        MeanSpec(**fields)


def test_extended_orders_are_tagged_not_sentinels():
    assert parse_mean("power:inf").order.kind is OrderKind.POS_INF
    assert parse_mean("power:-inf").order.kind is OrderKind.NEG_INF
    assert parse_mean("power:0").order.kind is OrderKind.ZERO
    assert parse_mean("rado:-1").order.kind is OrderKind.MINUS_ONE
    assert parse_mean("rado:0").order.kind is OrderKind.ZERO
    assert parse_mean("power:2").order == ExtOrder(OrderKind.FINITE, 2.0)


# ---------------------------------------------------------------------------
# evaluation examples
# ---------------------------------------------------------------------------

def test_power_one_is_arithmetic():
    assert eval_mean(spec("power:1"), 4.0, 9.0) == pytest.approx(6.5, rel=1e-15)


def test_power_zero_is_geometric():
    assert eval_mean(spec("power:0"), 4.0, 9.0) == pytest.approx(6.0, rel=1e-15)


def test_rado_minus_two_equals_geometric_mean():
    rng = make_rng(11)
    xs = log_uniform(rng, size=100)
    ys = log_uniform(rng, size=100)
    r = mean_values(spec("rado:-2"), xs, ys)
    g = mean_values(spec("power:0"), xs, ys)
    assert np.allclose(r, g, rtol=1e-12)


def test_logarithmic_mean_of_one_and_e():
    assert eval_mean(spec("log"), 1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-14)


def test_identric_printed_form():
    x, y = 2.0, 5.0
    expected = (1.0 / math.e) * (y ** y / x ** x) ** (1.0 / (y - x))
    assert eval_mean(spec("identric"), x, y) == pytest.approx(expected, rel=1e-13)


def test_equal_arguments_return_the_argument():
    for name in ("rado:2", "rado:-1", "rado:0", "log", "identric", "gini:3,3"):
        assert eval_mean(spec(name), 7.25, 7.25) == 7.25


def test_near_equal_series_zone_matches_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    x = 2.0
    for r in (1e-11, 1e-9, 3e-7):
        y = x * (1.0 + r)
        xs, ys = mp.mpf(x), mp.mpf(y)
        log_ref = float((ys - xs) / (mp.log(ys) - mp.log(xs)))
        ident_ref = float(mp.e ** -1 * (ys ** ys / xs ** xs) ** (1 / (ys - xs)))
        b = mp.mpf("2.5")
        rado_ref = float(((xs ** (b + 1) - ys ** (b + 1)) / ((b + 1) * (xs - ys))) ** (1 / b))
        assert eval_mean(spec("log"), x, y) == pytest.approx(log_ref, rel=1e-14)
        assert eval_mean(spec("identric"), x, y) == pytest.approx(ident_ref, rel=1e-14)
        assert eval_mean(spec("rado:2.5"), x, y) == pytest.approx(rado_ref, rel=1e-13)


def test_log_and_identric_kernels_against_mpmath():
    # no cancellation band near x = y: relative gaps 1e-9 .. 1e6, either order
    mp = pytest.importorskip("mpmath")
    gaps = np.logspace(-9.0, 6.0, 46)
    with mp.workdps(40):
        for base in (1e-3, 1.0, 2.0, 1e3):
            lo = np.full_like(gaps, base)
            hi = base * (1.0 + gaps)
            log_ref, ident_ref = [], []
            for a, b in zip(lo, hi):
                xs, ys = mp.mpf(a), mp.mpf(b)
                log_ref.append(float((ys - xs) / (mp.log(ys) - mp.log(xs))))
                ident_ref.append(float(mp.exp((ys * mp.log(ys) - xs * mp.log(xs))
                                              / (ys - xs) - 1)))
            for names, ref in ((("log", "rado:-1"), log_ref),
                               (("identric", "rado:0"), ident_ref)):
                for name in names:
                    for x, y in ((lo, hi), (hi, lo)):
                        got = mean_values(spec(name), x, y)
                        rel = np.abs(got - ref) / np.asarray(ref)
                        assert float(np.max(rel)) <= 1e-14, (name, base)


def _rado_mp(b, xs, ys):
    return ((ys ** (b + 1) - xs ** (b + 1)) / ((b + 1) * (ys - xs))) ** (1 / b)


def _gini_mp(u, xs, ys):
    mp = pytest.importorskip("mpmath")
    return mp.exp((xs ** u * mp.log(xs) + ys ** u * mp.log(ys)) / (xs ** u + ys ** u))


def test_rado_and_gini_kernels_against_mpmath():
    # no equal-argument or series band: relative gaps 1e-9 .. 1e6, either
    # order, on both sides of b = -1 and b = 0, where the Rado kernel
    # changes form (the identric and log orders themselves are tested above)
    mp = pytest.importorskip("mpmath")
    gaps = np.logspace(-9.0, 6.0, 46)
    rado, gini = _rado_mp, _gini_mp
    cases = [(f"rado:{b:g}", rado, b)
             for b in (-3.0, -1.001, -0.999, -1e-3, 1e-3, 0.5, 2.0, 2.5, 8.0)]
    cases += [("gini:3,3", gini, 3.0), ("gini:-2,-2", gini, -2.0)]
    with mp.workdps(50):
        for base in (1e-3, 1.0, 2.0, 1e3):
            lo = np.full_like(gaps, base)
            hi = base * (1.0 + gaps)
            for name, formula, p in cases:
                ref = np.array([float(formula(mp.mpf(p), mp.mpf(a), mp.mpf(b)))
                                for a, b in zip(lo, hi)])
                for x, y in ((lo, hi), (hi, lo)):
                    got = mean_values(spec(name), x, y)
                    rel = np.abs(got - ref) / ref
                    assert float(np.max(rel)) <= 1e-14, (name, base)


def test_rado_and_gini_kernels_at_wide_ratios_against_mpmath():
    # ratios where t^(b+1) itself leaves the float range at one argument
    # (rado:2 at (1e-150, 1) through 1e-150^3, rado:60 at (1e-3, 1e3), b < -1
    # at the small argument): the kernels stay finite and accurate.  For
    # b < -1 the value lies far from both arguments, and the rounding of the
    # exponent 1/b alone moves it by up to ln(hi/lo) ulps / |b|
    mp = pytest.importorskip("mpmath")
    pairs = [(1e-150, 1.0), (1e-3, 1e3), (1.0, 1e300), (1e-300, 1.0),
             (1e-200, 1e100), (1e-154, 1e154)]
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    cases = [(f"rado:{b:g}", _rado_mp, b, 1e-13 if b < -1.0 else 1e-14)
             for b in (-60.0, -3.0, -1.001, -0.999, -1e-3, 1e-3, 0.5, 2.0, 60.0)]
    cases += [(f"gini:{u:g},{u:g}", _gini_mp, u, 1e-14) for u in (-2.0, 0.5, 3.0)]
    with mp.workdps(50):
        for name, formula, p, bound in cases:
            ref = np.array([float(formula(mp.mpf(p), mp.mpf(a), mp.mpf(b)))
                            for a, b in pairs])
            for x, y in ((lo, hi), (hi, lo)):
                rel = np.abs(mean_values(spec(name), x, y) - ref) / ref
                assert float(np.max(rel)) <= bound, name


def test_rado_past_the_float_ratio_against_mpmath():
    # hi/lo and hi^c both past the float range (c = b + 1 > 0): the mean is
    # finite and the kernel computes it, on a 10^(+-300) grid in steps of 25
    mp = pytest.importorskip("mpmath")
    exps = range(-300, 301, 25)
    pairs = [(10.0 ** i, 10.0 ** j) for i in exps for j in exps if i < j]
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    with mp.workdps(60):
        for b in (-0.9, -0.5, -0.1, -1e-3, 1e-3, 0.5, 1.0, 2.0, 8.0, 60.0):
            ref = np.array([float(_rado_mp(mp.mpf(b), mp.mpf(x), mp.mpf(y)))
                            for x, y in pairs])
            for x, y in ((lo, hi), (hi, lo)):
                rel = np.abs(mean_values(spec(f"rado:{b!r}"), x, y) - ref) / ref
                assert float(np.max(rel)) <= 1e-15, b


def test_small_order_power_kernel_against_mpmath():
    # below |a| = 0.5 the power 1/a would magnify the rounding of the sum by
    # 1/|a| (8e-7 at a = 1e-10, 8e-3 at 1e-15); ratios 1 + 1e-9 .. e^20,
    # either order, and quasi:pow,a is the same kernel bit for bit
    mp = pytest.importorskip("mpmath")
    gaps = np.logspace(-9.0, math.log10(math.expm1(20.0)), 40)
    with mp.workdps(50):
        for a in (1e-15, 1e-10, 1e-8, 1e-4, 0.01, 0.1, 0.3, 0.49):
            for order in (a, -a):
                for base in (1e-3, 1.0, 2.0, 1e3):
                    lo = np.full_like(gaps, base)
                    hi = base * (1.0 + gaps)
                    ref = np.array([float(((mp.mpf(x) ** order + mp.mpf(y) ** order) / 2)
                                          ** (1 / mp.mpf(order))) for x, y in zip(lo, hi)])
                    for x, y in ((lo, hi), (hi, lo)):
                        got = mean_values(spec(f"power:{order!r}"), x, y)
                        assert np.array_equal(got, mean_values(spec(f"quasi:pow,{order!r}"), x, y))
                        assert float(np.max(np.abs(got - ref) / ref)) <= 4e-15, (order, base)


def _plain_gini_mp(mp, u, v, x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    return ((x ** u + y ** u) / (x ** v + y ** v)) ** (1 / mp.mpf(u - v))


@pytest.mark.parametrize("name, u, v, x, y", [
    ("power:2", 2, 0, 1e-200, 1e-200), ("power:-2", -2, 0, 1e-200, 1e-200),
    ("power:2", 2, 0, 1e200, 1e200), ("power:-2", -2, 0, 1e200, 1e200),
    ("lehmer:2", 3, 2, 1e200, 1e190), ("gini:3,-1", 3, -1, 1e150, 1e150)])
def test_plain_gini_quotient_at_the_float_edges(name, u, v, x, y):
    # the plain quotient underflowed (power:+-2 at 1e-200 printed 0.0 with
    # exit 0) or overflowed (exit 3); the answers are finite
    mp = pytest.importorskip("mpmath")
    from ineqmeans.cli import dispatch
    with mp.workdps(50):
        ref = float(_plain_gini_mp(mp, u, v, x, y))
    assert eval_mean(spec(name), x, y) == pytest.approx(ref, rel=4e-16, abs=0.0)
    result = dispatch(["means", "eval", "--spec", name, "--x", repr(x), "--y", repr(y)])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["value"] == eval_mean(spec(name), x, y)


@pytest.mark.parametrize("x, y", [([1e-200, 3e-170], [1e-200, 1e-170]),
                                  ([1e200, 1e-300, 1e300], [1e200, 1e300, 1e-300])])
def test_geometric_mean_where_the_product_leaves_the_floats_against_mpmath(x, y):
    # x y underflowed to 0, a mean below min(x, y), or overflowed to inf;
    # sqrt(x) sqrt(y) is within two roundings
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = [float(mp.sqrt(mp.mpf(a) * mp.mpf(b))) for a, b in zip(x, y)]
    assert mean_values(spec("power:0"), x, y) == pytest.approx(ref, rel=4e-16, abs=0.0)


def test_agm_where_the_geometric_product_overflows_against_mpmath():
    # the geometric step's x y overflowed and the gap went NaN
    # (ConvergenceError); the iteration now converges to the AGM
    from ineqmeans import agm
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = float(mp.agm(mp.mpf(1e-300), mp.mpf(1e300)))
    assert agm(1e-300, 1e300) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_geometric_mean_keeps_the_bits_of_the_plain_product_where_it_is_normal():
    # on a grid whose products are normal doubles, and beside one product
    # that overflows (the flagged route), the values are np.sqrt(x * y)
    exps = np.linspace(-150.0, 150.0, 61)
    x, y = np.meshgrid(1.7 * 10.0 ** exps, 10.0 ** exps / 3.1)
    want = np.sqrt(x * y)
    assert mean_values(spec("power:0"), x, y).tobytes() == want.tobytes()
    x[0, 0] = y[0, 0] = 1e300
    got = mean_values(spec("power:0"), x, y)
    assert got[0, 0] == pytest.approx(1e300, rel=4e-16, abs=0.0)
    assert got.ravel()[1:].tobytes() == want.ravel()[1:].tobytes()


def test_geometric_mean_eval_past_the_float_range_exits_0():
    from ineqmeans.cli import dispatch
    result = dispatch(["means", "eval", "--spec", "power:0", "--x", "1e200", "--y", "1e200"])
    assert result.exit_code == 0, result.stderr
    assert '"value": 1e+200' in result.stdout


def test_plain_gini_quotient_past_the_float_range_against_mpmath():
    # x^u, x^v or their quotient past the float range or in the subnormals,
    # on a 10^(+-300) grid in steps of 25: recomputed in homogeneous form.
    # Where 1/(u - v) or u/(u - v) is inexact, the rounding of that exponent
    # moves the value by up to ln(hi/lo) ulps / (u - v), as with Rado orders
    mp = pytest.importorskip("mpmath")
    exps = range(-300, 301, 25)
    pairs = [(10.0 ** i, 10.0 ** j) for i in exps for j in exps if i <= j]
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    cases = [("power:2", 2, 0, 5e-16), ("power:-2", -2, 0, 5e-16), ("power:-0.5", -0.5, 0, 5e-16),
             ("lehmer:2", 3, 2, 5e-16), ("lehmer:-3", -2, -3, 5e-16),
             ("gini:3,-1", 3, -1, 5e-16), ("gini:0.25,-0.25", 0.25, -0.25, 1e-15),
             ("power:7", 7, 0, 1e-14), ("gini:4,1", 4, 1, 2e-14), ("gini:2,-0.3", 2, -0.3, 2e-13)]
    with mp.workdps(60):
        for name, u, v, bound in cases:
            ref = np.array([float(_plain_gini_mp(mp, u, v, x, y)) for x, y in pairs])
            for x, y in ((lo, hi), (hi, lo)):
                rel = np.abs(mean_values(spec(name), x, y) - ref) / ref
                assert float(np.max(rel)) <= bound, name


def test_gini_near_equal_orders_against_mpmath():
    # same-sign orders closer than 0.5 take the log route, which loses nothing
    # as u - v -> 0 (the plain quotient was off by 2.7e-7 at gini:1,0.999999999
    # and 2.1e-6 at gini:1e-10,0); ratios 1 + 1e-9 .. 1 + 1e6, either order
    mp = pytest.importorskip("mpmath")
    gaps = np.logspace(-9.0, 6.0, 46)
    pairs = [(1.0, 0.999999999), (1e-8, 0.0), (1e-10, 0.0), (3.0, 2.999),
             (-3.0, -2.999), (0.001, 0.0), (0.0, -0.001)]
    with mp.workdps(50):
        for u, v in pairs:
            du = mp.mpf(u) - mp.mpf(v)
            for base in (1e-3, 1.0, 2.0, 1e3):
                lo = np.full_like(gaps, base)
                hi = base * (1.0 + gaps)
                ref = np.array([float(((mp.mpf(a) ** u + mp.mpf(b) ** u)
                                       / (mp.mpf(a) ** v + mp.mpf(b) ** v)) ** (1 / du))
                                for a, b in zip(lo, hi)])
                for x, y in ((lo, hi), (hi, lo)):
                    got = mean_values(spec(f"gini:{u!r},{v!r}"), x, y)
                    assert float(np.max(np.abs(got - ref) / ref)) <= 4e-15, (u, v, base)


def _gini_exact_mp(mp, u, v, x, y):
    # the exponent 1/(u - v) with u - v exact: rounded, it moves the value by
    # ln(M) (up to 690 at 1e-300) times its rounding
    x, y, u, v = mp.mpf(x), mp.mpf(y), mp.mpf(u), mp.mpf(v)
    return ((x ** u + y ** u) / (x ** v + y ** v)) ** (1 / (u - v))


def test_gini_opposite_orders_closer_than_half_against_mpmath():
    # opposite-sign orders closer than 0.5 take the log route too: the plain
    # quotient's exponent 1/(u - v) magnified its rounding (gini:1e-9,-1e-9
    # printed 2.4494899371764474 at (2, 3), 7.9e-8 off); ratios 1 + 1e-9 ..
    # 1 + 1e6 at magnitudes 1e-300 .. 1e300, either order
    mp = pytest.importorskip("mpmath")
    assert eval_mean(spec("gini:1e-9,-1e-9"), 2.0, 3.0) == pytest.approx(
        2.4494897427831781, rel=4e-15, abs=0.0)
    gaps = np.logspace(-9.0, 6.0, 46)
    pairs = [(1e-9, -1e-9), (2e-9, -1e-9), (-3e-9, 1e-9), (0.2, -0.2), (0.3, -0.1),
             (0.1, -0.3), (0.001, -0.4), (0.249, -0.25), (0.4, -1e-12)]
    with mp.workdps(50):
        for u, v in pairs:
            for base in (1e-300, 1e-3, 1.0, 2.0, 1e3, 1e300):
                lo = np.full_like(gaps, base)
                hi = base * (1.0 + gaps)
                ref = np.array([float(_gini_exact_mp(mp, u, v, a, b)) for a, b in zip(lo, hi)])
                for x, y in ((lo, hi), (hi, lo)):
                    got = mean_values(spec(f"gini:{u!r},{v!r}"), x, y)
                    assert float(np.max(np.abs(got - ref) / ref)) <= 4e-15, (u, v, base)


def test_gini_log_route_past_the_float_ratio_against_mpmath():
    # hi/lo past the float range, on a 10^(+-300) grid in steps of 25: lo/hi
    # underflows, but t^m need not (gini:2e-9,1e-9 gave 1e300 at (1e-300,
    # 1e300), where the mean is 1.0007), and t^v for v < 0 would overflow.
    # The log route's error grows like ln(hi/lo) ulps
    mp = pytest.importorskip("mpmath")
    exps = range(-300, 301, 25)
    pairs = [(10.0 ** i, 10.0 ** j) for i in exps for j in exps if i < j]
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    bound = 2.0 * np.finfo(float).eps * (np.log(hi) - np.log(lo))
    with mp.workdps(60):
        for u, v in ((1e-9, -1e-9), (0.2, -0.2), (0.1, -0.3), (0.001, -0.4),
                     (2e-9, 1e-9), (-1e-9, -2e-9), (1e-10, 0.0)):
            ref = np.array([float(_gini_exact_mp(mp, u, v, x, y)) for x, y in pairs])
            for x, y in ((lo, hi), (hi, lo)):
                rel = np.abs(mean_values(spec(f"gini:{u!r},{v!r}"), x, y) - ref) / ref
                assert (rel <= bound).all(), (u, v)
    # a zero argument: the limit 0 for v < 0
    zero = mean_values(spec("gini:0.2,-0.1"), np.array([0.0, 0.0, 3.0]), np.array([0.0, 4.0, 3.0]))
    assert zero.tolist() == [0.0, 0.0, 3.0]


def test_gini_scale_members_share_one_kernel():
    # power:a, gini:a,0 and quasi:pow,a are one evaluation, and so are
    # lehmer:u and gini:u+1,u, on the plain and the log route alike, at
    # zero and equal arguments too
    rng = make_rng(23)
    x = log_uniform(rng, size=2000)
    y = log_uniform(rng, size=2000)
    x[:100] = y[:100]
    x[100:150] = 0.0
    y[150:200] = 0.0
    for a in (3.0, 0.5, -0.7, 0.49, 1e-8, -0.3, -1e-300):
        power = mean_values(spec(f"power:{a!r}"), x, y)
        assert np.array_equal(power, mean_values(spec(f"gini:{a!r},0"), x, y)), a
        assert np.array_equal(power, mean_values(spec(f"quasi:pow,{a!r}"), x, y)), a
    for u in (1.0, 0.0, 2.5, -0.25):
        assert np.array_equal(mean_values(spec(f"lehmer:{u!r}"), x, y),
                              mean_values(spec(f"gini:{u + 1.0!r},{u!r}"), x, y)), u


def test_lehmer_orders_with_an_inexact_gap_against_mpmath():
    # for these orders (u + 1) - u is 1 -+ an ulp in doubles; the kernel takes
    # the power 1/((u + 1) - u) of the quotient, which cancels the rounding of
    # u + 1 in the numerator's exponent to first order (the bare quotient was
    # 2.2e-14 off here, at arguments near 1e20)
    mp = pytest.importorskip("mpmath")
    rng = make_rng(31)
    for u in (1.5973891463707857, 3.9122819049566204, 3.139860020343368):
        assert (u + 1.0) - u != 1.0
        for scale in (1e-20, 1.0, 1e20):
            x = scale * log_uniform(rng, 0.05, 20.0, size=100)
            y = scale * log_uniform(rng, 0.05, 20.0, size=100)
            with mp.workdps(50):
                c = mp.mpf(u) + 1
                ref = np.array([float((mp.mpf(a) ** c + mp.mpf(b) ** c)
                                      / (mp.mpf(a) ** u + mp.mpf(b) ** u)) for a, b in zip(x, y)])
            got = mean_values(spec(f"lehmer:{u!r}"), x, y)
            assert float(np.max(np.abs(got - ref) / ref)) <= 2e-15, (u, scale)


def test_weighted_geometric_is_exact_at_equal_arguments():
    # x (y/x)^b is x at x = y (x^a y^b gave 1.9999999999999998 at (2, 2));
    # zero arguments and ratios past the float range keep x^a y^b's values
    s = spec("wgeom:0.75,0.25")
    rng = make_rng(29)
    x = log_uniform(rng, 1e-300, 1e300, size=1000)
    assert np.array_equal(mean_values(s, x, x), x)
    assert eval_mean(s, 2.0, 2.0) == 2.0
    assert eval_mean(s, 0.0, 3.0) == 0.0 and eval_mean(s, 3.0, 0.0) == 0.0
    assert eval_mean(spec("wgeom:0,1"), 0.0, 3.0) == 3.0
    assert eval_mean(spec("wgeom:1,0"), 3.0, 0.0) == 3.0
    for a, b in ((1e-300, 1e300), (1e300, 1e-300), (1e300, 1e-10), (1e-320, 1.0)):
        assert eval_mean(s, a, b) == pytest.approx(a ** 0.75 * b ** 0.25, rel=1e-15)


def test_subnormal_orders_give_the_order_zero_mean():
    # a subnormal order would put a L into the subnormal range; the kernels
    # give the geometric and identric means, as they do for 1e-300
    for order in ("1e-320", "-1e-320", "5e-324", "1e-300"):
        assert eval_mean(spec("power:" + order), 2.0, 3.0) == eval_mean(spec("power:0"), 2.0, 3.0)
        assert eval_mean(spec("rado:" + order), 2.0, 3.0) == eval_mean(spec("rado:0"), 2.0, 3.0)


def test_quasi_pow_is_the_power_mean():
    rng = make_rng(17)
    x = log_uniform(rng, size=1000)
    y = log_uniform(rng, size=1000)
    for p in (-3.0, -1.0, -0.5, 0.5, 2.0, 3.0, 7.5, math.inf, -math.inf):
        assert np.array_equal(mean_values(spec(f"quasi:pow,{p!r}"), x, y),
                              mean_values(spec(f"power:{p!r}"), x, y)), p


def test_iterated_mean_is_elementwise():
    # each element stops at its own gap: a wide pair beside it, which needs
    # more steps, moves no value, and a lone pair gives its in-array value
    rng = make_rng(5)
    x = log_uniform(rng, size=200_000)
    y = x * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, size=x.size))
    s = spec("iter:power:3|power:0")
    alone = mean_values(s, x, y)
    beside = mean_values(s, np.append(x, 1e-3), np.append(y, 1e3))
    assert np.array_equal(alone, beside[:-1])
    for i in rng.integers(0, x.size, size=50):
        assert mean_values(s, x[i:i + 1], y[i:i + 1])[0] == alone[i]


@pytest.mark.parametrize("name", ["iter:warith:0.5,0.5|power:0", "iter:power:0|warith:0.5,0.5",
                                  "iter:power:3|power:0"])
def test_iterated_mean_at_a_zero_argument(name):
    # a pair with a zero argument is judged by its gap on its starting
    # scale, so it converges to the limit 0; the positive pairs beside it
    # keep their values to the last bit
    rng = make_rng(5)
    x = log_uniform(rng, size=2000)
    y = x * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=x.size))
    s = spec(name)
    alone = mean_values(s, x, y)
    beside = mean_values(s, np.append(x, [0.0, 3.0, 0.0]), np.append(y, [3.0, 0.0, 0.0]))
    assert np.array_equal(alone, beside[:-3])
    assert (0.0 <= beside[-3:]).all() and (beside[-3:] <= ITERATED_EVAL_TOL * 3.0).all()
    assert beside[-1] == 0.0
    assert 0.0 <= eval_mean(s, 0.0, 3.0) <= ITERATED_EVAL_TOL * 3.0


@pytest.mark.parametrize("name, x, y, limit", [
    ("iter:power:0.01|power:0.02", 0.0, 3.0, 7.335017111032747e-22),
    ("iter:power:0.01|power:0.02", 3.0, 0.0, 7.335017111032747e-22),
    ("iter:power:0.05|power:0.1", 0.0, 3.0, 0.0001428161199876327),
    ("iter:power:0.05|power:0.1", 0.0, 1.0, 4.7605373329210905e-05)])
def test_iterated_mean_at_a_zero_argument_with_a_small_positive_limit(name, x, y, limit):
    # both sides are positive after one step, so the gap goes back to the
    # relative one: judged on the starting scale, (0, 3) would stop at
    # ~1e-15, six orders above the limit 7.3e-22 (the values are those of
    # the plain relative gap, which converged on these pairs)
    assert mean_values(spec(name), np.array([x]), np.array([y]))[0] == limit
    assert eval_mean(spec(name), x, y) == limit


@pytest.mark.parametrize("name", ["iter:min|max", "iter:max|min", "iter:power:-inf|power:inf"])
def test_a_stationary_iterated_pair_has_no_limit(name):
    # min and max leave (1, 2) where it is (max|min after one swap): this ran
    # all 200 steps and then reported a convergence failure; at x = y the
    # gap is 0 and the value stands
    with pytest.raises(DomainError, match="stationary .* no common limit"):
        mean_values(spec(name), np.array([1.5, 1.0]), np.array([1.5, 2.0]))
    with pytest.raises(DomainError, match="stationary"):
        eval_mean(spec(name), 1.0, 2.0)
    assert eval_mean(spec(name), 2.0, 2.0) == 2.0


def test_an_iterated_mean_of_empty_arrays_is_empty():
    # the loop's largest gap starts from 0 (np.max of nothing raised ValueError)
    assert mean_values(spec("iter:power:0|power:1"), np.array([]), np.array([])).shape == (0,)


def _limit(m, n, x, y):
    return coupled_limit(m, n, x, y, ITERATED_EVAL_TOL, ITERATED_CAP)


@pytest.mark.parametrize("pair", [("warith:0.5,0.5", "power:0"), ("power:0", "warith:0.5,0.5")])
def test_coupled_limit_matches_each_pair_alone(pair):
    # stops at steps 1-7 side by side, x = y pairs (step 0) and zero-argument
    # pairs (about 47 steps): each value is bit for bit the pair's own, the
    # step count that of the slowest pair and the gap the largest stop gap
    m, n = spec(pair[0]), spec(pair[1])
    rng = make_rng(26)
    x = log_uniform(rng, size=1900)
    y = x * (1.0 + 10.0 ** rng.uniform(-10.0, 6.0, size=x.size))
    z = log_uniform(rng, size=50)
    x = np.concatenate([x, z, np.zeros(25), z[:25]])
    y = np.concatenate([y, z, z[25:], np.zeros(25)])
    order = rng.permutation(x.size)
    x, y = x[order], y[order]
    alone = [_limit(m, n, x[i:i + 1], y[i:i + 1]) for i in range(x.size)]
    steps = {a[1] for a in alone}
    assert set(range(8)) <= steps and max(steps) > 40
    values, iterations, gap = _limit(m, n, x, y)
    assert np.array_equal(values, np.concatenate([a[0] for a in alone]))
    assert iterations == max(a[1] for a in alone)
    assert gap == max(a[2] for a in alone)


def test_coupled_limit_nan_pair_fails_alike_alone_and_in_an_array():
    m, n = spec("warith:0.5,0.5"), spec("power:0")
    x = log_uniform(make_rng(3), size=300)
    with pytest.raises(ConvergenceError) as alone:
        _limit(m, n, np.array([np.nan]), np.array([2.0]))
    with pytest.raises(ConvergenceError) as beside:
        _limit(m, n, np.append(x, np.nan), np.append(2.0 * x, 2.0))
    assert str(alone.value) == str(beside.value)
    assert "200 steps (gap nan > tol" in str(alone.value)


@pytest.mark.parametrize("stuck", [1, 150])
def test_a_stationary_pair_is_named_after_stopped_pairs(stuck):
    # 100 x = y pairs stop at once and are fixed points of min and max too;
    # the error names the first open pair that does not move, whether the
    # stopped pairs were dropped (1 open pair) or still step beside 150
    s = spec("iter:min|max")
    v = np.arange(1.0, 101.0)
    x = np.concatenate([v, 1.0 + np.arange(stuck)])
    y = np.concatenate([v, 2.0 + np.arange(stuck)])
    with pytest.raises(DomainError, match=r"stationary at \(1\.0, 2\.0\) with gap 5\.000e-01 >"):
        mean_values(s, x, y)
    with pytest.raises(DomainError, match=r"stationary at \(1\.0, 2\.0\) with gap 5\.000e-01 >"):
        coupled_limit(s.inner[0], s.inner[1], x, y, 0, ITERATED_CAP)  # an int tol


def test_a_stopped_pair_that_moves_apart_is_not_an_open_gap(monkeypatch):
    # stopped pairs keep stepping beside the open ones; made to move apart
    # past the open gaps, the one stopped at (1, 1) must not set the largest
    # open gap that the cap reports
    from ineqmeans import means

    def step(spec, x, y):
        return x if spec is m else y + (x == y)

    monkeypatch.setattr(means, "mean_values", step)
    m, n = spec("min"), spec("max")
    with pytest.raises(ConvergenceError, match=r"in 1 steps \(gap 3\.333e-01 > tol"):
        coupled_limit(m, n, np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.5, 3.0]), 1e-14, 1)


def test_coupled_limit_keeps_the_broadcast_shape():
    m, n = spec("warith:0.5,0.5"), spec("power:0")
    x = log_uniform(make_rng(4), size=6)
    y = x * np.array([1.0, 1.0 + 1e-9, 2.0, 1e3, 1.0, 5.0])
    scalar = _limit(m, n, 1.0, 2.0)[0]
    assert np.ndim(scalar) == 0 and 1.0 < scalar < 2.0
    line = _limit(m, n, x, y)[0]
    assert line.shape == (6,)
    grid = _limit(m, n, np.stack([x, y]), np.stack([y, x]))[0]
    assert grid.shape == (2, 6) and np.array_equal(grid[0], line) and np.array_equal(grid[1], line)
    against = _limit(m, n, x, np.array([2.0]))[0]
    assert against.shape == (6,)
    assert np.array_equal(against, _limit(m, n, x, np.full(6, 2.0))[0])
    assert np.array_equal(_limit(m, n, x, 2.0)[0], against)


def test_scalar_evaluation_agrees_with_arrays():
    # eval_mean and conjugate_eval give the value the pair has inside an
    # array, to the last bit, for every catalog mean (numpy's 0-d power, for
    # one, differs from its array loop by an ulp on some of these pairs)
    rng = make_rng(5)
    x = log_uniform(rng, size=2000)
    y = x * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, size=x.size))
    extra = [spec("power:3"), spec("iter:power:3|power:0")]
    for s in full_catalog() + extra:
        m = mean_values(s, x, y)
        pairs = list(zip(x.tolist(), y.tolist()))
        assert [eval_mean(s, a, b) for a, b in pairs] == m.tolist(), s
        # M* = xy / M adds one division; a quarter of the pairs covers it
        conj = (x[:500] * y[:500] / m[:500]).tolist()
        assert [conjugate_eval(s, a, b) for a, b in pairs[:500]] == conj, s


def test_zero_argument_limits():
    assert eval_mean(spec("power:-2"), 0.0, 3.0) == 0.0
    assert eval_mean(spec("rado:-3"), 0.0, 3.0) == 0.0
    assert eval_mean(spec("identric"), 0.0, 3.0) == pytest.approx(3.0 / math.e, rel=1e-13)


@pytest.mark.parametrize("name", ["lehmer:1", "lehmer:0.25", "gini:2,1", "gini:3,0.5",
                                  "gini:0.75,0.5", "power:2"])
def test_both_arguments_zero_give_zero(name):
    # the plain Gini quotient is 0/0 there for v > 0; the limit is 0, with no
    # floating-point warning, and the other elements keep their values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_mean(spec(name), 0.0, 0.0) == 0.0
        x, y = np.array([0.0, 0.0, 2.0, 1.0]), np.array([0.0, 3.0, 0.0, 4.0])
        got = mean_values(spec(name), x, y)
    assert got[0] == 0.0
    assert np.array_equal(got[1:], mean_values(spec(name), x[1:], y[1:]))


def test_positivity_required_families_raise_on_zero():
    for name in ("log", "lehmer:-1", "gini:-1,2", "quasi:ln"):
        with pytest.raises(DomainError):
            eval_mean(spec(name), 0.0, 1.0)


def test_negative_arguments_rejected():
    with pytest.raises(DomainError):
        eval_mean(spec("power:1"), -1.0, 2.0)


def test_quasi_generators():
    assert eval_mean(spec("quasi:id"), 3.0, 5.0) == pytest.approx(4.0)
    assert eval_mean(spec("quasi:ln"), 4.0, 9.0) == pytest.approx(6.0)
    assert eval_mean(spec("quasi:pow,2"), 1.0, 7.0) == pytest.approx(
        math.sqrt((1.0 + 49.0) / 2.0))
    # log-sum-exp form stays finite for large arguments
    assert eval_mean(spec("quasi:exp"), 900.0, 1000.0) == pytest.approx(
        1000.0 + math.log((1.0 + math.exp(-100.0)) / 2.0), rel=1e-12)


def test_gini_and_lehmer_slices():
    x, y = 2.0, 3.0
    assert eval_mean(spec("lehmer:1"), x, y) == pytest.approx(
        (x ** 2 + y ** 2) / (x + y), rel=1e-15)
    # Lehmer_u is the Gini (u+1, u) slice
    assert eval_mean(spec("lehmer:1"), x, y) == pytest.approx(
        eval_mean(spec("gini:2,1"), x, y), rel=1e-14)
    assert eval_mean(spec("gini:0,0"), 4.0, 9.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_of_power_two_is_power_minus_two():
    assert conjugate_eval(spec("power:2"), 3.0, 4.0) == pytest.approx(
        eval_mean(spec("power:-2"), 3.0, 4.0), rel=1e-14)


def test_conjugate_of_min_is_max():
    assert conjugate_eval(spec("min"), 2.0, 8.0) == pytest.approx(8.0)


def test_conjugate_of_weighted_geometric_swaps_weights():
    rng = make_rng(5)
    xs = log_uniform(rng, size=100)
    ys = log_uniform(rng, size=100)
    lhs = xs * ys / mean_values(spec("wgeom:0.7,0.3"), xs, ys)
    rhs = mean_values(spec("wgeom:0.3,0.7"), xs, ys)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_conjugation_is_an_involution():
    rng = make_rng(17)
    xs = log_uniform(rng, size=200)
    ys = log_uniform(rng, size=200)
    for sp in chain_catalog():
        m = mean_values(sp, xs, ys)
        conj = xs * ys / m
        again = xs * ys / conj
        assert np.allclose(again, m, rtol=1e-12), sp.to_string()


def test_conjugate_from_mean_equals_the_masked_divide_bit_for_bit():
    # the plain divide is zeroed wherever xy > 0 fails, as np.divide with
    # where=xy > 0 leaves it: zero, -0.0 and NaN products (an underflowed
    # product takes x (y/m): test_conjugate_outside_the_product_range)
    rng = make_rng(29)
    xs = np.concatenate([log_uniform(rng, size=500), [0.0, -0.0, math.nan, 0.0]])
    ys = np.concatenate([log_uniform(rng, size=500), [3.0, 3.0, 1.0, 0.0]])
    for sp in full_catalog():
        m = np.concatenate([mean_values(sp, xs[:500], ys[:500]), [0.0, 0.0, math.nan, 0.0]])
        xy = xs * ys
        masked = np.zeros_like(xy)
        np.divide(xy, m, out=masked, where=xy > 0)
        assert conjugate_from_mean(xs, ys, m).tobytes() == masked.tobytes(), sp.to_string()
    for x, y, mi, want in zip(xs[-4:], ys[-4:], m[-4:], masked[-4:]):  # 0-d, as cde_check
        got = conjugate_from_mean(np.asarray(x), np.asarray(y), np.asarray(mi))
        assert got.shape == () and got.tobytes() == want.tobytes()


def test_conjugate_outside_the_product_range():
    # xy overflowed to inf or flushed to 0 where M* = x at x = y; the
    # flagged elements take x (y/m), with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conjugate_eval(spec("power:1"), 1e200, 1e200) == 1e200
        assert conjugate_eval(spec("power:0"), 1e-200, 1e-200) == 1e-200
        got = conjugate_values(spec("power:2"), [1e200, 3.0], [1e200, 4.0])
        assert got[0] == 1e200
        assert got[1] == 12.0 / eval_mean(spec("power:2"), 3.0, 4.0)
        for sp in chain_catalog():
            for v in (1e-300, 1e-160, 1e160, 1e300):
                assert conjugate_eval(sp, v, v) == pytest.approx(v, rel=4e-16, abs=0.0), (sp, v)
        # zero and NaN arguments still give 0 beside a flagged product
        xs = np.array([1e-200, 0.0, -0.0, math.nan, 2.0])
        ys = np.array([1e-200, 3.0, 3.0, 1.0, 5e-324])
        m = np.array([1e-200, 0.0, 0.0, math.nan, mean_values(spec("power:0"), 2.0, 5e-324)])
        got = conjugate_from_mean(xs, ys, m)
        assert got[:4].tolist() == [1e-200, 0.0, 0.0, 0.0]
        assert got[4] == pytest.approx(math.sqrt(2.0 * 5e-324), rel=1e-15, abs=0.0)


def test_conjugate_keeps_the_bits_of_the_plain_divide_where_the_product_is_normal():
    # on a grid whose products are normal doubles, and beside one product
    # that overflows (the flagged route), the values are x * y / m
    exps = np.linspace(-150.0, 150.0, 61)
    x, y = np.meshgrid(1.7 * 10.0 ** exps, 10.0 ** exps / 3.1)
    for sp in chain_catalog():
        m = mean_values(sp, x, y)
        want = x * y / m
        assert conjugate_from_mean(x, y, m).tobytes() == want.tobytes(), sp.to_string()
        u, v = x.copy(), y.copy()
        u[0, 0] = v[0, 0] = 1e300
        got = conjugate_values(sp, u, v)
        assert got[0, 0] == pytest.approx(1e300, rel=4e-16, abs=0.0), sp.to_string()
        assert got.ravel()[1:].tobytes() == want.ravel()[1:].tobytes(), sp.to_string()


def test_conjugate_requires_positive_arguments():
    with pytest.raises(DomainError):
        conjugate_eval(spec("power:1"), 0.0, 1.0)


def test_rado_reciprocal_form_equals_conjugate():
    # the reciprocal-argument form 1/R_beta(1/x, 1/y) coincides with the
    # conjugate xy/R_beta(x, y) identically (clearing (xy)^(beta+1) from the
    # divided difference shows R_beta(1/x, 1/y) = R_beta(x, y)/(xy))
    rng = make_rng(43)
    xs = log_uniform(rng, size=200)
    ys = log_uniform(rng, size=200)
    for name in ("rado:-3", "rado:-1", "rado:0", "rado:0.5", "rado:2"):
        sp = parse_mean(name)
        reciprocal = 1.0 / mean_values(sp, 1.0 / xs, 1.0 / ys)
        conj = xs * ys / mean_values(sp, xs, ys)
        assert np.allclose(reciprocal, conj, rtol=1e-11), name


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_axioms_power_two_all_pass():
    report = check_axioms(spec("power:2"), 1000, seed=42)
    assert report.all_passed
    assert report.samples_used == 1000


def test_axioms_weighted_geometric_fails_symmetry_only():
    report = check_axioms(spec("wgeom:0.7,0.3"), 1000, seed=42)
    assert report.symmetry.status == "fail"
    assert report.symmetry.witness is not None
    x, y, _ = report.symmetry.witness
    sp = spec("wgeom:0.7,0.3")
    assert eval_mean(sp, x, y) != pytest.approx(eval_mean(sp, y, x), rel=1e-10)
    for check in (report.unbiasedness, report.homogeneity, report.monotonicity,
                  report.intermediacy):
        assert check.status == "pass"


def test_axioms_monotone_gini_member_all_passes():
    report = check_axioms(spec("gini:0.25,-0.25"), 1000, seed=7)
    assert report.all_passed


def test_axioms_contraharmonic_fails_monotonicity():
    # Direct evaluation refutes monotonicity for gini:2,1 (the contraharmonic
    # mean): C(1, 0) = 1 but C(1, 0.5) = 5/6, so increasing the second
    # argument can decrease the mean.  See notes/decisions.md.
    assert eval_mean(spec("gini:2,1"), 1.0, 0.5) < eval_mean(spec("gini:2,1"), 1.0, 0.25)
    report = check_axioms(spec("gini:2,1"), 1000, seed=7)
    assert report.monotonicity.status == "fail"
    for check in (report.unbiasedness, report.homogeneity, report.symmetry,
                  report.intermediacy):
        assert check.status == "pass"


def test_axioms_witness_reproducible_from_seed():
    r1 = check_axioms(spec("wgeom:0.7,0.3"), 500, seed=99)
    r2 = check_axioms(spec("wgeom:0.7,0.3"), 500, seed=99)
    assert r1 == r2


def test_axioms_quasi_exp_fails_homogeneity():
    report = check_axioms(spec("quasi:exp"), 300, seed=3)
    assert report.homogeneity.status == "fail"
    assert report.unbiasedness.status == "pass"


# ---------------------------------------------------------------------------
# h-function representation
# ---------------------------------------------------------------------------

def test_h_at_zero_is_half_for_symmetric_means():
    for sp in full_catalog():
        if sp.is_symmetric():
            assert h_of(sp, 0.0) == pytest.approx(0.5, rel=1e-12), sp.to_string()


def test_arithmetic_mean_has_constant_h():
    for t in (-3.0, -0.5, 0.0, 1.0, 4.0):
        assert h_of(spec("power:1"), t) == pytest.approx(0.5, rel=1e-14)


def test_h_of_min_at_two():
    assert h_of(spec("min"), 2.0) == pytest.approx(1.0 / (1.0 + math.e ** 2), rel=1e-14)


def test_h_conditions_geometric_mean_clean():
    check = check_h_conditions(spec("power:0"), [0.0, 0.5, 1.0, 2.0])
    assert check.ok
    assert check.h0_value == pytest.approx(0.5, rel=1e-13)
    assert check.ratio_violations == ()


def test_h_conditions_arithmetic_mean_clean():
    assert check_h_conditions(spec("power:1"), [0.0, 0.5, 1.0, 2.0]).ok


def test_h_conditions_min_max_sit_on_the_boundary():
    assert check_h_conditions(spec("min"), [0.0, 0.5, 1.0, 2.0]).ok
    assert check_h_conditions(spec("max"), [0.0, 0.5, 1.0, 2.0]).ok


def test_h_constant_one_is_not_a_mean():
    check = check_h_function(lambda t: 1.0, [0.0, 0.5, 1.0, 2.0])
    assert not check.ok
    assert check.h0_value == pytest.approx(1.0)


def test_h_grid_must_be_ascending_nonnegative():
    with pytest.raises(ParameterError):
        check_h_conditions(spec("power:0"), [1.0, 0.5])
    with pytest.raises(ParameterError):
        check_h_conditions(spec("power:0"), [-1.0, 0.5])


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_zero_at_unit_point():
    assert entropy(spec("wgeom:0.5,0.5"), 1.0, 1.0) == 0.0


def test_entropy_weighted_geometric_is_shannon():
    rng = make_rng(23)
    for _ in range(100):
        p1 = float(rng.uniform(0.05, 0.95))
        p2 = 1.0 - p1
        x, y = (float(v) for v in log_uniform(rng, size=2))
        sp = parse_mean(f"wgeom:{p1!r},{p2!r}")
        assert entropy(sp, x, y) == pytest.approx(-p1 * math.log(x) - p2 * math.log(y),
                                                  rel=1e-10, abs=1e-12)


def test_entropy_inverts_to_the_mean():
    rng = make_rng(29)
    for sp in ("power:2", "gini:2,1", "log"):
        for _ in range(30):
            x, y = (float(v) for v in log_uniform(rng, size=2))
            assert math.exp(-entropy(spec(sp), x, y)) == pytest.approx(
                eval_mean(spec(sp), x, y), rel=1e-12)


# ---------------------------------------------------------------------------
# Rado-scale power bounds (two-sided, exact orders)
# ---------------------------------------------------------------------------

def test_logarithmic_mean_orders():
    lo, hi = rado_power_bound_orders(-1.0)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_identric_limit_orders():
    lo, hi = rado_power_bound_orders(0.0)
    assert lo == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert hi == pytest.approx(math.log(2.0), rel=1e-15)


def test_deep_negative_regime_orders():
    lo, hi = rado_power_bound_orders(-3.0)
    assert lo == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert hi == 0.0


def test_regime_boundaries_are_continuous():
    ln2 = math.log(2.0)
    # beta = -2: (beta+2)/3 meets 0 from both sides
    assert rado_power_bound_orders(-2.0) == (0.0, 0.0)
    # beta = -1/2: both orders collapse to 1/2 (the coincidence M_1/2 = R_-1/2)
    lo, hi = rado_power_bound_orders(-0.5)
    assert lo == pytest.approx(0.5, rel=1e-14)
    assert hi == pytest.approx(0.5, rel=1e-14)
    # beta = 1: both orders collapse to 1 (R_1 = M_1)
    lo, hi = rado_power_bound_orders(1.0)
    assert lo == pytest.approx(1.0, rel=1e-14)
    assert hi == pytest.approx(1.0, rel=1e-14)
    # (near beta = -1 the log-order formula approaches 0 only at a
    # logarithmic rate, so the numeric probe is run at the other boundaries)
    for b in (-2.0, -0.5, 1.0):
        below = rado_power_bound_orders(b - 1e-9)
        above = rado_power_bound_orders(b + 1e-9)
        assert below[0] == pytest.approx(above[0], abs=1e-7)
        assert below[1] == pytest.approx(above[1], abs=1e-7)
    assert rado_power_bound_orders(-math.inf) == (-math.inf, 0.0)
    assert rado_power_bound_orders(math.inf) == (math.inf, math.inf)
    assert rado_power_bound_orders(5.0) == (5.0 * ln2 / math.log(6.0), 7.0 / 3.0)


def test_theorem_sandwich_on_beta_grid():
    rng = make_rng(101)
    xs = log_uniform(rng, size=1000)
    ys = log_uniform(rng, size=1000)
    for b in np.arange(-5.0, 5.01, 0.5):
        b = float(b)
        lo, hi = rado_power_bound_orders(b)
        r = mean_values(parse_mean(f"rado:{b!r}"), xs, ys)
        m_lo = mean_values(parse_mean(f"power:{lo!r}"), xs, ys)
        m_hi = mean_values(parse_mean(f"power:{hi!r}"), xs, ys)
        scale = np.maximum(r, 1e-300)
        assert float(np.min((r - m_lo) / scale)) >= -1e-12, f"beta={b}"
        assert float(np.min((m_hi - r) / scale)) >= -1e-12, f"beta={b}"


# ---------------------------------------------------------------------------
# mediant
# ---------------------------------------------------------------------------

def test_mediant_examples():
    assert mediant(1, 2, 1, 2) == (2, 4)
    assert mediant(1, 3, 2, 5) == (3, 8)


def test_mediant_lies_between_the_fractions():
    rng = make_rng(31)
    for _ in range(100):
        p1, p2 = (int(v) for v in rng.integers(-50, 50, size=2))
        q1, q2 = (int(v) for v in rng.integers(1, 50, size=2))
        mp_, mq = mediant(p1, q1, p2, q2)
        lo = min(p1 / q1, p2 / q2)
        hi = max(p1 / q1, p2 / q2)
        assert lo - 1e-12 <= mp_ / mq <= hi + 1e-12


def test_mediant_rejects_nonpositive_denominators():
    with pytest.raises(ParameterError):
        mediant(1, 0, 1, 2)


# ---------------------------------------------------------------------------
# scale invariants
# ---------------------------------------------------------------------------

def test_intermediacy_everywhere():
    rng = make_rng(211)
    xs = log_uniform(rng, size=100_000)
    ys = log_uniform(rng, size=100_000)
    lo = np.minimum(xs, ys)
    hi = np.maximum(xs, ys)
    for sp in full_catalog():
        m = mean_values(sp, xs, ys)
        viol = np.maximum(lo - m, m - hi) / hi
        assert float(np.max(viol)) <= 1e-12, sp.to_string()


def test_power_scale_is_monotone_in_the_order():
    rng = make_rng(61)
    xs = log_uniform(rng, size=2000)
    ys = log_uniform(rng, size=2000)
    orders = [-math.inf, -3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, math.inf]
    vals = [mean_values(parse_mean(f"power:{a!r}"), xs, ys) for a in orders]
    for lower, upper in zip(vals, vals[1:]):
        assert float(np.min(upper - lower)) >= -1e-12 * float(np.max(upper))


def test_rado_scale_is_monotone_in_the_order():
    rng = make_rng(67)
    xs = log_uniform(rng, size=2000)
    ys = log_uniform(rng, size=2000)
    orders = [-math.inf, -4.0, -2.0, -1.0, 0.0, 0.5, 1.0, 3.0, math.inf]
    vals = [mean_values(parse_mean(f"rado:{a!r}"), xs, ys) for a in orders]
    for lower, upper in zip(vals, vals[1:]):
        assert float(np.min(upper - lower)) >= -1e-12 * float(np.max(upper))


def test_power_rado_coincidence_points():
    # The five coincidences of the two scales.  Note: M_1/2 meets the Rado
    # scale at order -1/2 (the beta = -1/2 regime boundary, where Theorem 4's
    # two orders collapse to 1/2), not at +1/2.
    rng = make_rng(71)
    xs = log_uniform(rng, size=500)
    ys = log_uniform(rng, size=500)
    pairs = [("power:-inf", "rado:-inf"), ("power:0", "rado:-2"),
             ("power:0.5", "rado:-0.5"), ("power:1", "rado:1"),
             ("power:inf", "rado:inf")]
    for pname, rname in pairs:
        pm = mean_values(parse_mean(pname), xs, ys)
        rm = mean_values(parse_mean(rname), xs, ys)
        assert np.allclose(pm, rm, rtol=1e-10), (pname, rname)


def test_log_mean_bound_through_composed_means():
    # L(M_1/2, M_0) <= L <= L(M_1, M_0) with best possible orders
    rng = make_rng(73)
    xs = log_uniform(rng, size=2000)
    ys = log_uniform(rng, size=2000)
    log_spec = spec("log")
    l_direct = mean_values(log_spec, xs, ys)
    m_half = mean_values(spec("power:0.5"), xs, ys)
    m_zero = mean_values(spec("power:0"), xs, ys)
    m_one = mean_values(spec("power:1"), xs, ys)
    lower = mean_values(log_spec, m_half, m_zero)
    upper = mean_values(log_spec, m_one, m_zero)
    scale = np.maximum(l_direct, 1e-300)
    assert float(np.min((l_direct - lower) / scale)) >= -1e-12
    assert float(np.min((upper - l_direct) / scale)) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e-3, 1e3), y=st.floats(1e-3, 1e3), lam=st.floats(1e-2, 1e2))
def test_homogeneity_property(x, y, lam):
    for name in ("power:2", "gini:2,1", "rado:-1"):
        sp = parse_mean(name)
        assert eval_mean(sp, lam * x, lam * y) == pytest.approx(
            lam * eval_mean(sp, x, y), rel=1e-10)
