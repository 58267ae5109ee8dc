import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ineqmeans import (ChainKind, DomainError, MeanFamily, OrderVerdict, ParameterError,
                       Relation, Witness, chain_catalog, compare_generalizations,
                       general_h_chain, integral_logderiv_chain, integral_mean_chain,
                       logderiv_phi1, mean_values, parse_function, parse_mean,
                       product_identity_check)
from ineqmeans import integral
from ineqmeans.functions import FunctionSpec
from ineqmeans.integral import (_find_kinks, _logderiv_integrand, _logderiv_mean,
                                _PiecewiseAntiderivative, _sample_function, _tabulate_segment)
from ineqmeans.means import conjugate_from_mean
from ineqmeans.quadrature import (CubicHermite, composite_simpson, cumulative_simpson,
                                  quadrature, simpson_nodes)
from ineqmeans.reports import chain_report
from ineqmeans.sampling import make_rng, spawn_rng
from test_acceptance import _increasing_pair, _suitable_pair

T_LIN = parse_function("pow:1")
ONE_MINUS_T = parse_function("affine:1,-1")
EXP1 = parse_function("exp:1")
EXP2 = parse_function("exp:2")


# ---------------------------------------------------------------------------
# mean-form chain
# ---------------------------------------------------------------------------

def test_envelope_example_exact_rationals():
    report = integral_mean_chain(T_LIN, ONE_MINUS_T, 0.0, 1.0, parse_mean("power:inf"))
    assert report.left == pytest.approx(1.0 / 36.0, rel=1e-10)
    assert report.middle == pytest.approx(7.0 / 144.0, rel=1e-10)
    assert report.right == pytest.approx(1.0 / 9.0, rel=1e-10)
    assert report.left < report.middle < report.right


def test_equal_functions_collapse():
    report = integral_mean_chain(EXP1, EXP1, 0.0, 1.0, parse_mean("gini:0.25,-0.25"))
    assert report.left == pytest.approx(report.middle, rel=1e-12)
    assert report.middle == pytest.approx(report.right, rel=1e-12)


def test_rado_logarithmic_chain_against_riemann_oracle():
    # Corollary-style chain with the logarithmic mean on f = 1+t, g = 2-t;
    # oracle: fine-grid midpoint Riemann sums, fully independent of the
    # adaptive quadrature code path.
    f = parse_function("affine:1,1")
    g = parse_function("affine:2,-1")
    spec = parse_mean("rado:-1")
    report = integral_mean_chain(f, g, 0.0, 1.0, spec)

    n = 400_000
    t = (np.arange(n) + 0.5) / n
    fv = 1.0 + t
    gv = 2.0 - t
    log_mean = np.where(np.isclose(fv, gv), fv, (fv - gv) / (np.log(fv) - np.log(gv)))
    conj = fv * gv / log_mean
    left = (fv * gv).mean() ** 2
    middle = (log_mean ** 2).mean() * (conj ** 2).mean()
    right = (fv ** 2).mean() * (gv ** 2).mean()
    assert report.left == pytest.approx(left, rel=1e-8)
    assert report.middle == pytest.approx(middle, rel=1e-8)
    assert report.right == pytest.approx(right, rel=1e-8)
    assert report.slack_left >= -1e-10 * report.scale
    assert report.slack_right >= -1e-10 * report.scale


def test_mean_chain_holds_for_every_catalog_mean():
    from ineqmeans import chain_catalog
    from ineqmeans.integral import _sample_function
    from ineqmeans.sampling import spawn_rng
    for mi, spec in enumerate(chain_catalog()):
        for i in range(50):
            rng = spawn_rng(4040 + mi, i)
            f = _sample_function(rng)
            g = _sample_function(rng)
            report = integral_mean_chain(f, g, 0.0, 1.0, spec, tol=1e-9)
            assert report.slack_left >= -1e-8 * report.scale, spec.to_string()
            assert report.slack_right >= -1e-8 * report.scale, spec.to_string()


def _log_mean(x, y):
    return x if x == y else (x - y) / (math.log(x) - math.log(y))


MIDDLE_ORACLE_CASES = (
    # the logarithmic mean: integrated one by one, the int M^2 term was
    # falsely accepted on coarse intervals and came out 1.4e-7 relative off
    ("rado:-1", "poly:0.305239,7.77948,0.333982", "affine:0.603687,0.30396", 2.0, _log_mean),
    # max kinks where f and g cross, at 0.37523, just past the dyadic point
    # 0.375: unsplit, the kink hides outside an interval's outermost nodes
    ("power:inf", "poly:8.419542874820742,0.30216463015850675,6.164191356388866",
     "exp:5.971814374831163", 0.5, max),
)


def test_mean_chain_middle_against_scipy_oracle():
    integrate = pytest.importorskip("scipy.integrate")
    brentq = pytest.importorskip("scipy.optimize").brentq
    tol = 1e-9
    for spec, f_text, g_text, b, mean in MIDDLE_ORACLE_CASES:
        f = parse_function(f_text)
        g = parse_function(g_text)
        report = integral_mean_chain(f, g, 0.0, b, parse_mean(spec), tol=tol)
        # the oracle splits at the crossing of f and g, where max kinks
        cross = [brentq(lambda t: float(f(t)) - float(g(t)), 0.0, b, xtol=1e-15)]

        def quad(fn):
            return integrate.quad(lambda t: fn(float(f(t)), float(g(t))), 0.0, b,
                                  epsabs=0.0, epsrel=1e-13, limit=200, points=cross)[0]

        m1 = quad(lambda x, y: mean(x, y) ** 2)
        m2 = quad(lambda x, y: (x * y / mean(x, y)) ** 2)
        budget = m1 * m2 * (max(tol, tol * m1) / m1 + max(tol, tol * m2) / m2)
        assert abs(report.middle - m1 * m2) <= 10.0 * budget, spec


def test_find_kinks_root_against_brentq():
    brentq = pytest.importorskip("scipy.optimize").brentq
    f = parse_function("poly:8.419542874820742,0.30216463015850675,6.164191356388866")
    g = parse_function("exp:5.971814374831163")
    kinks = _find_kinks(lambda t: f(t) - g(t), 0.0, 0.5)
    root = brentq(lambda t: float(f(t)) - float(g(t)), 0.0, 0.5, xtol=1e-300,
                  rtol=4 * np.finfo(float).eps)
    assert len(kinks) == 1
    assert abs(kinks[0] - root) <= 2 * np.spacing(root)


def test_mean_chain_requires_nonnegative_functions():
    with pytest.raises(DomainError):
        integral_mean_chain(parse_function("affine:-1,0.1"), EXP1, 0.0, 1.0,
                            parse_mean("power:1"))


# ---------------------------------------------------------------------------
# log-derivative chain
# ---------------------------------------------------------------------------

def test_logderiv_equal_functions_saturate():
    for name in ("power:0", "power:2", "rado:-1"):
        report = integral_logderiv_chain(EXP1, EXP1, 0.0, 1.0, parse_mean(name))
        assert report.left == pytest.approx(report.middle, rel=1e-9)
        assert report.middle == pytest.approx(report.right, rel=1e-9)


def test_logderiv_closed_form_exponential_example():
    # f = e^t, g = e^{2t}: Lf = 1, Lg = 2, arithmetic mean 1.5 gives
    # Phi1 = e^{3x}; all three terms are elementary exponential integrals.
    report = integral_logderiv_chain(EXP1, EXP2, 0.0, 1.0, parse_mean("power:1"))
    left = ((math.e ** 3 - 1.0) / 3.0) ** 2
    mid1 = (math.e ** 3 - 1.0) / 3.0
    mid2 = (math.e ** 3 - 1.0) / 3.0
    right = (math.e ** 2 - 1.0) / 2.0 * (math.e ** 4 - 1.0) / 4.0
    assert report.left == pytest.approx(left, rel=1e-9)
    assert report.middle == pytest.approx(mid1 * mid2, rel=1e-9)
    assert report.right == pytest.approx(right, rel=1e-9)
    assert report.slack_left >= -1e-9 * report.scale
    assert report.slack_right >= -1e-9 * report.scale


def test_mediant_of_log_derivatives_reproduces_arithmetic_middle():
    # treating Lf, Lg as the formal fractions f'/f, g'/g, the mediant gives
    # Phi1 proportional to (f+g)^2, and the middle product equals the
    # arithmetic-mean (power:1) middle of the mean-form chain
    f = parse_function("affine:1,2")
    g = parse_function("poly:0.5,1,0.5")
    med = integral_logderiv_chain(f, g, 0.0, 1.0, parse_mean("mediant"))
    arith = integral_mean_chain(f, g, 0.0, 1.0, parse_mean("power:1"))
    assert med.middle == pytest.approx(arith.middle, rel=1e-8)


def test_logderiv_requires_nondecreasing_functions():
    with pytest.raises(DomainError):
        integral_logderiv_chain(parse_function("exp:-1"), EXP1, 0.0, 1.0,
                                parse_mean("power:1"))


def test_logderiv_chain_holds_for_increasing_catalog():
    rng = make_rng(29)
    pool = [parse_function(s) for s in
            ("exp:0.7", "affine:1,2", "poly:0.3,1,0.5", "exppoly:0.1,0.4,0.3")]
    for name in ("power:0", "power:1", "power:2", "rado:-1"):
        spec = parse_mean(name)
        for _ in range(15):
            f = pool[int(rng.integers(0, len(pool)))]
            g = pool[int(rng.integers(0, len(pool)))]
            report = integral_logderiv_chain(f, g, 0.0, 1.0, spec)
            assert report.slack_left >= -1e-8 * report.scale, name
            assert report.slack_right >= -1e-8 * report.scale, name


def test_logderiv_max_counterexample_with_crossing_derivatives():
    # Nonnegative log-derivatives are not sufficient for the right inequality
    # under the max mean: on this pair Lf - Lg changes sign and the middle
    # exceeds int f^2 int g^2 by about 4e-3 relative (verified independently
    # by dense Riemann sums).  When the log-derivatives do not cross, max
    # yields exact equality instead; see notes/decisions.md.
    f = parse_function("poly:0.135914,6.47054,0.238318")
    g = parse_function("poly:1.07857,1.56503,8.91331")
    ts = np.linspace(0.0, 1.0, 1001)
    d = f.derivative(ts) / f(ts) - g.derivative(ts) / g(ts)
    assert np.any(d > 0) and np.any(d < 0)
    report = integral_logderiv_chain(f, g, 0.0, 1.0, parse_mean("power:inf"))
    assert report.slack_left >= 0.0
    assert report.slack_right < -1e-3 * report.scale
    assert not report.ordered


def test_logderiv_max_equality_without_crossing():
    # One log-derivative dominates throughout (Lf = 2 >= Lg = 1; Lg = 8.08 >
    # Lf): Phi1 is proportional to the square of the dominating function and
    # the max middle collapses onto the right side exactly.  The second pair
    # keeps within the bound only when Phi1 and g^2 share quadrature nodes.
    for f, g, b in ((EXP2, EXP1, 1.0),
                    (parse_function("affine:1.38942,0.498304"),
                     parse_function("exp:8.08289"), 2.0)):
        report = integral_logderiv_chain(f, g, 0.0, b, parse_mean("power:inf"))
        assert report.middle == pytest.approx(report.right, rel=1e-9)
        assert report.slack_left >= -1e-9 * report.scale


def test_logderiv_equality_chain_is_judged_at_its_tolerances():
    # criterion 09's draw 42 for power:inf: the middle equals the right side
    # exactly, and the computed slack, -1.0e-11 of scale, is far inside the
    # tolerances the terms were computed to (1e-10 inner, 1e-8 outer), the
    # larger of which the verdict is taken at
    rng = spawn_rng(912, 42)
    _increasing_pair(rng)
    f, g, b = _suitable_pair(rng)
    report = integral_logderiv_chain(f, g, 0.0, b, parse_mean("power:inf"),
                                     inner_tol=1e-10, outer_tol=1e-8)
    assert report.ordered
    assert min(report.slack_left, report.slack_right) >= -1e-10 * report.scale
    assert report == chain_report(report.left, report.middle, report.right, 1e-8)


def test_tabulation_reuses_nested_grid_values_bit_for_bit():
    # each panel doubling evaluates only the new odd nodes, and a seed on the
    # 1025-node scan grid serves every grid up to 512 panels; evaluating every
    # node of every grid, as a reference, gives the same table bit for bit
    f = parse_function("poly:0.135914,6.47054,0.238318")
    g = parse_function("exp:2")
    m_integrand = _logderiv_integrand(f, g, _logderiv_mean(parse_mean("power:2")))
    evaluated = []

    def counted(t):
        evaluated.append(len(t))
        return m_integrand(t)

    unseeded = _tabulate_segment(m_integrand, 0.0, 1.0, 1e-12, 0.5)
    seeded = _tabulate_segment(counted, 0.0, 1.0, 1e-12, 0.5,
                               m_integrand(np.linspace(0.0, 1.0, 1025)))
    prev, panels = None, 128
    while True:
        xs, h = simpson_nodes(0.0, 1.0, panels)
        mv = m_integrand(xs)
        v = cumulative_simpson(mv, h)
        if prev is not None and abs(v[-1] - prev) <= 1e-12 * max(1.0, abs(v[-1])):
            break
        prev, panels = v[-1], 2 * panels
    assert panels >= 1024
    assert evaluated == [p for p in (1024, 2048, 4096, 8192, 16384) if p <= panels]
    for table, total in (unseeded, seeded):
        assert table.step == 1.0 / panels and total == v[-1]
        assert np.array_equal(table.values, v + 0.5) and np.array_equal(table.slopes, mv[::2])


def _reference_logderiv_table(f, g, a, b, lmean, inner_tol, breaks):
    # every tabulation grid evaluated in full, from scratch
    m_integrand = _logderiv_integrand(f, g, lmean)
    edges = [a] + list(breaks) + [b]
    tables, offset = [], 0.0
    for left, right in zip(edges, edges[1:]):
        prev, panels = None, 128
        while True:
            xs, h = simpson_nodes(left, right, panels)
            mv = np.asarray(m_integrand(xs), dtype=float)
            v = cumulative_simpson(mv, h)
            if prev is not None and abs(v[-1] - prev) <= inner_tol * max(1.0, abs(v[-1])):
                break
            prev, panels = v[-1], 2 * panels
        tables.append(CubicHermite(left, (right - left) / panels, v + offset, mv[::2]))
        offset += v[-1]
    if len(tables) == 1:
        return tables[0]
    return _PiecewiseAntiderivative(np.asarray(edges[:-1]), tuple(tables))


def _reference_logderiv_chain(f, g, a, b, spec, inner_tol=1e-10, outer_tol=1e-8):
    # the kink scan samples its own 1025 nodes, the tables every grid node
    gap = _logderiv_integrand(f, g, lambda fv, gv, dfv, dgv: dfv / fv - dgv / gv)
    breaks = _find_kinks(gap, a, b)
    table = _reference_logderiv_table(f, g, a, b, _logderiv_mean(spec), inner_tol, breaks)

    def integrand(t):
        ft, gt = f(t), g(t)
        v = 2.0 * table(t)
        return np.stack([ft * gt, np.exp(v), (ft * gt) ** 2 * np.exp(-v), ft * ft, gt * gt])

    fg, mid1, mid2, ff, gg = quadrature(integrand, a, b, outer_tol, breaks=breaks).tolist()
    return (chain_report(fg ** 2, mid1 * mid2, ff * gg, max(inner_tol, outer_tol)),
            table, breaks)


CROSSING_F = parse_function("poly:0.135914,6.47054,0.238318")
CROSSING_G = parse_function("poly:1.07857,1.56503,8.91331")


def test_logderiv_chains_match_from_scratch_reference_bit_for_bit():
    # the scan grid seeds the kink scan and the tables up to 512 panels; the
    # reports, Phi1 and the product identity equal those of a chain that
    # samples every grid afresh, for criterion-09 draws and a crossing pair
    means = chain_catalog() + [parse_mean("mediant")]
    draws = [(means[i % len(means)],) + _suitable_pair(spawn_rng(909, i)) for i in range(50)]
    draws += [(parse_mean(s), CROSSING_F, CROSSING_G, 1.0)
              for s in ("power:inf", "power:2", "rado:0")]
    with_breaks = 0
    xs = np.linspace(0.0, 0.5, 37)
    for spec, f, g, b in draws:
        expected, table, breaks = _reference_logderiv_chain(f, g, 0.0, b, spec)
        with_breaks += bool(breaks)
        assert integral_logderiv_chain(f, g, 0.0, b, spec) == expected, (spec, f, g, b)
        phi1 = logderiv_phi1(f, g, 0.0, b, spec)
        assert np.array_equal(phi1(b * xs), np.exp(2.0 * table(b * xs)))
    assert with_breaks == 3
    lmean = _logderiv_mean(parse_mean("power:inf"))
    breaks = _find_kinks(_logderiv_integrand(
        CROSSING_F, CROSSING_G, lambda fv, gv, dfv, dgv: dfv / fv - dgv / gv), 0.0, 1.0)
    for f, g, brk in ((EXP2, parse_function("affine:2,1"), []),
                      (CROSSING_F, CROSSING_G, breaks)):
        table1 = _reference_logderiv_table(f, g, 0.0, 1.0, lmean, 1e-12, brk)
        table2 = _reference_logderiv_table(
            f, g, 0.0, 1.0, lambda fv, gv, dfv, dgv: dfv / fv + dgv / gv - lmean(fv, gv, dfv, dgv),
            1e-12, brk)
        grid = np.linspace(0.0, 1.0, 32)
        rhs = (f(grid) * g(grid)) ** 2
        phi = np.exp(2.0 * table1(grid)) * (float(f(0.0)) * float(g(0.0))) ** 2 * np.exp(
            2.0 * table2(grid))
        worst = float(np.max(np.abs(phi - rhs) / np.maximum(np.abs(rhs), 1e-300)))
        assert product_identity_check(f, g, 0.0, 1.0, ChainKind.LOG_DERIV_FORM,
                                      parse_mean("power:inf")) == (worst <= 1e-10, worst)


def test_logderiv_chain_samples_each_function_once_per_node(monkeypatch):
    # no breaks and settled by 512 panels: f, g, f', g' are each evaluated on
    # the 1025 scan nodes (513 of them by the validators), f and g also on the
    # outer quadrature nodes, and nowhere else
    f = parse_function("exppoly:0.1,1,0.5")
    g = parse_function("affine:2,1")
    counts = Counter()
    value, slope = FunctionSpec.__call__, FunctionSpec.derivative

    def counted_value(self, t):
        counts[str(self)] += np.size(t)
        return value(self, t)

    def counted_slope(self, t):
        counts[str(self) + "'"] += np.size(t)
        return slope(self, t)

    outer, steps = [], []
    quad, tabulate = integral.quadrature, integral._tabulate_antiderivative

    def counted_quadrature(fn, *args, **kwargs):
        def integrand(t):
            outer.append(np.size(t))
            return fn(t)
        return quad(integrand, *args, **kwargs)

    def recorded_tabulate(*args, **kwargs):
        table = tabulate(*args, **kwargs)
        steps.append(table.step)
        return table

    monkeypatch.setattr(FunctionSpec, "__call__", counted_value)
    monkeypatch.setattr(FunctionSpec, "derivative", counted_slope)
    monkeypatch.setattr(integral, "quadrature", counted_quadrature)
    monkeypatch.setattr(integral, "_tabulate_antiderivative", recorded_tabulate)
    report = integral_logderiv_chain(f, g, 0.0, 1.0, parse_mean("power:2"))
    assert report.ordered
    assert min(report.slack_left, report.slack_right) >= -1e-12 * report.scale
    assert len(steps) == 1 and steps[0] >= 1.0 / 512
    nodes = sum(outer)
    assert nodes > 0
    assert counts == {str(f): 1025 + nodes, str(g): 1025 + nodes,
                      str(f) + "'": 1025, str(g) + "'": 1025}


def test_phi1_is_not_homogeneous():
    # scaling f, g by 2 leaves Phi1 unchanged (log-derivatives kill scale),
    # far from the factor 4 a squared homogeneous expression would show
    f = parse_function("affine:1,2")
    g = parse_function("poly:0.5,1,0.5")
    f2 = parse_function("affine:2,4")
    g2 = parse_function("poly:1,2,1")
    spec = parse_mean("power:2")
    phi = logderiv_phi1(f, g, 0.0, 1.0, spec)
    phi_scaled = logderiv_phi1(f2, g2, 0.0, 1.0, spec)
    ratio = float(phi_scaled(1.0)) / float(phi(1.0))
    assert abs(ratio - 4.0) > 1e-3 * 4.0
    assert ratio == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# product identity
# ---------------------------------------------------------------------------

def test_product_identity_mean_form():
    ok, worst = product_identity_check(EXP1, ONE_MINUS_T, 0.0, 0.9,
                                       ChainKind.MEAN_FORM, parse_mean("rado:0"))
    assert ok, worst


def test_product_identity_logderiv_two_route():
    ok, worst = product_identity_check(EXP1, EXP2, 0.0, 1.0,
                                       ChainKind.LOG_DERIV_FORM, parse_mean("power:1"))
    assert ok
    assert worst <= 1e-10


def test_product_identity_negative_control():
    f = parse_function("affine:1,1")
    bad_phi2 = lambda t: 1.01 * (np.asarray(f(t), dtype=float) ** 4
                                 / np.asarray(f(t), dtype=float) ** 2)
    ok, worst = product_identity_check(f, f, 0.0, 1.0, ChainKind.MEAN_FORM,
                                       parse_mean("power:1"), phi2=bad_phi2)
    assert not ok
    assert worst == pytest.approx(0.01, rel=1e-6)


# ---------------------------------------------------------------------------
# general h-form
# ---------------------------------------------------------------------------

def test_h_half_reproduces_arithmetic_chain():
    f = parse_function("affine:1,1")
    g = parse_function("affine:2,-1")
    via_h = general_h_chain(f, g, 0.0, 1.0, lambda t: 0.5, ChainKind.MEAN_FORM)
    direct = integral_mean_chain(f, g, 0.0, 1.0, parse_mean("power:1"))
    assert via_h.middle == pytest.approx(direct.middle, rel=1e-11)


def test_h_geometric_identity():
    # h(t) = sqrt(e^t)/(1+e^t) makes (u+v) h(ln(v/u)) = sqrt(uv)
    f = parse_function("affine:1,1")
    g = parse_function("exp:1")
    h = lambda t: math.sqrt(math.exp(t)) / (1.0 + math.exp(t))
    via_h = general_h_chain(f, g, 0.0, 1.0, h, ChainKind.MEAN_FORM)
    direct = integral_mean_chain(f, g, 0.0, 1.0, parse_mean("power:0"))
    assert via_h.middle == pytest.approx(direct.middle, rel=1e-10)
    assert via_h.left == pytest.approx(via_h.middle, rel=1e-10)


def test_h_of_power_two_round_trip():
    from ineqmeans import h_of
    spec = parse_mean("power:2")
    f = parse_function("affine:1,2")
    g = parse_function("poly:0.5,0,1")
    via_h = general_h_chain(f, g, 0.0, 1.0, lambda t: h_of(spec, t),
                            ChainKind.MEAN_FORM)
    direct = integral_mean_chain(f, g, 0.0, 1.0, spec)
    assert via_h.middle == pytest.approx(direct.middle, rel=1e-10)
    assert via_h.left == pytest.approx(direct.left, rel=1e-12)
    assert via_h.right == pytest.approx(direct.right, rel=1e-12)


def test_h_of_power_two_logderiv_round_trip():
    from ineqmeans import h_of
    spec = parse_mean("power:2")
    via_h = general_h_chain(EXP1, EXP2, 0.0, 1.0, lambda t: h_of(spec, t),
                            ChainKind.LOG_DERIV_FORM)
    direct = integral_logderiv_chain(EXP1, EXP2, 0.0, 1.0, spec)
    assert via_h.middle == pytest.approx(direct.middle, rel=1e-8)


def test_invalid_h_rejected():
    with pytest.raises(ParameterError):
        general_h_chain(EXP1, EXP2, 0.0, 1.0, lambda t: 1.0, ChainKind.MEAN_FORM)


# ---------------------------------------------------------------------------
# comparison engine
# ---------------------------------------------------------------------------

def test_power_scale_order_mean_form():
    # Within the mean form the middle grows with the order (alpha >= 0)
    verdict = compare_generalizations(parse_mean("power:0"), parse_mean("power:2"),
                                      trials=120, seed=5, kind=ChainKind.MEAN_FORM)
    assert verdict.relation is Relation.A_PREC_B
    assert len(verdict.witnesses) == 1


def test_mean_form_order_facts():
    for a, b in ((0.0, 1.0), (1.0, 2.0), (0.5, 3.0)):
        verdict = compare_generalizations(parse_mean(f"power:{a!r}"),
                                          parse_mean(f"power:{b!r}"),
                                          trials=120, seed=7,
                                          kind=ChainKind.MEAN_FORM)
        assert verdict.relation is Relation.A_PREC_B, (a, b)


def test_logderiv_order_facts():
    # exponential-form comparisons: the listed directions, including the
    # alpha + beta <= 2 rule (second spec precedes when listed as beta)
    for small, large in ((0.0, 2.0), (-1.0, 3.0), (0.5, 1.5), (0.5, 1.4)):
        verdict = compare_generalizations(parse_mean(f"power:{small!r}"),
                                          parse_mean(f"power:{large!r}"),
                                          trials=150, seed=11,
                                          kind=ChainKind.LOG_DERIV_FORM)
        assert verdict.relation is Relation.B_PREC_A, (small, large)


def test_logderiv_incomparable_with_two_witnesses():
    verdict = compare_generalizations(parse_mean("power:0.5"), parse_mean("power:2"),
                                      trials=1000, seed=13,
                                      kind=ChainKind.LOG_DERIV_FORM)
    assert verdict.relation is Relation.INCOMPARABLE
    assert len(verdict.witnesses) == 2
    w_a, w_b = verdict.witnesses
    assert w_a.middle_a < w_a.middle_b
    assert w_b.middle_b < w_b.middle_a


def test_identical_specs_undetermined():
    verdict = compare_generalizations(parse_mean("power:1"), parse_mean("power:1"),
                                      trials=20, seed=3, kind=ChainKind.MEAN_FORM)
    assert verdict.relation is Relation.UNDETERMINED
    assert verdict.witnesses == ()


def test_verdict_deterministic_for_fixed_seed():
    v1 = compare_generalizations(parse_mean("power:0.5"), parse_mean("power:2"),
                                 trials=200, seed=13, kind=ChainKind.LOG_DERIV_FORM)
    v2 = compare_generalizations(parse_mean("power:0.5"), parse_mean("power:2"),
                                 trials=200, seed=13, kind=ChainKind.LOG_DERIV_FORM)
    assert v1 == v2


# ---------------------------------------------------------------------------
# the block-batched comparator against a per-trial reference
# ---------------------------------------------------------------------------

def _reference_middle(kind, spec, f, g, b):
    # one trial on its own 1025-node grid, as the comparator ran before blocking
    xs, h = simpson_nodes(0.0, b, 512)
    fv = np.asarray(f(xs), dtype=float)
    gv = np.asarray(g(xs), dtype=float)
    if kind is ChainKind.MEAN_FORM:
        m = mean_values(spec, fv, gv)
        conj = conjugate_from_mean(fv, gv, m)
        return composite_simpson(m * m, h) * composite_simpson(conj * conj, h)
    dfv, dgv = f.derivative(xs), g.derivative(xs)
    if spec.family is MeanFamily.MEDIANT:
        mv = (dfv + dgv) / (fv + gv)
    else:
        mv = mean_values(spec, dfv / fv, dgv / gv)
    v = cumulative_simpson(mv, h)
    fe, ge = fv[::2], gv[::2]
    phi1 = np.exp(2.0 * v)
    phi2 = (fe * ge) ** 2 * np.exp(-2.0 * v)
    return composite_simpson(phi1, 2.0 * h) * composite_simpson(phi2, 2.0 * h)


def _reference_verdict(spec_a, spec_b, trials, seed, kind, tie_rtol=1e-9):
    best_a = best_b = None
    wins_a = wins_b = 0
    for i in range(trials):
        rng = spawn_rng(seed, i)
        f = _sample_function(rng)
        g = _sample_function(rng)
        b_end = float((0.5, 1.0, 2.0)[int(rng.integers(0, 3))])
        ma = _reference_middle(kind, spec_a, f, g, b_end)
        mb = _reference_middle(kind, spec_b, f, g, b_end)
        diff = (mb - ma) / max(abs(ma), abs(mb))
        if abs(diff) <= tie_rtol:
            continue
        w = Witness(f.to_string(), g.to_string(), 0.0, b_end, ma, mb)
        if diff > 0:
            wins_a += 1
            if best_a is None or diff > best_a[0]:
                best_a = (diff, w)
        else:
            wins_b += 1
            if best_b is None or -diff > best_b[0]:
                best_b = (-diff, w)
        if wins_a and wins_b:
            return OrderVerdict(Relation.INCOMPARABLE, (best_a[1], best_b[1]), i + 1, seed)
    if wins_a:
        return OrderVerdict(Relation.A_PREC_B, (best_a[1],), trials, seed)
    if wins_b:
        return OrderVerdict(Relation.B_PREC_A, (best_b[1],), trials, seed)
    return OrderVerdict(Relation.UNDETERMINED, (), trials, seed)


@pytest.mark.parametrize("kind", list(ChainKind))
@pytest.mark.parametrize("trials", [1, 7, 33])
def test_blocked_comparator_matches_per_trial_reference(kind, trials):
    # equal verdicts, witness floats included, for every catalog mean against
    # the arithmetic one; 7 and 33 end inside a block.  The extra iterated
    # pair changes in the last digit when its stopping test spans a block.
    one = parse_mean("power:1")
    for spec in chain_catalog() + [parse_mean("iter:power:3|power:0")]:
        got = compare_generalizations(spec, one, trials, 21, kind)
        assert got == _reference_verdict(spec, one, trials, 21, kind), spec.to_string()


@pytest.mark.parametrize("kind, a, b", [(ChainKind.MEAN_FORM, "power:0", "power:2"),
                                        (ChainKind.LOG_DERIV_FORM, "power:0.5", "power:1.5")])
def test_blocked_comparator_matches_reference_at_1000_trials(kind, a, b):
    spec_a, spec_b = parse_mean(a), parse_mean(b)
    got = compare_generalizations(spec_a, spec_b, 1000, 4, kind)
    assert got.trials == 1000
    assert got == _reference_verdict(spec_a, spec_b, 1000, 4, kind)


def test_blocked_comparator_early_exit_and_undetermined_match_reference():
    a, b = parse_mean("power:0.5"), parse_mean("power:2")
    got = compare_generalizations(a, b, 1000, 13, ChainKind.LOG_DERIV_FORM)
    want = _reference_verdict(a, b, 1000, 13, ChainKind.LOG_DERIV_FORM)
    assert got.relation is Relation.INCOMPARABLE
    assert got == want  # trials counts the scanned trials, not the evaluated block
    one = parse_mean("power:1")
    assert (compare_generalizations(one, one, 40, 3, ChainKind.MEAN_FORM)
            == _reference_verdict(one, one, 40, 3, ChainKind.MEAN_FORM))


def test_blocked_comparator_memory_does_not_scale_with_trials():
    # an early-exit pair asked for 10^9 trials stops after a few blocks and
    # allocates no more than the block working set
    a, b = parse_mean("power:0.5"), parse_mean("power:2")
    tracemalloc.start()
    try:
        got = compare_generalizations(a, b, 10 ** 9, 13, ChainKind.LOG_DERIV_FORM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == compare_generalizations(a, b, 1000, 13, ChainKind.LOG_DERIV_FORM)
    assert peak < 16 * 2 ** 20
