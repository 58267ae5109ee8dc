import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from ineqmeans import (ChainKind, ConvergenceError, DomainError, MeanFamily, OrderVerdict,
                       ParameterError, Relation, Witness, chain_catalog, compare_generalizations,
                       general_h_chain, integral_logderiv_chain, integral_mean_chain,
                       logderiv_phi1, mean_values, parse_function, parse_mean,
                       product_identity_check, quadrature)
from ineqmeans import integral
from ineqmeans.functions import FunctionFamily, FunctionSpec
from ineqmeans.integral import _find_kinks
from ineqmeans.means import conjugate_from_mean
from ineqmeans.quadrature import _NODES as GK_NODES
from ineqmeans.quadrature import _WEIGHTS as GK_WEIGHTS
from ineqmeans.quadrature import _cumulative_weights as cumulative_weights
from ineqmeans.reports import chain_report
from ineqmeans.sampling import make_rng, spawn_rng
from test_acceptance import _increasing_pair, _suitable_pair
from test_sampling import _sample_function

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
    kinks = _find_kinks(lambda rows, t: f(t) - g(t), np.array([0.0]), np.array([0.5]))[0]
    root = brentq(lambda t: float(f(t)) - float(g(t)), 0.0, 0.5, xtol=1e-300,
                  rtol=4 * np.finfo(float).eps)
    assert len(kinks) == 1
    assert abs(kinks[0] - root) <= 2 * np.spacing(root)


def _reference_kinks(gap, a, b):
    # one row's kinks, node by node: a zero scan node between opposite signs
    # as it stands, and each sign change between neighbouring nodes narrowed
    # by rounds of 257-point subdivision, to ulp width or for at most 6 rounds
    ts = np.linspace(a, b, 1025)
    d = np.sign(gap(ts))
    kinks = []
    for i in range(len(ts) - 1):
        if i > 0 and d[i] == 0 and d[i - 1] * d[i + 1] < 0:
            kinks.append(float(ts[i]))
        if d[i] * d[i + 1] >= 0:
            continue
        lo, hi = ts[i], ts[i + 1]
        for _ in range(6):
            if np.nextafter(lo, hi) >= hi:
                break
            sub = np.linspace(lo, hi, 257)
            j = int(np.argmax(np.sign(gap(sub)) != d[i]))
            lo, hi = sub[j - 1], sub[j]
        kinks.append(0.5 * (float(lo) + float(hi)))
    eps = 1e-10 * (b - a)
    return [k for k in kinks if a + eps < k < b - eps]


# f - g = 2t - 1.001953125 vanishes at t = 513/1024, a scan node of [0, 1]
ON_NODE_G = parse_function("affine:1.001953125,-1")


@pytest.mark.parametrize("gap, kinks", [
    (lambda t: T_LIN(t) - ON_NODE_G(t), [513 / 1024]),
    (lambda t: (t - 0.5) ** 2, []),  # touches 0 at a scan node
    (lambda t: np.where(np.abs(t - 0.5) <= 2.0 ** -9, 0.0, t - 0.5), []),  # 5 zero nodes
], ids=["crossing", "touching", "zero-run"])
def test_a_zero_scan_node_between_opposite_signs_is_a_root(gap, kinks):
    got = _find_kinks(lambda rows, t: gap(t), np.array([0.0]), np.array([1.0]))[0]
    assert got == kinks == _reference_kinks(gap, 0.0, 1.0)


def test_a_crossing_on_a_scan_node_splits_the_start_panels(monkeypatch):
    # found as a root, the crossing at 513/1024 becomes a start edge, so the
    # chain adapts in one level; a kink the scan misses is reached only by
    # bisection, level by level
    adaptations = []
    adapt = integral._adapt

    def recorded_adapt(*args, **kwargs):
        adaptations.append(adapt(*args, **kwargs))
        return adaptations[-1]

    monkeypatch.setattr(integral, "_adapt", recorded_adapt)
    integral_mean_chain(T_LIN, ON_NODE_G, 0.0, 1.0, parse_mean("power:inf"))
    levels = adaptations[0].levels
    assert len(levels) == 1
    assert 15 * sum(len(level.mid) for level in levels) == 135


def _kinked_block(kind, seed):
    # a block of the comparator's largest size, with its kink gap
    kinds, coeffs, intervals = integral._draw_block(seed, 0, 256)
    poly, exp = integral._catalog_poly(kinds, coeffs)

    def gap(rows, t):
        return integral._member_gap(kind, poly[:, rows], exp[:, rows], t)

    return kinds, coeffs, intervals, gap


@pytest.mark.parametrize("kind", list(ChainKind))
@pytest.mark.parametrize("seed", [3, 5, 13])
def test_block_kinks_equal_lone_row_and_reference_kinks(kind, seed):
    # the rows max snaps against power:1: each row's kinks, found among the
    # whole block, equal float for float those found on that row alone and
    # by the per-row reference
    kinds, coeffs, intervals, gap = _kinked_block(kind, seed)
    ends = np.array(integral._COMPARE_INTERVALS)[intervals]
    starts = np.zeros(len(ends))
    block = _find_kinks(gap, starts, ends)
    assert sum(map(bool, block)) >= 8
    for row, b in enumerate(ends.tolist()):
        f, g = (integral._catalog_member(kinds[m, row], coeffs[m, row]) for m in range(2))
        alone = _find_kinks(lambda rows, t: gap(rows + row, t), starts[row:row + 1],
                            ends[row:row + 1])[0]
        assert block[row] == alone == _reference_kinks(
            lambda t: _reference_gap(kind, f, g, t), 0.0, b), (row, f, g)


@pytest.mark.parametrize("kind", list(ChainKind))
def test_a_kinked_block_makes_at_most_eight_catalog_calls(monkeypatch, kind):
    # one scan and at most 6 narrowing rounds find the start panels of every
    # row, however many rows cross, and one call evaluates the first level
    # (a loose target accepts it whole)
    kinds, coeffs, intervals, gap = _kinked_block(kind, 13)
    ends = np.array(integral._COMPARE_INTERVALS)[intervals]
    crossing = sum(map(bool, _find_kinks(gap, np.zeros(len(ends)), ends)))
    assert crossing >= 8
    calls = []
    catalog_rows = integral._catalog_rows

    def counted(*args):
        calls.append(args[0].shape)
        return catalog_rows(*args)

    monkeypatch.setattr(integral, "_catalog_rows", counted)
    integral._middle_fixed(kind, (parse_mean("max"), parse_mean("power:1")),
                           (kinds, coeffs, intervals), 1.0, np.empty(4 * 15 * 8 * len(ends)))
    assert len(calls) <= 1 + 6 + 1


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


def test_logderiv_requires_a_certified_nonnegative_derivative():
    # f' = t^2 - 1.001 t + 0.25050024 reaches -1e-8 at 0.5005, between the
    # 513 samples of the check that returned ordered=True here
    f = parse_function("poly:1,0.25050024,-0.5005,0.3333333333333333")
    with pytest.raises(DomainError, match="nondecreasing"):
        integral_logderiv_chain(f, EXP1, 0.0, 1.0, parse_mean("power:2"))


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


def _reference_lmean(spec):
    def lmean(fv, gv, dfv, dgv):
        if spec.family is MeanFamily.MEDIANT:
            return (dfv + dgv) / (fv + gv)
        return mean_values(spec, dfv / fv, dgv / gv)
    return lmean


def _reference_adapt(f, g, lmean, a, b, tol, pending, accepted):
    # bisect the pending (mid, hw, depth) intervals until lmean meets its
    # width share of max(tol, tol |I|) on each; returns the accepted ones with
    # lmean, f and g at their 15 nodes
    kept = []
    while pending:
        mids = np.array([p[0] for p in pending])
        hws = np.array([p[1] for p in pending])
        xs = (mids[:, None] + hws[:, None] * GK_NODES).ravel()
        fv, gv = f(xs), g(xs)
        mv = lmean(fv, gv, f.derivative(xs), g.derivative(xs))
        sums = _reference_sums(mv, GK_WEIGHTS) * hws[:, None]
        target = max(tol, tol * abs(accepted + sums[:, 0].sum())) / (b - a)
        split = []
        for i, (mid, hw, depth) in enumerate(pending):
            if abs(sums[i, 1]) <= target * 2.0 * hw:
                accepted += sums[i, 0]
                kept.append((mid, hw, depth, np.stack([v[15 * i:15 * i + 15] for v in (mv, fv, gv)])))
            else:
                assert depth + 1 < 60
                split += [(mid - hw / 2.0, hw / 2.0, depth + 1), (mid + hw / 2.0, hw / 2.0, depth + 1)]
        pending = split
    return kept


class _ReferenceTable:
    """int_a^x lmean on the reference partition, interval by interval."""

    def __init__(self, intervals):
        self.intervals = sorted(intervals, key=lambda iv: iv[0])
        inner = np.concatenate([cumulative_weights().T, GK_WEIGHTS], axis=1)
        self.sums, self.starts, start = [], [], 0.0
        for mid, hw, _, values in self.intervals:
            sums = _reference_sums(values[0], inner)[0] * hw
            self.sums.append(sums)
            self.starts.append(start)
            start += sums[15]

    def at_nodes(self, i):
        return self.sums[i][:15] + self.starts[i]

    def __call__(self, xs):
        out = []
        for x in np.atleast_1d(xs):
            i = max(j for j, iv in enumerate(self.intervals) if iv[0] - iv[1] <= x or j == 0)
            mid, hw, _, values = self.intervals[i]
            w = cumulative_weights(np.array([min(max((x - mid) / hw, -1.0), 1.0)]))[0]
            inner = w[0] * values[0][0]
            for k in range(1, 15):
                inner = inner + w[k] * values[0][k]
            out.append(inner * hw + self.starts[i])
        return np.array(out)


def _reference_table(f, g, a, b, lmean, inner_tol, breaks):
    # 8 uniform panels and the breaks, each bisected until lmean meets inner_tol
    edges = np.union1d(np.linspace(a, b, 9), breaks)
    hw = np.diff(edges) / 2.0
    return _reference_adapt(f, g, lmean, a, b, inner_tol,
                            [(m, h, 0) for m, h in zip(edges[:-1] + hw, hw)], 0.0)


def _reference_logderiv_chain(f, g, a, b, spec, inner_tol=1e-10, outer_tol=1e-8):
    # the inner partition, then the bar rule at 2 outer_tol: a term's bar is
    # |K15 - G7| / |I| over its two factors (plus 4 times the inner
    # |K15 - G7| for Phi1 Phi2), and while one exceeds the target the
    # intervals whose share of a bar exceeds their width share are bisected
    # and adapted again.  The kink scan samples its own 1025 nodes, and only
    # for min/max-type means
    breaks = []
    if integral._kinks_on_diagonal(spec):
        breaks = _find_kinks(lambda rows, t: f.derivative(t) / f(t) - g.derivative(t) / g(t),
                             np.array([a]), np.array([b]))[0]
    lmean = _reference_lmean(spec)
    intervals = _reference_table(f, g, a, b, lmean, inner_tol, breaks)
    target = 2.0 * outer_tol
    terms = ((0, 0), (1, 2), (3, 4))  # fg fg, Phi1 Phi2, f^2 g^2
    reopened = 0
    while True:
        table = _ReferenceTable(intervals)
        est, err, inner = [], [], []
        for i, (mid, hw, _, (_, fv, gv)) in enumerate(table.intervals):
            v = table.at_nodes(i)
            fg = fv * gv
            rows = (fg, np.exp(2.0 * v), np.exp(-2.0 * v) * (fg * fg), fv * fv, gv * gv)
            sums = np.array([_reference_sums(r, GK_WEIGHTS)[0] for r in rows]) * hw
            est.append(sums[:, 0])
            err.append(np.abs(sums[:, 1]))
            inner.append(abs(table.sums[i][16]))
        # each integral's intervals added left to right, one after the other
        totals = _reference_add(est)

        def bars(e, v):
            return [e[p] / abs(totals[p]) + e[q] / abs(totals[q]) + (4.0 * v if p else 0.0)
                    for p, q in terms]

        if not any(x > target for x in bars(_reference_add(err), _reference_add(inner))):
            break
        bad = [i for i, (mid, hw, _, _) in enumerate(table.intervals)
               if any(x > target * (2.0 * hw) / (b - a) for x in bars(err[i], inner[i]))]
        if not bad:
            break
        reopened += 1
        halves = [(mid + side * hw / 2.0, hw / 2.0, depth + 1) for side in (-1.0, 1.0)
                  for mid, hw, depth, _ in (table.intervals[i] for i in bad)]
        kept = [i for i in range(len(table.intervals)) if i not in bad]
        intervals = [table.intervals[i] for i in kept]
        intervals += _reference_adapt(f, g, lmean, a, b, inner_tol, halves,
                                      _reference_add([table.sums[i][15] for i in kept]))
    fg, mid1, mid2, ff, gg = totals.tolist()
    return (chain_report(fg ** 2, mid1 * mid2, ff * gg, max(inner_tol, outer_tol)),
            table, breaks, reopened)


CROSSING_F = parse_function("poly:0.135914,6.47054,0.238318")
CROSSING_G = parse_function("poly:1.07857,1.56503,8.91331")


@pytest.mark.parametrize("f, g, b, crossings", [
    (CROSSING_F, CROSSING_G, 1.0, 0),  # its log-derivatives cross, f and g do not
    (parse_function("poly:8.419542874820742,0.30216463015850675,6.164191356388866"),
     parse_function("exp:5.971814374831163"), 0.5, 1),
], ids=["no-crossing", "crossing"])
def test_kinked_mean_chain_matches_quadrature_on_a_fresh_kink_scan(f, g, b, crossings):
    # the chain scans f - g on its own 1025 scan nodes; a scan here, then one
    # quadrature from the uniform start panels split at the kinks, gives the
    # same report
    spec = parse_mean("power:inf")
    breaks = _find_kinks(lambda rows, t: f(t) - g(t), np.array([0.0]), np.array([b]))[0]
    assert len(breaks) == crossings
    edges = np.union1d(np.linspace(0.0, b, integral._START_PANELS + 1), breaks)

    def integrand(t):
        fv, gv = f(t), g(t)
        m = mean_values(spec, fv, gv)
        return np.stack([fv * gv, m * m, conjugate_from_mean(fv, gv, m) ** 2, fv * fv, gv * gv])

    fg, mid1, mid2, ff, gg = quadrature(integrand, 0.0, b, 1e-9, breaks=edges).tolist()
    assert (integral_mean_chain(f, g, 0.0, b, spec, tol=1e-9)
            == chain_report(fg ** 2, mid1 * mid2, ff * gg, 1e-9))


@pytest.mark.parametrize("form, spec, f, g, b, crossings, panels", [
    ("mean", "power:2", EXP1, parse_function("affine:1,2"), 1.0, 0, 8),
    ("logderiv", "power:2", parse_function("exppoly:0.1,1,0.5"), parse_function("affine:2,1"),
     1.0, 0, 8),
    # f and g cross at t = 0.5, a scan node and a start edge: the kink merges
    # with the edge
    ("mean", "power:inf", T_LIN, ONE_MINUS_T, 1.0, 1, 8),
    ("mean", "power:inf",
     parse_function("poly:8.419542874820742,0.30216463015850675,6.164191356388866"),
     parse_function("exp:5.971814374831163"), 0.5, 1, 9),
    ("logderiv", "power:inf", CROSSING_F, CROSSING_G, 1.0, 1, 9),
], ids=["mean-smooth", "logderiv-smooth", "mean-cross-on-edge", "mean-crossing",
        "logderiv-crossing"])
def test_both_chain_forms_start_on_uniform_panels_split_at_the_kinks(
        monkeypatch, form, spec, f, g, b, crossings, panels):
    # one start rule: 8 uniform panels, joined with the kinks of a
    # min/max-type mean (f - g in the mean form, Lf - Lg in the other)
    starts = []
    adapt = integral._adapt

    def recorded_adapt(*args, **kwargs):
        out = adapt(*args, **kwargs)
        starts.append(out.levels[0])
        return out

    monkeypatch.setattr(integral, "_adapt", recorded_adapt)
    if form == "mean":
        integral_mean_chain(f, g, 0.0, b, parse_mean(spec), tol=1e-9)
        kinks = _find_kinks(lambda rows, t: f(t) - g(t), np.array([0.0]), np.array([b]))[0]
    else:
        integral_logderiv_chain(f, g, 0.0, b, parse_mean(spec))
        kinks = _find_kinks(lambda rows, t: f.derivative(t) / f(t) - g.derivative(t) / g(t),
                            np.array([0.0]), np.array([b]))[0]
    assert len(kinks) == crossings
    depth, mid, hw = starts[0].depth, starts[0].mid, starts[0].hw
    edges = np.union1d(np.linspace(0.0, b, 9), kinks)
    assert not depth.any() and len(mid) == panels and (hw > 0.0).all()
    assert np.array_equal(hw, np.diff(edges) / 2.0)
    assert np.array_equal(mid, edges[:-1] + hw)


def test_a_kink_on_a_start_edge_merges_with_it():
    mid, hw = integral._start_panels(0.0, 1.0, [0.5])
    assert np.array_equal(hw, np.full(8, 0.0625))
    assert np.array_equal(mid, np.arange(1, 16, 2) / 16.0)
    mid, hw = integral._start_panels(0.0, 1.0, [0.3, 0.625])
    assert len(mid) == 9 and (hw > 0.0).all()


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("a, b", [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (-1.5, 0.75),
                                  (1e-3, 3.0), (-2.0, -0.0)])
def test_the_uniform_start_is_cached_read_only_with_a_fresh_starts_bits(a, b):
    mid, hw, nodes = integral._uniform_start(a, b)
    assert integral._uniform_start(a, b)[2] is nodes
    assert not any(x.flags.writeable for x in (mid, hw, nodes))
    fresh_mid, fresh_hw = integral._panels(np.linspace(a, b, 9))
    assert _bits(mid) == _bits(fresh_mid) and _bits(hw) == _bits(fresh_hw)
    assert nodes.shape == (15, 8) and _bits(nodes) == _bits(integral._nodes(fresh_mid, fresh_hw))
    assert [_bits(x) for x in integral._start_panels(a, b)] == [_bits(mid), _bits(hw)]


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.7])
def test_a_start_at_minus_zero_has_the_bits_of_one_at_zero(b):
    # -0.0 and 0.0 share a cache entry, so each is built afresh here
    build = integral._uniform_start.__wrapped__
    assert ([_bits(x) for x in build(-0.0, b)] == [_bits(x) for x in build(0.0, b)])


def test_chains_and_the_comparator_leave_the_cached_start_unchanged():
    f, g = parse_function("poly:1,0.5,2"), parse_function("exp:1.5")
    starts = {b: integral._uniform_start(0.0, b) for b in integral._COMPARE_INTERVALS}
    before = {b: [x.copy() for x in start] for b, start in starts.items()}
    for spec in (parse_mean("power:2"), parse_mean("power:inf")):
        for b in starts:
            integral_mean_chain(f, g, 0.0, b, spec)
            integral_logderiv_chain(f, g, 0.0, b, spec)
            logderiv_phi1(f, g, 0.0, b, spec)(np.linspace(0.0, b, 5))
        compare_generalizations(spec, parse_mean("power:0"), 64, 3)
        compare_generalizations(spec, parse_mean("power:0"), 64, 3, kind=ChainKind.LOG_DERIV_FORM)
    for b, start in starts.items():
        assert integral._uniform_start(0.0, b)[0] is start[0]
        assert [_bits(x) for x in start] == [_bits(x) for x in before[b]]


def test_mean_chain_terms_against_nested_scipy():
    # criterion-09-style draws under its seven means: each term, a product of
    # two integrals, is within the sum of their targets max(tol, tol |I|)
    # of scipy's (epsrel 1e-13, split at the crossings where max kinks)
    integrate = pytest.importorskip("scipy.integrate")
    brentq = pytest.importorskip("scipy.optimize").brentq
    tol = 1e-9
    means = [parse_mean(s) for s in ("power:0", "power:1", "power:2", "power:inf",
                                     "rado:-1", "rado:0", "wgeom:0.75,0.25")]
    for mi, spec in enumerate(means):
        for i in range(6):
            f, g, b = _increasing_pair(spawn_rng(909 + mi, i))
            report = integral_mean_chain(f, g, 0.0, b, spec, tol=tol)
            ts = np.linspace(0.0, b, 257)
            d = f(ts) - g(ts)
            cross = [brentq(lambda t: float(f(t)) - float(g(t)), ts[j], ts[j + 1], xtol=1e-15)
                     for j in np.nonzero(d[:-1] * d[1:] < 0.0)[0]]

            def quad(fn):
                def at(t):
                    fv, gv = float(f(t)), float(g(t))
                    return fn(fv, gv, float(mean_values(spec, fv, gv)))
                return integrate.quad(at, 0.0, b, epsabs=0.0, epsrel=1e-13, limit=200,
                                      points=cross or None)[0]

            fg, ff, gg = (quad(lambda x, y, m: x * y), quad(lambda x, y, m: x * x),
                          quad(lambda x, y, m: y * y))
            m1 = quad(lambda x, y, m: m * m)
            m2 = quad(lambda x, y, m: (x * y / m) ** 2)
            for got, (i1, i2) in ((report.left, (fg, fg)), (report.middle, (m1, m2)),
                                  (report.right, (ff, gg))):
                budget = i1 * i2 * sum(max(tol, tol * i) / i for i in (i1, i2))
                assert abs(got - i1 * i2) <= budget, (spec.to_string(), i, got, i1 * i2)


def _power_pair_terms(mp, p, q, b):
    # left, middle and right of t^p, t^q on [0, b] under the arithmetic mean
    b = mp.mpf(b)

    def quad(fn):
        return mp.quad(fn, [0, b])

    def mean(t):
        return (t ** p + t ** q) / 2

    fg, ff, gg = (b ** (e + 1) / (e + 1) for e in (p + q, 2 * p, 2 * q))
    middle = quad(lambda t: mean(t) ** 2) * quad(lambda t: (t ** (p + q) / mean(t)) ** 2)
    return fg ** 2, middle, ff * gg


@pytest.mark.parametrize("p, q", [(0.1, 0.2), (0.5, 1.5)])
def test_mean_chain_terms_on_a_small_interval_meet_their_relative_bar(p, q):
    # below |I| = 1 the width-share target max(tol, tol |I|) is absolute: on
    # [0, 1e-6] t^0.1 and t^0.2 met it at once, every term 7.9e-6 off, about
    # 8000 tol, and the chain was judged at tol.  The bar rule holds each
    # term to 2 tol relative, or raises as the same pair on [0, 1] does
    mp = pytest.importorskip("mpmath")
    tol = 1e-9
    f, g = parse_function(f"pow:{p}"), parse_function(f"pow:{q}")
    try:
        report = integral_mean_chain(f, g, 0.0, 1e-6, parse_mean("power:1"), tol=tol)
    except ConvergenceError:
        assert (p, q) == (0.1, 0.2)
        return
    with mp.workdps(40):
        exact = _power_pair_terms(mp, mp.mpf(p), mp.mpf(q), 1e-6)
        for got, want in zip((report.left, report.middle, report.right), exact):
            assert abs(got - want) <= 2 * tol * want, (got, float(want))


def test_logderiv_chains_match_from_scratch_reference_bit_for_bit():
    # the reports, Phi1 and the product identity equal those of a reference
    # that runs the partition rule with its own loop, sums in node order, for
    # criterion-09 draws and a crossing pair under three min/max-type means
    means = chain_catalog() + [parse_mean("mediant")]
    draws = [(means[i % len(means)],) + _suitable_pair(spawn_rng(909, i)) for i in range(50)]
    draws += [(parse_mean(s), CROSSING_F, CROSSING_G, 1.0) for s in ("power:inf", "min", "max")]
    with_breaks = 0
    xs = np.linspace(0.0, 0.5, 37)
    for spec, f, g, b in draws:
        expected, table, breaks, _ = _reference_logderiv_chain(f, g, 0.0, b, spec)
        with_breaks += bool(breaks)
        assert integral_logderiv_chain(f, g, 0.0, b, spec) == expected, (spec, f, g, b)
        phi1 = logderiv_phi1(f, g, 0.0, b, spec)
        assert np.array_equal(phi1(b * xs), np.exp(2.0 * _ReferenceTable(
            _reference_table(f, g, 0.0, b, _reference_lmean(spec), 1e-10, breaks))(b * xs)))
    assert with_breaks == 3
    # an outer target far below the inner one re-opens intervals
    reopened = 0
    for spec, f, g, b in draws:
        expected, _, _, passes = _reference_logderiv_chain(f, g, 0.0, b, spec, 1e-4, 1e-13)
        reopened += passes
        assert integral_logderiv_chain(f, g, 0.0, b, spec, 1e-4, 1e-13) == expected, (spec, f, g)
    assert reopened >= 8
    lmean = _reference_lmean(parse_mean("power:inf"))
    breaks = _find_kinks(lambda rows, t: CROSSING_F.derivative(t) / CROSSING_F(t)
                         - CROSSING_G.derivative(t) / CROSSING_G(t), np.array([0.0]),
                         np.array([1.0]))[0]
    for f, g, brk in ((EXP2, parse_function("affine:2,1"), []),
                      (CROSSING_F, CROSSING_G, breaks)):
        table1 = _ReferenceTable(_reference_table(f, g, 0.0, 1.0, lmean, 1e-12, brk))
        table2 = _ReferenceTable(_reference_table(
            f, g, 0.0, 1.0, lambda fv, gv, dfv, dgv: dfv / fv + dgv / gv - lmean(fv, gv, dfv, dgv),
            1e-12, brk))
        grid = np.linspace(0.0, 1.0, 32)
        rhs = (f(grid) * g(grid)) ** 2
        phi = np.exp(2.0 * table1(grid)) * (float(f(0.0)) * float(g(0.0))) ** 2 * np.exp(
            2.0 * table2(grid))
        worst = float(np.max(np.abs(phi - rhs) / np.maximum(np.abs(rhs), 1e-300)))
        assert product_identity_check(f, g, 0.0, 1.0, ChainKind.LOG_DERIV_FORM,
                                      parse_mean("power:inf")) == (worst <= 1e-10, worst)


def test_logderiv_chain_samples_each_function_once_per_node(monkeypatch):
    # a smooth mean: f, g, f', g' are each evaluated once at every node the
    # partition ever held, accepted or bisected, and nowhere else: the
    # premises are certified without samples, no scan node is sampled, and
    # the outer integrands take f and g from the partition's samples; a
    # value-and-slope pass counts as one evaluation of f and one of f'
    f = parse_function("exppoly:0.1,1,0.5")
    g = parse_function("affine:2,1")
    counts = Counter()
    seen = []
    value, slope, both = FunctionSpec.__call__, FunctionSpec.derivative, \
        FunctionSpec._value_and_slope

    def counted_value(self, t):
        counts[str(self)] += np.size(t)
        if self == f:
            seen.append(np.ravel(t))
        return value(self, t)

    def counted_slope(self, t):
        counts[str(self) + "'"] += np.size(t)
        return slope(self, t)

    def counted_both(self, t):
        counts[str(self)] += np.size(t)
        counts[str(self) + "'"] += np.size(t)
        if self == f:
            seen.append(np.ravel(t))
        return both(self, t)

    levels = []
    adapt = integral._adapt

    def recorded_adapt(*args, **kwargs):
        out = adapt(*args, **kwargs)
        levels.extend(out.levels)
        return out

    monkeypatch.setattr(FunctionSpec, "__call__", counted_value)
    monkeypatch.setattr(FunctionSpec, "derivative", counted_slope)
    monkeypatch.setattr(FunctionSpec, "_value_and_slope", counted_both)
    monkeypatch.setattr(integral, "_adapt", recorded_adapt)
    report = integral_logderiv_chain(f, g, 0.0, 1.0, parse_mean("power:2"))
    assert report.ordered
    assert min(report.slack_left, report.slack_right) >= -1e-12 * report.scale
    nodes = 15 * sum(len(level.mid) for level in levels)
    assert nodes >= 120
    assert counts == {str(f): nodes, str(g): nodes, str(f) + "'": nodes, str(g) + "'": nodes}
    sampled = np.concatenate(seen)
    assert len(np.unique(sampled)) == len(sampled) == nodes


@pytest.mark.parametrize("spec, f, g", [
    ("power:2", parse_function("exppoly:0.1,1,0.5"), parse_function("affine:2,1")),
    ("power:inf", CROSSING_F, CROSSING_G),
], ids=["smooth", "crossing-max"])
def test_logderiv_phi1_against_nested_scipy(spec, f, g):
    # Phi1 read off the partition at interior points, against int_0^x
    # M(Lf, Lg) from scipy; the crossing pair's partition is split at the
    # crossings of Lf - Lg
    quad = pytest.importorskip("scipy.integrate").quad
    mean = parse_mean(spec)
    breaks = _find_kinks(lambda rows, t: f.derivative(t) / f(t) - g.derivative(t) / g(t),
                         np.array([0.0]), np.array([1.0]))[0]
    assert bool(breaks) == (spec == "power:inf")

    def lm(t):
        return float(mean_values(mean, f.derivative(t) / f(t), g.derivative(t) / g(t)))

    phi1 = logderiv_phi1(f, g, 0.0, 1.0, mean, inner_tol=1e-12)
    xs = np.array([0.013, 0.1, 0.25, 0.3711, 0.5, 0.618, 0.77, 0.9, 0.999] + breaks)
    got = phi1(xs)
    for x, value in zip(xs, got):
        points = [k for k in breaks if k < x] or None
        v = quad(lm, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=200, points=points)[0]
        assert abs(value / math.exp(2.0 * v) - 1.0) <= 2e-12, x


def test_steep_logderiv_chain_against_nested_scipy():
    # integral_chains seed 31's steep pair: the uniform Simpson table this
    # partition replaced gave up at 16384 panels with ConvergenceError
    quad = pytest.importorskip("scipy.integrate").quad
    f = parse_function("poly:0.10504704784990125,9.901211739330435,0.19000239786890213")
    g = parse_function("affine:7.80273825046556,4.20719812552979")
    report = integral_logderiv_chain(f, g, 0.0, 2.0, parse_mean("power:2"))

    def lm(t):
        u = float(f.derivative(t)) / float(f(t))
        w = float(g.derivative(t)) / float(g(t))
        return math.sqrt((u * u + w * w) / 2.0)

    def v(x):
        return quad(lm, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    def outer(fn):
        return quad(fn, 0.0, 2.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    middle = (outer(lambda x: math.exp(2.0 * v(x)))
              * outer(lambda x: (float(f(x)) * float(g(x))) ** 2 * math.exp(-2.0 * v(x))))
    assert abs(report.middle - middle) <= 1e-12 * middle
    assert report.ordered


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


AFFINE_1_2 = parse_function("affine:1,2")
POWER_2 = parse_mean("power:2")
LOGDERIV_ENTRIES = {
    "chain-inner": lambda a, b, tol: integral_logderiv_chain(EXP1, AFFINE_1_2, a, b, POWER_2,
                                                             inner_tol=tol),
    "chain-outer": lambda a, b, tol: integral_logderiv_chain(EXP1, AFFINE_1_2, a, b, POWER_2,
                                                             outer_tol=tol),
    "phi1": lambda a, b, tol: logderiv_phi1(EXP1, AFFINE_1_2, a, b, POWER_2, inner_tol=tol),
    "h-chain": lambda a, b, tol: general_h_chain(EXP1, AFFINE_1_2, a, b, lambda t: 0.5,
                                                 ChainKind.LOG_DERIV_FORM, tol=tol),
    "identity": lambda a, b, tol: product_identity_check(EXP1, AFFINE_1_2, a, b,
                                                         ChainKind.LOG_DERIV_FORM, POWER_2),
}


BAD_ARGUMENTS = {"reversed": (1.0, 0.0, 1e-10), "empty": (0.5, 0.5, 1e-10),
                 "nan-end": (0.0, float("nan"), 1e-10), "zero-tol": (0.0, 1.0, 0.0),
                 "negative-tol": (0.0, 1.0, -1.0), "nan-tol": (0.0, 1.0, float("nan"))}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in LOGDERIV_ENTRIES for case in BAD_ARGUMENTS
    # the product identity takes no tolerance
    if not (entry == "identity" and case.endswith("-tol"))])
def test_logderiv_entries_reject_bad_intervals_and_tolerances(entry, case):
    # a reversed interval gave a false violation (slack_right -24.6), an empty
    # one a divide-by-zero warning and ConvergenceError, and a tolerance of
    # 0, -1 or NaN bisected to the pending cap
    with pytest.raises(ParameterError):
        LOGDERIV_ENTRIES[entry](*BAD_ARGUMENTS[case])


NON_FINITE_ENTRIES = {
    "quadrature": lambda a, b: quadrature(lambda t: t, a, b),
    "mean-chain": lambda a, b: integral_mean_chain(EXP1, AFFINE_1_2, a, b, POWER_2),
    "logderiv-chain": lambda a, b: integral_logderiv_chain(EXP1, AFFINE_1_2, a, b, POWER_2),
    "phi1": lambda a, b: logderiv_phi1(EXP1, AFFINE_1_2, a, b, POWER_2),
    **{f"identity-{kind.value}": (lambda a, b, kind=kind: product_identity_check(
        EXP1, AFFINE_1_2, a, b, kind, POWER_2)) for kind in ChainKind},
    **{f"h-chain-{kind.value}": (lambda a, b, kind=kind: general_h_chain(
        EXP1, AFFINE_1_2, a, b, lambda t: 0.5, kind)) for kind in ChainKind},
}


@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES)
@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_non_finite_endpoints_are_parameter_errors(entry, a, b):
    # an infinite endpoint reached np.linspace before any typed error: a
    # RuntimeWarning under the suite's filter, a DomainError without it
    with pytest.raises(ParameterError, match="finite endpoints"):
        NON_FINITE_ENTRIES[entry](a, b)


@pytest.mark.parametrize("x", [2.0, -1.0, float("nan"), [0.5, float("nan")], [0.0, 1.0 + 1e-15]])
def test_points_outside_the_interval_are_rejected(x):
    # Phi1 gave its value at b for x = 2, 1.0 for x = -1 and NaN for NaN; the
    # product identity's range test let NaN through, to (False, nan)
    phi1 = logderiv_phi1(EXP1, AFFINE_1_2, 0.0, 1.0, POWER_2)
    assert np.isfinite(phi1([0.0, 0.5, 1.0])).all()
    with pytest.raises(ParameterError):
        phi1(x)
    for kind in ChainKind:
        with pytest.raises(ParameterError):
            product_identity_check(EXP1, AFFINE_1_2, 0.0, 1.0, kind, POWER_2,
                                   grid=np.atleast_1d(x))


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

# The per-trial reference: the comparator's rule written out for one trial,
# on FunctionSpec calls, with its own panel, level and summation code.
REF_FLOOR = 1e-13


def _reference_gap(kind, f, g, t):
    if kind is ChainKind.MEAN_FORM:
        return f(t) - g(t)
    return f.derivative(t) / f(t) - g.derivative(t) / g(t)


def _reference_sums(values, weights):
    # each panel's 15 weighted terms, added in node order
    nodes = values.reshape(-1, 15)
    out = nodes[:, 0:1] * weights[0]
    for k in range(1, 15):
        out = out + nodes[:, k:k + 1] * weights[k]
    return out


def _reference_add(terms):
    # left to right, from 0
    total = 0.0
    for x in terms:
        total = total + x
    return total


def _reference_integrands(kind, specs, f, g, t):
    # [M_a^2, M*_a^2, M_b^2, M*_b^2], or [M(Lf, Lg) of a, of b, f g], at t
    fv, gv = np.asarray(f(t), dtype=float), np.asarray(g(t), dtype=float)
    if kind is ChainKind.MEAN_FORM:
        out = []
        for spec in specs:
            m = mean_values(spec, fv, gv)
            out += [m * m, conjugate_from_mean(fv, gv, m) ** 2]
        return np.array(out)
    dfv, dgv = f.derivative(t), g.derivative(t)
    return np.array([(dfv + dgv) / (fv + gv) if spec.family is MeanFamily.MEDIANT
                     else mean_values(spec, dfv / fv, dgv / gv) for spec in specs] + [fv * gv])


def _reference_row_adapt(integrand, b, tol, judged, pending, accepted):
    """Bisect the pending (mid, hw) panels of [0, b] until each judged
    integrand meets its width share of max(tol, tol |I|); the accepted
    panels in acceptance order as (mid, hw, values (k, 15), K15 (judged,),
    |K15 - G7| (judged,)), and the K15 and |K15 - G7| totals added level by
    level, each level's panels one after the other."""
    kept, total, error = [], np.array(accepted, dtype=float), np.zeros(judged)
    while pending:
        mids = np.array([p[0] for p in pending])
        hws = np.array([p[1] for p in pending])
        values = integrand((mids[:, None] + hws[:, None] * GK_NODES).ravel())
        sums = np.stack([_reference_sums(v, GK_WEIGHTS) for v in values[:judged]])
        sums = sums * hws[:, None]
        est, diff = sums[..., 0], np.abs(sums[..., 1])  # (judged, panels)
        target = np.maximum(tol, tol * np.abs(total + _reference_add(est.T))) / b
        done = [bool((diff[:, i] <= target * (2.0 * hw)).all()) for i, hw in enumerate(hws)]
        total = total + _reference_add(est.T[done])
        error = error + _reference_add(diff.T[done])
        kept += [(mids[i], hws[i], values[:, 15 * i:15 * i + 15], est[:, i], diff[:, i])
                 for i in range(len(pending)) if done[i]]
        split = [(mids[i], hws[i]) for i in range(len(pending)) if not done[i]]
        pending = ([(mid - hw / 2.0, hw / 2.0) for mid, hw in split]
                   + [(mid + hw / 2.0, hw / 2.0) for mid, hw in split])
    return kept, total, error


def _reference_trial(kind, specs, f, g, b, target):
    """(middles, bars) of one trial by the comparator's rule."""
    log = kind is ChainKind.LOG_DERIV_FORM
    breaks = []
    if any(integral._kinks_on_diagonal(spec) for spec in specs):
        breaks = _find_kinks(lambda rows, t: _reference_gap(kind, f, g, t), np.array([0.0]),
                             np.array([b]))[0]
    edges = np.union1d(np.linspace(0.0, b, 9), breaks)
    hw = np.diff(edges) / 2.0
    tol, judged = (target / 8.0, 2) if log else (target / 2.0, 4)

    def integrand(t):
        return _reference_integrands(kind, specs, f, g, t)

    kept, total, error = _reference_row_adapt(integrand, b, tol, judged,
                                          list(zip(edges[:-1] + hw, hw)), np.zeros(judged))
    refined = False
    while True:
        kept.sort(key=lambda p: p[0])  # left to right
        if log:
            inner = cumulative_weights().T
            start, shares, est, err = np.zeros(2), [], [], []
            for mid, h, values, k15, dv in kept:
                v = np.stack([_reference_sums(values[s], inner)[0] * h + start[s]
                              for s in (0, 1)])
                phi = [np.exp(2.0 * v), np.exp(-(2.0 * v)) * (values[2] * values[2])]
                sums = np.array([[_reference_sums(p[s], GK_WEIGHTS)[0] * h for s in (0, 1)]
                                 for p in phi])  # (factor, spec, K15 / K15 - G7)
                est.append(sums[..., 0])
                err.append(np.abs(sums[..., 1]))
                start = start + k15
            totals, errors = _reference_add(est), _reference_add(err)
            inner_err = _reference_add([p[4] for p in kept])
        else:
            if refined:
                total = _reference_add([p[3] for p in kept])
                error = _reference_add([p[4] for p in kept])
            totals, errors = total.reshape(2, 2).T, error.reshape(2, 2).T
            est = [p[3].reshape(2, 2).T for p in kept]
            err = [p[4].reshape(2, 2).T for p in kept]
            inner_err = np.zeros(2)
        bars = errors[0] / np.abs(totals[0]) + errors[1] / np.abs(totals[1]) + 4.0 * inner_err
        middles = totals[0] * totals[1]
        if not (bars > target).any():
            return middles, bars
        bad = [(e[0] / np.abs(totals[0]) + e[1] / np.abs(totals[1])
                + 4.0 * (p[4] if log else 0.0) > target * (2.0 * p[1]) / b).any()
               for p, e in zip(kept, err)]
        if not any(bad):
            return middles, bars
        split = [p for p, x in zip(kept, bad) if x]
        kept = [p for p, x in zip(kept, bad) if not x]
        halves, _, _ = _reference_row_adapt(integrand, b, tol, judged,
                                        [(m - h / 2.0, h / 2.0) for m, h, *_ in split]
                                        + [(m + h / 2.0, h / 2.0) for m, h, *_ in split],
                                        _reference_add([p[3] for p in kept]))
        kept += halves
        refined = True


def _reference_verdict(spec_a, spec_b, trials, seed, kind, tie_rtol=1e-9):
    target = max(tie_rtol / 10.0, REF_FLOOR)
    best_a = best_b = None
    wins_a = wins_b = 0
    for i in range(trials):
        rng = spawn_rng(seed, i)
        f = _sample_function(rng)
        g = _sample_function(rng)
        b_end = float((0.5, 1.0, 2.0)[int(rng.integers(0, 3))])
        (ma, mb), (bar_a, bar_b) = _reference_trial(kind, (spec_a, spec_b), f, g, b_end, target)
        diff = (mb - ma) / max(abs(ma), abs(mb))
        if abs(diff) <= tie_rtol + bar_a + bar_b:
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


def test_witnesses_re_run_to_their_middles():
    # a witness names f and g with every digit of their coefficients, so
    # parsing it back reproduces both middle terms to the last bit
    a, b = parse_mean("power:0.5"), parse_mean("power:2")
    kind = ChainKind.LOG_DERIV_FORM
    verdict = compare_generalizations(a, b, 1000, 13, kind)
    assert len(verdict.witnesses) == 2
    for w in verdict.witnesses:
        f, g = parse_function(w.f), parse_function(w.g)
        assert f.to_string() == w.f and g.to_string() == w.g
        (ma, mb), _ = _reference_trial(kind, (a, b), f, g, w.b, 1e-10)
        assert (ma, mb) == (w.middle_a, w.middle_b)


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


def test_kinked_blocks_stay_within_the_memory_bound():
    # a kinked mean adds each block's 1025-point scan of its 256 rows to the
    # working set, and the log-derivative scan evaluates f, g, f' and g'
    for kind in ChainKind:
        tracemalloc.start()
        try:
            got = compare_generalizations(parse_mean("max"), parse_mean("power:1"), 1000, 13,
                                          kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.trials == 1000
        assert peak < 16 * 2 ** 20, kind


@pytest.mark.parametrize("kind, sizes", [
    (ChainKind.MEAN_FORM, [64, 128, 256, 256, 256, 40]),
    (ChainKind.LOG_DERIV_FORM, [64, 128, 256, 256, 256, 40])])
def test_blocks_double_up_to_the_panel_node_budget(monkeypatch, kind, sizes):
    # 64 rows, then doubling while a block holds at most 2**15 start-panel
    # nodes (256 rows of 120 in either form); each block holds the draws of
    # the trials from where the block before it stopped
    blocks = []
    middle = integral._middle_fixed

    def recording(kind, specs, draws, *args):
        blocks.append(draws)
        return middle(kind, specs, draws, *args)

    monkeypatch.setattr(integral, "_middle_fixed", recording)
    got = compare_generalizations(parse_mean("power:0"), parse_mean("power:2"), 1000, 4, kind)
    assert got.trials == 1000
    assert [len(draws[2]) for draws in blocks] == sizes
    stops = np.cumsum(sizes).tolist()
    calls = list(zip([0] + stops[:-1], stops))
    for (start, stop), draws in zip(calls, blocks):
        for got_x, want_x in zip(draws, integral._draw_block(4, start, stop)):
            assert got_x.tobytes() == want_x.tobytes(), (start, stop)
        assert (stop - start) * 15 * integral._START_PANELS <= integral._BLOCK_NODES


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("layout", ["block", "panels", "scan"])
def test_catalog_rows_equal_function_spec_calls_bit_for_bit(layout, derivative):
    # all 16 (f, g) kind pairs, four times each, on a block's start nodes
    # (15, rows, 8) with each row's nodes together in memory, on one panel
    # per row (panels, 15) and on the kink scan grids (rows, 1025)
    _, coeffs, intervals = integral._draw_block(9, 0, 64)
    kinds = np.stack([np.arange(64) % 4, np.arange(64) // 4 % 4])
    ends = np.array(integral._COMPARE_INTERVALS)[intervals]
    poly, exp = integral._catalog_poly(kinds, coeffs)
    if layout == "block":
        xs = integral._compare_start()[2][intervals].transpose(1, 0, 2)
    elif layout == "panels":
        xs = np.stack([(np.linspace(0.0, b, 9)[:1] + b / 16.0) + b / 16.0 * GK_NODES
                       for b in ends])
    else:
        xs = np.stack([np.linspace(0.0, b, integral._SCAN_POINTS) for b in ends])
    values, slopes = integral._catalog_rows(poly, exp, xs, derivative)
    assert (slopes is not None) is derivative
    for m in range(2):
        for row in range(64):
            spec = integral._catalog_member(kinds[m, row], coeffs[m, row])
            t = xs[..., row, :]
            assert values[m, ..., row, :].tobytes() == spec(t).tobytes(), (spec, layout)
            if derivative:
                assert slopes[m, ..., row, :].tobytes() == spec.derivative(t).tobytes(), spec


# ---------------------------------------------------------------------------
# the comparator's panels: error bars, kinks, and argument checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(ChainKind))
@pytest.mark.parametrize("seed", range(1, 6))
def test_max_min_pair_never_gives_a_directional_verdict(kind, seed):
    # min = f + g - max pointwise (and Lf + Lg - max of the log-derivatives),
    # so the two middle terms are equal in both forms: every strict win
    # would be integration error (the Simpson grid reported b-prec-a)
    verdict = compare_generalizations(parse_mean("power:inf"), parse_mean("power:-inf"),
                                      200, seed, kind)
    assert verdict.relation is Relation.UNDETERMINED
    assert verdict.trials == 200


def _scalar_member(spec):
    """f and f' of a catalog member as plain float callables."""
    c = spec.coeffs

    def poly(t):
        return sum(ci * t ** i for i, ci in enumerate(c))

    def dpoly(t):
        return sum(i * ci * t ** (i - 1) for i, ci in enumerate(c) if i)

    if spec.family is FunctionFamily.EXP:
        return (lambda t: math.exp(c[0] * t)), (lambda t: c[0] * math.exp(c[0] * t))
    if spec.family is FunctionFamily.EXP_OF_POLY:
        return (lambda t: math.exp(poly(t))), (lambda t: dpoly(t) * math.exp(poly(t)))
    return poly, dpoly


SCALAR_MEANS = {
    "power:0": lambda x, y: math.sqrt(x * y),
    "power:0.5": lambda x, y: ((math.sqrt(x) + math.sqrt(y)) / 2.0) ** 2,
    "power:2": lambda x, y: math.sqrt((x * x + y * y) / 2.0),
    "min": min,
    "max": max,
}


def _quad_middle(kind, mean, f, g, b):
    """The middle term by scipy's quad at epsrel 1e-13, split at the crossings
    of f and g (mean form) or of their log-derivatives; nested in the
    log-derivative form."""
    integrate = pytest.importorskip("scipy.integrate")
    brentq = pytest.importorskip("scipy.optimize").brentq
    (fs, dfs), (gs, dgs) = _scalar_member(f), _scalar_member(g)
    if kind is ChainKind.MEAN_FORM:
        def gap(t):
            return fs(t) - gs(t)
    else:
        def gap(t):
            return dfs(t) / fs(t) - dgs(t) / gs(t)
    ts = np.linspace(0.0, b, 4097)
    d = np.array([gap(t) for t in ts])
    roots = [brentq(gap, ts[i], ts[i + 1], xtol=1e-300, rtol=4 * np.finfo(float).eps)
             for i in np.nonzero(d[:-1] * d[1:] < 0)[0]]

    def quad(fn, hi):
        points = [r for r in roots if 0.0 < r < hi] or None
        return integrate.quad(fn, 0.0, hi, epsabs=0.0, epsrel=1e-13, limit=200,
                              points=points)[0]

    if kind is ChainKind.MEAN_FORM:
        return (quad(lambda t: mean(fs(t), gs(t)) ** 2, b)
                * quad(lambda t: (fs(t) * gs(t) / mean(fs(t), gs(t))) ** 2, b))
    cache = {}

    def v(x):
        if x not in cache:
            cache[x] = 2.0 * quad(lambda t: mean(dfs(t) / fs(t), dgs(t) / gs(t)), x) if x else 0.0
        return cache[x]

    return (quad(lambda x: math.exp(v(x)), b)
            * quad(lambda x: (fs(x) * gs(x)) ** 2 * math.exp(-v(x)), b))


# the bars leave out rounding: a middle is a product of two sums of a few
# hundred terms, and so is quad's, each some ulps off (the largest gap past
# a bar on the rows below is 4.9 eps)
ROUNDING = 8 * np.finfo(float).eps


def _block_middles(kind, specs, draws, tie_rtol=1e-9):
    target = max(tie_rtol / 10.0, REF_FLOOR)
    middles, bars, failed = integral._middle_fixed(kind, specs, draws, target,
                                                   np.empty(4 * 15 * 8 * len(draws[2])))
    assert not failed and (bars <= target).all()
    return middles, bars


def _draws_of(seed, trials):
    # the draws of the given trials of a seed, one block
    draws = [integral._draw_block(seed, i, i + 1) for i in trials]
    return (np.concatenate([d[0] for d in draws], axis=1),
            np.concatenate([d[1] for d in draws], axis=1),
            np.concatenate([d[2] for d in draws]))


BAR_CASES = [
    (ChainKind.MEAN_FORM, "power:0"), (ChainKind.MEAN_FORM, "power:2"),
    (ChainKind.MEAN_FORM, "min"), (ChainKind.MEAN_FORM, "max"),
    (ChainKind.LOG_DERIV_FORM, "power:0.5"), (ChainKind.LOG_DERIV_FORM, "power:2"),
    (ChainKind.LOG_DERIV_FORM, "min"), (ChainKind.LOG_DERIV_FORM, "max")]


@pytest.mark.parametrize("kind, spec", BAR_CASES)
def test_panel_middles_lie_within_their_bars(kind, spec):
    # 64 trials of one block: each middle is within its bar of scipy's; for
    # min and max the rows where f and g (or Lf and Lg) cross start split at
    # the crossings
    _middles_within_bars(kind, spec, 5, range(64))


@pytest.mark.parametrize("kind, spec", BAR_CASES)
def test_steep_rows_adapt_within_their_bars(kind, spec):
    # the steep rows of seed 7, whose bars on fixed panels reached 5e-7
    # (trial 62: poly with c0 near 0.2 against an exppoly, on [0, 2]), 5e-9
    # (43, 59) and 7e-9 (26), adapt until their bars meet the target
    _middles_within_bars(kind, spec, 7, (26, 43, 59, 62))


def _middles_within_bars(kind, spec, seed, trials):
    mean = parse_mean(spec)
    draws = _draws_of(seed, trials)
    kinds, coeffs, intervals = draws
    middles, bars = _block_middles(kind, (mean, parse_mean("power:1")), draws)
    for row in range(len(trials)):
        f = integral._catalog_member(kinds[0, row], coeffs[0, row])
        g = integral._catalog_member(kinds[1, row], coeffs[1, row])
        b = integral._COMPARE_INTERVALS[intervals[row]]
        want = _quad_middle(kind, SCALAR_MEANS[spec], f, g, b)
        assert abs(middles[0, row] - want) <= (bars[0, row] + ROUNDING) * abs(middles[0, row]), (
            row, f, g, b)


def test_comparator_log_middles_match_the_chain_kernel_bit_for_bit(monkeypatch):
    # a log-derivative comparator row's middle is Phi1 * Phi2 of the shared
    # kernel on a lone one-row partition over that row's intervals, holding
    # what the chain's sampler holds ([M(Lf, Lg), fg, f^2, g^2]), summed as
    # the chain sums it
    kind = ChainKind.LOG_DERIV_FORM
    draws = integral._draw_block(5, 0, 32)
    kinds, coeffs, intervals = draws
    specs = (parse_mean("power:0.5"), parse_mean("mediant"))
    parts = []
    outer_sums = integral._outer_sums

    def recording(part, riders):  # each partition the shared routine sums, the last final
        parts.append(part)
        return outer_sums(part, riders)

    monkeypatch.setattr(integral, "_outer_sums", recording)
    middles, _ = _block_middles(kind, specs, draws)
    part = parts[-1]
    for row in range(32):
        f = integral._catalog_member(kinds[0, row], coeffs[0, row])
        g = integral._catalog_member(kinds[1, row], coeffs[1, row])
        mine = part.order[part.row[part.order] == row]
        mid, hw = part.mid[mine], part.hw[mine]
        t = mid + hw * GK_NODES[:, None]
        fv, gv = f(t), g(t)
        for s, spec in enumerate(specs):
            lmean = integral._logderiv_mean(spec)(fv, gv, f.derivative(t), g.derivative(t))
            values = np.stack([lmean, fv * gv, fv * fv, gv * gv])
            sums = integral._per_panel(values[:1], GK_WEIGHTS, 1) * hw
            one = integral._Partition(None, np.array([0.0]), part.b[row:row + 1], 1e-10, 1,
                                      np.zeros(len(mid), dtype=int), mid, hw, part.depth[mine],
                                      values, sums, None, {})
            est, _ = integral._outer_sums(one, 3)
            phi1, phi2 = one.row_sums(est)[:2, 0]
            assert middles[s, row].tobytes() == (phi1 * phi2).tobytes(), (spec, row)


def test_a_trial_with_several_crossings_integrates_within_its_bar():
    # f and g of trial 188 of seed 3 cross twice (on two fixed panels such a
    # trial raised): both crossings split its start panels, and its max and
    # min middles lie within their bars of scipy's
    draws = _draws_of(3, [188])
    kinds, coeffs, intervals = draws
    f = integral._catalog_member(kinds[0, 0], coeffs[0, 0])
    g = integral._catalog_member(kinds[1, 0], coeffs[1, 0])
    b = integral._COMPARE_INTERVALS[intervals[0]]
    assert len(_find_kinks(lambda rows, t: f(t) - g(t), np.array([0.0]), np.array([b]))[0]) == 2
    middles, bars = _block_middles(ChainKind.MEAN_FORM, (parse_mean("max"), parse_mean("min")),
                                   draws)
    for s, mean in enumerate((max, min)):
        want = _quad_middle(ChainKind.MEAN_FORM, mean, f, g, b)
        assert abs(middles[s, 0] - want) <= (bars[s, 0] + ROUNDING) * abs(middles[s, 0])


@pytest.mark.parametrize("kind", list(ChainKind))
def test_a_row_has_the_same_bits_alone_and_in_any_block(kind):
    # a trial's middles and bars do not depend on its block: alone, among 8
    # and among 256 rows, and with its neighbours in another order (max
    # against power:2: some rows cross and start on split panels)
    specs = (parse_mean("max"), parse_mean("power:2"))
    draws = integral._draw_block(11, 0, 256)
    block, block_bars = _block_middles(kind, specs, draws)
    rng = make_rng(3)

    def rows(sel):
        kinds, coeffs, intervals = draws
        return kinds[:, sel], coeffs[:, sel], intervals[sel]

    for row in rng.choice(256, size=12, replace=False).tolist():
        alone = _block_middles(kind, specs, rows(slice(row, row + 1)))
        start = row - row % 8
        eight = _block_middles(kind, specs, rows(slice(start, start + 8)))
        order = rng.permutation(256)
        shuffled = _block_middles(kind, specs, rows(order))
        at = int(np.flatnonzero(order == row)[0])
        for got, col in ((alone, 0), (eight, row - start), (shuffled, at)):
            assert got[0][:, col].tobytes() == block[:, row].tobytes(), row
            assert got[1][:, col].tobytes() == block_bars[:, row].tobytes(), row


def test_a_trial_whose_row_hits_a_cap_raises_when_the_scan_reaches_it(monkeypatch):
    # at depth cap 1 every row that needs a bisection fails: the verdict
    # raises at the first such trial, named, as the scan reaches it, so the
    # trials before it decide nothing and blocking changes nothing
    quadrature_module = __import__("importlib").import_module("ineqmeans.quadrature")
    monkeypatch.setattr(quadrature_module, "DEPTH_CAP", 1)
    a, b = parse_mean("power:0"), parse_mean("power:2")
    for kind, seed in ((ChainKind.MEAN_FORM, 5), (ChainKind.LOG_DERIV_FORM, 6)):
        with pytest.raises(ConvergenceError, match=r"trial \d+: adaptive quadrature exceeded "
                           "depth 1") as raised:
            compare_generalizations(a, b, 1000, seed, kind)
        first = int(str(raised.value).split(":")[0].split()[1])
        assert first > 0
        assert compare_generalizations(a, b, first, seed, kind).trials == first
        with pytest.raises(ConvergenceError, match=f"trial {first}: "):
            compare_generalizations(a, b, first + 1, seed, kind)


@pytest.mark.parametrize("kind, a, b", [(ChainKind.MEAN_FORM, "power:0", "power:2"),
                                        (ChainKind.LOG_DERIV_FORM, "power:0.5", "power:1.5")])
def test_verdicts_do_not_depend_on_the_draw_span(monkeypatch, kind, a, b):
    # trials are drawn a span at a time and each block takes its slice; a
    # span of 1 or 64 rows draws each block on its own, the default of 1024
    # draws 1000 trials at once and, past it, starts the next span at the
    # block that does not fit
    spec_a, spec_b = parse_mean(a), parse_mean(b)
    early = parse_mean("power:0.5"), parse_mean("power:2")
    calls = []
    draw = integral._draw_block

    def recording(seed, start, stop):
        calls.append(stop - start)
        return draw(seed, start, stop)

    monkeypatch.setattr(integral, "_draw_block", recording)
    want = compare_generalizations(spec_a, spec_b, 2500, 2, kind)
    assert want.trials == 2500 and want.relation is not Relation.INCOMPARABLE
    assert calls == [1024, 1024, 516]  # from trials 0, 960 and 1984
    calls.clear()
    assert compare_generalizations(spec_a, spec_b, 1000, 2, kind).trials == 1000
    assert calls == [1000]
    want_early = compare_generalizations(*early, 1000, 13, ChainKind.LOG_DERIV_FORM)
    assert want_early.trials == 193
    for span in (1, 64):
        monkeypatch.setattr(integral, "_SPAN", span)
        assert compare_generalizations(spec_a, spec_b, 2500, 2, kind) == want, span
        assert compare_generalizations(*early, 1000, 13, ChainKind.LOG_DERIV_FORM) == want_early


def _injected(monkeypatch, change):
    # _middle_fixed with change(trial index, middles, bars, failed) applied
    # to each row of each block's result
    middle = integral._middle_fixed
    done = [0]

    def patched(kind, specs, draws, target, buffer):
        middles, bars, failed = middle(kind, specs, draws, target, buffer)
        for row in range(len(draws[2])):
            change(done[0] + row, row, middles, bars, failed)
        done[0] += len(draws[2])
        return middles, bars, failed

    monkeypatch.setattr(integral, "_middle_fixed", patched)


@pytest.mark.parametrize("capped, raises", [(320, False), (400, False), (319, True), (200, True),
                                            (191, True)])
def test_a_capped_row_raises_only_when_the_scan_reaches_it(monkeypatch, capped, raises):
    # seed 4 exits at trial 319, row 127 of the block 192..447: a capped row
    # after it, in that block, is not scanned; one up to it raises, naming
    # it.  A capped row's middles and bars are garbage (NaN) and never read,
    # so no RuntimeWarning (an error under this suite's settings)
    a, b = parse_mean("power:0.5"), parse_mean("power:2")
    kind = ChainKind.LOG_DERIV_FORM
    want = compare_generalizations(a, b, 1000, 4, kind)
    assert want.relation is Relation.INCOMPARABLE and want.trials == 320

    def cap(trial, row, middles, bars, failed):
        if trial == capped:
            failed[row] = "injected cap"
            middles[:, row] = bars[:, row] = np.nan

    _injected(monkeypatch, cap)
    if not raises:
        assert compare_generalizations(a, b, 1000, 4, kind) == want
        return
    with pytest.raises(ConvergenceError, match=f"^trial {capped}: injected cap$"):
        compare_generalizations(a, b, 1000, 4, kind)


@pytest.mark.parametrize("swap", [False, True])
def test_equal_best_separations_keep_the_earliest_witness(monkeypatch, swap):
    # every trial a strict win by 0.25 (relative to the larger middle) but
    # trials 5, 9 (same block) and 70 (next block) by 0.5: the witness is
    # trial 5, the first largest of its block and never replaced by an equal
    # one later
    def separate(trial, row, middles, bars, failed):
        low, high = 1.0, (2.0 if trial in (5, 9, 70) else 4.0 / 3.0)
        middles[:, row] = (high, low) if swap else (low, high)
        bars[:, row] = 0.0

    _injected(monkeypatch, separate)
    one, two = parse_mean("power:1"), parse_mean("power:2")
    got = compare_generalizations(one, two, 300, 6)
    assert got.relation is (Relation.B_PREC_A if swap else Relation.A_PREC_B)
    assert got.trials == 300
    witness = integral._witness(integral._draw_block(6, 5, 6), 0, *((2.0, 1.0) if swap
                                                                   else (1.0, 2.0)))
    assert got.witnesses == (witness,)


@pytest.mark.parametrize("kind", list(ChainKind))
def test_equal_middles_at_zero_tie_rtol_tie_without_warnings(kind):
    # diff is 0 in every trial and ties at tie_rtol = 0, with no NaN or
    # division warning on the way
    one = parse_mean("power:2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = compare_generalizations(one, one, 1000, 8, kind, tie_rtol=0.0)
    assert verdict == OrderVerdict(Relation.UNDETERMINED, (), 1000, 8)


@pytest.mark.parametrize("trials, tie_rtol", [(5, float("nan")), (5, -1.0), (5, float("inf")),
                                              (2.5, 1e-9), (5.0, 1e-9), (True, 1e-9)])
def test_compare_rejects_bad_tie_rtol_and_trials(trials, tie_rtol):
    # a NaN or negative tie_rtol gave b-prec-a for identical means, and a
    # fractional trial count a numpy error from the sampler
    one = parse_mean("power:1")
    with pytest.raises(ParameterError):
        compare_generalizations(one, one, trials, 3, tie_rtol=tie_rtol)


def test_compare_accepts_numpy_integer_trials_and_zero_tie_rtol():
    one = parse_mean("power:1")
    verdict = compare_generalizations(one, one, np.int64(5), 3, tie_rtol=np.float32(0.0))
    assert verdict.relation is Relation.UNDETERMINED and verdict.trials == 5
