import itertools
import math
import os
import platform
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest

from ineqmeans import (ConvergenceError, DomainError, ParameterError, cbs_chain, cde_check,
                       cde_check_functions, chain_catalog, dft_uncertainty,
                       lorentz_chain, parse_function, parse_mean, q_cbs_chain,
                       q_jackson_integral)
from ineqmeans import discrete, means
from ineqmeans.functions import FunctionFamily, FunctionSpec
from ineqmeans.means import conjugate_values
from ineqmeans.reports import chain_report
from ineqmeans.sampling import log_uniform, make_rng


# ---------------------------------------------------------------------------
# discrete chain
# ---------------------------------------------------------------------------

def test_milne_worked_example():
    # quadratic mean on x=(1,2), y=(2,1): the conjugate normalization factors
    # cancel in the product, matching the hand form
    # (sum (x^2+y^2)) * (sum x^2 y^2/(x^2+y^2)) = 10 * 1.6 = 16.
    report = cbs_chain([1.0, 2.0], [2.0, 1.0], parse_mean("power:2"))
    assert report.left == pytest.approx(16.0, rel=1e-14)
    assert report.middle == pytest.approx(16.0, rel=1e-14)
    assert report.right == pytest.approx(25.0, rel=1e-14)
    assert report.ordered


def test_equal_vectors_collapse_the_chain():
    x = [0.5, 2.0, 7.0]
    for spec in chain_catalog():
        report = cbs_chain(x, x, spec)
        assert report.left == pytest.approx(report.middle, rel=1e-12)
        assert report.middle == pytest.approx(report.right, rel=1e-12)


def test_callebaut_weighted_geometric_example():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([3.0, 2.0, 1.0])
    report = cbs_chain(x, y, parse_mean("wgeom:0.75,0.25"))
    middle = float(np.sum(x ** 1.5 * y ** 0.5)) * float(np.sum(x ** 0.5 * y ** 1.5))
    assert report.middle == pytest.approx(middle, rel=1e-13)
    assert report.ordered


def test_milne_matches_hand_coded_formula_on_random_input():
    rng = make_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        x = log_uniform(rng, size=n)
        y = log_uniform(rng, size=n)
        report = cbs_chain(x, y, parse_mean("power:2"))
        hand = float(np.sum(x * x + y * y)) * float(np.sum(x * x * y * y / (x * x + y * y)))
        assert report.middle == pytest.approx(hand, rel=1e-12)


def test_callebaut_family_ordering_in_alpha():
    # at alpha = 0 the weighted geometric mean collapses M M* = xy: middle = left
    rng = make_rng(5)
    x = log_uniform(rng, size=20)
    y = log_uniform(rng, size=20)
    middles = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = parse_mean(f"wgeom:{(1 + alpha) / 2!r},{(1 - alpha) / 2!r}")
        report = cbs_chain(x, y, spec)
        assert report.slack_left >= -1e-12 * report.scale
        assert report.slack_right >= -1e-12 * report.scale
        middles.append(report.middle)
    assert middles[0] == pytest.approx((x * y).sum() ** 2, rel=1e-13)
    assert all(a <= b * (1 + 1e-12) for a, b in zip(middles, middles[1:]))


def test_chain_holds_for_catalog_means_on_random_vectors():
    rng = make_rng(7)
    for spec in chain_catalog():
        for _ in range(100):
            n = int(rng.integers(1, 40))
            x = log_uniform(rng, size=n)
            y = log_uniform(rng, size=n)
            report = cbs_chain(x, y, spec)
            assert report.slack_left >= -1e-12 * report.scale, spec.to_string()
            assert report.slack_right >= -1e-12 * report.scale, spec.to_string()


def test_chain_rejects_bad_input():
    with pytest.raises(ParameterError):
        cbs_chain([1.0, 2.0], [1.0], parse_mean("power:2"))
    with pytest.raises(DomainError):
        cbs_chain([1.0, 0.0], [1.0, 1.0], parse_mean("power:2"))


def test_chains_evaluate_each_mean_once(monkeypatch):
    # one evaluation of M per chain, M* = xy/M from its values; the reports
    # equal the two-evaluation form (M* from conjugate_values) bit for bit.
    # Calls are counted at both bindings, so conjugate_values' own call to
    # means.mean_values counts too; an iterated mean's inner calls do not.
    rng = make_rng(23)
    x = log_uniform(rng, 1e-2, 1e2, size=257)
    y = log_uniform(rng, 1e-2, 1e2, size=257)
    x0 = 3.0 * math.sqrt(float(np.sum(x * x)))
    y0 = 2.0 * math.sqrt(float(np.sum(y * y)))
    f = parse_function("affine:0.5,2")
    g = parse_function("exp:-1")
    evaluate = discrete.mean_values
    from_mean = discrete.conjugate_from_mean
    calls = []

    def counting(spec, u, v):
        calls.append(spec)
        return evaluate(spec, u, v)

    for spec in chain_catalog():
        for chain in (lambda: cbs_chain(x, y, spec),
                      lambda: lorentz_chain(x0, x, y0, y, spec),
                      lambda: q_cbs_chain(f, g, 0.7, spec)):
            monkeypatch.setattr(discrete, "mean_values", counting)
            monkeypatch.setattr(means, "mean_values", counting)
            monkeypatch.setattr(discrete, "conjugate_from_mean", from_mean)
            calls.clear()
            report = chain()
            assert [s for s in calls if s is spec] == [spec]
            monkeypatch.setattr(discrete, "conjugate_from_mean",
                                lambda u, v, m: conjugate_values(spec, u, v))
            assert chain() == report, spec.to_string()
    monkeypatch.undo()
    # rado:2 against the textbook difference quotient
    report = cbs_chain(x, y, parse_mean("rado:2"))
    m = np.sqrt((x ** 3 - y ** 3) / (3.0 * (x - y)))
    middle = float(np.sum(m * m)) * float(np.sum((x * y / m) ** 2))
    assert report.middle == pytest.approx(middle, rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_non_finite_entries_are_domain_errors(bad):
    # and non-positive ones: the vector check rejects both, in either vector
    spec = parse_mean("power:2")
    for x, y in (([bad, 1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0, bad])):
        with pytest.raises(DomainError, match="finite, strictly positive"):
            cbs_chain(x, y, spec)
        with pytest.raises(DomainError, match="finite, strictly positive"):
            lorentz_chain(9.0, x, 9.0, y, spec)
    if math.isfinite(bad):
        return  # a finite time component only has to be time-like
    with pytest.raises(DomainError):
        lorentz_chain(bad, [1.0, 1.0], 3.0, [1.0, 2.0], spec)
    with pytest.raises(DomainError):
        lorentz_chain(3.0, [1.0, 1.0], bad, [1.0, 2.0], spec)


def test_q_chain_non_finite_samples_are_domain_errors():
    spec = parse_mean("power:2")
    g = parse_function("poly:1,1")
    for f in (FunctionSpec(FunctionFamily.POLY, (math.nan,)),
              parse_function("poly:1e308,1e308")):
        with pytest.raises(DomainError):
            q_cbs_chain(f, g, 0.5, spec)
        with pytest.raises(DomainError):
            q_cbs_chain(g, f, 0.5, spec)
    # 1 - t is 0 at the node q^0 = 1: the sample check rejects it
    f = parse_function("poly:1,-1")
    for a, b in ((f, g), (g, f)):
        with pytest.raises(DomainError, match="finite and positive"):
            q_cbs_chain(a, b, 0.5, spec)


@pytest.mark.parametrize("text", ["exp:1000", "exppoly:1,800"])
def test_q_chain_bound_past_float_range_is_a_domain_error(text):
    # exp of the coefficient bound overflows: a DomainError, not OverflowError
    f = parse_function(text)
    with pytest.raises(DomainError):
        q_cbs_chain(f, parse_function("poly:1"), 0.5, parse_mean("power:2"))
    with pytest.raises(DomainError):
        q_jackson_integral(f, 0.5)


# ---------------------------------------------------------------------------
# the blocked pass (notes/decisions.md, "Discrete chains in blocks")
# ---------------------------------------------------------------------------

BLOCK = discrete._BLOCK
BLOCKED_LENGTHS = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 2 ** 17 + 3, 2 ** 20)


def _bits(values):
    return [np.float64(v).tobytes() for v in values]


def _tree_sum(a):
    return discrete._pairwise(lambda lo, hi: np.sum(a[lo:hi]), 0, len(a))


def _wide_mixed(rng, n):
    return rng.standard_normal(n) * np.exp(rng.uniform(-40.0, 40.0, size=n))


def test_block_size_keeps_numpy_splits():
    assert BLOCK % 8 == 0 and BLOCK >= 128


@pytest.mark.parametrize("block", [128, 1024])
def test_tree_sum_is_numpy_sum_at_every_short_length(monkeypatch, block):
    # a numpy release that changes its pairwise summation fails here first
    monkeypatch.setattr(discrete, "_BLOCK", block)
    rng = make_rng(41)
    a = _wide_mixed(rng, 3000)
    got = [_tree_sum(a[:n]) for n in range(1, 3001)]
    want = [np.sum(a[:n]) for n in range(1, 3001)]
    assert _bits(got) == _bits(want)


def test_tree_sum_is_numpy_sum_across_blocks():
    rng = make_rng(43)
    for n in BLOCKED_LENGTHS:
        a = _wide_mixed(rng, n)
        assert _bits([_tree_sum(a)]) == _bits([np.sum(a)]), n


# The three chains as they were written before the blocked pass, on whole
# arrays: the pass must reproduce them bit for bit.

def _whole_array_cbs(x_vec, y_vec, spec):
    x, y = discrete._positive_vectors(x_vec, y_vec)
    m = means.mean_values(spec, x, y)
    mc = means.conjugate_from_mean(x, y, m)
    left = float(np.sum(x * y)) ** 2
    middle = float(np.sum(m * m)) * float(np.sum(mc * mc))
    right = float(np.sum(x * x)) * float(np.sum(y * y))
    return chain_report(left, middle, right)


def _whole_array_lorentz(x0, x_vec, y0, y_vec, spec):
    x, y = discrete._positive_vectors(x_vec, y_vec)
    m = means.mean_values(spec, x, y)
    mc = means.conjugate_from_mean(x, y, m)
    a_mid = float(np.sum(m * m)) * float(np.sum(mc * mc))
    left = (x0 * y0 - float(np.sum(x * y))) ** 2
    middle = (x0 * y0 - math.sqrt(a_mid)) ** 2
    right = (x0 * x0 - float(np.sum(x * x))) * (y0 * y0 - float(np.sum(y * y)))
    return chain_report(left, middle, right, reverse=True)


def _whole_array_q(f, g, q, spec, tail_tol=1e-12):
    bound = max(f.sup_on_unit(), g.sup_on_unit())
    nodes = q ** np.arange(discrete._q_tail_length(q, tail_tol, bound * bound))
    fv = np.asarray(f(nodes), dtype=float)
    gv = np.asarray(g(nodes), dtype=float)
    w = (1.0 - q) * nodes
    m = means.mean_values(spec, fv, gv)
    mc = means.conjugate_from_mean(fv, gv, m)
    left = float(np.sum(w * fv * gv)) ** 2
    middle = float(np.sum(w * m * m)) * float(np.sum(w * mc * mc))
    right = float(np.sum(w * fv * fv)) * float(np.sum(w * gv * gv))
    return chain_report(left, middle, right)


@pytest.fixture(scope="module")
def long_pair():
    rng = make_rng(47)
    return log_uniform(rng, 1e-3, 1e3, size=2 ** 20), log_uniform(rng, 1e-3, 1e3, size=2 ** 20)


@pytest.mark.parametrize("spec", chain_catalog(), ids=str)
def test_blocked_chains_match_the_whole_array_formulas(long_pair, spec):
    x, y = long_pair
    cases = [(x[:n], y[:n]) for n in (1, 7, 64, 129, 5000, 20000, 100003) + BLOCKED_LENGTHS]
    cases += [(x[::2], y[::2]), (x[:2 * BLOCK + 10:2], y[:2 * BLOCK + 10:2]),
              (x[:129].tolist(), y[:129].tolist()), (x[:BLOCK + 1].tolist(), y[:BLOCK + 1].tolist())]
    for u, v in cases:
        n = len(u)
        assert _bits(astuple(cbs_chain(u, v, spec))) == \
            _bits(astuple(_whole_array_cbs(u, v, spec))), n
        x0 = 2.0 * math.sqrt(float(np.sum(np.square(u))))
        y0 = 1.5 * math.sqrt(float(np.sum(np.square(v))))
        assert _bits(astuple(lorentz_chain(x0, u, y0, v, spec))) == \
            _bits(astuple(_whole_array_lorentz(x0, u, y0, v, spec))), n
    f = parse_function("affine:0.5,2")
    g = parse_function("exp:-1")
    for q in (0.7, 0.999, 0.9999):  # about 80, 2.3e4 and 2.0e5 nodes
        assert _bits(astuple(q_cbs_chain(f, g, q, spec))) == \
            _bits(astuple(_whole_array_q(f, g, q, spec))), q


def test_blocked_chains_evaluate_each_element_once(monkeypatch):
    # the multi-block form of test_chains_evaluate_each_mean_once: M is
    # evaluated leaf by leaf, and the leaves cover each element once
    n = 3 * BLOCK + 5
    rng = make_rng(53)
    x = log_uniform(rng, 1e-2, 1e2, size=n)
    y = log_uniform(rng, 1e-2, 1e2, size=n)
    x0 = 3.0 * math.sqrt(float(np.sum(x * x)))
    y0 = 2.0 * math.sqrt(float(np.sum(y * y)))
    f = parse_function("affine:0.5,2")
    g = parse_function("exp:-1")
    q = 0.999
    bound = max(f.sup_on_unit(), g.sup_on_unit())
    q_length = discrete._q_tail_length(q, 1e-12, bound * bound)
    assert q_length > BLOCK
    evaluate = discrete.mean_values
    sizes = []

    def counting(spec, u, v):
        sizes.append(len(u))
        return evaluate(spec, u, v)

    monkeypatch.setattr(discrete, "mean_values", counting)
    for spec in chain_catalog():
        for chain, length in ((lambda: cbs_chain(x, y, spec), n),
                              (lambda: lorentz_chain(x0, x, y0, y, spec), n),
                              (lambda: q_cbs_chain(f, g, q, spec), q_length)):
            sizes.clear()
            chain()
            assert sum(sizes) == length, spec.to_string()
            assert len(sizes) > 1 and max(sizes) <= BLOCK, sizes


def test_sums_and_terms_past_the_float_range_are_domain_errors():
    # the overflowed sums gave left = inf, middle = nan and ordered = False, a
    # false violation; the Lorentz chain gave NaN terms or a RuntimeWarning
    spec = parse_mean("power:2")
    with pytest.raises(DomainError, match=r"sum x_k y_k"):
        cbs_chain([1e200, 1.0], [1e200, 2.0], spec)
    with pytest.raises(DomainError, match=r"sum x_k\^2"):
        cbs_chain([1e160, 1.0], [1e-160, 2.0], parse_mean("power:0"))
    with pytest.raises(DomainError, match=r"sum x_k y_k"):
        lorentz_chain(1e300, [1e200], 1e300, [1e200], spec)
    # finite sums whose chain terms overflow
    with pytest.raises(DomainError, match="left term"):
        cbs_chain([1e100, 1.0], [1e100, 1.0], spec)
    with pytest.raises(DomainError, match="left term"):
        lorentz_chain(1e200, [1.0], 1e200, [1.0], spec)
    big = parse_function("poly:1e150")
    with pytest.raises(DomainError, match="left term"):
        q_cbs_chain(big, big, 0.5, spec)


# A fresh interpreter that builds its 2^20 pair in place, so that no large
# freed temporary lifts glibc's thresholds before the chains run (a pair
# unpickled from disk, as the benchmark's worker loads it, frees none
# either).  The positivity scan held three 1 MiB masks at once, more than
# the 2 MiB trim threshold the first freed one set: the heap top was
# returned after each chain and faulted back in by the next, ~960 minor
# faults a chain (notes/decisions.md, "The positivity scan holds one mask at
# a time").
FAULT_SCRIPT = """
import resource, sys
sys.path.insert(0, {src!r})
import numpy as np
from ineqmeans import cbs_chain, parse_mean
rng = np.random.default_rng(59)
x, y = np.empty(1 << 20), np.empty(1 << 20)
for v in (x, y):
    rng.random(out=v)
    v *= 2.0 * np.log(1e3)
    v -= np.log(1e3)
    np.exp(v, out=v)
specs = [parse_mean(s) for s in ("min", "power:2", "rado:0", "iter:warith:0.5,0.5|power:0")]
for spec in specs:
    cbs_chain(x, y, spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(2):
    for spec in specs:
        cbs_chain(x, y, spec)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (2 * len(specs)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_steady_state_chains_take_no_page_faults():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", FAULT_SCRIPT.format(src=src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 64.0


# ---------------------------------------------------------------------------
# CDE conditions
# ---------------------------------------------------------------------------

def _log_grid_pairs(n):
    vals = np.geomspace(1e-3, 1e3, n)
    return [(float(x), float(y)) for x in vals for y in vals]


def test_cde_power_two_clean_on_log_grid():
    ok, violations = cde_check(parse_mean("power:2"), _log_grid_pairs(50))
    assert ok, violations[:3]


def test_cde_min_clean():
    ok, violations = cde_check(parse_mean("min"), _log_grid_pairs(30))
    assert ok, violations[:3]


def test_cde_contraharmonic_violates_hybrid():
    # gini:2,1 is not monotone; the hybrid condition catches it
    ok, violations = cde_check(parse_mean("gini:2,1"), _log_grid_pairs(30))
    assert not ok
    assert any(v[0] == "hybrid" for v in violations)


def test_cde_negative_control_product_condition():
    # a wrongly-scaled pair: f g = 1.1 x^2 y^2 breaks the product condition
    ok, violations = cde_check_functions(lambda x, y: 1.1 * (x * y) ** 2,
                                         lambda x, y: (x * y) ** 2,
                                         [(1.0, 2.0), (0.5, 3.0)])
    assert not ok
    assert violations[0][0] == "product"


# ---------------------------------------------------------------------------
# DFT uncertainty
# ---------------------------------------------------------------------------

def test_delta_vector_support():
    report = dft_uncertainty([1.0, 0.0, 0.0, 0.0])
    assert (report.input_support, report.dft_support) == (1, 4)
    assert report.product == 4 == report.n
    assert report.holds and report.equality


def test_constant_vector_support():
    report = dft_uncertainty([1.0, 1.0, 1.0, 1.0])
    assert (report.input_support, report.dft_support) == (4, 1)
    assert report.holds and report.equality


def test_two_ones_vector_hand_dft():
    # b_j = (1 + w^{-j})/2 for (1,1,0,0), n=4: b_2 = (1 + e^{-i pi})/2 = 0
    # exactly, so the transform support is 3 and the product is 6 >= 4.
    report = dft_uncertainty([1.0, 1.0, 0.0, 0.0])
    assert report.input_support == 2
    assert report.dft_support == 3
    assert report.product == 6
    assert report.holds and not report.equality


def test_parseval_consistency():
    rng = make_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 33))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        j = np.arange(n)
        w = np.exp(-2j * math.pi * np.outer(j, j) / n)
        b = w @ a / math.sqrt(n)
        assert float(np.sum(np.abs(b) ** 2)) == pytest.approx(
            float(np.sum(np.abs(a) ** 2)), rel=1e-12)


def test_uncertainty_exhaustive_binary_small_n():
    for n in range(1, 9):
        j = np.arange(n)
        w = np.exp(-2j * math.pi * np.outer(j, j) / n)
        for bits in itertools.product((0.0, 1.0), repeat=n):
            if not any(bits):
                continue
            a = np.array(bits)
            b = w @ a / math.sqrt(n)
            sa = int(np.sum(np.abs(a) > 1e-9 * np.abs(a).max()))
            sb = int(np.sum(np.abs(b) > 1e-9 * np.abs(b).max()))
            assert sa * sb >= n


def test_uncertainty_rejects_zero_vector():
    with pytest.raises(DomainError):
        dft_uncertainty([0.0, 0.0])


# ---------------------------------------------------------------------------
# Lorentz reversed chain
# ---------------------------------------------------------------------------

def test_lorentz_equal_vectors_collapse():
    report = lorentz_chain(2.0, [1.0, 1.0], 2.0, [1.0, 1.0], parse_mean("power:2"))
    expected = (4.0 - 2.0) ** 2
    assert report.left == pytest.approx(expected, rel=1e-13)
    assert report.middle == pytest.approx(expected, rel=1e-13)
    assert report.right == pytest.approx(expected, rel=1e-13)
    assert report.ordered


def test_lorentz_worked_example():
    report = lorentz_chain(2.0, [1.0, 1.0], 3.0, [1.0, 2.0], parse_mean("power:2"))
    # brute-force arithmetic: A = (1 + 2.5)(1 + 1.6), left = (6-3)^2,
    # right = (4-2)(9-5)
    a_mid = (1.0 + 2.5) * (1.0 + 1.6)
    assert report.left == pytest.approx(9.0, rel=1e-14)
    assert report.middle == pytest.approx((6.0 - math.sqrt(a_mid)) ** 2, rel=1e-13)
    assert report.right == pytest.approx(8.0, rel=1e-14)
    assert report.left >= report.middle >= report.right
    assert report.ordered


def test_lorentz_scaling_invariance():
    spec = parse_mean("rado:-1")
    r1 = lorentz_chain(2.0, [1.0, 1.0], 3.0, [1.0, 2.0], spec)
    lam = 3.7
    r2 = lorentz_chain(lam * 2.0, [lam, lam], lam * 3.0, [lam, 2 * lam], spec)
    assert r2.left == pytest.approx(lam ** 4 * r1.left, rel=1e-12)
    assert r2.middle == pytest.approx(lam ** 4 * r1.middle, rel=1e-12)
    assert r2.right == pytest.approx(lam ** 4 * r1.right, rel=1e-12)
    assert r2.ordered


def test_lorentz_reversal_on_random_timelike_pairs():
    rng = make_rng(13)
    catalog = chain_catalog()
    for i in range(500):
        n = int(rng.integers(1, 8))
        x = log_uniform(rng, 1e-2, 1e2, size=n)
        y = log_uniform(rng, 1e-2, 1e2, size=n)
        x0 = math.sqrt(float(np.sum(x * x))) * float(rng.uniform(1.0, 3.0))
        y0 = math.sqrt(float(np.sum(y * y))) * float(rng.uniform(1.0, 3.0))
        spec = catalog[i % len(catalog)]
        report = lorentz_chain(x0, x, y0, y, spec)
        assert report.slack_left >= -1e-12 * report.scale, spec.to_string()
        assert report.slack_right >= -1e-12 * report.scale, spec.to_string()


def test_lorentz_requires_timelike():
    with pytest.raises(DomainError):
        lorentz_chain(1.0, [1.0, 1.0], 3.0, [1.0, 1.0], parse_mean("power:2"))


# ---------------------------------------------------------------------------
# Jackson q-integral
# ---------------------------------------------------------------------------

def test_q_integral_of_one():
    for q in (0.1, 0.5, 0.9):
        assert q_jackson_integral(parse_function("poly:1"), q) == pytest.approx(
            1.0, rel=1e-11)


def test_q_integral_of_identity_closed_form():
    # (1-q) sum q^{2k} = (1-q)/(1-q^2) = 1/(1+q)
    assert q_jackson_integral(parse_function("pow:1"), 0.5) == pytest.approx(
        2.0 / 3.0, rel=1e-11)


def test_q_integral_approaches_riemann_limit():
    val = q_jackson_integral(parse_function("pow:2"), 0.999)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-2)


def test_q_integral_rejects_bad_q():
    for q in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            q_jackson_integral(parse_function("poly:1"), q)


@pytest.mark.parametrize("tail_tol", [0.0, -1.0, math.nan, -math.inf])
def test_q_series_reject_a_tail_tolerance_that_is_not_positive(tail_tol):
    f, g = parse_function("poly:1"), parse_function("pow:1")
    with pytest.raises(ParameterError, match="tail_tol"):
        q_jackson_integral(f, 0.5, tail_tol)
    with pytest.raises(ParameterError, match="tail_tol"):
        q_cbs_chain(f, g, 0.5, parse_mean("power:2"), tail_tol)


def test_q_series_longer_than_the_cap_raise_before_allocating():
    # q = 1 - 1e-10 would need 4.6e10 nodes; q = 0.99999 needs 1.6e6
    f, g = parse_function("poly:1"), parse_function("pow:1")
    assert discrete._q_tail_length(0.99999, 1e-12, 1.0) < discrete.Q_TAIL_CAP
    with pytest.raises(ConvergenceError, match="nodes"):
        q_jackson_integral(f, 1.0 - 1e-10)
    with pytest.raises(ConvergenceError, match="nodes"):
        q_cbs_chain(f, g, 1.0 - 1e-10, parse_mean("power:2"))
    assert discrete._q_tail_length(0.5, 1.0, 1.0) == 1
    # 1e-320 / (0.5 * 1e300) underflows to 0: the length comes from
    # log2(5e299 / 1e-320) = 2058.6, not from a math domain error
    assert discrete._q_tail_length(0.5, 1e-320, 1e300) == 2060


def test_q_chain_equal_functions_collapse():
    f = parse_function("affine:1,1")
    report = q_cbs_chain(f, f, 0.5, parse_mean("power:2"))
    assert report.left == pytest.approx(report.middle, rel=1e-11)
    assert report.middle == pytest.approx(report.right, rel=1e-11)


def test_q_chain_closed_form_terms():
    # f = 1, g = t, q = 1/2, quadratic mean: left and right are geometric sums
    report = q_cbs_chain(parse_function("poly:1"), parse_function("pow:1"),
                         0.5, parse_mean("power:2"))
    q = 0.5
    assert report.left == pytest.approx((1.0 / (1.0 + q)) ** 2, rel=1e-10)
    assert report.right == pytest.approx(1.0 / (1.0 + q + q * q), rel=1e-10)
    # independent series oracle for the middle factors
    k = np.arange(400)
    nodes = q ** k
    w = (1.0 - q) * nodes
    m2 = (1.0 + nodes ** 2) / 2.0
    mc2 = 2.0 * nodes ** 2 / (1.0 + nodes ** 2)
    assert report.middle == pytest.approx(
        float(np.sum(w * m2)) * float(np.sum(w * mc2)), rel=1e-10)
    assert report.ordered


def test_q_chain_approaches_integral_chain():
    from ineqmeans import integral_mean_chain
    f = parse_function("poly:1")
    g = parse_function("pow:1")
    spec = parse_mean("power:2")
    q_report = q_cbs_chain(f, g, 0.99, spec)
    i_report = integral_mean_chain(f, g, 0.0, 1.0, spec)
    assert q_report.left == pytest.approx(i_report.left, abs=1e-2)
    assert q_report.middle == pytest.approx(i_report.middle, abs=1e-2)
    assert q_report.right == pytest.approx(i_report.right, abs=1e-2)


def test_q_chain_holds_for_catalog():
    rng = make_rng(17)
    fs = [parse_function(s) for s in ("poly:1,1", "affine:0.5,2", "pow:1.5", "exp:-1")]
    for spec in chain_catalog():
        for _ in range(10):
            f = fs[int(rng.integers(0, len(fs)))]
            g = fs[int(rng.integers(0, len(fs)))]
            q = float(rng.uniform(0.2, 0.95))
            report = q_cbs_chain(f, g, q, spec)
            assert report.slack_left >= -1e-11 * report.scale, spec.to_string()
            assert report.slack_right >= -1e-11 * report.scale, spec.to_string()
