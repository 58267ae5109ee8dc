import importlib
import math
import tracemalloc

import numpy as np
import pytest

from ineqmeans import (ConvergenceError, ParameterError, mean_values, parse_function, parse_mean,
                       quadrature)
from ineqmeans.quadrature import (_NODES, _WEIGHTS, _adapt, _cumulative_weights, _nodes,
                                  _per_panel, composite_simpson, cumulative_simpson,
                                  simpson_nodes)

quadrature_module = importlib.import_module("ineqmeans.quadrature")


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


def test_pending_interval_cap_raises_before_memory_grows():
    # rounding noise far above the target fails every split, so the pending
    # intervals would double each level; past PENDING_CAP the call raises
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="pending"):
            quadrature(lambda t: np.exp(t) * (1.0 + 1e-9 * np.sin(1e7 * t)), 0.0, 1.0,
                       tol=1e-17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_bad_interval_rejected():
    with pytest.raises(ParameterError):
        quadrature(lambda t: t, 1.0, 0.0)


def test_deterministic():
    f = lambda t: np.sin(3.0 * t) ** 2 + 1.0
    a = quadrature(f, 0.0, 2.0, tol=1e-11)
    b = quadrature(f, 0.0, 2.0, tol=1e-11)
    assert a == b


def test_integration_matrix_ends_in_the_k15_weights():
    # the nodes and the basis are symmetric, x_{14-j} = -x_j, so
    # int_{x_j}^1 l_k = int_{-1}^{x_{14-j}} l_{14-k}: each row, extended to
    # x = 1, integrates the interpolant over the whole panel, which is K15
    s = _cumulative_weights()
    assert np.abs(s + s[::-1, ::-1] - _WEIGHTS[:, 0]).max() <= 1e-15


@pytest.mark.parametrize("degree", range(15))
def test_integration_matrix_is_exact_to_degree_14(degree):
    # S applied to x^d at the 15 nodes gives int_{-1}^{x_j} t^d dt
    exact = (_NODES ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
    assert np.abs(_cumulative_weights() @ _NODES ** degree - exact).max() <= 1e-15


@pytest.mark.parametrize("degree", range(15))
def test_integration_weights_at_any_upper_end_are_exact_to_degree_14(degree):
    # K15 mapped onto [-1, u] integrates the interpolant up to any u in
    # [-1, 1]; at u = 1 the mapped middle node falls on the node 0
    upper = np.concatenate([np.linspace(-1.0, 1.0, 41), [-0.999, 0.123456789, 0.9999]])
    exact = (upper ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
    assert np.abs(_cumulative_weights(upper) @ _NODES ** degree - exact).max() <= 1e-15


def test_adaptation_returns_its_partition_left_to_right():
    # the accepted intervals, in the order they were accepted, with the
    # values the integrand took at their nodes; their order tiles [a, b]
    # left to right, and their K15 sums, added level by level and one
    # interval after the other in the order _adapt adds them, give
    # quadrature's result to the bit
    rows = (np.exp, lambda t: np.abs(t - 1.0 / 3.0))
    f = lambda t: np.stack([fn(t) for fn in rows])
    edges = np.array([0.0, 0.5, 2.0])
    hw = np.diff(edges) / 2.0
    adaptation = _adapt(lambda row, t: f(t), 0.0, 2.0, 1e-12, edges[:-1] + hw, hw)
    part = adaptation.partition()
    mid, hw, row, depth, values, sums, order = (part.mid, part.hw, part.row, part.depth,
                                                part.values, part.sums, part.order)
    assert not row.any() and len(mid) > 2 and np.all(np.diff(mid[order]) > 0)
    left, right = (mid - hw)[order], (mid + hw)[order]
    assert np.abs(left[1:] - right[:-1]).max() <= 1e-15
    assert left[0] == 0.0 and right[-1] == 2.0
    assert np.array_equal(hw, np.where(mid < 0.5, 0.25, 0.75) / 2.0 ** depth)
    nodes = mid + hw * _NODES[:, None]
    assert values.shape == (2, 15, len(mid)) and np.array_equal(values, f(nodes))
    est = _per_panel(values, _WEIGHTS, 1)[0] * hw
    assert np.array_equal(sums[0], est)
    total = np.zeros(2)
    taken = 0
    for level in adaptation.levels:
        part = np.zeros(2)
        for i in range(taken, taken + np.count_nonzero(level.done)):
            part = part + est[:, i]
        total = total + part
        taken += np.count_nonzero(level.done)
    assert np.array_equal(total, adaptation.total[:, 0])
    assert np.array_equal(adaptation.total[:, 0], quadrature(f, 0.0, 2.0, 1e-12, breaks=[0.5]))


def test_rows_adapt_as_they_would_alone():
    # two rows on different intervals, their intervals interleaved: each
    # row's totals, error sums and accepted intervals are those it gets alone
    fns = (lambda t: np.exp(3.0 * t), lambda t: 1.0 / (0.05 + t))
    a, b = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    mid = np.array([0.25, 0.5, 0.75, 1.5])
    hw = np.array([0.25, 0.5, 0.25, 0.5])
    row = np.array([0, 1, 0, 1])

    def f(rows, t):
        return np.where(rows == 0, fns[0](t), fns[1](t))

    both = _adapt(f, a, b, 1e-11, mid, hw, row)
    for r in (0, 1):
        alone = _adapt(lambda rows, t: fns[r](t), a[r], b[r], 1e-11, mid[row == r], hw[row == r])
        assert both.total[0, r] == alone.total[0, 0] and both.error[0, r] == alone.error[0, 0]
        mine, theirs = both.partition(), alone.partition()
        keep = mine.row == r
        assert np.array_equal(mine.mid[keep], theirs.mid)
        assert np.array_equal(mine.hw[keep], theirs.hw)


def test_a_row_that_hits_a_cap_stops_and_the_others_go_on(monkeypatch):
    # the second row's integrand kinks and its intervals bisect to the depth
    # cap: it is reported with its message, the smooth first row is done
    monkeypatch.setattr(quadrature_module, "DEPTH_CAP", 4)

    def f(rows, t):
        return np.where(rows == 0, np.exp(t), np.abs(t - 1.0 / 3.0) ** 0.5)

    out = _adapt(f, np.zeros(2), np.ones(2), 1e-12, np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                 np.array([0, 1]))
    assert list(out.failed) == [1] and "exceeded depth 4 on [0.0, 1.0]" in out.failed[1]
    assert out.total[0, 0] == quadrature(np.exp, 0.0, 1.0, 1e-12)


def _node_order_sums(values, weights):
    # each panel's 15 weighted terms of node-major values (rows, 15, n),
    # added in node order: (columns, rows, n)
    out = values[:, 0] * weights[0][:, None, None]
    for k in range(1, 15):
        out = out + values[:, k] * weights[k][:, None, None]
    return out


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_a_panel_sums_to_the_same_bits_alone_and_among_37_intervals(rows):
    # a BLAS product may order a panel's 15 terms by the batch's size
    # (OpenBLAS 0.3.31 adds them with FMA for two or more rows and without
    # for one); the engine's sums must not depend on the batch
    mid = np.linspace(0.05, 3.65, 37)
    hw = np.full(37, 0.05)
    scales = 1.0 + np.arange(rows)[:, None] / 7.0
    f = lambda t: np.exp(scales * np.sin(7.0 * t)) / (1.0 + t)
    level = f(_nodes(mid, hw).ravel()).reshape(rows, 15, 37)
    together = _per_panel(level, _WEIGHTS, 1)
    assert np.array_equal(together, _node_order_sums(level, _WEIGHTS))
    # node axis 0, the layout of the log-derivative partition and the comparator
    assert np.array_equal(_per_panel(level.transpose(1, 0, 2).copy(), _WEIGHTS), together)
    for i in range(37):
        alone = f(_nodes(mid[i:i + 1], hw[i:i + 1]).ravel()).reshape(rows, 15, 1)
        assert np.array_equal(_per_panel(alone, _WEIGHTS, 1)[..., 0], together[..., i])
        # through _adapt: the level's other intervals add exact zeros
        inside = lambda row, t: np.where(np.abs(t.ravel() - mid[i]) < hw[i], f(t.ravel()), 0.0)
        among = _adapt(inside, 0.0, 3.7, 1.0, mid, hw).total[:, 0]
        lone = _adapt(inside, 0.0, 3.7, 1.0, mid[i:i + 1], hw[i:i + 1]).total[:, 0]
        assert np.array_equal(among, lone)
        assert np.array_equal(among, together[0, :, i] * hw[i])


@pytest.mark.parametrize("panels", [1, 255, 256, 2048])
@pytest.mark.parametrize("rows", [1, 4])
def test_panel_sums_run_in_node_order_on_few_and_many_panels(rows, panels):
    # a stack of 256 panels or more is summed one leading index at a time
    values = np.random.default_rng(panels).standard_normal((rows, 15, panels))
    values *= 10.0 ** np.arange(-7, 8)[:, None]
    assert np.array_equal(_per_panel(values, _WEIGHTS, 1), _node_order_sums(values, _WEIGHTS))


def test_composite_and_cumulative_simpson_agree():
    xs, h = simpson_nodes(0.0, 2.0, 64)
    vals = np.exp(xs)
    total = composite_simpson(vals, h)
    cum = cumulative_simpson(vals, h)
    assert cum[-1] == pytest.approx(total, rel=1e-15)
    assert cum[0] == 0.0
    assert total == pytest.approx(math.e ** 2 - 1.0, rel=1e-9)
