import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqmeans import ParameterError
from ineqmeans.cli import GRID_MAX_POINTS, _parse_grid, dispatch


def run(*argv):
    return dispatch(list(argv))


def payload(result):
    assert result.exit_code in (0, 1), result.stderr
    return json.loads(result.stdout)


def test_means_eval():
    result = run("means", "eval", "--spec", "power:0", "--x", "4", "--y", "9")
    assert result.exit_code == 0
    assert payload(result)["value"] == 6.0


def test_means_eval_iterated_spec():
    result = run("means", "eval", "--spec", "iter:warith:0.5,0.5|power:0",
                 "--x", "1", "--y", "2")
    assert payload(result)["value"] == pytest.approx(1.4567910310469068, rel=1e-12)


def test_means_eval_rado_at_wide_finite_ratios():
    # t^(b+1) overflows at one argument, the mean does not:
    # R_b(lo, hi) = hi ((1 - (lo/hi)^c) / (c (1 - lo/hi)))^(1/b), c = b + 1
    for order, x, y, value in (("2", "1e-150", "1", 3.0 ** -0.5),
                               ("60", "1e-3", "1e3",
                                1e3 * (61.0 * (1.0 - 1e-6)) ** (-1.0 / 60.0))):
        result = run("means", "eval", "--spec", f"rado:{order}", "--x", x, "--y", y)
        assert result.exit_code == 0, result.stderr
        assert payload(result)["value"] == pytest.approx(value, rel=1e-14)


def test_means_eval_rado_past_the_float_ratio():
    # hi/lo and hi^3 both overflow, the mean 1e300 / sqrt(3) does not
    mp = pytest.importorskip("mpmath")
    result = run("means", "eval", "--spec", "rado:2", "--x", "1e300", "--y", "1e-300")
    assert result.exit_code == 0, result.stderr
    with mp.workdps(50):
        x, y = mp.mpf(1e300), mp.mpf(1e-300)
        value = float(mp.sqrt((x ** 3 - y ** 3) / (3 * (x - y))))
    assert payload(result)["value"] == pytest.approx(value, rel=1e-15)


def test_means_axioms_pass_and_fail_exit_codes():
    ok = run("means", "axioms", "--spec", "power:2", "--samples", "200", "--seed", "1")
    assert ok.exit_code == 0
    asym = run("means", "axioms", "--spec", "wgeom:0.7,0.3", "--samples", "200",
               "--seed", "1")
    assert asym.exit_code == 1
    assert json.loads(asym.stdout)["symmetry"]["status"] == "fail"


def test_means_h_check():
    ok = run("means", "h-check", "--spec", "power:0", "--grid", "0,0.5,1,2")
    assert ok.exit_code == 0
    bad = run("means", "h-check", "--spec", "wgeom:0.7,0.3", "--grid", "0,1,2")
    assert bad.exit_code == 1


def test_young_classify():
    result = run("young", "classify", "--x", "5", "--y", "130", "--p", "4")
    data = payload(result)
    assert data["winner"] == "standard"
    assert data["case"] == "both-above-one"


def test_young_critical_paper_value():
    result = run("young", "critical", "--x", "0.5", "--p", "4")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["y_critical"] == pytest.approx(1.35485, abs=1e-5)


def test_young_integral_gap():
    result = run("young", "integral-gap", "--f", "pow:3", "--a", "1", "--b", "0.5")
    data = payload(result)
    assert data["gap"] == pytest.approx(0.25 + 0.75 * 0.5 ** (4.0 / 3.0) - 0.5, rel=1e-8)


def test_young_integral_gap_rounding_is_not_a_violation():
    # b = f(a): the exact gap is 0, and the computed -1.9e-6 is 1.9e-16 of
    # ab, rounding far inside the tolerance the areas were computed to
    result = run("young", "integral-gap", "--f", "poly:0,2,0.1,0.01", "--a", "1000",
                 "--b", "10101999.989898")
    assert result.exit_code == 0
    gap = payload(result)["gap"]
    assert abs(gap) <= 1e-15 * 1000 * 10101999.989898


def test_cbs_discrete_from_csv(tmp_path):
    path = tmp_path / "vectors.csv"
    path.write_text("1,2\n2,1\n")
    result = run("cbs", "discrete", "--mean", "power:2", "--input", str(path))
    data = payload(result)
    assert result.exit_code == 0
    assert data["left"] == 16.0
    assert data["right"] == 25.0


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cbs_discrete_non_finite_cell_is_a_usage_error(tmp_path, cell):
    path = tmp_path / "vectors.csv"
    path.write_text(f"1,2\n{cell},1\n")
    result = run("cbs", "discrete", "--mean", "power:2", "--input", str(path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


def test_cbs_integral():
    result = run("cbs", "integral", "--mean", "power:inf", "--f", "pow:1",
                 "--g", "affine:1,-1", "--a", "0", "--b", "1")
    data = payload(result)
    assert result.exit_code == 0
    assert data["middle"] == pytest.approx(7.0 / 144.0, rel=1e-9)


def test_cbs_q():
    result = run("cbs", "q", "--mean", "power:2", "--f", "poly:1", "--g", "pow:1",
                 "--q", "0.5")
    data = payload(result)
    assert result.exit_code == 0
    assert data["ordered"] is True


@pytest.mark.parametrize("f", ["exp:1000", "exppoly:1,800"])
def test_cbs_q_bound_past_float_range_exits_three(f):
    result = run("cbs", "q", "--mean", "power:2", "--f", f, "--g", "poly:1", "--q", "0.5")
    assert result.exit_code == 3
    assert result.stderr.startswith("error: ") and "float range" in result.stderr
    assert "OverflowError" not in result.stderr


def test_compare_verdict():
    result = run("compare", "--a", "power:0", "--b", "power:2", "--trials", "60",
                 "--seed", "5", "--kind", "mean")
    data = payload(result)
    assert data["relation"] == "a-prec-b"
    assert len(data["witnesses"]) == 1


def test_elliptic_bounds_single_point_json():
    result = run("elliptic", "bounds", "--x", "0.5")
    data = payload(result)
    assert result.exit_code == 0
    assert data["chain_ok"] is True
    assert data["K"] == pytest.approx(1.685750354812596, rel=1e-13)


def test_elliptic_bounds_grid_csv():
    result = run("elliptic", "bounds", "--grid", "0.1:0.9:0.1", "--format", "csv")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "x,L0,L1,L2,K,G2,G1,G0,chain_ok"
    assert len(lines) == 10
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "true"
        # 17 significant digits requested of every numeric
        assert all(len(f.split(".")[-1]) >= 10 for f in fields[1:3])


@pytest.mark.parametrize("grid", ["0:0.5:1e-12", "0:0.5:1e-320"])
def test_elliptic_grid_past_the_cap_is_a_usage_error(grid):
    # 5e11 points, and a step whose point count is inf: both are refused
    # before any list is built
    result = run("elliptic", "bounds", "--grid", grid)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert str(GRID_MAX_POINTS) in result.stderr


def test_elliptic_grid_at_the_cap():
    assert len(_parse_grid(f"0:{GRID_MAX_POINTS - 1}:1")) == GRID_MAX_POINTS
    assert len(_parse_grid(f"0:{GRID_MAX_POINTS - 1.6}:1")) == GRID_MAX_POINTS - 1
    for stop in (GRID_MAX_POINTS, GRID_MAX_POINTS - 0.5):
        with pytest.raises(ParameterError):
            _parse_grid(f"0:{stop}:1")


def test_dft_uncertainty_from_csv(tmp_path):
    path = tmp_path / "vec.csv"
    path.write_text("1,0\n0,0\n0,0\n0,0\n")
    result = run("dft", "uncertainty", "--input", str(path))
    data = payload(result)
    assert result.exit_code == 0
    assert data["input_support"] == 1
    assert data["dft_support"] == 4
    assert data["equality"] is True


def test_lorentz_chain_command():
    result = run("lorentz", "chain", "--x0", "2", "--x", "1,1", "--y0", "3",
                 "--y", "1,2", "--mean", "power:2")
    data = payload(result)
    assert result.exit_code == 0
    assert data["left"] >= data["middle"] >= data["right"]


def test_usage_error_exits_two():
    assert run("means", "eval", "--spec", "power:2", "--x", "1").exit_code == 2
    assert run("nonsense").exit_code == 2


def test_parse_error_exits_two():
    result = run("means", "eval", "--spec", "power:abc", "--x", "1", "--y", "2")
    assert result.exit_code == 2
    assert "power:abc" in result.stderr


def test_domain_error_exits_three():
    result = run("means", "eval", "--spec", "log", "--x", "0", "--y", "2")
    assert result.exit_code == 3
    result = run("elliptic", "bounds", "--x", "1.5")
    assert result.exit_code == 3


def test_missing_file_is_usage_error():
    result = run("cbs", "discrete", "--mean", "power:2", "--input", "/nonexistent.csv")
    assert result.exit_code == 2


def test_byte_identical_output():
    argv = ["compare", "--a", "power:0.5", "--b", "power:2", "--trials", "40",
            "--seed", "9", "--kind", "logderiv"]
    first = dispatch(argv)
    second = dispatch(argv)
    assert first == second
    grid = ["elliptic", "bounds", "--grid", "0.05:0.95:0.05", "--format", "csv"]
    assert dispatch(grid).stdout == dispatch(grid).stdout


# non-finite and overflowing inputs: a typed error with an exit code, never a
# traceback or NaN/Infinity on stdout
BOUNDARY_INPUTS = (
    ("means eval --spec power:2 --x nan --y 1", 2),
    ("means eval --spec power:2 --x inf --y 1", 2),
    ("means eval --spec power:2 --x 1e200 --y 1e200", 3),
    ("means h-check --spec max --grid 0,1,800", 3),
    ("young classify --x 5 --y 1e300 --p 4", 3),
)


@pytest.mark.parametrize("command, code", BOUNDARY_INPUTS)
def test_boundary_input_is_a_typed_error(command, code):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*command.split())
    assert [str(w.message) for w in caught] == []
    assert result.exit_code in (2, 3)
    assert result.exit_code == code, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# fuzz of dispatch over the mean-spec grammar and finite arguments
# ---------------------------------------------------------------------------

_ORDERS = st.one_of(
    st.sampled_from([0.0, -1.0, 0.5, -0.5, 1e-320, -1e-320, 1e-300, 1e-15, -1e-8,
                     1e300, -1e300, math.inf, -math.inf]),
    st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))
_NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e300, 1.7e308, -1.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False))


_SPEC_FORMS = st.sampled_from([
    "power:{}", "rado:{}", "gini:{},{}", "lehmer:{}", "warith:{},{}", "quasi:pow,{}",
    "warith:0.3,0.7", "wgeom:0.75,0.25", "quasi:id", "quasi:ln", "quasi:exp", "log",
    "identric", "min", "max", "mediant"])


@st.composite
def _simple_specs(draw):
    form = draw(_SPEC_FORMS)
    return form.format(*(repr(draw(_ORDERS)) for _ in range(form.count("{}"))))


_SPECS = st.one_of(_simple_specs(), st.builds("iter:{}|{}".format, _simple_specs(),
                                               _simple_specs()))
_FUZZ = settings(derandomize=True, max_examples=150, deadline=None)


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"{token} in JSON output")

    return json.loads(text, parse_constant=reject)


def _check_contract(result):
    assert result.exit_code in (0, 1, 2, 3)
    assert "Traceback" not in result.stderr
    if result.exit_code in (0, 1):
        return _strict_json(result.stdout)
    assert result.stdout == ""
    assert result.stderr.startswith(("error: ", "usage: "))
    return None


@_FUZZ
@given(spec=_SPECS, x=_NUMBERS, y=_NUMBERS)
def test_fuzz_means_eval(spec, x, y):
    data = _check_contract(run("means", "eval", f"--spec={spec}", f"--x={x!r}", f"--y={y!r}"))
    if data is not None:  # intermediacy, to the tolerance of test_intermediacy_everywhere
        lo, hi = min(x, y), max(x, y)
        assert lo - 1e-12 * hi <= data["value"] <= hi * (1.0 + 1e-12)


@_FUZZ
@given(spec=_SPECS, grid=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1,
                                  max_size=5, unique=True))
def test_fuzz_means_h_check(spec, grid):
    text = ",".join(repr(t) for t in sorted(grid))
    result = run("means", "h-check", f"--spec={spec}", f"--grid={text}")
    data = _check_contract(result)
    if data is not None:
        assert data["ok"] is (result.exit_code == 0)


@_FUZZ
@given(spec=_SPECS, xs=st.lists(_NUMBERS, min_size=1, max_size=3),
       ys=st.lists(_NUMBERS, min_size=1, max_size=3),
       lift_x=st.one_of(st.sampled_from([1.0, 1.0 + 1e-12, 0.5]), st.floats(1.0, 8.0)),
       lift_y=st.one_of(st.sampled_from([1.0, 1.0 + 1e-12, 0.5]), st.floats(1.0, 8.0)))
def test_fuzz_lorentz_chain(spec, xs, ys, lift_x, lift_y):
    # x0 = lift * |x|: time-like from lift 1 (light-like) up, space-like below
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    result = run("lorentz", "chain", f"--x0={lift_x * math.hypot(*xs)!r}",
                 "--x=" + ",".join(map(repr, xs)), f"--y0={lift_y * math.hypot(*ys)!r}",
                 "--y=" + ",".join(map(repr, ys)), f"--mean={spec}")
    data = _check_contract(result)
    if data is not None:
        assert (result.exit_code == 1) is (data["ordered"] is False)
