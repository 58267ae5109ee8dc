import json
import warnings

import pytest

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
    ("means eval --spec rado:2 --x 1e300 --y 1e-300", 3),
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
