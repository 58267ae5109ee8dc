import math

import pytest

import ineqmeans


def test_public_api_is_pinned():
    # the names a release promises; a change here is an API change and is
    # declared as one
    assert sorted(ineqmeans.__all__) == [
        "AxiomCheck", "AxiomReport", "BoundsReport", "BracketError", "CaseId", "ChainKind",
        "ChainReport", "ConvergenceError", "DomainError", "ExtOrder", "FunctionFamily",
        "FunctionSpec", "HFunctionCheck", "IneqMeansError", "IterationResult", "KMethod",
        "MeanFamily", "MeanSpec", "OrderKind", "OrderVerdict", "ParameterError", "Relation",
        "ReproducibilityError", "UncertaintyReport", "Winner", "Witness", "YoungComparison",
        "agm", "bounds", "bounds_grid", "cbs_chain", "cde_check", "cde_check_functions",
        "chain_catalog", "chain_report", "check_axioms", "check_h_conditions",
        "check_h_function", "compare_generalizations", "conjugate_eval", "conjugate_values",
        "critical_y", "dft_uncertainty", "elliptic_k", "entropy", "eval_mean", "full_catalog",
        "general_h_chain", "h_of", "integral_logderiv_chain", "integral_mean_chain",
        "iterate_means", "logderiv_phi1", "lorentz_chain", "mean_values", "mediant",
        "parse_function", "parse_mean", "product_identity_check", "q_cbs_chain",
        "q_jackson_integral", "quadrature", "rado_power_bound_orders", "rgh_refined_chain",
        "young_integral_gap", "young_pair",
    ]
    assert all(hasattr(ineqmeans, name) for name in ineqmeans.__all__)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: ineqmeans.rgh_refined_chain([1.0, 2.0], [3.0, 4.0], _INF),
    lambda: ineqmeans.rgh_refined_chain([1.0, _NAN], [3.0, 4.0], 3.0),
    lambda: ineqmeans.young_pair(_NAN, 1.0, 3.0),
    lambda: ineqmeans.young_pair(_INF, 1.0, 3.0),
    lambda: ineqmeans.young_pair(1.0, 1.0, _INF),
    lambda: ineqmeans.critical_y(0.5, _INF),
    lambda: ineqmeans.dft_uncertainty([1.0, 0.0, 0.0, 0.0], zero_tol=_NAN),
    lambda: ineqmeans.check_axioms(ineqmeans.parse_mean("power:2"), 10, 1, rtol=_NAN),
], ids=["rgh-p-inf", "rgh-nan-entry", "young-x-nan", "young-x-inf", "young-p-inf",
        "critical-p-inf", "dft-zero-tol-nan", "axioms-rtol-nan"])
def test_non_finite_inputs_are_parameter_errors(call):
    # unchecked, these give reports of NaNs, verdicts read off NaN
    # comparisons (holds=False, "fail") or a stalled bisection
    with pytest.raises(ineqmeans.ParameterError):
        call()
