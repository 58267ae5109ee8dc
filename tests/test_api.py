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


_POWER_2 = ineqmeans.parse_mean("power:2")
_EXP1 = ineqmeans.parse_function("exp:1")


@pytest.mark.parametrize("call, error", [
    (lambda: ineqmeans.eval_mean(_POWER_2, _NAN, 1.0), ineqmeans.DomainError),
    (lambda: ineqmeans.eval_mean(_POWER_2, _INF, 1.0), ineqmeans.DomainError),
    (lambda: ineqmeans.conjugate_eval(_POWER_2, 1.0, _INF), ineqmeans.DomainError),
    (lambda: ineqmeans.entropy(_POWER_2, _INF, 1.0), ineqmeans.DomainError),
    (lambda: ineqmeans.check_h_conditions(_POWER_2, [0.0, _INF]), ineqmeans.ParameterError),
    (lambda: ineqmeans.check_h_conditions(_POWER_2, [0.0, _NAN]), ineqmeans.ParameterError),
    (lambda: ineqmeans.cde_check(_POWER_2, [(_NAN, 1.0)]), ineqmeans.ParameterError),
    (lambda: ineqmeans.cde_check_functions(lambda x, y: x * y, lambda x, y: x * y,
                                           [(0.0, 1.0)]), ineqmeans.ParameterError),
    (lambda: ineqmeans.dft_uncertainty([_NAN, 1.0]), ineqmeans.ParameterError),
    (lambda: ineqmeans.dft_uncertainty([_INF, 1.0]), ineqmeans.ParameterError),
    (lambda: ineqmeans.product_identity_check(_EXP1, _EXP1, 0.0, 1.0, ineqmeans.ChainKind.MEAN_FORM,
                                              _POWER_2, rtol=_NAN), ineqmeans.ParameterError),
    (lambda: ineqmeans.check_axioms(_POWER_2, 1.5, 0), ineqmeans.ParameterError),
    (lambda: ineqmeans.check_axioms(_POWER_2, True, 0), ineqmeans.ParameterError),
    (lambda: ineqmeans.agm(_INF, 1.0), ineqmeans.DomainError),
    (lambda: ineqmeans.iterate_means(_POWER_2, ineqmeans.parse_mean("power:0"), _INF, 1.0, 1e-12),
     ineqmeans.DomainError),
], ids=["eval-nan", "eval-inf", "conjugate-inf", "entropy-inf", "h-check-inf", "h-check-nan",
        "cde-nan", "cde-functions-zero", "dft-nan", "dft-inf", "identity-rtol-nan",
        "axioms-float-samples", "axioms-bool-samples", "agm-inf", "iterate-inf"])
def test_library_entry_points_raise_typed_errors(call, error):
    # unchecked, these returned nan, inf or -inf (eval_mean, conjugate_eval,
    # entropy), reported ok or holds=False off NaN comparisons (h-check, cde,
    # dft, product identity), raised ZeroDivisionError or TypeError, or spun
    # 200 steps into ConvergenceError (agm, iterate_means at inf)
    with pytest.raises(error):
        call()
