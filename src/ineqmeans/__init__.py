"""ineqmeans: classical inequalities refined through two-argument means.

Subpackages cover the means algebra (families, conjugation, axioms,
h-representation, entropy), mean-pair iteration and the AGM, the complete
elliptic integral K with its elementary two-sided bounds, the two Young
inequalities and their comparison, and the discrete/integral/q-integral
Cauchy-Bunyakovsky chain refinements with a middle-term comparison engine.
"""

from .discrete import (UncertaintyReport, cbs_chain, cde_check, cde_check_functions,
                       dft_uncertainty, lorentz_chain, q_cbs_chain, q_jackson_integral)
from .elliptic import BoundsReport, KMethod, bounds, bounds_grid, elliptic_k
from .errors import (BracketError, ConvergenceError, DomainError, IneqMeansError,
                     ParameterError, ReproducibilityError)
from .functions import FunctionFamily, FunctionSpec, parse_function
from .integral import (ChainKind, OrderVerdict, Relation, Witness,
                       compare_generalizations, general_h_chain, integral_logderiv_chain,
                       integral_mean_chain, logderiv_phi1, product_identity_check)
from .iteration import IterationResult, agm, iterate_means
from .means import (AxiomCheck, AxiomReport, ExtOrder, HFunctionCheck, MeanFamily,
                    MeanSpec, OrderKind, chain_catalog, check_axioms,
                    check_h_conditions, check_h_function, conjugate_eval,
                    conjugate_values, entropy, eval_mean, full_catalog, h_of,
                    mean_values, mediant, parse_mean, rado_power_bound_orders)
from .quadrature import quadrature
from .reports import ChainReport, chain_report
from .young import (CaseId, Winner, YoungComparison, critical_y, rgh_refined_chain,
                    young_integral_gap, young_pair)

__all__ = [
    "UncertaintyReport", "cbs_chain", "cde_check", "cde_check_functions", "dft_uncertainty",
    "lorentz_chain", "q_cbs_chain", "q_jackson_integral",
    "BoundsReport", "KMethod", "bounds", "bounds_grid", "elliptic_k",
    "BracketError", "ConvergenceError", "DomainError", "IneqMeansError", "ParameterError",
    "ReproducibilityError",
    "FunctionFamily", "FunctionSpec", "parse_function",
    "ChainKind", "OrderVerdict", "Relation", "Witness", "compare_generalizations",
    "general_h_chain", "integral_logderiv_chain", "integral_mean_chain", "logderiv_phi1",
    "product_identity_check",
    "IterationResult", "agm", "iterate_means",
    "AxiomCheck", "AxiomReport", "ExtOrder", "HFunctionCheck", "MeanFamily", "MeanSpec",
    "OrderKind", "chain_catalog", "check_axioms", "check_h_conditions", "check_h_function",
    "conjugate_eval", "conjugate_values", "entropy", "eval_mean", "full_catalog", "h_of",
    "mean_values", "mediant", "parse_mean", "rado_power_bound_orders",
    "quadrature",
    "ChainReport", "chain_report",
    "CaseId", "Winner", "YoungComparison", "critical_y", "rgh_refined_chain",
    "young_integral_gap", "young_pair",
]

__version__ = "0.1.0"
