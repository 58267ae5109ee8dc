"""Semantic exception hierarchy.

The CLI maps these onto exit codes: parameter problems are usage errors
(exit 2), domain and convergence problems are numeric errors (exit 3).
"""


class IneqMeansError(Exception):
    """Base class for all package errors."""


class ParameterError(IneqMeansError, ValueError):
    """Malformed spec string, invalid weights, or an out-of-range parameter."""


class DomainError(IneqMeansError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(IneqMeansError, RuntimeError):
    """An iterative procedure hit its cap before reaching the tolerance."""


class BracketError(ConvergenceError):
    """A root bracket could not be established on the search interval."""


class ReproducibilityError(IneqMeansError, RuntimeError):
    """A sampled result does not rebuild from its seed and index. Exported, but
    nothing raises it: every draw reads numpy's stable raw stream (sampling.py)."""
