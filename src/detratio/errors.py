"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: config errors exit 2,
numerical failures exit 3, constraint violations exit 4.
"""


class DetratioError(Exception):
    """Base class for all package errors."""


class ConfigError(DetratioError):
    """Malformed or inconsistent run configuration."""


class ConstraintError(DetratioError):
    """A precondition on the inputs is violated (e.g. M > N)."""


class DegenerateVariablesError(ConstraintError):
    """Variables in a list are (nearly) coincident; use the confluent path."""


class NumericalError(DetratioError):
    """A numerical procedure failed to produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """Quadrature refinement did not reach the requested tolerance."""


class SingularMatrixError(NumericalError):
    """A matrix required to be invertible is numerically singular."""
