"""Exception types shared across the library.

Exit-code mapping used by the CLI: config problems -> 2, I/O -> 3,
numerical/model failures -> 4.
"""


class ThetaLeapError(Exception):
    """Base class for all library errors."""


class ConfigError(ThetaLeapError):
    """Invalid configuration or precondition violation."""


class DataError(ThetaLeapError):
    """Malformed or out-of-range input data."""


class NumericalError(ThetaLeapError):
    """Numerical failure (non-convergence, invalid intermediate value)."""


class SingularScoreError(NumericalError):
    """Score requested at a state with zero marginal mass."""


class StepSizeError(NumericalError):
    """Linearized transition probabilities exceed 1; the step is too large."""


class BoundViolationError(NumericalError):
    """Observed total intensity exceeded the declared dominating bound."""


class UnreachableContextError(NumericalError):
    """Conditioning context has zero marginal mass under the target."""
