"""Exception types shared across the library, one per CLI exit code.

ConfigError exits 2 and NumericalError exits 4; the CLI maps OSError to 3.
"""


class ThetaLeapError(Exception):
    """Base class for all library errors."""


class ConfigError(ThetaLeapError):
    """Bad flags, settings or input data (exit 2)."""


class NumericalError(ThetaLeapError):
    """A numerical or model failure (exit 4)."""
