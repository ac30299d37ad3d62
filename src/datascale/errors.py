"""Exception types shared across the package.

Every error raised on bad user input derives from :class:`DataScaleError`,
so callers (and the CLI) can distinguish validation failures from bugs.
"""


class DataScaleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DataScaleError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InsufficientDataError(DataScaleError, ValueError):
    """Too few observations to perform the requested fit."""


class DuplicateAbscissaError(DataScaleError, ValueError):
    """Two observations share the same dataset size within one condition."""


class SchemaError(DataScaleError, ValueError):
    """Input data is structurally unsuitable (missing fields or columns)."""


class ExponentMismatchError(DataScaleError, ValueError):
    """Two laws do not share an exponent where a shared one is required."""


class MonteCarloError(DataScaleError, RuntimeError):
    """No Monte Carlo replicate produced a usable fit."""


class ParseError(DataScaleError, ValueError):
    """A data file could not be parsed.

    Attributes:
        line: 1-based line number of the offending record, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RankError(DataScaleError, ValueError):
    """A regression design is rank deficient (e.g. constant abscissa)."""
