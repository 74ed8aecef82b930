"""Exception taxonomy shared by all tokenhier modules, and the CLI's
exit-code table: each leaf carries the code :func:`tokenhier.cli.main`
exits with and the label that starts its stderr line.
"""


class TokenhierError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TokenhierError, ValueError):
    """A flag, config value or argument is outside its domain, or a run
    configuration is inconsistent or incomplete."""
    code, label = 2, "error"


class DataError(TokenhierError, RuntimeError):
    """Input data could not be read or violates the dataset layout."""
    code, label = 3, "data error"


class NumericError(TokenhierError, ArithmeticError):
    """A computation produced non-finite values; the message names the
    component that failed."""
    code, label = 1, "verification error"
