"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it, ``exit_code``:
parse/config problems (2), bad data (3), solver failures (4) and numeric
failures (5) are kept apart so callers can branch on the failure class.
"""


class OtsurvError(Exception):
    """Base class for all package errors."""
    exit_code = 3


class ParameterError(OtsurvError):
    """An argument value is outside its documented domain."""
    exit_code = 2


class ConfigError(ParameterError):
    """A setting is outside its domain, or a configuration file is malformed
    or carries unknown keys."""


class FormatError(OtsurvError):
    """A file does not conform to its declared on-disk format."""
    exit_code = 2


class DataError(OtsurvError):
    """Input data is syntactically fine but semantically unusable."""


class ShapeError(DataError):
    """Array dimensions are mutually inconsistent."""


class SolverError(OtsurvError):
    """A solver failed in a way that is not a convergence shortfall."""
    exit_code = 4


class NumericError(OtsurvError):
    """A non-finite value reached a place that cannot tolerate one."""
    exit_code = 5


class StateError(OtsurvError):
    """An object was used in an order its lifecycle forbids."""


class MetricUndefinedError(DataError):
    """A requested statistic is undefined on the given data."""
