"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parameter/validation problems exit 2,
numeric failures exit 3, and file-format or I/O problems exit 4.

``check_int`` is the one check of an integer parameter (a count, a size
or a seed) of the API and the CLI.
"""

import numbers


class NimatrixError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(NimatrixError, ValueError):
    """A caller-supplied parameter is outside its allowed range."""


class DomainError(NimatrixError, ValueError):
    """A time value lies outside the schedule's domain."""


class ValidationError(NimatrixError, ValueError):
    """A structural invariant (ordering, triangularity, shape) is violated."""


class ProtocolError(NimatrixError, RuntimeError):
    """A run-context protocol rule was broken (e.g. reused noise id)."""


class NumericError(NimatrixError, ArithmeticError):
    """A numeric computation failed or became singular."""


class FormatError(NimatrixError, ValueError):
    """A file could not be parsed as the expected format."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


def check_int(name: str, value, low: int) -> int:
    """``value`` as an ``int``, if it is a Python or NumPy integer of at
    least ``low`` (0 or 1).

    Anything else, a bool, a float (even 3.0 or NaN), a string or None
    included, raises :class:`ParameterError`.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        kind = "non-negative" if low == 0 else "positive"
        raise ParameterError(f"need a {kind} integer {name}, got {value!r}")
    return int(value)
