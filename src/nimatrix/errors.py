"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parameter/validation problems exit 2,
numeric failures exit 3, and file-format or I/O problems exit 4.

``check_int`` is the one check of an integer parameter (a count, a size,
a seed or a dataset label) of the API and the CLI; ``check_real`` the one
conversion and check of a scalar real argument: a time, a threshold, a
schedule rate or a sampler option; and ``check_array`` the one
conversion and check of an array argument of the API: states, atoms,
labels, mixture parameters, coefficient blocks and rows, sample sets,
targets, grids, images and profiles.  ``check_json_array`` reads the
numbers of a JSON file, matrix times and list blocks and mixture
parameters, before those checks.
"""

import math
import numbers

import numpy as np


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


def _shown(value) -> str:
    """``repr(value)``, or a short description of a value whose ``repr``
    raises, as that of an int past Python's 4300-digit limit does."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def check_int(name: str, value, low: int | None) -> int:
    """``value`` as an ``int``, if it is a Python or NumPy integer of at
    least ``low`` (0 or 1, or None for any integer).

    Anything else, a bool, a float (even 3.0 or NaN), a string or None
    included, raises :class:`ParameterError`.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (low is not None and value < low)):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[low]
        raise ParameterError(f"need {kind} integer {name}, "
                             f"got {_shown(value)}")
    return int(value)


def check_real(name: str, value, error=ParameterError) -> float:
    """``value`` as a finite ``float``, if it is a Python or NumPy real
    number that is not a bool.

    Anything else, a string, None, a bool, a complex, an array, NaN, an
    infinity or an integer too large for a float included, raises
    ``error``.
    """
    # a float is the common case: every time of a traced run is one
    if type(value) is float and math.isfinite(value):
        return value
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            value = float(value)
        except OverflowError:
            raise error(f"{name} must be a finite number, got one too "
                        "large for a float") from None
        if math.isfinite(value):
            return value
    raise error(f"{name} must be a finite number, got {_shown(value)}")


def check_array(name: str, value, ndim, nonfinite=ValidationError):
    """``value`` as a float64 array with ``ndim`` dimensions (one count or
    a tuple of counts); no copy is made of a float64 array.

    A value NumPy cannot read as numbers, a NumPy array or scalar of a
    complex dtype (read from its dtype alone, which NumPy would cast to
    real by dropping the imaginary part), or one with another dimension
    count, raises :class:`ValidationError`; a NaN or infinite entry raises
    ``nonfinite``, unless that is None.
    """
    dims = (ndim,) if isinstance(ndim, int) else ndim
    dtype = getattr(value, "dtype", None)
    if isinstance(dtype, np.dtype) and dtype.kind == "c":
        raise ValidationError(f"{name} must be real, got dtype {dtype}")
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numeric: {exc}") from None
    if a.ndim not in dims:
        want = " or ".join(f"{k}-D" for k in dims)
        raise ValidationError(f"need {want} {name}, got shape {a.shape}")
    if nonfinite is not None and not np.isfinite(a).all():
        raise nonfinite(f"non-finite {name}")
    return a


#: The types ``json.load`` gives a number; a bool is not one.
_JSON_NUMBERS = {int, float}
_JSON_NAMES = {int: "a number", float: "a number", str: "a string",
               bool: "a bool", type(None): "null", dict: "an object"}


def _entry_types(value: list) -> set:
    """The types of a list's entries, with nested lists taken apart."""
    types = set(map(type, value))
    if list in types:
        types.discard(list)
        for v in value:
            if type(v) is list:
                types |= _entry_types(v)
    return types


def check_json_array(name: str, value, too_large=ValidationError):
    """A JSON array of numbers, or of such arrays, as a float64 array.

    A value that is not an array, an entry that is not a JSON number (a
    string, a bool, null or an object) and arrays of unequal lengths
    raise :class:`FormatError`; a number too large for a float raises
    ``too_large``.  Shape and finiteness are left to the caller's check.
    """
    if type(value) is not list:
        raise FormatError(f"{name} must be a JSON array, not "
                          + _JSON_NAMES.get(type(value), type(value).__name__))
    bad = _entry_types(value) - _JSON_NUMBERS
    if bad:
        raise FormatError(f"{name} must hold JSON numbers, not " + " or ".join(
            sorted(_JSON_NAMES.get(t, t.__name__) for t in bad)))
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise too_large(f"{name} holds a number too large for a float"
                        ) from None
    except ValueError as exc:  # arrays of unequal lengths
        raise FormatError(f"{name} is not a regular array: {exc}") from None
