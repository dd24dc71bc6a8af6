"""Exception types shared across the package, its one rule for scalar inputs, and _freeze.

_check_real and _check_integer take int, float and numpy scalars, never a string, None or a bool, and
return a Python float or int; 5.0 counts as the integer 5. A number written as text, in a config file
or a command-line flag, is read by _number and then judged by the same rule. _check_point takes the
same numbers and keeps nan and +-inf, the documented degenerate evaluation points. _check_bool takes a
Python or numpy bool and returns a bool, _check_instance takes an instance of one class and
_check_collection any iterable but a string, as a tuple. A rejection is a ConfigError that names the
parameter, what it must be (with its interval for a number) and shows the value as Python prints it.
_freeze stores the read-only arrays of the package's frozen dataclasses.
"""

import math
from collections.abc import Iterable

import numpy as np

__all__ = ["ConfigError", "DataError", "LLRERError"]


class LLRERError(Exception):
    """Base class for all library errors."""


class DataError(LLRERError, ValueError):
    """Malformed or unusable input data."""


class ConfigError(LLRERError, ValueError):
    """Invalid configuration or parameter value."""


_NUMBERS = (int, float, np.integer, np.floating)


def _as_float(value) -> float:
    """value as a float, or nan unless it is an int, float or numpy scalar of either kind (a bool is not)."""
    try:
        return float(value) if isinstance(value, _NUMBERS) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond the largest float
        return math.nan


def _must_be(value, name: str, kind: str) -> ConfigError:
    shown = value.item() if isinstance(value, np.generic) else value
    return ConfigError(f"{name} must be {kind}, got {shown!r}")


def _rejected(value, name: str, kind: str, lo, hi, open_lo=False, open_hi=False) -> ConfigError:
    left = "(" if open_lo or lo == -math.inf else "["
    right = ")" if open_hi or hi == math.inf else "]"
    return _must_be(value, name, f"{kind} in {left}{lo!r}, {hi!r}{right}")


def _check_real(value, name: str, lo=-math.inf, hi=math.inf, *, open_lo=False, open_hi=False) -> float:
    """value as a float, or a ConfigError unless it is a finite real number from lo to hi (ends closed unless open)."""
    x = _as_float(value)
    if not (math.isfinite(x) and (lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi)):
        raise _rejected(value, name, "a real number", lo, hi, open_lo, open_hi)
    return x


def _check_integer(value, name: str, lo: int, hi=math.inf) -> int:
    """value as an int, or a ConfigError unless it is an integer in [lo, hi]; 5.0 counts as 5."""
    x = _as_float(value)
    if not (math.isfinite(x) and x.is_integer() and lo <= x <= hi):
        raise _rejected(value, name, "an integer", lo, hi)
    return int(value)


def _number(text: str):
    """The number that text writes, for the rule above to judge: an int where text is an integer literal, so
    every digit of a long one is kept, else a float; a ValueError where it is neither."""
    try:
        return int(text)
    except ValueError:
        return float(text)


_number.__name__ = "number"  # argparse names a flag's type by it: "invalid number value: 'x'"


def _check_point(value, name: str) -> float:
    """value as a float, or a ConfigError unless it is a real number; nan and +-inf are accepted."""
    x = _as_float(value)
    if math.isnan(x) and not isinstance(value, (float, np.floating)):
        raise _must_be(value, name, "a real number (nan and +-inf included)")
    return x


def _check_bool(value, name: str) -> bool:
    """value as a bool, or a ConfigError unless it is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise _must_be(value, name, "a bool")
    return bool(value)


def _check_instance(value, kind: type, name: str):
    """value, or a ConfigError unless it is an instance of kind."""
    if not isinstance(value, kind):
        raise _must_be(value, name, ("an " if kind.__name__[0] in "AEIOU" else "a ") + kind.__name__)
    return value


def _freeze(record, **arrays) -> None:
    """Make each of arrays read-only and store it on record, a frozen dataclass, as the field of its name."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(record, name, array)


def _check_collection(value, name: str) -> tuple:
    """value as a tuple, or a ConfigError unless it is an iterable other than a string."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise _must_be(value, name, "a collection (not a string)")
    return tuple(value)
