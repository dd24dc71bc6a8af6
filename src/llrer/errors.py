"""Exception types shared across the package, and its one rule for scalar numbers.

_check_real and _check_integer take int, float and numpy scalars, never a string, None or a bool, and
return a Python float or int; 5.0 counts as the integer 5. A rejection is a ConfigError that names the
parameter and its interval and shows the value as Python prints it.
"""

import math

import numpy as np


class LLRERError(Exception):
    """Base class for all library errors."""


class DataError(LLRERError, ValueError):
    """Malformed or unusable input data."""


class ConfigError(LLRERError, ValueError):
    """Invalid configuration or parameter value."""


class CalibrationError(LLRERError, RuntimeError):
    """Censoring calibration could not reach the requested tolerance."""


_NUMBERS = (int, float, np.integer, np.floating)


def _as_float(value) -> float:
    """value as a float, or nan unless it is an int, float or numpy scalar of either kind (a bool is not)."""
    try:
        return float(value) if isinstance(value, _NUMBERS) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond the largest float
        return math.nan


def _rejected(value, name: str, kind: str, lo, hi, open_lo=False, open_hi=False) -> ConfigError:
    left = "(" if open_lo or lo == -math.inf else "["
    right = ")" if open_hi or hi == math.inf else "]"
    shown = value.item() if isinstance(value, np.generic) else value
    return ConfigError(f"{name} must be {kind} in {left}{lo!r}, {hi!r}{right}, got {shown!r}")


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
