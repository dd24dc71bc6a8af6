"""Kernel weight functions shared by every smoother in the package.

Bandwidth scaling follows the convention K_h(u) = K(u / h) with no 1/h
prefactor: all estimators here are ratios of kernel-weighted sums, so any
constant factor cancels. This deliberately differs from the density
estimation convention, where K_h carries a 1/h.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import ConfigError

_GAUSS_NORM = 1.0 / math.sqrt(2.0 * math.pi)


class KernelKind(Enum):
    """Supported kernel shapes; the values double as CLI/config names."""

    GAUSSIAN = "gaussian"
    EPANECHNIKOV = "epanechnikov"

    @classmethod
    def from_name(cls, name: str) -> "KernelKind":
        return _member_named(cls, name, "kernel")


# the kernel of EstimatorConfig, SimulationConfig and the command line
_DEFAULT_KERNEL = KernelKind.GAUSSIAN


def _member_named(enum: type, name: str, noun: str):
    """The member of enum valued name (case and blanks ignored), or a ConfigError."""
    try:
        return enum(str(name).strip().lower())
    except ValueError:
        choices = ", ".join(m.value for m in enum)
        raise ConfigError(f"unknown {noun} {name!r}; expected one of: {choices}") from None


def _check_kernel(kernel) -> None:
    """A ConfigError unless kernel is a KernelKind."""
    if not isinstance(kernel, KernelKind):
        raise ConfigError(f"kernel must be a KernelKind, got {kernel!r}")


# The accepted bandwidths. h * h is then a normal float, so the squared-offset
# weights of _kernel_of_squares equal K(u / h) to rounding, and at most 1e300,
# so a dx * dx capped at the largest float, of a dx more than 1.3e4
# bandwidths away, weighs exactly 0
_BANDWIDTH_RANGE = (1e-150, 1e150)


def _check_bandwidth(h) -> float:
    """h as a float, or a ConfigError unless it lies in _BANDWIDTH_RANGE (so a nan fails)."""
    lo, hi = _BANDWIDTH_RANGE
    if not lo <= float(h) <= hi:
        raise ConfigError(f"bandwidth h must satisfy h > 0 and lie in [{lo!r}, {hi!r}], got {h!r}")
    return float(h)


# Half-width of each kernel's support: kernel_eval is exactly 0 at and beyond
# |u| = KERNEL_SUPPORT[kind], so weights outside it need not be computed.
KERNEL_SUPPORT = {KernelKind.GAUSSIAN: math.inf, KernelKind.EPANECHNIKOV: 1.0}


def kernel_eval(kind: KernelKind, u):
    """Evaluate the kernel at u (scalar or array).

    Total on the reals: non-negative, symmetric, and integrating to one.
    The Epanechnikov kernel is exactly zero outside [-1, 1]; the Gaussian
    kernel is never truncated.
    """
    _check_kernel(kind)
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    with np.errstate(over="ignore"):  # a u * u that overflows gives the exact weight 0
        np.multiply(u, u, out=out)
    _kernel_of_squares(kind, out, 1.0, out=out)
    return float(out) if out.ndim == 0 else out


def _kernel_of_squares(kind: KernelKind, u2, h: float, out=None):
    """K(u / h) from the squared offsets u2 = u * u, written to out (a new array by default).

    Gaussian exp(u2 * (-0.5 / h**2)) * norm, Epanechnikov 0.75 * fmax(1 - u2 / h**2, 0), where fmax
    maps a nan to 0 as it does every |u| > h. At h = 1 these are kernel_eval's operations. Every h
    that _check_bandwidth accepts gives scaled_kernel's weights to rounding, and the exact weight 0
    to a u2 capped at the largest float.
    """
    h2 = h * h
    with np.errstate(over="ignore"):  # an overflow gives the exact weight 0
        if kind is KernelKind.GAUSSIAN:
            out = np.multiply(u2, -0.5 / h2, out=out)
            np.exp(out, out=out)
            out *= _GAUSS_NORM
        else:  # KernelKind.EPANECHNIKOV
            out = np.divide(u2, h2, out=out)
            np.subtract(1.0, out, out=out)
            np.fmax(out, 0.0, out=out)
            out *= 0.75
    return out


def scaled_kernel(kind: KernelKind, h, u):
    """Evaluate K(u / h) for a bandwidth h in _BANDWIDTH_RANGE (no 1/h factor, see module note)."""
    with np.errstate(over="ignore"):  # an infinite u / h has the exact weight 0
        return kernel_eval(kind, np.asarray(u, dtype=float) / _check_bandwidth(h))
