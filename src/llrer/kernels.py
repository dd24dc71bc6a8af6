"""Kernel weight functions shared by every smoother in the package.

Bandwidth scaling follows the convention K_h(u) = K(u / h) with no 1/h
prefactor: all estimators here are ratios of kernel-weighted sums, so any
constant factor cancels. This deliberately differs from the density
estimation convention, where K_h carries a 1/h. The fits weigh by
K(u / h) / K(0) (_relative_kernel_of_squares), which skips a pass over
every weight, and scale their few sums by K(0) (_KERNEL_AT_ZERO), so each
sum keeps its meaning and scale.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial

import numpy as np

from .errors import ConfigError, _check_instance, _check_real

__all__ = ["KernelKind", "kernel_eval", "scaled_kernel"]

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


_check_kernel = partial(_check_instance, kind=KernelKind, name="kernel")


# The accepted bandwidths. h * h is then a normal float, so the squared-offset
# weights of _kernel_of_squares equal K(u / h) to rounding, and at most 1e300,
# so a dx * dx capped at the largest float, of a dx more than 1.3e4
# bandwidths away, weighs exactly 0
_BANDWIDTH_RANGE = (1e-150, 1e150)
_check_bandwidth = partial(_check_real, name="bandwidth h", lo=_BANDWIDTH_RANGE[0], hi=_BANDWIDTH_RANGE[1])


# Half-width of each kernel's support: kernel_eval is exactly 0 at and beyond
# |u| = KERNEL_SUPPORT[kind], so weights outside it need not be computed.
KERNEL_SUPPORT = {KernelKind.GAUSSIAN: math.inf, KernelKind.EPANECHNIKOV: 1.0}
# Each kernel's peak K(0), the factor between _kernel_of_squares and _relative_kernel_of_squares
_KERNEL_AT_ZERO = {KernelKind.GAUSSIAN: 1.0 / math.sqrt(2.0 * math.pi), KernelKind.EPANECHNIKOV: 0.75}


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


def _kernel_of_squares(kind: KernelKind, u2, h, out=None):
    """K(u / h) from the squared offsets u2 = u * u, written to out (a new array by default):
    _relative_kernel_of_squares, with its arguments and its np.errstate, times K(0). At h = 1 these are
    kernel_eval's operations, and every accepted h gives scaled_kernel's weights to rounding."""
    out = _relative_kernel_of_squares(kind, u2, h, out)
    out *= _KERNEL_AT_ZERO[kind]
    return out


def _relative_kernel_of_squares(kind: KernelKind, u2, h, out=None):
    """K(u / h) / K(0) from the squared offsets u2 = u * u, written to out (a new array by default).

    h is one bandwidth, or an array of them that broadcasts against u2. Gaussian exp(u2 * (-0.5 / h**2)),
    Epanechnikov fmax(h**2 - u2, 0) * (1 / h**2), with no division per weight, where fmax maps a nan to 0
    as it does every |u| > h; a u2 equal to h**2, of a |u| of exactly h, weighs exactly 0. Every h that
    _check_bandwidth accepts gives scaled_kernel's weights over K(0) to rounding, and the exact weight 0 to
    a u2 capped at the largest float. That u2 * (-0.5 / h**2) overflows, so each caller holds one
    np.errstate(over="ignore") around its calls.
    """
    h2 = h * h
    if kind is KernelKind.GAUSSIAN:
        out = np.multiply(u2, -0.5 / h2, out=out)
        np.exp(out, out=out)
    else:  # KernelKind.EPANECHNIKOV
        out = np.subtract(h2, u2, out=out)
        np.fmax(out, 0.0, out=out)
        np.multiply(out, 1.0 / h2, out=out)
    return out


def scaled_kernel(kind: KernelKind, h, u):
    """Evaluate K(u / h) for a bandwidth h in _BANDWIDTH_RANGE (no 1/h factor, see module note)."""
    with np.errstate(over="ignore"):  # an infinite u / h has the exact weight 0
        return kernel_eval(kind, np.asarray(u, dtype=float) / _check_bandwidth(h))
