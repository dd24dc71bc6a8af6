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
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            choices = ", ".join(k.value for k in cls)
            raise ConfigError(f"unknown kernel {name!r}; expected one of: {choices}") from None


# Half-width of each kernel's support: kernel_eval is exactly 0 at and beyond
# |u| = KERNEL_SUPPORT[kind], so weights outside it need not be computed.
KERNEL_SUPPORT = {KernelKind.GAUSSIAN: math.inf, KernelKind.EPANECHNIKOV: 1.0}


def kernel_eval(kind: KernelKind, u):
    """Evaluate the kernel at u (scalar or array).

    Total on the reals: non-negative, symmetric, and integrating to one.
    The Epanechnikov kernel is exactly zero outside [-1, 1]; the Gaussian
    kernel is never truncated.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    # one buffer, in the operation order of norm * exp(-0.5 * u * u) and 0.75 * max(1 - u * u, 0)
    if kind is KernelKind.GAUSSIAN:
        np.multiply(u, -0.5, out=out)
        out *= u
        np.exp(out, out=out)
        out *= _GAUSS_NORM
    elif kind is KernelKind.EPANECHNIKOV:
        # fmax maps a nan u to 0, as it does every |u| > 1
        np.multiply(u, u, out=out)
        np.subtract(1.0, out, out=out)
        np.fmax(out, 0.0, out=out)
        out *= 0.75
    else:
        raise ConfigError(f"unknown kernel kind: {kind!r}")
    return float(out) if out.ndim == 0 else out


def scaled_kernel(kind: KernelKind, h, u):
    """Evaluate K(u / h) for a bandwidth h > 0 (no 1/h factor, see module note)."""
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise ConfigError(f"bandwidth h must satisfy h > 0, got {h!r}")
    return kernel_eval(kind, np.asarray(u, dtype=float) / h)
