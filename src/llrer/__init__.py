"""Local linear relative-error regression for right-censored data.

The package estimates the relative-error regression curve from censored
observations via Kaplan-Meier synthetic responses and local linear
smoothing, ships the classical competitors (local linear and
Nadaraya-Watson on the same synthetic responses), leave-one-out bandwidth
selection, and a seeded Monte Carlo harness with a CLI.

Each module declares its public names in its own __all__, and the package
re-exports them: every name of llrer.__all__ is defined in exactly one module.
"""

__version__ = "0.1.0"

from . import bandwidth, errors, kernels, loclin, simulate, survival
from .bandwidth import *
from .errors import *
from .kernels import *
from .loclin import *
from .simulate import *
from .survival import *

__all__ = ["__version__"] + [
    name for module in (bandwidth, errors, kernels, loclin, simulate, survival) for name in module.__all__
]
