"""Point estimators on censored samples: LLRER, LLCR and CR.

LLRER is the local linear fit under squared relative error, evaluated
through one-pass moment statistics in O(n) per point. LLCR is the classical
local linear fit on the synthetic responses, and CR the Nadaraya-Watson
form. The quadratic double-sum forms of LLRER and LLCR are shipped
alongside as permanent cross-checks for the moment-statistics path.

A point where the fit's denominator vanishes is degenerate: it reports the
value 0 together with an explicit flag, so downstream metrics can exclude
it instead of silently averaging zeros.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .kernels import KernelKind, scaled_kernel
from .survival import CensoredSample, SurvivalStep, SyntheticResponses, km_censoring_survival, synthetic_transform

DEFAULT_EPSILON = 1e-12


class Estimator(Enum):
    """The three smoothers; values double as CLI/config names."""

    LLRER = "llrer"
    LLCR = "llcr"
    CR = "cr"

    @classmethod
    def from_name(cls, name: str) -> "Estimator":
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            choices = ", ".join(e.value for e in cls)
            raise ConfigError(f"unknown estimator {name!r}; expected one of: {choices}") from None


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth and degenerate-denominator threshold.

    denominator_epsilon is relative: a point is degenerate when
    |denominator| <= denominator_epsilon * scale, where scale is the
    magnitude of the denominator's leading product (1.0 for the plain CR
    denominator). This separates true 0/0 cancellation from small but
    informative denominators at any response scale.
    """

    bandwidth: float
    kernel: KernelKind = KernelKind.GAUSSIAN
    denominator_epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        h = float(self.bandwidth)
        if not np.isfinite(h) or h <= 0.0:
            raise ConfigError(f"bandwidth h must satisfy h > 0, got {self.bandwidth!r}")
        object.__setattr__(self, "bandwidth", h)
        if not isinstance(self.kernel, KernelKind):
            raise ConfigError(f"kernel must be a KernelKind, got {self.kernel!r}")
        eps = float(self.denominator_epsilon)
        if not np.isfinite(eps) or eps < 0.0:
            raise ConfigError(f"denominator_epsilon must be >= 0, got {self.denominator_epsilon!r}")
        object.__setattr__(self, "denominator_epsilon", eps)


class PointEstimate(NamedTuple):
    value: float
    degenerate: bool


@dataclass(frozen=True)
class MomentStatistics:
    """One-pass kernel moment sums anchored at an evaluation point.

    kernel_moments[g] = sum_i (x_i - x)^g K((x_i - x)/h), and
    response_moments[l][g] carries the extra synthetic-response factor of
    order l. The usual 1/(nh) normalisation is omitted; every consumer is a
    ratio in which it cancels.
    """

    x: float
    kernel_moments: np.ndarray
    response_moments: dict

    def s(self, order: int, gamma: int) -> float:
        return float(self.response_moments[order][gamma])


def moment_statistics(
    sample: CensoredSample,
    responses: Iterable[SyntheticResponses],
    config: EstimatorConfig,
    x: float,
) -> MomentStatistics:
    """Compute kernel and response moment sums at x in a single pass."""
    d = sample.x - x
    w = scaled_kernel(config.kernel, config.bandwidth, d)
    wd = w * d
    wd2 = wd * d
    kernel_moments = np.array([w.sum(), wd.sum(), wd2.sum()])
    response_moments = {}
    for resp in responses:
        tau = resp.values
        if tau.shape != sample.y.shape:
            raise DataError("synthetic responses do not match the sample length")
        response_moments[resp.order] = np.array([(tau * w).sum(), (tau * wd).sum(), (tau * wd2).sum()])
    return MomentStatistics(float(x), kernel_moments, response_moments)


def _ratio_estimate(num: float, den: float, scale: float, eps: float) -> PointEstimate:
    if abs(den) <= eps * scale:
        return PointEstimate(0.0, True)
    return PointEstimate(float(num / den), False)


def _response_map(sample, step, responses, orders) -> Mapping[int, SyntheticResponses]:
    if responses is None:
        return {o: synthetic_transform(sample, step, o) for o in orders}
    mapping = {r.order: r for r in responses}
    missing = [o for o in orders if o not in mapping]
    if missing:
        raise ConfigError(f"synthetic responses missing for orders {missing}")
    return mapping


def llrer_point(
    sample: CensoredSample,
    step: SurvivalStep,
    config: EstimatorConfig,
    x: float,
    responses: Iterable[SyntheticResponses] | None = None,
) -> PointEstimate:
    """Relative-error local linear estimate at x.

    Needs synthetic responses of orders 1 and 2; they are computed from the
    step when not supplied.
    """
    rmap = _response_map(sample, step, responses, (1, 2))
    m = moment_statistics(sample, (rmap[1], rmap[2]), config, x)
    s1 = m.response_moments[1]
    s2 = m.response_moments[2]
    num = s2[2] * s1[0] - s2[1] * s1[1]
    den = s2[2] * s2[0] - s2[1] * s2[1]
    return _ratio_estimate(num, den, abs(s2[2] * s2[0]), config.denominator_epsilon)


def llrer_point_naive(
    sample: CensoredSample,
    step: SurvivalStep,
    config: EstimatorConfig,
    x: float,
    responses: Iterable[SyntheticResponses] | None = None,
) -> PointEstimate:
    """Literal double-sum evaluation of the relative-error fit.

    O(n^2); kept permanently as the cross-check for llrer_point. The per-j
    response factor in the numerator is the order-1 synthetic response, the
    reading under which the double sum factorises into moment statistics.
    """
    rmap = _response_map(sample, step, responses, (1, 2))
    tau1 = rmap[1].values
    tau2 = rmap[2].values
    d = sample.x - x
    k = scaled_kernel(config.kernel, config.bandwidth, d)
    base = d[:, None] * (d[:, None] - d[None, :]) * k[:, None] * k[None, :] * tau2[:, None]
    num = float((base * tau1[None, :]).sum())
    den = float((base * tau2[None, :]).sum())
    lead = float(((d * d * k * tau2)[:, None] * (k * tau2)[None, :]).sum())
    return _ratio_estimate(num, den, abs(lead), config.denominator_epsilon)


def llcr_point(
    sample: CensoredSample,
    step: SurvivalStep,
    config: EstimatorConfig,
    x: float,
    responses: Iterable[SyntheticResponses] | None = None,
) -> PointEstimate:
    """Classical local linear estimate on the synthetic responses at x."""
    rmap = _response_map(sample, step, responses, (-1,))
    m = moment_statistics(sample, (rmap[-1],), config, x)
    p = m.kernel_moments
    t = m.response_moments[-1]
    num = p[2] * t[0] - p[1] * t[1]
    den = p[2] * p[0] - p[1] * p[1]
    return _ratio_estimate(num, den, abs(p[2] * p[0]), config.denominator_epsilon)


def llcr_point_naive(
    sample: CensoredSample,
    step: SurvivalStep,
    config: EstimatorConfig,
    x: float,
    responses: Iterable[SyntheticResponses] | None = None,
) -> PointEstimate:
    """Literal double-sum evaluation of the classical local linear fit."""
    rmap = _response_map(sample, step, responses, (-1,))
    tau = rmap[-1].values
    d = sample.x - x
    k = scaled_kernel(config.kernel, config.bandwidth, d)
    v = d[:, None] * (d[:, None] - d[None, :]) * k[:, None] * k[None, :]
    num = float((v * tau[None, :]).sum())
    den = float(v.sum())
    lead = float(((d * d * k)[:, None] * k[None, :]).sum())
    return _ratio_estimate(num, den, abs(lead), config.denominator_epsilon)


def cr_point(
    sample: CensoredSample,
    step: SurvivalStep,
    config: EstimatorConfig,
    x: float,
    responses: Iterable[SyntheticResponses] | None = None,
) -> PointEstimate:
    """Nadaraya-Watson estimate on the synthetic responses at x."""
    rmap = _response_map(sample, step, responses, (-1,))
    m = moment_statistics(sample, (rmap[-1],), config, x)
    num = m.response_moments[-1][0]
    den = m.kernel_moments[0]
    return _ratio_estimate(num, den, 1.0, config.denominator_epsilon)


_POINT_FUNCS = {
    Estimator.LLRER: llrer_point,
    Estimator.LLCR: llcr_point,
    Estimator.CR: cr_point,
}

_REQUIRED_ORDERS = {
    Estimator.LLRER: (1, 2),
    Estimator.LLCR: (-1,),
    Estimator.CR: (-1,),
}


def required_orders(estimator: Estimator) -> tuple:
    """Synthetic-response orders an estimator consumes."""
    return _REQUIRED_ORDERS[estimator]


@dataclass(frozen=True)
class FittedCurve:
    """Estimates over an ascending grid; degenerate points carry 0 plus a flag."""

    grid: np.ndarray
    values: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float, ndmin=1)
        values = np.array(self.values, dtype=float, ndmin=1)
        degenerate = np.array(self.degenerate, dtype=bool, ndmin=1)
        if not (grid.shape == values.shape == degenerate.shape) or grid.ndim != 1:
            raise DataError("grid, values and degenerate must be equally long 1-d arrays")
        for name, arr in (("grid", grid), ("values", values), ("degenerate", degenerate)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fit_curve(estimator: Estimator, sample: CensoredSample, config: EstimatorConfig, grid) -> FittedCurve:
    """Evaluate one estimator over an ascending grid.

    The Kaplan-Meier step and the synthetic responses are computed once and
    reused across all grid points.
    """
    grid = np.array(grid, dtype=float, ndmin=1)
    if grid.size == 0:
        raise ConfigError("evaluation grid is empty")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("evaluation grid must be strictly ascending")
    step = km_censoring_survival(sample)
    responses = [synthetic_transform(sample, step, o) for o in required_orders(estimator)]
    point_fn = _POINT_FUNCS[estimator]
    values = np.empty(grid.size)
    degenerate = np.empty(grid.size, dtype=bool)
    for i, xi in enumerate(grid):
        est = point_fn(sample, step, config, float(xi), responses=responses)
        values[i] = est.value
        degenerate[i] = est.degenerate
    return FittedCurve(grid, values, degenerate)


def write_curve_csv(curve: FittedCurve, path) -> None:
    """Write a fitted curve as CSV with columns x,estimate,degenerate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "estimate", "degenerate"])
        for x, v, flag in zip(curve.grid, curve.values, curve.degenerate):
            writer.writerow([repr(float(x)), repr(float(v)), int(flag)])


def read_curve_csv(path) -> FittedCurve:
    """Read back a curve written by write_curve_csv."""
    xs, vs, flags = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "estimate", "degenerate"]:
            raise DataError(f"{path}: header must be x,estimate,degenerate")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DataError(f"{path}: row {lineno}: expected 3 columns")
            try:
                xs.append(float(row[0]))
                vs.append(float(row[1]))
                flags.append(bool(int(row[2])))
            except ValueError:
                raise DataError(f"{path}: row {lineno}: could not parse values") from None
    if not xs:
        raise DataError(f"{path}: no data rows")
    return FittedCurve(np.array(xs), np.array(vs), np.array(flags))
