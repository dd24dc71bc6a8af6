"""Point estimators on censored samples: LLRER, LLCR and CR.

LLRER is the local linear fit under squared relative error, LLCR the
classical local linear fit on the synthetic responses and CR the
Nadaraya-Watson form. Point estimates, curves and cross-validation share one
ratio path, _ratio_terms, with one evaluation point per row. The quadratic
double-sum forms of LLRER and LLCR are shipped alongside as permanent
cross-checks for that path.

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
from .kernels import KernelKind, kernel_eval, scaled_kernel
from .survival import CensoredSample, SurvivalStep, SyntheticResponses, _synthetic_responses, km_censoring_survival

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
        object.__setattr__(self, "denominator_epsilon", _check_epsilon(self.denominator_epsilon))


def _check_epsilon(value) -> float:
    """value as a float, or a ConfigError unless it is finite and >= 0."""
    eps = float(value)
    if not np.isfinite(eps) or eps < 0.0:
        raise ConfigError(f"denominator_epsilon must be >= 0, got {value!r}")
    return eps


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


_REQUIRED_ORDERS = {
    Estimator.LLRER: (1, 2),
    Estimator.LLCR: (-1,),
    Estimator.CR: (-1,),
}


def required_orders(estimator: Estimator) -> tuple:
    """Synthetic-response orders an estimator consumes."""
    return _REQUIRED_ORDERS[estimator]


def _union_orders(estimators) -> tuple:
    """The orders that any of estimators consumes, in order of first use."""
    return tuple(dict.fromkeys(o for e in estimators for o in _REQUIRED_ORDERS[e]))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row sums of a * b without the product array.

    numpy sums a lone row longer than 8192 in another order than the rows of
    a taller array; reading it twice keeps points equal to curve values.
    """
    if a.shape[0] == 1:
        shape = (2, a.shape[1])
        return np.einsum("ij,ij->i", np.broadcast_to(a, shape), np.broadcast_to(b, shape))[:1]
    return np.einsum("ij,ij->i", a, b)


def _ratio_terms(estimators, w: np.ndarray, dx: np.ndarray, dx2: np.ndarray, tau) -> dict:
    """Per-row (numerator, denominator, degeneracy scale) of each estimator.

    Row r holds evaluation point r: weights w, offsets dx = x_j - point and
    dx2 = dx * dx. tau[order] is per row (leave-one-out folds) or 1-d and
    shared by every row. LLCR and CR share the row sums of tau[-1] * w and w.
    """
    out = {}
    if Estimator.LLRER in estimators:
        a = tau[1] * w
        s10, s11 = a.sum(axis=1), _row_dot(a, dx)
        np.multiply(tau[2], w, out=a)
        s20, s21, s22 = a.sum(axis=1), _row_dot(a, dx), _row_dot(a, dx2)
        out[Estimator.LLRER] = (s22 * s10 - s21 * s11, s22 * s20 - s21 * s21, np.abs(s22 * s20))
    if Estimator.LLCR in estimators or Estimator.CR in estimators:
        a = tau[-1] * w
        t0 = a.sum(axis=1)
        p0 = w.sum(axis=1)
        if Estimator.LLCR in estimators:
            t1 = _row_dot(a, dx)
            p1 = _row_dot(w, dx)
            p2 = _row_dot(w, dx2)
            out[Estimator.LLCR] = (p2 * t0 - p1 * t1, p2 * p0 - p1 * p1, np.abs(p2 * p0))
        if Estimator.CR in estimators:
            out[Estimator.CR] = (t0, p0, np.ones_like(p0))
    return out


def _masked_ratio(num: np.ndarray, den: np.ndarray, scale: np.ndarray, eps: float):
    """(num / den, degenerate): degenerate where |den| <= eps * scale, with value 0."""
    degenerate = np.abs(den) <= eps * scale
    value = np.zeros_like(den)
    np.divide(num, den, out=value, where=~degenerate)
    return value, degenerate


# Curves and cross-validation evaluate at most this many (point,
# observation) pairs, or one point, at once, so their memory stays O(n) for
# any number of points
_BLOCK_ENTRIES = 2**18


def _block_rows(n: int) -> int:
    """Points per block of at most _BLOCK_ENTRIES pairs with n observations."""
    return max(1, _BLOCK_ENTRIES // n)


def _estimates(estimators, sample, step, config, points, responses=None) -> dict:
    """{estimator: (estimates, degenerate flags)} at each of points, in blocks
    of rows; each block evaluates the kernel once for every estimator."""
    orders = _union_orders(estimators)
    rmap = _response_map(sample, step, responses, orders)
    tau = {o: rmap[o].values for o in orders}
    out = {e: (np.empty(points.size), np.empty(points.size, dtype=bool)) for e in estimators}
    rows = _block_rows(sample.n)
    for lo in range(0, points.size, rows):
        block = slice(lo, lo + rows)
        dx = sample.x[None, :] - points[block, None]
        w = kernel_eval(config.kernel, dx / config.bandwidth)
        terms = _ratio_terms(estimators, w, dx, dx * dx, tau)
        for e, (values, degenerate) in out.items():
            values[block], degenerate[block] = _masked_ratio(*terms[e], config.denominator_epsilon)
    return out


def _response_map(sample, step, responses, orders) -> Mapping[int, SyntheticResponses]:
    if responses is None:
        return _synthetic_responses(sample, step, orders)
    mapping = {r.order: r for r in responses}
    missing = [o for o in orders if o not in mapping]
    if missing:
        raise ConfigError(f"synthetic responses missing for orders {missing}")
    if any(mapping[o].values.shape != sample.y.shape for o in orders):
        raise DataError("synthetic responses do not match the sample length")
    return mapping


def _first_point(values, degenerate) -> PointEstimate:
    return PointEstimate(float(values[0]), bool(degenerate[0]))


def _point(estimator, sample, step, config, x, responses) -> PointEstimate:
    return _first_point(*_estimates((estimator,), sample, step, config, np.array([float(x)]), responses)[estimator])


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
    return _point(Estimator.LLRER, sample, step, config, x, responses)


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
    return _first_point(*_masked_ratio(np.array([num]), np.array([den]), abs(lead), config.denominator_epsilon))


def llcr_point(
    sample: CensoredSample,
    step: SurvivalStep,
    config: EstimatorConfig,
    x: float,
    responses: Iterable[SyntheticResponses] | None = None,
) -> PointEstimate:
    """Classical local linear estimate on the synthetic responses at x."""
    return _point(Estimator.LLCR, sample, step, config, x, responses)


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
    return _first_point(*_masked_ratio(np.array([num]), np.array([den]), abs(lead), config.denominator_epsilon))


def cr_point(
    sample: CensoredSample,
    step: SurvivalStep,
    config: EstimatorConfig,
    x: float,
    responses: Iterable[SyntheticResponses] | None = None,
) -> PointEstimate:
    """Nadaraya-Watson estimate on the synthetic responses at x."""
    return _point(Estimator.CR, sample, step, config, x, responses)


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


def fit_curves(estimators, sample: CensoredSample, config: EstimatorConfig, grid, responses=None) -> dict:
    """{estimator: FittedCurve} of estimators that share one bandwidth, over an ascending grid.

    The Kaplan-Meier step and the synthetic responses are computed once when
    not supplied, and each block of grid points evaluates the kernel once.
    Each curve equals what fit_curve gives for its estimator alone, bit for bit.
    """
    estimators = tuple(dict.fromkeys(estimators))
    grid = np.array(grid, dtype=float, ndmin=1)
    if grid.size == 0:
        raise ConfigError("evaluation grid is empty")
    # written so that a nan, which compares false, fails it
    if not np.all(np.diff(grid) > 0):
        raise ConfigError("evaluation grid must be strictly ascending")
    step = km_censoring_survival(sample) if responses is None else None
    fits = _estimates(estimators, sample, step, config, grid, responses)
    return {e: FittedCurve(grid, values, degenerate) for e, (values, degenerate) in fits.items()}


def fit_curve(estimator: Estimator, sample: CensoredSample, config: EstimatorConfig, grid) -> FittedCurve:
    """Evaluate one estimator over an ascending grid; see fit_curves."""
    return fit_curves((estimator,), sample, config, grid)[estimator]


def write_curve_csv(curve: FittedCurve, path) -> None:
    """Write a fitted curve as CSV with columns x,estimate,degenerate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "estimate", "degenerate"])
        for x, v, flag in zip(curve.grid, curve.values, curve.degenerate):
            writer.writerow([repr(float(x)), repr(float(v)), int(flag)])

