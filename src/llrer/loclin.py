"""Point estimators on censored samples: LLRER, LLCR and CR.

LLRER is the local linear fit under squared relative error, LLCR the
classical local linear fit on the synthetic responses and CR the
Nadaraya-Watson form. Point estimates, curves and cross-validation share one
weighting rule, K(dx^2 / h^2) from the capped squared offsets of _offsets,
and one ratio formula, _ratio_terms, read from five kernel-weighted row sums
per group of estimators, with one evaluation point per row. This module owns
the layout of those sums for both ways of forming them. Points and curves
use each weight once and form the sums from the weights (_row_sums).
Cross-validation reuses a block of folds over every bandwidth, so it builds
the sums' factors once per block (_fold_products, the precomputation of Fan
& Marron, 1994) and takes the sums of a fixed-size chunk of bandwidths, 16
with the Gaussian kernel and one with a compact kernel, with one matrix
product per fold (_fold_estimates). The quadratic double-sum forms of
LLRER and LLCR, weighed by scaled_kernel, are shipped alongside as permanent
cross-checks for that path.

A point where the fit's denominator vanishes is degenerate: it reports the
value 0 together with an explicit flag, so downstream metrics can exclude
it instead of silently averaging zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, _check_instance, _check_point, _check_real
from .kernels import (
    _DEFAULT_KERNEL, KERNEL_SUPPORT, KernelKind, _check_bandwidth, _check_kernel, _kernel_of_squares, _member_named,
    scaled_kernel,
)
from .survival import (
    CensoredSample, SurvivalStep, SyntheticResponses, _synthetic_responses, _write_csv, km_censoring_survival
)

DEFAULT_EPSILON = 1e-12
_check_epsilon = partial(_check_real, name="denominator_epsilon", lo=0)


class Estimator(Enum):
    """The three smoothers; values double as CLI/config names."""

    LLRER = "llrer"
    LLCR = "llcr"
    CR = "cr"

    @classmethod
    def from_name(cls, name: str) -> "Estimator":
        return _member_named(cls, name, "estimator")


_check_estimator = partial(_check_instance, kind=Estimator, name="estimator")


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
    kernel: KernelKind = _DEFAULT_KERNEL
    denominator_epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", _check_bandwidth(self.bandwidth))
        _check_kernel(self.kernel)
        object.__setattr__(self, "denominator_epsilon", _check_epsilon(self.denominator_epsilon))


_check_config = partial(_check_instance, kind=EstimatorConfig, name="config")


def _point_inputs(config, x) -> float:
    """x as a float, or a ConfigError unless config is an EstimatorConfig and x a real number (nan and +-inf
    are degenerate points)."""
    _check_config(config)
    return _check_point(x, "x")


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
    x = _point_inputs(config, x)
    d = sample.x - x
    w = scaled_kernel(config.kernel, config.bandwidth, d)
    wd = w * d
    wd2 = wd * d
    kernel_moments = np.array([w.sum(), wd.sum(), wd2.sum()])
    response_moments = {
        o: np.array([(r * w).sum(), (r * wd).sum(), (r * wd2).sum()])
        for o, r in _response_map(sample, None, responses, ()).items()
    }
    return MomentStatistics(x, kernel_moments, response_moments)


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


# The five row sums of each group of estimators, sum_j factor_j * w_j over these factors:
# LLRER (s10, s11, s20, s21, s22) from tau1, tau1 * dx, tau2, tau2 * dx, tau2 * dx2, and
# LLCR and CR (t0, t1, p0, p1, p2) from tau-1, tau-1 * dx, 1, dx, dx2
_RELATIVE, _CLASSICAL = "relative", "classical"
_GROUP = {Estimator.LLRER: _RELATIVE, Estimator.LLCR: _CLASSICAL, Estimator.CR: _CLASSICAL}


def _row_sums(estimators, w: np.ndarray, dx: np.ndarray, dx2: np.ndarray, tau) -> dict:
    """{group: its five row sums} for the groups of estimators.

    Row r holds evaluation point r: weights w and offsets dx, dx2 from
    _offsets. tau[order] is 1-d and shared by every row.
    """
    sums = {}
    if Estimator.LLRER in estimators:
        a = tau[1] * w
        s10, s11 = a.sum(axis=1), _row_dot(a, dx)
        np.multiply(tau[2], w, out=a)
        sums[_RELATIVE] = (s10, s11, a.sum(axis=1), _row_dot(a, dx), _row_dot(a, dx2))
    if Estimator.LLCR in estimators or Estimator.CR in estimators:
        a = tau[-1] * w
        sums[_CLASSICAL] = (a.sum(axis=1), _row_dot(a, dx), w.sum(axis=1), _row_dot(w, dx), _row_dot(w, dx2))
    return sums


def _ratio_terms(estimators, sums) -> dict:
    """{estimator: (numerator, denominator, degeneracy scale)} from the row sums of its group."""
    out = {}
    if Estimator.LLRER in estimators:
        s10, s11, s20, s21, s22 = sums[_RELATIVE]
        out[Estimator.LLRER] = (s22 * s10 - s21 * s11, s22 * s20 - s21 * s21, np.abs(s22 * s20))
    if Estimator.LLCR in estimators:
        t0, t1, p0, p1, p2 = sums[_CLASSICAL]
        out[Estimator.LLCR] = (p2 * t0 - p1 * t1, p2 * p0 - p1 * p1, np.abs(p2 * p0))
    if Estimator.CR in estimators:
        t0, _, p0, _, _ = sums[_CLASSICAL]
        out[Estimator.CR] = (t0, p0, np.ones_like(p0))
    return out


def _masked_ratio(num: np.ndarray, den: np.ndarray, scale: np.ndarray, eps: float):
    """(num / den, degenerate): degenerate, with value 0, unless |den| > eps * scale (so at a nan den)."""
    degenerate = ~(np.abs(den) > eps * scale)
    value = np.zeros_like(den)
    np.divide(num, den, out=value, where=~degenerate)
    return value, degenerate


# Curves evaluate at most this many (point, observation) pairs, and
# cross-validation builds at most this many factor entries, or one row, at
# once, so their memory stays O(n) for any number of points
_BLOCK_ENTRIES = 2**18


def _blocks(count: int, width: int):
    """Slices of count rows, each of at most _BLOCK_ENTRIES entries at width entries a row, or of one row."""
    rows = max(1, _BLOCK_ENTRIES // width)
    for lo in range(0, count, rows):
        yield slice(lo, lo + rows)


def _offsets(columns: np.ndarray, points: np.ndarray):
    """(dx, dx2): dx[r, j] = columns[j] - points[r], one row per point, and dx2 = dx * dx, each capped at
    the largest float in magnitude. A capped dx2 weighs exactly 0 at every accepted bandwidth, so a far
    column adds 0 to the row sums, not 0 * inf = nan, and an infinite point, all of whose weights are
    0, is degenerate. A nan point keeps its nan offsets, so it is degenerate too."""
    big = np.finfo(float).max
    with np.errstate(over="ignore"):
        dx = columns[None, :] - points[:, None]
        np.clip(dx, -big, big, out=dx)
        dx2 = dx * dx
    np.minimum(dx2, big, out=dx2)
    return dx, dx2


def _estimates(estimators, sample, tau, config, points) -> dict:
    """{estimator: (estimates, degenerate flags)} at each of points from tau = {order: synthetic
    responses}, in blocks of rows; each block evaluates the kernel once for every estimator."""
    out = {e: (np.empty(points.size), np.empty(points.size, dtype=bool)) for e in estimators}
    for block in _blocks(points.size, sample.n):
        dx, dx2 = _offsets(sample.x, points[block])
        w = _kernel_of_squares(config.kernel, dx2, config.bandwidth)
        terms = _ratio_terms(estimators, _row_sums(estimators, w, dx, dx2, tau))
        for e, (values, degenerate) in out.items():
            values[block], degenerate[block] = _masked_ratio(*terms[e], config.denominator_epsilon)
    return out


# Factor entries a block of folds builds per (fold, column): five for each
# group of estimators, counted whichever estimators are asked for, so the
# blocks, their windows and so the traces are the same for every subset
_FOLD_FACTORS = 10


def _fold_products(groups, tau, columns: np.ndarray, points: np.ndarray, own: int):
    """({group: (folds, 5, columns) factors}, dx2) of a block of folds at points.

    Each group's factors are those of its five row sums (_row_sums), in that
    order, so one matrix product with a fold's weights gives its sums.
    They are capped at the largest float, so a far column, whose weight is 0,
    adds 0. Fold r's own column, own + r, is 0 in every factor: tau and dx are
    0 there, and so is the constant factor of the classical group.
    """
    dx, dx2 = _offsets(columns, points)
    big = np.finfo(float).max
    products = {}
    with np.errstate(over="ignore"):  # each overflow is capped
        for group in groups:
            p = products[group] = np.empty((points.size, 5, columns.size))
            if group == _RELATIVE:
                p[:, 0], p[:, 2] = tau[1], tau[2]
                np.multiply(tau[1], dx, out=p[:, 1])
                np.multiply(tau[2], dx, out=p[:, 3])
                np.multiply(tau[2], dx2, out=p[:, 4])
            else:
                p[:, 0], p[:, 2], p[:, 3], p[:, 4] = tau[-1], 1.0, dx, dx2
                np.multiply(tau[-1], dx, out=p[:, 1])
                np.fill_diagonal(p[:, 2, own:], 0.0)
            np.clip(p[:, 1:], -big, big, out=p[:, 1:])  # the products; tau alone is finite
    return products, dx2


# Bandwidths that cross-validation weighs per pass with a kernel of unbounded
# support: each fold's sums are then one (5 x columns) @ (columns x _CHUNK)
# product. The size is fixed because in OpenBLAS a bandwidth's sums depend on
# how many bandwidths the product holds; at one shape they are the same bits at
# every position in it and next to any other bandwidths
_CHUNK = 16


def _fold_estimates(estimators, tau, columns: np.ndarray, points: np.ndarray, own: int, kernel, hs, windows, eps):
    """{estimator: (predictions, degenerate flags)}, each of shape (len(hs), folds), of a block of folds.

    tau[order] holds one row of leave-one-out responses over columns per fold, fold r is evaluated at
    points[r] and its own column is own + r. The block builds each group's factors once. Bandwidth
    hs[k] weighs columns starts[k]:stops[k] of them, windows = (starts, stops), with the weights of
    _estimates. The bandwidths go in chunks: _CHUNK of them for the Gaussian kernel, whose windows
    hold every column, and one for a compact kernel, so each keeps its own narrow window. A chunk's
    weights are laid out bandwidth-major over the window of its widest bandwidth, the last chunk
    padded with zero weights to full size, and each group's sums of a fold take one matrix product
    with them. The ratios of every bandwidth and fold follow at once.
    """
    products, dx2 = _fold_products(dict.fromkeys(_GROUP[e] for e in estimators), tau, columns, points, own)
    size = _CHUNK if KERNEL_SUPPORT[kernel] == np.inf else 1
    hs = np.asarray(hs, dtype=float)[:, None, None]
    firsts = np.arange(0, len(hs), size)
    starts, stops = np.minimum.reduceat(windows[0], firsts).tolist(), np.maximum.reduceat(windows[1], firsts).tolist()
    sums = {g: np.empty((firsts.size, points.size, 5, size)) for g in products}  # chunk, fold, sum, bandwidth
    w = np.empty(size * dx2.size)
    for i, (lo, start, stop) in enumerate(zip(firsts.tolist(), starts, stops)):
        chunk = hs[lo : lo + size]
        weights = w[: size * points.size * (stop - start)].reshape(size, points.size, -1)
        _kernel_of_squares(kernel, dx2[:, start:stop], chunk, out=weights[: len(chunk)])
        if len(chunk) < size:  # the last chunk, padded with zero weights
            weights[len(chunk) :] = 0.0
        for g, factors in products.items():
            np.matmul(factors[:, :, start:stop], weights.transpose(1, 2, 0), out=sums[g][i])
    fold_sums = {g: s.transpose(2, 0, 3, 1).reshape(5, -1, points.size)[:, : len(hs)] for g, s in sums.items()}
    terms = _ratio_terms(estimators, fold_sums)
    return {e: _masked_ratio(*terms[e], eps) for e in estimators}


def _response_map(sample, step, responses, orders) -> Mapping[int, np.ndarray]:
    if responses is None:
        return _synthetic_responses(sample, step, orders)
    mapping = {r.order: r.values for r in responses}
    missing = [o for o in orders if o not in mapping]
    if missing:
        raise ConfigError(f"synthetic responses missing for orders {missing}")
    if any(r.shape != sample.y.shape for r in mapping.values()):
        raise DataError("synthetic responses do not match the sample length")
    return mapping


def _first_point(values, degenerate) -> PointEstimate:
    return PointEstimate(float(values[0]), bool(degenerate[0]))


def _point(estimator, sample, step, config, x, responses) -> PointEstimate:
    x = _point_inputs(config, x)
    tau = _response_map(sample, step, responses, _REQUIRED_ORDERS[estimator])
    return _first_point(*_estimates((estimator,), sample, tau, config, np.array([x]))[estimator])


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
    x = _point_inputs(config, x)
    rmap = _response_map(sample, step, responses, (1, 2))
    tau1, tau2 = rmap[1], rmap[2]
    d = sample.x - x
    k = scaled_kernel(config.kernel, config.bandwidth, d)
    d = np.where(k != 0.0, d, 0.0)  # a zero-weight record adds exactly 0, and a far one's d * d cannot overflow
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
    x = _point_inputs(config, x)
    tau = _response_map(sample, step, responses, (-1,))[-1]
    d = sample.x - x
    k = scaled_kernel(config.kernel, config.bandwidth, d)
    d = np.where(k != 0.0, d, 0.0)  # a zero-weight record adds exactly 0, and a far one's d * d cannot overflow
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


def _check_grid(grid) -> np.ndarray:
    """grid as a 1-d float array, or a ConfigError unless non-empty and strictly ascending."""
    grid = np.array(grid, dtype=float, ndmin=1)
    if grid.size == 0 or not np.all(np.diff(grid) > 0):  # a nan compares false, so it fails
        raise ConfigError("evaluation grid must be non-empty and strictly ascending")
    return grid


def fit_curves(configs: Mapping[Estimator, EstimatorConfig], sample: CensoredSample, grid) -> dict:
    """{estimator: FittedCurve} over an ascending grid, each estimator at its config in configs.

    One Kaplan-Meier step and one set of synthetic responses serve every estimator, and estimators
    with equal configs share each block's kernel evaluation; each curve equals fit_curve's bit for bit.
    """
    for e, config in configs.items():
        _check_estimator(e)
        _check_config(config)
    grid = _check_grid(grid)
    tau = _synthetic_responses(sample, km_censoring_survival(sample), _union_orders(configs))
    fits = {}
    for config in dict.fromkeys(configs.values()):
        fits.update(_estimates([e for e, c in configs.items() if c == config], sample, tau, config, grid))
    return {e: FittedCurve(grid, *fits[e]) for e in configs}


def fit_curve(estimator: Estimator, sample: CensoredSample, config: EstimatorConfig, grid) -> FittedCurve:
    """Evaluate one estimator over an ascending grid; see fit_curves."""
    return fit_curves({estimator: config}, sample, grid)[estimator]


def _curve_rows(curve: FittedCurve, xs, *lead):
    """CSV rows (*lead, x, estimate, degenerate) of curve as text, with xs its grid and lead already text."""
    return zip(*map(repeat, lead), xs, map(repr, curve.values.tolist()), np.where(curve.degenerate, "1", "0").tolist())


def write_curve_csv(curve: FittedCurve, path) -> None:
    """Write a fitted curve as CSV with columns x,estimate,degenerate."""
    _write_csv(path, ("x", "estimate", "degenerate"), _curve_rows(curve, map(repr, curve.grid.tolist())))

