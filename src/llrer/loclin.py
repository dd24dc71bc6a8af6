"""Point estimators on censored samples: LLRER, LLCR and CR.

Each estimator is one row of _GROUP, a pair (r, v) of the columns 1 and the
synthetic responses: the local linear least-squares fit of r / v with
weights v * K. LLRER, the fit under squared relative error, is the pair
(tau1, tau2), LLCR the classical fit of the pair (tau-1, 1) and CR the
Nadaraya-Watson, local constant, fit of LLCR's pair. Point estimates, curves
and cross-validation share one weighting rule, K(dx^2 / h^2) from the capped
squared offsets of _offsets, one table of kernel sums, _SUMS, five per pair,
and one ratio formula, _ratio_terms. Points, curves and moment_statistics
use each weight once: one matrix product per point gives its moments
sum_j w_j dx_j^g c_j over the columns c (_moments), and each pair reads its
five sums out of them through the table. Cross-validation reuses a block of
folds over every bandwidth, so it builds each sum's factor, its column times
dx^g, once per block from the same table (_fold_products, the precomputation
of Fan & Marron, 1994) and takes the sums of a fixed-size chunk of
bandwidths, 16 with the Gaussian kernel and one with a compact kernel, with
one matrix product per fold (_fold_estimates). The quadratic double-sum
forms of LLRER and LLCR, weighed by scaled_kernel, are shipped alongside as
permanent cross-checks for that path.

A point where the fit's denominator vanishes, or whose ratio is not finite
because its sums overflow, is degenerate: it reports the value 0 together
with an explicit flag, so downstream metrics can exclude it instead of
silently averaging zeros.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, _check_collection, _check_instance, _check_point, _check_real
from .kernels import (
    _DEFAULT_KERNEL, KERNEL_SUPPORT, KernelKind, _check_bandwidth, _check_kernel, _kernel_of_squares, _member_named,
    scaled_kernel,
)
from .survival import (
    CensoredSample, SurvivalStep, SyntheticResponses, _check_sample, _synthetic_responses, _write_csv,
    km_censoring_survival,
)

__all__ = [
    "DEFAULT_EPSILON", "Estimator", "EstimatorConfig", "FittedCurve", "MomentStatistics", "PointEstimate", "cr_point",
    "fit_curve", "fit_curves", "llcr_point", "llcr_point_naive", "llrer_point", "llrer_point_naive",
    "moment_statistics", "required_orders", "write_curve_csv",
]

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
    """Kernel moment sums anchored at an evaluation point, the point estimates' own.

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
    """Kernel and response moment sums at x, the point estimates' own (_moments)."""
    x = _point_inputs(config, x)
    tau = _response_map(sample, None, _check_collection(responses, "responses"), ())
    dx, dx2 = _offsets(sample.x, np.array([x]))
    m = _moments(_columns(tau, sample.n), dx, dx2, _kernel_of_squares(config.kernel, dx2, config.bandwidth))[0]
    return MomentStatistics(x, m[:, 0], {o: m[:, _COLUMNS.index(o)] for o in tau})


# Sum (g, c) is sum_j w_j * dx_j**g * column c of _COLUMNS: 1 and the synthetic responses of orders -1, 1 and 2
_COLUMNS = (None, -1, 1, 2)
# Each estimator's local fit as a column pair (r, v) of _COLUMNS: the local linear least-squares fit of r / v with
# weights v * K, so LLRER fits tau1 / tau2 with weights tau2 * K and LLCR tau-1 with weights K. CR is the local
# constant fit of LLCR's pair
_GROUP = {Estimator.LLRER: (2, 3), Estimator.LLCR: (1, 0), Estimator.CR: (1, 0)}
# The five sums of each pair, in the order _ratio_terms reads them: t0, t1 over r and p0, p1, p2 over v
_SUMS = {(r, v): ((0, r), (1, r), (0, v), (1, v), (2, v)) for r, v in _GROUP.values()}
# the synthetic-response orders of the columns that an estimator's pair reads
_REQUIRED_ORDERS = {e: tuple(_COLUMNS[c] for c in pair if c) for e, pair in _GROUP.items()}


def required_orders(estimator: Estimator) -> tuple:
    """Synthetic-response orders an estimator consumes."""
    return _REQUIRED_ORDERS[estimator]


def _union_orders(estimators) -> tuple:
    """The orders that any of estimators consumes, in order of first use."""
    return tuple(dict.fromkeys(o for e in estimators for o in _REQUIRED_ORDERS[e]))


def _columns(tau, n: int) -> np.ndarray:
    """The (n, 4) columns of _COLUMNS from tau = {order: responses}; a column whose order tau lacks is 0."""
    out = np.ones((n, len(_COLUMNS)))
    for c, order in enumerate(_COLUMNS[1:], 1):
        out[:, c] = tau.get(order, 0.0)
    return out


def _moments(tau: np.ndarray, dx: np.ndarray, dx2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m[r, g, c] = sum_j w[r, j] * dx[r, j]**g * tau[j, c], for g = 0, 1, 2 and the columns tau of _columns.

    Row r holds evaluation point r: weights w and offsets dx, dx2 from _offsets. Each row takes one
    (3 x n) @ (n x 4) product, so its moments are the same bits whichever rows and estimators one
    call holds.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a sum the call's estimators do not read may overflow
        return np.stack((w, w * dx, w * dx2), axis=1) @ tau


def _ratio_terms(estimators, sums) -> dict:
    """{estimator: (numerator, denominator, degeneracy scale)} from the five sums t0, t1, p0, p1, p2 of its
    pair (_SUMS): the local linear ratio (p2 t0 - p1 t1) / (p2 p0 - p1^2) at scale |p2 p0|, and for CR the
    local constant t0 / p0. A product that overflows gives an inf or nan term, which _masked_ratio flags."""
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for e in estimators:
            t0, t1, p0, p1, p2 = sums[_GROUP[e]]
            out[e] = ((t0, p0, np.ones_like(p0)) if e is Estimator.CR
                      else (p2 * t0 - p1 * t1, p2 * p0 - p1 * p1, np.abs(p2 * p0)))
    return out


def _masked_ratio(num: np.ndarray, den: np.ndarray, scale: np.ndarray, eps: float):
    """(num / den, degenerate): degenerate, with value 0, unless |den| > eps * scale (so at a nan den) and
    the ratio is finite (so at an overflowed sum or product)."""
    value = np.zeros_like(den)
    with np.errstate(over="ignore", invalid="ignore"):  # eps = 0 times an inf scale is nan
        ok = np.abs(den) > eps * scale
        np.divide(num, den, out=value, where=ok)
    degenerate = ~(ok & np.isfinite(value))
    value[degenerate] = 0.0
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
    column adds 0 to the sums, not 0 * inf = nan, and an infinite point, all of whose weights are
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
    responses}, in blocks of rows; each block evaluates the kernel and the moments once for every
    estimator, and each pair of columns reads its five sums out of the moments through _SUMS."""
    out = {e: (np.empty(points.size), np.empty(points.size, dtype=bool)) for e in estimators}
    tau = _columns(tau, sample.n)
    for block in _blocks(points.size, sample.n):
        dx, dx2 = _offsets(sample.x, points[block])
        m = _moments(tau, dx, dx2, _kernel_of_squares(config.kernel, dx2, config.bandwidth))
        terms = _ratio_terms(estimators, {pair: [m[:, g, c] for g, c in sums] for pair, sums in _SUMS.items()})
        for e, (values, degenerate) in out.items():
            values[block], degenerate[block] = _masked_ratio(*terms[e], config.denominator_epsilon)
    return out


# Factor entries a block of folds builds per (fold, column): five for each
# pair of _SUMS, counted whichever estimators are asked for, so the blocks,
# their windows and so the traces are the same for every subset
_FOLD_FACTORS = 5 * len(_SUMS)


def _fold_products(pairs, tau, columns: np.ndarray, points: np.ndarray, own: int):
    """({pair: (folds, 5, columns) factors}, dx2) of a block of folds at points.

    Factor k of a pair is column c times dx**g for its sum (g, c) in _SUMS,
    so one matrix product with a fold's weights gives its five sums. They are
    capped at the largest float, so a far column, whose weight is 0, adds 0.
    Fold r's own column, own + r, is 0 in every factor.
    """
    dx, dx2 = _offsets(columns, points)
    big = np.finfo(float).max
    values, powers = [1.0 if o is None else tau.get(o) for o in _COLUMNS], (1.0, dx, dx2)
    folds = np.arange(points.size)
    products = {}
    with np.errstate(over="ignore"):  # each overflow is capped
        for pair in pairs:
            p = products[pair] = np.empty((points.size, 5, columns.size))
            for k, (g, c) in enumerate(_SUMS[pair]):
                if g and c:
                    np.multiply(values[c], powers[g], out=p[:, k])
                else:  # a factor of 1: copy the other, which costs less than multiplying by 1.0
                    p[:, k] = powers[g] if g else values[c]
            np.clip(p, -big, big, out=p)
            p[folds, :, own + folds] = 0.0
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
    points[r] and its own column is own + r. The block builds each pair's factors once. Bandwidth
    hs[k] weighs columns starts[k]:stops[k] of them, windows = (starts, stops), with the weights of
    _estimates. The bandwidths go in chunks: _CHUNK of them for the Gaussian kernel, whose windows
    hold every column, and one for a compact kernel, so each keeps its own narrow window. A chunk's
    weights are laid out bandwidth-major over the window of its widest bandwidth, the last chunk
    padded with zero weights to full size, and each pair's sums of a fold take one matrix product
    with them. The ratios of every bandwidth and fold follow at once.
    """
    products, dx2 = _fold_products(dict.fromkeys(_GROUP[e] for e in estimators), tau, columns, points, own)
    size = _CHUNK if KERNEL_SUPPORT[kernel] == np.inf else 1
    hs = np.asarray(hs, dtype=float)[:, None, None]
    firsts = np.arange(0, len(hs), size)
    starts, stops = np.minimum.reduceat(windows[0], firsts).tolist(), np.maximum.reduceat(windows[1], firsts).tolist()
    sums = {pair: np.empty((firsts.size, points.size, 5, size)) for pair in products}  # chunk, fold, sum, bandwidth
    w = np.empty(size * dx2.size)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _moments: an overflowed sum is unread or flagged
        for i, (lo, start, stop) in enumerate(zip(firsts.tolist(), starts, stops)):
            chunk = hs[lo : lo + size]
            weights = w[: size * points.size * (stop - start)].reshape(size, points.size, -1)
            _kernel_of_squares(kernel, dx2[:, start:stop], chunk, out=weights[: len(chunk)])
            if len(chunk) < size:  # the last chunk, padded with zero weights
                weights[len(chunk) :] = 0.0
            for pair, factors in products.items():
                np.matmul(factors[:, :, start:stop], weights.transpose(1, 2, 0), out=sums[pair][i])
    fold_sums = {pair: s.transpose(2, 0, 3, 1).reshape(5, -1, points.size)[:, : len(hs)] for pair, s in sums.items()}
    terms = _ratio_terms(estimators, fold_sums)
    return {e: _masked_ratio(*terms[e], eps) for e in estimators}


def _response_map(sample, step, responses, orders) -> Mapping[int, np.ndarray]:
    """{order: responses} of the sample: responses, a collection of SyntheticResponses covering orders, or
    when it is None the responses of orders computed from step."""
    if responses is None:
        return _synthetic_responses(sample, step, orders)
    _check_sample(sample)
    responses = _check_collection(responses, "responses")
    for r in responses:
        _check_instance(r, SyntheticResponses, "responses entry")
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
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is flagged, as in the fast path
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
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is flagged, as in the fast path
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
    for e, config in _check_instance(configs, Mapping, "configs").items():
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
    _check_instance(curve, FittedCurve, "curve")
    _write_csv(path, ("x", "estimate", "degenerate"), _curve_rows(curve, map(repr, curve.grid.tolist())))

