"""Point estimators on censored samples: LLRER, LLCR and CR.

Each estimator is one row of _GROUP, a pair (r, v) of the columns 1 and the
synthetic responses: the local linear least-squares fit of r / v with
weights v * K. LLRER, the fit under squared relative error, is the pair
(tau1, tau2), LLCR the classical fit of the pair (tau-1, 1) and CR the
Nadaraya-Watson, local constant, fit of LLCR's pair. Point estimates, curves
and cross-validation share one weighting rule, K(dx^2 / h^2) / K(0) from the
squared offsets of _offsets, capped only where one can overflow, with each
sum then scaled by K(0), so the weights take one pass less and the sums keep
their scale; one table of kernel sums, _SUMS, five per pair; and one ratio
formula, _ratio_terms. Points, curves and moment_statistics
use each weight once: one matrix product per point gives its moments
sum_j w_j dx_j^g c_j over the columns c (_moments), and each pair reads its
five sums out of them through the table. Cross-validation reuses a block of
folds over every bandwidth, so it builds each sum's factor, its column times
dx^g, once per block from the same table (_fold_products, the precomputation
of Fan & Marron, 1994) and takes the sums of a fixed-size chunk of
bandwidths, 16 with the Gaussian kernel and one with a compact kernel, with
one matrix product per fold (_fold_estimates). The folds of a block go in
tiles of at most _TILE weights per chunk, outermost, so a chunk's weights of
a tile are still in cache when the tile's products read them; a fold's
product is the same in any tile, so no sum depends on the tile size, and a
compact kernel's tile is the whole block. One rule cuts the blocks of both
kernels (_blocks): a block lies in one cell of bandwidth.py, folds that
share one window at every bandwidth of the grid, and takes folds while its
factors, counted over every column of its cell, stay within _BLOCK_ENTRIES
floats and its sums over every bandwidth within _TILE, so no buffer of the
pass is much larger than the tiles that read it. A Gaussian cell is every
fold and every column, and a Gaussian block holds whole tiles; a compact
kernel weighs a fold at each bandwidth over a window that the sample and
the bandwidth alone set, so its bits depend on neither the blocks nor the
grid. The quadratic double-sum forms of LLRER and LLCR, weighed by
scaled_kernel, are shipped alongside as permanent cross-checks for that
path.

Curves fit samples stacked in rows: a block of simulate's replications, or
fit_curves' one sample. The rows share one Kaplan-Meier pass and one set of
synthetic responses (_fit_rows), and _estimates takes each row's points in
blocks, with the weight rows w, w dx and w dx^2 of a block written into one
buffer that every row reuses; the ratios of all rows follow at once. A row's
arithmetic is its own, so its curves are the same bits in any stack.

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
    _DEFAULT_KERNEL, _KERNEL_AT_ZERO, KERNEL_SUPPORT, KernelKind, _check_bandwidth, _check_kernel, _member_named,
    _relative_kernel_of_squares, scaled_kernel,
)
from .survival import (
    CensoredSample, SurvivalStep, SyntheticResponses, _check_sample, _kaplan_meier_responses, _synthetic_responses,
    _write_csv,
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
    m = _moments(_columns(tau, sample.x.shape), _moment_weights(sample.x, np.array([x]), config), config.kernel)[0]
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


def _columns(tau, shape: tuple) -> np.ndarray:
    """The columns of _COLUMNS, on a last axis of 4, from tau = {order: responses of the given shape}; a
    column whose order tau lacks is 0."""
    out = np.ones(shape + (len(_COLUMNS),))
    for c, order in enumerate(_COLUMNS[1:], 1):
        out[..., c] = tau.get(order, 0.0)
    return out


def _moment_weights(x: np.ndarray, points: np.ndarray, config, out=None) -> np.ndarray:
    """The weight rows w, w * dx and w * dx2 of each point, as a (points, 3, len(x)) view of out, a
    (3, points, len(x)) array (a new one by default): dx, dx2 from _offsets and w = K(dx2 / h^2) / K(0)
    at config's kernel and bandwidth, so _moments scales its sums by K(0). Each of the three is one
    contiguous plane of out, and no other temporary of their size is made."""
    out = np.empty((3, points.size, x.size)) if out is None else out
    w, dx, dx2 = out
    _offsets(x, points, out=(dx, dx2))
    with np.errstate(over="ignore"):  # a capped dx2 weighs exactly 0
        _relative_kernel_of_squares(config.kernel, dx2, config.bandwidth, out=w)
    np.multiply(w, dx2, out=dx2)
    np.multiply(w, dx, out=dx)
    return out.transpose(1, 0, 2)


def _moments(tau: np.ndarray, weights: np.ndarray, kernel: KernelKind) -> np.ndarray:
    """m[r, g, c] = sum_j K(dx[r, j] / h) * dx[r, j]**g * tau[j, c], for g = 0, 1, 2 and the columns tau of
    _columns.

    Row r holds evaluation point r: its weight rows from _moment_weights, at kernel, relative to K(0).
    Each row takes one (3 x n) @ (n x 4) product, scaled by K(0), so its moments are the same bits
    whichever rows, estimators and samples one call holds.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a sum the call's estimators do not read may overflow
        m = weights @ tau
        m *= _KERNEL_AT_ZERO[kernel]
    return m


def _ratio_terms(sums) -> dict:
    """{estimator: (numerator, denominator, degeneracy scale)} from sums = {estimator: the five sums t0, t1,
    p0, p1, p2 of its pair (_SUMS)}: the local linear ratio (p2 t0 - p1 t1) / (p2 p0 - p1^2) at scale
    |p2 p0|, and for CR the local constant t0 / p0. A product that overflows gives an inf or nan term,
    which _masked_ratio flags."""
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for e, (t0, t1, p0, p1, p2) in sums.items():
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
# cross-validation builds at most this many factor entries, or one fold's, per
# block, so their memory stays O(n) for any number of points. A block of folds
# counts _FOLD_FACTORS per fold and per column of its cell's window, and bounds
# its sums by _TILE (_blocks). At n = 2000 on 0.05:1.0:0.05 a Gaussian block,
# whose cell is every column, takes 13 folds, cut to 12 of whole tiles; the
# Epanechnikov cells of the benchmark's cv_n2000_epan input take 15 to 63
_BLOCK_ENTRIES = 2**18


def _blocks(count: int, width: int, tile: int = 1, sums: int = 0, cells=None):
    """Slices of count rows, each of at most _BLOCK_ENTRIES entries and, where sums is given, of at most
    _TILE entries at sums entries a row, or of one row. A row takes width entries or, where cells =
    (stops, columns) cuts the rows into cells that end at stops, width entries per column of its cell,
    and no block reaches across two cells. Where a tile of `tile` rows fits, each block of a cell but
    its last holds a whole number of tiles."""
    lo = 0
    for stop, columns in zip(*cells) if cells else ((count, 1),):
        stop, rows = int(stop), max(1, _BLOCK_ENTRIES // (width * int(columns)))
        if sums:
            rows = max(1, min(rows, _TILE // sums))
        if rows > tile:
            rows -= rows % tile
        for start in range(lo, stop, rows):
            yield slice(start, min(start + rows, stop))
        lo = stop


# The bound on max |columns| + max |points| below which no offset of _offsets, nor its square, overflows
_ROOT_BIG = float(np.sqrt(np.finfo(float).max))


def _offsets(columns: np.ndarray, points: np.ndarray, out=None):
    """(dx, dx2): dx[r, j] = columns[j] - points[r], one row per point, and dx2 = dx * dx, each capped at
    the largest float in magnitude, written to out = (dx, dx2) (new arrays by default). A capped dx2
    weighs exactly 0 at every accepted bandwidth, so a far column adds 0 to the sums, not 0 * inf = nan,
    and an infinite point, all of whose weights are 0, is degenerate. A nan point keeps its nan
    offsets, so it is degenerate too. The caps are passes over every offset, so they are skipped where
    max |columns| + max |points| < sqrt(largest float), false at a nan or inf, proves that no dx and no
    dx2 overflows: rounding is monotone, so |dx| stays within that bound and dx2 within the largest
    float, and the result is the same bits."""
    big = np.finfo(float).max
    dx, dx2 = (None, None) if out is None else out
    if float(np.abs(columns).max()) + float(np.abs(points).max()) < _ROOT_BIG:
        dx = np.subtract(columns[None, :], points[:, None], out=dx)
        return dx, np.multiply(dx, dx, out=dx2)
    with np.errstate(over="ignore"):
        dx = np.subtract(columns[None, :], points[:, None], out=dx)
        np.clip(dx, -big, big, out=dx)
        dx2 = np.multiply(dx, dx, out=dx2)
    np.minimum(dx2, big, out=dx2)
    return dx, dx2


def _estimates(x: np.ndarray, columns: np.ndarray, configs, points: np.ndarray) -> dict:
    """{estimator: (estimates, degenerate flags)}, each of shape (rows, points), of samples stacked in rows.

    Row r has covariates x[r], the columns of _columns over its synthetic responses in columns[r], and
    its estimators' configs in configs[r], a mapping estimator -> EstimatorConfig with the same keys in
    every row. Each row goes in blocks of points; a block evaluates the kernel and the moments once for
    the estimators of the row that share a config, and each estimator reads its five sums out of the
    moments through _SUMS. The ratios of every row, point and estimator follow at once, so a row's
    estimates are the same bits whichever rows the call holds.
    """
    estimators = tuple(configs[0])
    sums = {e: np.empty((len(configs), points.size, 5)) for e in estimators}
    picks = {e: tuple(zip(*_SUMS[_GROUP[e]])) for e in estimators}  # the (g, c) of the five sums
    blocks = list(_blocks(points.size, x.shape[-1]))
    weights = np.empty((3, points[blocks[0]].size, x.shape[-1]))  # the first block is the largest; all reuse it
    for r, row in enumerate(configs):
        for config in dict.fromkeys(row.values()):
            shared = [e for e in estimators if row[e] == config]
            for block in blocks:
                at = points[block]
                m = _moments(columns[r], _moment_weights(x[r], at, config, weights[:, : at.size]), config.kernel)
                for e in shared:
                    sums[e][r, block] = m[(slice(None), *picks[e])]
    terms = _ratio_terms({e: np.moveaxis(s, -1, 0) for e, s in sums.items()})
    eps = {e: np.array([[row[e].denominator_epsilon] for row in configs]) for e in estimators}
    return {e: _masked_ratio(*terms[e], eps[e]) for e in estimators}


# Factor entries a block of folds builds per (fold, column): five for each
# pair of _SUMS, counted whichever estimators are asked for, so the blocks,
# their windows and so the traces are the same for every subset
_FOLD_FACTORS = 5 * len(_SUMS)


def _fold_products(pairs, tau, columns: np.ndarray, points: np.ndarray, own: int):
    """({pair: (folds, 5, columns) factors}, dx2) of a block of folds at points.

    Factor k of a pair is column c times dx**g for its sum (g, c) in _SUMS,
    so one matrix product with a fold's weights gives its five sums. They are
    capped at the largest float, so a far column, whose weight is 0, adds 0.
    The responses and the capped offsets are finite, so only a product that
    overflows can exceed that cap, and the pass that caps runs only after one
    did. Fold r's own column, own + r, is 0 in every factor.
    """
    dx, dx2 = _offsets(columns, points)
    big = np.finfo(float).max
    values, powers = [1.0 if o is None else tau.get(o) for o in _COLUMNS], (1.0, dx, dx2)
    folds = np.arange(points.size)
    products, overflows = {}, []
    with np.errstate(over="call", call=lambda *_: overflows.append(True)):
        for pair in pairs:
            p = products[pair] = np.empty((points.size, 5, columns.size))
            for k, (g, c) in enumerate(_SUMS[pair]):
                if g and c:
                    np.multiply(values[c], powers[g], out=p[:, k])
                else:  # a factor of 1: copy the other, which costs less than multiplying by 1.0
                    p[:, k] = powers[g] if g else values[c]
    for p in products.values():
        if overflows:
            np.clip(p, -big, big, out=p)
        p[folds, :, own + folds] = 0.0
    return products, dx2


# Bandwidths that cross-validation weighs per pass with a kernel of unbounded
# support: each fold's sums are then one (5 x columns) @ (columns x _CHUNK)
# product. The size is fixed because in OpenBLAS a bandwidth's sums depend on
# how many bandwidths the product holds; at one shape they are the same bits at
# every position in it and next to any other bandwidths
_CHUNK = 16
# Weights that one kernel pass of cross-validation writes at most: a block's
# folds go in tiles of _TILE // (chunk size * block columns) folds, or one. At
# n = 300 a Gaussian tile is 13 folds, and its 512 KiB of weights and its
# factors fit in a core's L2 cache, so each chunk's weights are still there when
# the tile's fold products read them. A fold's product does not depend on the
# tile, so neither do its sums. A block's sums, _FOLD_FACTORS per fold and
# bandwidth, take at most _TILE floats too (_blocks): 32 folds at n = 300 on the
# default grid, which a Gaussian block cuts to 26, two whole tiles, and an
# Epanechnikov block takes in each cell of 75. At _TILE >= _BLOCK_ENTRIES /
# _FOLD_FACTORS a compact kernel's tile, of chunks of one bandwidth, holds the
# whole block
_TILE = 2**16


def _tile_folds(size: int, columns: int) -> int:
    """Folds in a tile of _fold_estimates, whose chunks of size bandwidths weigh columns columns: _TILE
    weights per chunk, or one fold."""
    return max(1, _TILE // (size * columns))


def _fold_estimates(estimators, tau, columns: np.ndarray, points: np.ndarray, own: int, kernel, hs, windows, eps):
    """{estimator: (predictions, degenerate flags)}, each of shape (len(hs), folds), of a block of folds.

    tau[order] holds one row of leave-one-out responses over columns per fold, fold r is evaluated at
    points[r] and its own column is own + r. The block builds each pair's factors once. Bandwidth
    hs[k] weighs columns starts[k]:stops[k] of them, windows = (starts, stops), with the weights of
    _estimates, relative to K(0), and its sums are then scaled by K(0). The bandwidths go in chunks:
    _CHUNK of them for the Gaussian kernel, whose windows hold every column, and one for a compact
    kernel, so each keeps its own narrow window. The folds go in tiles of _TILE weights per chunk,
    outermost: each chunk's weights of a tile are laid out bandwidth-major over the window of its
    widest bandwidth, the last chunk padded with zero weights to full size, and each pair's sums of a
    fold take one matrix product with them. The sums are laid out so that each of a pair's five, over
    every bandwidth and fold, is a view, and the ratios of every bandwidth and fold follow at once.
    """
    products, dx2 = _fold_products(dict.fromkeys(_GROUP[e] for e in estimators), tau, columns, points, own)
    size = _CHUNK if KERNEL_SUPPORT[kernel] == np.inf else 1
    hs = np.asarray(hs, dtype=float)[:, None, None]
    bandwidths = hs.ravel().tolist()
    firsts = np.arange(0, len(hs), size)
    starts, stops = np.minimum.reduceat(windows[0], firsts).tolist(), np.maximum.reduceat(windows[1], firsts).tolist()
    sums = {pair: np.empty((5, points.size, firsts.size, size)) for pair in products}  # sum, fold, chunk, bandwidth
    tile = min(points.size, _tile_folds(size, columns.size))
    w = np.empty(size * tile * columns.size)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _moments: an overflowed sum is unread or flagged
        for f in range(0, points.size, tile):
            folds = slice(f, min(f + tile, points.size))
            count = folds.stop - f
            tiles = [(factors[folds], sums[pair][:, folds].transpose(2, 1, 0, 3)) for pair, factors in products.items()]
            for i, (lo, start, stop) in enumerate(zip(firsts.tolist(), starts, stops)):
                weights = w[: size * count * (stop - start)].reshape(size, count, -1)
                if size == 1:  # a float and one plane: a ufunc call that broadcasts costs a few microseconds more
                    _relative_kernel_of_squares(kernel, dx2[folds, start:stop], bandwidths[lo], out=weights[0])
                else:
                    chunk = hs[lo : lo + size]
                    _relative_kernel_of_squares(kernel, dx2[folds, start:stop], chunk, out=weights[: len(chunk)])
                    weights[len(chunk) :] = 0.0  # the last chunk is padded with zero weights
                for factors, out in tiles:  # out[i]: the chunk's sums, fold by sum by bandwidth
                    np.matmul(factors[:, :, start:stop], weights.transpose(1, 2, 0), out=out[i])
        for s in sums.values():  # the weights are relative to K(0)
            s *= _KERNEL_AT_ZERO[kernel]
    fold_sums = {pair: s.reshape(5, points.size, -1)[:, :, : len(hs)].transpose(0, 2, 1) for pair, s in sums.items()}
    terms = _ratio_terms({e: fold_sums[_GROUP[e]] for e in estimators})
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
    return PointEstimate(float(values.flat[0]), bool(degenerate.flat[0]))


def _point(estimator, sample, step, config, x, responses) -> PointEstimate:
    x = _point_inputs(config, x)
    tau = _response_map(sample, step, responses, _REQUIRED_ORDERS[estimator])
    columns = _columns(tau, (1, sample.n))
    return _first_point(*_estimates(sample.x[None], columns, [{estimator: config}], np.array([x]))[estimator])


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
    """grid as a 1-d float array, or a ConfigError unless it is a non-empty, strictly ascending 1-d array of
    real numbers: ints and floats, not strings, bools or complex numbers. A lone number is a grid of one."""
    try:
        values = np.array(grid, dtype=float, ndmin=1) if np.asarray(grid).dtype.kind in "iuf" else None
    except ValueError:  # a ragged sequence
        values = None
    # a nan compares false, so it fails
    if values is None or values.ndim != 1 or values.size == 0 or not np.all(np.diff(values) > 0):
        raise ConfigError("evaluation grid must be a non-empty, strictly ascending 1-d array of real numbers")
    return values


def fit_curves(configs: Mapping[Estimator, EstimatorConfig], sample: CensoredSample, grid) -> dict:
    """{estimator: FittedCurve} over an ascending grid, each estimator at its config in configs.

    One Kaplan-Meier pass and one set of synthetic responses serve every estimator, and estimators
    with equal configs share each block's kernel evaluation; each curve equals fit_curve's bit for bit.
    """
    for e, config in _check_instance(configs, Mapping, "configs").items():
        _check_estimator(e)
        _check_config(config)
    grid = _check_grid(grid)
    faults, fits = _fit_rows([dict(configs)], [_check_sample(sample)], grid)
    if faults[0] is not None:
        raise faults[0]
    return {e: FittedCurve(grid, values[0], degenerate[0]) for e, (values, degenerate) in fits.items()}


def _fit_rows(configs, samples, grid: np.ndarray) -> tuple:
    """(faults, fits) of fit_curves(configs[r], samples[r], grid) for each r, with equally long samples,
    configs with the same estimators and a grid already checked.

    faults[r] is the DataError that call raises, or None. fits = {estimator: (values, degenerate)} holds
    one row of shape (grid size,) per sample without a fault, in order. The rows share one stacked
    Kaplan-Meier pass and one set of synthetic responses (survival._kaplan_meier_responses) and one
    _estimates call, and each row's arithmetic is its own, so its curves are the same bits whichever
    rows the call holds.
    """
    tau, faults = _kaplan_meier_responses(
        np.stack([s.y for s in samples]), np.stack([s.delta for s in samples]), _union_orders(configs[0])
    )
    ok = [r for r, fault in enumerate(faults) if fault is None]
    if not ok:
        return faults, {}
    columns = _columns({o: t[ok] for o, t in tau.items()}, (len(ok), samples[0].n))
    del tau  # the kernel loop's buffers then take the place of every row's responses
    return faults, _estimates(np.stack([samples[r].x for r in ok]), columns, [configs[r] for r in ok], grid)


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

