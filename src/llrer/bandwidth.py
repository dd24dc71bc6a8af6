"""Leave-one-out cross-validation bandwidth selection over a fixed grid.

Each fold removes one observation from both the smoother and the
censoring-survival estimate, refits at the held-out covariate and scores the
squared gap to that observation's full-sample synthetic response. The target
and the folds' responses come from one product-limit pass
(survival._loo_responses), one block of rows at a time, with the same
semantics as a Kaplan-Meier refit per fold. A fold
whose fit is degenerate predicts 0 (the shared convention) and is counted in
the trace, so pathological bandwidths stay visible.

select_bandwidths scores several estimators in one pass, shared by every
estimator. It sorts the records by (x, y, delta) once and runs on that copy:
target, folds, columns, predictions and each score's sum. So the traces
depend on the records but not on their order. The folds are weighed in
cells (_cells): a compact kernel weighs a fold at h over the window of the
highest node of a fixed tree of halves that holds it and whose factors,
loclin._FOLD_FACTORS per fold and per column of its window at h, fit in
loclin._BLOCK_ENTRIES floats, and the cells are those nodes at the grid's
largest bandwidth; an unbounded kernel weighs every column, so its one cell
is every fold. One rule cuts the cells into blocks for both kernels
(loclin._blocks): a block lies in one cell and takes folds while its
factors, counted over every column its cell is weighed over, stay within
loclin._BLOCK_ENTRIES floats and its sums, as many per fold and bandwidth,
within loclin._TILE; a Gaussian block also holds whole tiles of
loclin._fold_estimates. The leave-one-out responses of each block are built
once, over its cell's window; survival._loo_responses checks once, over
every fold and column, that they are finite, so an overflow that no window
reads still fails the call. loclin._fold_estimates turns a block into
predictions at every bandwidth, with the weights, the sums and the ratio
formula of points and curves, in chunks of bandwidths of a fixed size, so
no score depends on the other bandwidths of the grid or on its place in it,
and over tiles of the block's folds sized to stay in cache, so no score
depends on the tile either; this module holds the grid, the windows, the
cells, the folds, the scores and the selection. A fold's window at h is a
superset of its non-zero weights that depends on h and the sample alone,
not on the grid, the block or the estimators, so neither do its bits. The
workspace is O(n * block) instead of O(n^2), next to one stored prediction
per fold, bandwidth and estimator.

cv_score and select_bandwidth go through the same pass, so a traced score
always equals the score of a standalone call, alone or alongside others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, _check_collection, _check_instance, _check_integer, _check_real
from .kernels import _BANDWIDTH_RANGE, KERNEL_SUPPORT, KernelKind, _check_bandwidth, _check_kernel
from .loclin import (
    _BLOCK_ENTRIES, _CHUNK, _FOLD_FACTORS, DEFAULT_EPSILON, Estimator, _blocks, _check_epsilon, _check_estimator,
    _fold_estimates, _tile_folds, _union_orders,
)
from .survival import CensoredSample, _check_sample, _loo_responses, _write_csv

__all__ = [
    "DEFAULT_BANDWIDTH_GRID", "BandwidthGrid", "BandwidthSelection", "CVPoint", "cv_score", "select_bandwidth",
    "select_bandwidths", "write_cv_trace_csv",
]


# The most values a grid may hold: cross-validation stores one prediction per
# fold, bandwidth and estimator, so the grid's size bounds that memory
_MAX_GRID_SIZE = 10**5


@dataclass(frozen=True)
class BandwidthGrid:
    """Arithmetic grid lo, lo+step, ... with floor((hi-lo)/step)+1 values, each a valid bandwidth."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _check_bandwidth(self.lo, name="bandwidth grid lo"))
        object.__setattr__(self, "hi", _check_real(self.hi, "bandwidth grid hi", self.lo, _BANDWIDTH_RANGE[1]))
        object.__setattr__(self, "step", _check_real(self.step, "bandwidth grid step", 0, open_lo=True))
        _check_integer(self._count(), "bandwidth grid size", 1, _MAX_GRID_SIZE)
        for h in self.values()[[0, -1]]:  # the values ascend, so these two bound every other
            _check_bandwidth(h, name="bandwidth grid value")

    def _count(self) -> float:
        # small slack so e.g. (2.0 - 0.01)/0.01 counts as 199 despite rounding;
        # a float, which is inf where the count overflows
        return np.floor((self.hi - self.lo) / self.step + 1e-9) + 1.0

    def values(self) -> np.ndarray:
        # values snapped to 12 decimals so traces print cleanly
        return np.round(self.lo + self.step * np.arange(int(self._count())), 12)


DEFAULT_BANDWIDTH_GRID = BandwidthGrid(0.01, 2.0, 0.01)


class CVPoint(NamedTuple):
    h: float
    score: float
    degenerate_folds: int


class BandwidthSelection(NamedTuple):
    h_opt: float
    trace: tuple


# Relative widening of a compact kernel's reach, so that rounding in x - x0
# and in the division by h cannot put a non-zero weight outside the window
_REACH_SLACK = 1e-9


def _windows(kernel: KernelKind, hs, xs: np.ndarray, lo, hi):
    """(starts, stops): columns starts[i]:stops[i] can weigh on points in [lo[i], hi[i]] at bandwidth
    hs[i], where hs, lo and hi broadcast against each other.

    xs holds the covariates in ascending order. Each window covers every x
    within the slightly widened reach h * support of [lo, hi], a superset of
    the non-zero weights, and a larger h has a wider one; the infinite reach
    of an unbounded kernel covers every column.
    """
    reach = KERNEL_SUPPORT[kernel] * np.asarray(hs, dtype=float) * (1.0 + _REACH_SLACK)
    return xs.searchsorted(lo - reach, "left"), xs.searchsorted(hi + reach, "right")


def _cells(kernel: KernelKind, hs, xs: np.ndarray):
    """(bounds, starts, stops): the folds cut into cells bounds[c]:bounds[c + 1], and the columns
    starts[k, c]:stops[k, c] that weigh cell c's folds at bandwidth hs[k].

    xs holds the covariates in ascending order. The folds form a tree whose
    nodes split into halves. A node fits at h when it holds one fold or when
    its factors, _FOLD_FACTORS per fold and per column of its window at h,
    take at most _BLOCK_ENTRIES floats; a node below it, or a smaller h, fits
    too. A fold is weighed at h over the window of the highest node that
    holds it and fits at h, so its window, and with it its bits, depend on
    neither the grid nor the block. The cells are those nodes at the largest
    bandwidth: each lies in one such node at every bandwidth of the grid. An
    unbounded kernel weighs every column, so all its folds form one cell.
    """
    n, count = xs.size, len(hs)
    if KERNEL_SUPPORT[kernel] == np.inf:
        return np.array([0, n]), np.zeros((count, 1), dtype=int), np.full((count, 1), n)
    hs = np.asarray(hs, dtype=float)[:, None]
    lo, hi = np.array([0]), np.array([n])
    held = np.zeros((count, 1), dtype=bool)  # a node above fits at the bandwidth, and gives the window
    starts = stops = np.zeros((count, 1), dtype=int)
    cells = []
    while lo.size:
        own = _windows(kernel, hs, xs, xs[lo], xs[hi - 1])
        fits = (hi - lo <= 1) | ((hi - lo) * _FOLD_FACTORS * (own[1] - own[0]) <= _BLOCK_ENTRIES)
        starts, stops = np.where(held, starts, own[0]), np.where(held, stops, own[1])
        done = fits.all(axis=0)  # fits at every bandwidth, so at the largest
        cells.append((lo[done], starts[:, done], stops[:, done]))
        split = ~done
        lo, hi, mid = lo[split], hi[split], (lo[split] + hi[split]) // 2
        lo, hi = np.stack((lo, mid), axis=1).ravel(), np.stack((mid, hi), axis=1).ravel()
        held, starts, stops = (np.repeat(a[:, split], 2, axis=1) for a in (held | fits, starts, stops))
    first, starts, stops = (np.concatenate(a, axis=-1) for a in zip(*cells))
    order = np.argsort(first)
    return np.append(first[order], n), starts[:, order], stops[:, order]


def _cv_traces(estimators, sample: CensoredSample, kernel: KernelKind, hs, eps: float) -> dict:
    """Trace of (h, score, degenerate_folds) over hs for each estimator.

    The records are sorted by (x, y, delta) once, and the whole pass runs on
    that copy, so the traces do not depend on the order of the records. The
    blocks of folds are outermost: each block takes its leave-one-out
    responses over every column that its cell is weighed over, and
    loclin._fold_estimates gives its predictions at every bandwidth, each
    over the cell's window at that bandwidth.
    """
    estimators = tuple(dict.fromkeys(map(_check_estimator, _check_collection(estimators, "estimators"))))
    if not estimators:
        raise ConfigError("cross-validation needs at least one estimator")
    if _check_sample(sample).n < 2:
        raise ConfigError("cross-validation needs at least 2 observations")
    hs = [_check_bandwidth(h) for h in hs]
    _check_kernel(kernel)
    eps = _check_epsilon(eps)
    records = np.lexsort((sample.delta, sample.y, sample.x))
    sample = CensoredSample(sample.y[records], sample.delta[records], sample.x[records])
    target, fold_rows = _loo_responses(sample, _union_orders(estimators))
    preds = {e: np.empty((len(hs), sample.n)) for e in estimators}
    degenerate = {e: np.zeros(len(hs), dtype=int) for e in estimators}
    bounds, starts, stops = _cells(kernel, hs, sample.x)
    widths = stops.max(axis=0) - starts.min(axis=0)  # each cell's columns, over every bandwidth
    tile = _tile_folds(_CHUNK, sample.n) if KERNEL_SUPPORT[kernel] == np.inf else 1
    for block in _blocks(sample.n, _FOLD_FACTORS, tile, _FOLD_FACTORS * len(hs), (bounds[1:], widths)):
        x = sample.x[block]
        first, last = bounds.searchsorted((block.start, block.stop - 1), "right") - 1
        outer = slice(int(starts[:, first].min()), int(stops[:, last].max()))
        tau = fold_rows(block, outer)
        inner = (starts[:, first] - outer.start, stops[:, last] - outer.start)
        fits = _fold_estimates(estimators, tau, sample.x[outer], x, block.start - outer.start, kernel, hs, inner, eps)
        for e, (values, flags) in fits.items():
            preds[e][:, block] = values
            degenerate[e] += flags.sum(axis=1)
    with np.errstate(over="ignore"):  # an overflowing score is inf, never nan, as in simulate's error metrics
        for p in preds.values():  # each prediction's squared error, in place
            np.subtract(target, p, out=p)
            np.square(p, out=p)
    return {e: tuple(map(CVPoint, hs, preds[e].sum(axis=1).tolist(), degenerate[e].tolist())) for e in estimators}


def cv_score(
    estimator: Estimator,
    sample: CensoredSample,
    kernel: KernelKind,
    h: float,
    denominator_epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Leave-one-out score of one bandwidth (smaller is better)."""
    return _cv_traces((estimator,), sample, kernel, (h,), denominator_epsilon)[estimator][0].score


def select_bandwidths(
    estimators: Iterable[Estimator],
    sample: CensoredSample,
    kernel: KernelKind,
    grid: BandwidthGrid = DEFAULT_BANDWIDTH_GRID,
    denominator_epsilon: float = DEFAULT_EPSILON,
) -> dict:
    """Grid-search the leave-one-out score of several estimators in one pass.

    Returns {estimator: BandwidthSelection}; each selection equals, bit for
    bit, what select_bandwidth returns for that estimator alone. Ties go to
    the smallest h: min keeps the first of equal scores.
    """
    grid = _check_instance(grid, BandwidthGrid, "bandwidth grid")
    traces = _cv_traces(estimators, sample, kernel, grid.values(), denominator_epsilon)
    return {e: BandwidthSelection(min(trace, key=lambda p: p.score).h, trace) for e, trace in traces.items()}


def select_bandwidth(
    estimator: Estimator,
    sample: CensoredSample,
    kernel: KernelKind,
    grid: BandwidthGrid = DEFAULT_BANDWIDTH_GRID,
    denominator_epsilon: float = DEFAULT_EPSILON,
) -> BandwidthSelection:
    """Grid-search the leave-one-out score; ties go to the smallest h.

    Returns the winning bandwidth together with the full trace of
    (h, score, degenerate_folds) for diagnostics.
    """
    return select_bandwidths((estimator,), sample, kernel, grid, denominator_epsilon)[estimator]


def write_cv_trace_csv(trace, path) -> None:
    """Write a selection trace, a collection of CVPoint, as CSV with columns h,score,degenerate_folds."""
    trace = [_check_instance(p, CVPoint, "trace entry") for p in _check_collection(trace, "trace")]
    rows = ((repr(float(p.h)), repr(float(p.score)), str(int(p.degenerate_folds))) for p in trace)
    _write_csv(path, ("h", "score", "degenerate_folds"), rows)
