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
depend on the records but not on their order. The folds are taken in blocks
whose factors take at most loclin._BLOCK_ENTRIES floats; with the Gaussian
kernel a block also holds whole tiles of loclin._fold_estimates, and its sums
over every bandwidth at most loclin._TILE floats (loclin._blocks). The
leave-one-out responses of each block are built once, over the block's window;
survival._loo_responses checks once, over every fold and column, that they
are finite, so an overflow that no window reads still fails the call.
loclin._fold_estimates turns a block into predictions at every bandwidth,
with the weights, the sums and the ratio formula of points and curves, in
chunks of bandwidths of a fixed size, so no score depends on the other bandwidths of the grid or on
its place in it, and over tiles of the block's folds sized to stay in cache,
so no score depends on the tile either; this module holds the grid, the
windows, the folds, the scores and the selection. Each bandwidth evaluates only the window of columns within its
kernel's support of the block, a superset of the non-zero weights: every
column for the Gaussian kernel, whose scores do not depend on the block
size. A column pair's factors and the block size are the
same whichever estimators are scored, so no trace depends on the others
scored with it. The workspace is O(n * block) instead of O(n^2), next to one
stored prediction per fold, bandwidth and estimator.

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
    _CHUNK, _FOLD_FACTORS, DEFAULT_EPSILON, Estimator, _blocks, _check_epsilon, _check_estimator, _fold_estimates,
    _tile_folds, _union_orders,
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


def _windows(kernel: KernelKind, hs, xs: np.ndarray, lo: float, hi: float):
    """(starts, stops): columns starts[k]:stops[k] can weigh on points in [lo, hi] at bandwidth hs[k].

    xs holds the covariates in ascending order. Each window covers every x
    within the slightly widened reach h * support of [lo, hi], a superset of
    the non-zero weights, and a larger h has a wider one; the infinite reach
    of an unbounded kernel covers every column.
    """
    reach = KERNEL_SUPPORT[kernel] * np.asarray(hs, dtype=float) * (1.0 + _REACH_SLACK)
    return xs.searchsorted(lo - reach, "left"), xs.searchsorted(hi + reach, "right")


def _cv_traces(estimators, sample: CensoredSample, kernel: KernelKind, hs, eps: float) -> dict:
    """Trace of (h, score, degenerate_folds) over hs for each estimator.

    The records are sorted by (x, y, delta) once, and the whole pass runs on
    that copy, so the traces do not depend on the order of the records. The
    blocks of folds are outermost: each block takes its leave-one-out
    responses over the window of the largest bandwidth, and
    loclin._fold_estimates gives its predictions at every bandwidth, each
    over its own window.
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
    # a Gaussian block holds whole tiles of _fold_estimates and keeps its sums within a tile's size; a
    # compact kernel's windows, and so its bits, depend on the block, which its factors alone bound
    tiling = (_tile_folds(_CHUNK, sample.n), _FOLD_FACTORS * len(hs)) if KERNEL_SUPPORT[kernel] == np.inf else ()
    for block in _blocks(sample.n, _FOLD_FACTORS * sample.n, *tiling):
        x = sample.x[block]  # ascending, so x[0] and x[-1] bound the block
        starts, stops = _windows(kernel, hs, sample.x, x[0], x[-1])
        outer = slice(int(starts.min()), int(stops.max()))  # the largest bandwidth's window
        tau = fold_rows(block, outer)
        inner = (starts - outer.start, stops - outer.start)
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
