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
of at most loclin._BLOCK_ENTRIES (fold, observation) pairs: each block
builds its rows of the leave-one-out responses once, then scores every
bandwidth, so the workspace is O(n * block) instead of O(n^2), next to one
stored prediction per fold, bandwidth and estimator. Each bandwidth
evaluates only the window of columns within its kernel's support of the
block, a superset of the non-zero weights: every column for the Gaussian
kernel, whose scores do not depend on the block size.

cv_score and select_bandwidth go through the same pass, so a traced score
always equals the score of a standalone call, alone or alongside others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError
from .kernels import KERNEL_SUPPORT, KernelKind, _check_bandwidth, _check_kernel, scaled_kernel
from .loclin import (
    DEFAULT_EPSILON, Estimator, _blocks, _check_epsilon, _masked_ratio, _offsets, _ratio_terms, _union_orders
)
from .survival import CensoredSample, _loo_responses, _write_csv


@dataclass(frozen=True)
class BandwidthGrid:
    """Arithmetic grid lo, lo+step, ... with floor((hi-lo)/step)+1 values."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        lo, hi, step = (float(v) for v in (self.lo, self.hi, self.step))
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ConfigError("bandwidth grid bounds must be finite")
        if not 0.0 < lo <= hi:
            raise ConfigError(f"bandwidth grid needs 0 < lo <= hi, got lo={lo}, hi={hi}")
        if step <= 0.0:
            raise ConfigError(f"bandwidth grid step must be > 0, got {step}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "step", step)

    def values(self) -> np.ndarray:
        # small slack so e.g. (2.0 - 0.01)/0.01 counts as 199 despite rounding;
        # values snapped to 12 decimals so traces print cleanly
        count = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return np.round(self.lo + self.step * np.arange(count), 12)


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


def _window(kernel: KernelKind, h: float, xs: np.ndarray, lo: float, hi: float) -> slice:
    """Columns that can weigh on points in [lo, hi] at bandwidth h.

    xs holds the covariates in ascending order. The slice covers every x
    within the slightly widened reach h * support of [lo, hi], a superset of
    the non-zero weights; the infinite reach of an unbounded kernel covers
    every column.
    """
    reach = KERNEL_SUPPORT[kernel] * h * (1.0 + _REACH_SLACK)
    return slice(int(np.searchsorted(xs, lo - reach, "left")), int(np.searchsorted(xs, hi + reach, "right")))


def _cv_traces(estimators, sample: CensoredSample, kernel: KernelKind, hs, eps: float) -> dict:
    """Trace of (h, score, degenerate_folds) over hs for each estimator.

    The records are sorted by (x, y, delta) once, and the whole pass runs on
    that copy, so the traces do not depend on the order of the records. The
    blocks of folds are outermost and the bandwidths inside, so each block's
    workspace is built once, and each bandwidth reads only the window of
    columns its kernel's support reaches from the block.
    """
    estimators = tuple(dict.fromkeys(estimators))
    if not estimators:
        raise ConfigError("cross-validation needs at least one estimator")
    if sample.n < 2:
        raise ConfigError("cross-validation needs at least 2 observations")
    hs = [_check_bandwidth(h) for h in hs]
    _check_kernel(kernel)
    eps = _check_epsilon(eps)
    records = np.lexsort((sample.delta, sample.y, sample.x))
    sample = CensoredSample(sample.y[records], sample.delta[records], sample.x[records])
    target, fold_rows = _loo_responses(sample, _union_orders(estimators))
    preds = {e: np.empty((len(hs), sample.n)) for e in estimators}
    degenerate = {e: [0] * len(hs) for e in estimators}
    for block in _blocks(sample.n, sample.n):
        tau = fold_rows(block)
        x = sample.x[block]  # ascending, so x[0] and x[-1] bound the block
        # dx and dx2 cover the columns the largest bandwidth reaches; each
        # bandwidth reads its own window of them as a view
        outer = _window(kernel, max(hs), sample.x, x[0], x[-1])
        dx, dx2 = _offsets(sample.x[outer], x)
        for k, h in enumerate(hs):
            win = _window(kernel, h, sample.x, x[0], x[-1])
            inner = slice(win.start - outer.start, win.stop - outer.start)
            w = scaled_kernel(kernel, h, dx[:, inner])
            np.fill_diagonal(w[:, block.start - win.start :], 0.0)  # each fold's own weight
            terms = _ratio_terms(estimators, w, dx[:, inner], dx2[:, inner], {o: t[:, win] for o, t in tau.items()})
            for e, (num, den, scale) in terms.items():
                preds[e][k, block], flags = _masked_ratio(num, den, scale, eps)
                degenerate[e][k] += int(flags.sum())
    return {
        e: tuple(CVPoint(h, float(np.sum((target - p) ** 2)), d) for h, p, d in zip(hs, preds[e], degenerate[e]))
        for e in estimators
    }


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
    """Write a selection trace as CSV with columns h,score,degenerate_folds."""
    rows = ((repr(float(p.h)), repr(float(p.score)), int(p.degenerate_folds)) for p in trace)
    _write_csv(path, ("h", "score", "degenerate_folds"), rows)
