"""Leave-one-out cross-validation bandwidth selection over a fixed grid.

Each fold removes one observation from both the smoother and the
censoring-survival estimate, refits at the held-out covariate and scores the
squared gap to that observation's full-sample synthetic response. The folds'
Kaplan-Meier estimates come in the closed form of loo_censoring_survival,
one block of rows at a time, with the same semantics as a refit per fold. A fold whose fit is degenerate
predicts 0 (the shared convention) and is counted in the trace, so
pathological bandwidths stay visible.

select_bandwidths scores several estimators in one pass, shared by every
estimator. The folds are taken in blocks of at most loclin._BLOCK_ENTRIES
(fold, observation) pairs: each block builds its rows of the leave-one-out
responses once, then scores every bandwidth, so the workspace is
O(n * block) instead of O(n^2), next to one stored prediction per fold,
bandwidth and estimator. For a compact kernel (Epanechnikov) folds and
observations are sorted by x, and each bandwidth evaluates only the window
of columns within its support of the block, a superset of the non-zero
weights. For the Gaussian kernel the window is every column, folds and
columns stay in input order, and scores do not depend on the block size.
Predictions are put back in input order, and each score is one sum in that
order.

cv_score and select_bandwidth go through the same pass, so a traced score
always equals the score of a standalone call, alone or alongside others.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError
from .kernels import KERNEL_SUPPORT, KernelKind, kernel_eval
from .loclin import DEFAULT_EPSILON, Estimator, _block_rows, _masked_ratio, _ratio_terms, required_orders
from .survival import (
    CensoredSample,
    _check_responses,
    _divide_by_survival,
    _loo_survival_rows,
    km_censoring_survival,
    synthetic_transform,
)


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


def _column_order(kernel: KernelKind, x: np.ndarray) -> np.ndarray:
    """Order of the observations as folds and columns: by x for a compact
    kernel, else as given, so an unbounded kernel sums in the input order."""
    if math.isinf(KERNEL_SUPPORT[kernel]):
        return np.arange(x.size)
    return np.argsort(x, kind="stable")


def _window(kernel: KernelKind, h: float, xs: np.ndarray, lo: float, hi: float) -> slice:
    """Columns that can weigh on points in [lo, hi] at bandwidth h.

    xs holds the covariates in _column_order. For a compact kernel the
    columns are ascending and the slice covers every x within the slightly
    widened reach h * support of [lo, hi], a superset of the non-zero
    weights; an unbounded kernel takes every column.
    """
    reach = KERNEL_SUPPORT[kernel] * h * (1.0 + _REACH_SLACK)
    if math.isinf(reach):
        return slice(0, xs.size)
    return slice(int(np.searchsorted(xs, lo - reach, "left")), int(np.searchsorted(xs, hi + reach, "right")))


def _fold_blocks(sample: CensoredSample, orders, cols: np.ndarray):
    """Blocks of leave-one-out folds in column order, with their responses.

    Yields (block, tau): the folds are observations cols[block], at most
    _block_rows(n) of them, and tau[order][r, c] is the order-`order`
    synthetic response of observation cols[c] under the Kaplan-Meier
    estimate that excludes cols[block][r] (0 for the fold itself). The
    checks on the responses alone run once, before the first block; every
    block checks its survival values and overflow over all columns.
    """
    uncensored = sample.delta == 1
    # with n >= 2 every observation lies in some fold, so the folds' response
    # checks are those of the whole sample
    _check_responses(sample.y, uncensored, orders)
    survival_rows = _loo_survival_rows(sample)
    y, uncensored = sample.y[cols], uncensored[cols]
    rows = _block_rows(sample.n)
    for lo in range(0, sample.n, rows):
        block = slice(lo, lo + rows)
        gbar = survival_rows(cols[block], cols)
        in_fold = uncensored[None, :] & (cols[None, :] != cols[block, None])
        yield block, {o: _divide_by_survival(y, in_fold, o, gbar) for o in orders}


def _cv_traces(estimators, sample: CensoredSample, kernel: KernelKind, hs, eps: float) -> dict:
    """Trace of (h, score, degenerate_folds) over hs for each estimator.

    The blocks of folds are outermost and the bandwidths inside, so each
    block's workspace is built once. For a compact kernel the folds and
    columns are in x order and each bandwidth reads only the window of
    columns its support reaches from the block.
    """
    estimators = tuple(dict.fromkeys(estimators))
    if not estimators:
        raise ConfigError("cross-validation needs at least one estimator")
    if sample.n < 2:
        raise ConfigError("cross-validation needs at least 2 observations")
    hs = [float(h) for h in hs]
    for h in hs:
        if not math.isfinite(h) or h <= 0.0:
            raise ConfigError(f"bandwidth h must satisfy h > 0, got {h!r}")
    orders = dict.fromkeys(o for e in estimators for o in required_orders(e))
    target = synthetic_transform(sample, km_censoring_survival(sample), -1).values
    cols = _column_order(kernel, sample.x)
    xs = sample.x[cols]
    preds = {e: np.empty((len(hs), sample.n)) for e in estimators}  # folds in column order
    degenerate = {e: [0] * len(hs) for e in estimators}
    for block, tau in _fold_blocks(sample, orders, cols):
        x = xs[block]  # ascending where the window depends on it
        # dx and dx2 cover the columns the largest bandwidth reaches; each
        # bandwidth reads its own window of them as a view
        outer = _window(kernel, max(hs), xs, x[0], x[-1])
        dx = xs[None, outer] - x[:, None]
        dx2 = dx * dx
        for k, h in enumerate(hs):
            win = _window(kernel, h, xs, x[0], x[-1])
            inner = slice(win.start - outer.start, win.stop - outer.start)
            w = kernel_eval(kernel, dx[:, inner] / h)
            np.fill_diagonal(w[:, block.start - win.start :], 0.0)  # each fold's own weight
            terms = _ratio_terms(estimators, w, dx[:, inner], dx2[:, inner], {o: t[:, win] for o, t in tau.items()})
            for e, (num, den, scale) in terms.items():
                preds[e][k, block], flags = _masked_ratio(num, den, scale, eps)
                degenerate[e][k] += int(flags.sum())
    column_of = np.argsort(cols)
    traces = {e: [] for e in estimators}
    for e, trace in traces.items():
        for k, h in enumerate(hs):
            resid = target - preds[e][k][column_of]  # back to input order
            trace.append(CVPoint(h, float(np.sum(resid * resid)), degenerate[e][k]))
    return {e: tuple(trace) for e, trace in traces.items()}


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
    the smallest h.
    """
    traces = _cv_traces(estimators, sample, kernel, grid.values(), denominator_epsilon)
    selections = {}
    for e, trace in traces.items():
        best = 0
        for k in range(1, len(trace)):
            if trace[k].score < trace[best].score:
                best = k
        selections[e] = BandwidthSelection(trace[best].h, trace)
    return selections


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "score", "degenerate_folds"])
        for point in trace:
            writer.writerow([repr(float(point.h)), repr(float(point.score)), int(point.degenerate_folds)])
