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
whose factors take at most loclin._BLOCK_ENTRIES floats. Only the kernel
weights depend on the bandwidth, so each block builds, once, its rows of the
leave-one-out responses and the factors of the five row sums of each group
of estimators (LLRER: tau1, tau1*dx, tau2, tau2*dx, tau2*dx^2; LLCR and CR:
tau-1, tau-1*dx, 1, dx, dx^2), the precomputation of Fan & Marron (1994).
Each bandwidth then evaluates its weights from the block's squared offsets
and takes one batched matrix-vector product per group, one BLAS gemv per
fold; after the last bandwidth, loclin's ratio formula turns every
bandwidth's and fold's sums into predictions at once. So the workspace is
O(n * block) instead of O(n^2), next to one stored prediction per fold,
bandwidth and estimator. Each bandwidth evaluates only the window of columns
within its kernel's support of the block, a superset of the non-zero
weights: every column for the Gaussian kernel, whose scores do not depend on
the block size. A group's factors and the block size are the same whichever
estimators are scored, so no trace depends on the others scored with it.

cv_score and select_bandwidth go through the same pass, so a traced score
always equals the score of a standalone call, alone or alongside others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError
from .kernels import KERNEL_SUPPORT, KernelKind, _check_bandwidth, _check_kernel, _kernel_of_squares
from .loclin import (
    _GROUP, _RELATIVE, DEFAULT_EPSILON, Estimator, _blocks, _check_epsilon, _masked_ratio, _offsets, _ratio_terms,
    _union_orders,
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


def _windows(kernel: KernelKind, hs, xs: np.ndarray, lo: float, hi: float):
    """(starts, stops): columns starts[k]:stops[k] can weigh on points in [lo, hi] at bandwidth hs[k].

    xs holds the covariates in ascending order. Each window covers every x
    within the slightly widened reach h * support of [lo, hi], a superset of
    the non-zero weights, and a larger h has a wider one; the infinite reach
    of an unbounded kernel covers every column.
    """
    reach = KERNEL_SUPPORT[kernel] * np.asarray(hs, dtype=float) * (1.0 + _REACH_SLACK)
    return xs.searchsorted(lo - reach, "left"), xs.searchsorted(hi + reach, "right")


# Factor entries a block of folds builds per (fold, column): five for each
# group of estimators, counted whichever estimators are asked for, so the
# blocks, their windows and so the traces are the same for every subset
_FOLD_FACTORS = 10


def _fold_products(groups, tau, columns: np.ndarray, points: np.ndarray, own: int):
    """({group: (folds, 5, columns) factors}, dx2) of a block of folds at points.

    Each group's factors are those of loclin's five row sums, in that order,
    so one matrix-vector product with a fold's weights gives its sums. They
    are capped at the largest float, so a far column, whose weight is 0, adds
    0. Fold r's own column, own + r, is 0 in every factor: tau and dx are 0
    there, and so is the constant factor of the classical group.
    """
    dx, dx2 = _offsets(columns, points)
    big = np.finfo(float).max
    products = {}
    with np.errstate(over="ignore"):  # each overflow is capped
        np.clip(dx, -big, big, out=dx)  # so that 0 * dx is 0; the points are finite
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


def _cv_traces(estimators, sample: CensoredSample, kernel: KernelKind, hs, eps: float) -> dict:
    """Trace of (h, score, degenerate_folds) over hs for each estimator.

    The records are sorted by (x, y, delta) once, and the whole pass runs on
    that copy, so the traces do not depend on the order of the records. The
    blocks of folds are outermost and the bandwidths inside: each block
    builds its factors once over the window of the largest bandwidth, and
    each bandwidth evaluates its weights over its own window of them and
    multiplies them into each group's factors. The ratios of every bandwidth
    and fold of a block follow in one pass.
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
    groups = dict.fromkeys(_GROUP[e] for e in estimators)
    preds = {e: np.empty((len(hs), sample.n)) for e in estimators}
    degenerate = {e: np.zeros(len(hs), dtype=int) for e in estimators}
    for block in _blocks(sample.n, _FOLD_FACTORS * sample.n):
        x = sample.x[block]  # ascending, so x[0] and x[-1] bound the block
        starts, stops = _windows(kernel, hs, sample.x, x[0], x[-1])
        outer = slice(int(starts.min()), int(stops.max()))  # the largest bandwidth's window
        tau = {o: t[:, outer] for o, t in fold_rows(block).items()}
        products, dx2 = _fold_products(groups, tau, sample.x[outer], x, block.start - outer.start)
        sums = {g: np.empty((len(hs), x.size, 5)) for g in groups}
        w = np.empty(dx2.size)
        inner = zip((starts - outer.start).tolist(), (stops - outer.start).tolist())
        for k, (h, (start, stop)) in enumerate(zip(hs, inner)):
            weights = w[: x.size * (stop - start)].reshape(x.size, -1)  # contiguous, so faster to write
            _kernel_of_squares(kernel, dx2[:, start:stop], h, out=weights)
            for g, factors in products.items():
                np.matmul(factors[:, :, start:stop], weights[..., None], out=sums[g][k, :, :, None])
        terms = _ratio_terms(estimators, {g: np.moveaxis(s, -1, 0) for g, s in sums.items()})
        for e, (num, den, scale) in terms.items():
            preds[e][:, block], flags = _masked_ratio(num, den, scale, eps)
            degenerate[e] += flags.sum(axis=1)
    return {
        e: tuple(CVPoint(h, float(np.sum((target - p) ** 2)), int(d)) for h, p, d in zip(hs, preds[e], degenerate[e]))
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
