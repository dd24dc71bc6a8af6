"""Leave-one-out cross-validation bandwidth selection over a fixed grid.

Each fold removes one observation from both the smoother and the
censoring-survival estimate, refits at the held-out covariate and scores the
squared gap to that observation's full-sample synthetic response. This
module owns the grid, the checks of a call, the order of the records, the
score and the selection. It sorts the records by (x, y, delta) once and runs
on that copy, so the traces depend on the records but not on their order.
The target and the folds' responses come from one product-limit pass
(survival._loo_responses), with the semantics of a Kaplan-Meier refit per
fold; it checks every fold's responses once, over every column, so an
overflow that no fit reads still fails the call. loclin._fold_pass predicts
every fold at every bandwidth, with the weights, the sums and the ratio
formula of points and curves, in the blocks that loclin describes, and no
prediction depends on the grid's other bandwidths or on the estimators
scored alongside. It yields one block of folds at a time, in fold order, and
the score step (_score_block) takes each block as it comes: each
prediction's squared error, in place, is added to one running score per
estimator and bandwidth, fold by fold in fold order, so no score depends on
where the blocks were cut, and the block's degenerate flags to one count per
estimator and bandwidth. So no prediction outlives its block, and CV's
memory is the pass's O(n) workspace plus O(bandwidths * estimators) scores.
A fold whose fit is degenerate predicts 0 (the shared convention) and its
flag is counted in the trace, so pathological bandwidths stay visible.

cv_score and select_bandwidth go through the same pass, so a traced score
always equals the score of a standalone call, alone or alongside others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, _check_collection, _check_instance, _check_integer, _check_real
from .kernels import _BANDWIDTH_RANGE, KernelKind, _check_bandwidth, _check_kernel
from .loclin import DEFAULT_EPSILON, Estimator, _check_epsilon, _check_estimator, _fold_pass, _union_orders
from .survival import CensoredSample, _check_sample, _loo_responses, _write_csv

__all__ = [
    "DEFAULT_BANDWIDTH_GRID", "BandwidthGrid", "BandwidthSelection", "CVPoint", "cv_score", "select_bandwidth",
    "select_bandwidths", "write_cv_trace_csv",
]


# The most values a grid may hold: a block holds at least one fold, whose
# sums take _FOLD_FACTORS (loclin) floats per bandwidth, so at one fold per
# block the cap bounds that block's sums (8 MB)
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


def _cv_traces(estimators, sample: CensoredSample, kernel: KernelKind, hs, eps: float) -> dict:
    """Trace of (h, score, degenerate_folds) over hs for each estimator: the records sorted once,
    loclin._fold_pass's predictions and flags, and the score step, each as the module docstring says."""
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
    scores = {e: np.zeros(len(hs)) for e in estimators}
    counts = {e: np.zeros(len(hs), dtype=int) for e in estimators}
    for folds, fits in _fold_pass(estimators, sample.x, fold_rows, kernel, hs, eps):
        _score_block(scores, counts, target[folds], fits)
    return {e: tuple(map(CVPoint, hs, scores[e].tolist(), counts[e].tolist())) for e in estimators}


def _score_block(scores: dict, counts: dict, target: np.ndarray, fits: dict) -> None:
    """Add a block's squared errors to each estimator's running scores, one per bandwidth, fold by fold
    in fold order, so no score depends on where the blocks were cut, and its degenerate flags to its
    counts. fits = {estimator: (predictions, flags)} of the block's folds, whose targets are target;
    the predictions are overwritten."""
    with np.errstate(over="ignore"):  # an overflowing score is inf, never nan, as in simulate's error metrics
        for e, (p, flags) in fits.items():
            errors = p.T  # fold by bandwidth: each prediction's squared error, in place
            np.subtract(target[:, None], errors, out=errors)
            np.square(errors, out=errors)
            errors[0] += scores[e]  # the score so far leads the block's running sums
            scores[e] = np.add.accumulate(errors, out=errors)[-1]
            counts[e] += flags.sum(axis=1)


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
