"""Leave-one-out cross-validation bandwidth selection over a fixed grid.

Each fold removes one observation from both the smoother and the
censoring-survival estimate, refits at the held-out covariate and scores the
squared gap to that observation's full-sample synthetic response. The folds'
Kaplan-Meier estimates come in closed form from loo_censoring_survival, with
the same semantics as a refit per fold. A fold whose fit is degenerate
predicts 0 (the shared convention) and is counted in the trace, so
pathological bandwidths stay visible.

select_bandwidths scores several estimators in one pass: one workspace per
sample and one kernel evaluation per bandwidth, shared by every estimator.
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
from .kernels import KernelKind, kernel_eval
from .loclin import DEFAULT_EPSILON, Estimator, _masked_ratio, _ratio_terms, required_orders
from .survival import (
    CensoredSample,
    km_censoring_survival,
    loo_censoring_survival,
    synthetic_transform,
    synthetic_values,
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


@dataclass(frozen=True)
class _Workspace:
    """Precomputed leave-one-out structures, reusable across bandwidths.

    Row i of each matrix describes the fold that drops observation i: dx[i, j]
    is x_j - x_i and tau[order][i, j] the order-`order` synthetic response of
    observation j under the Kaplan-Meier estimate that excludes i (0 at
    j = i). target is the full-sample synthetic response of order -1.
    """

    dx: np.ndarray
    dx2: np.ndarray
    target: np.ndarray
    tau: dict


def _workspace(sample: CensoredSample, orders: Iterable[int]) -> _Workspace:
    target = synthetic_transform(sample, km_censoring_survival(sample), -1).values
    gbar = loo_censoring_survival(sample)
    in_fold = (sample.delta == 1)[None, :] & ~np.eye(sample.n, dtype=bool)
    tau = {o: synthetic_values(sample.y, in_fold, o, gbar) for o in orders}
    dx = sample.x[None, :] - sample.x[:, None]
    return _Workspace(dx, dx * dx, target, tau)


def _cv_traces(estimators, sample: CensoredSample, kernel: KernelKind, hs, eps: float) -> dict:
    """Trace of (h, score, degenerate_folds) over hs for each estimator."""
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
    ws = _workspace(sample, orders)
    traces = {e: [] for e in estimators}
    for h in hs:
        w = kernel_eval(kernel, ws.dx / h)
        np.fill_diagonal(w, 0.0)
        for e, terms in _ratio_terms(estimators, w, ws.dx, ws.dx2, ws.tau).items():
            pred, degenerate = _masked_ratio(*terms, eps)
            resid = ws.target - pred
            traces[e].append(CVPoint(h, float(np.sum(resid * resid)), int(degenerate.sum())))
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
