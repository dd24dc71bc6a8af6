"""Kaplan-Meier censoring-survival estimation and synthetic responses.

The product-limit estimate of the censoring survival function jumps only at
censored observations (delta = 0) and is forced to zero at and beyond the
largest observation. Synthetic responses evaluate the step at each response
through its LEFT limit: the step itself is zero at the largest observation,
so the largest uncensored response would otherwise divide by zero. The left
limit agrees with the step at every non-jump point and keeps every synthetic
response finite.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

SYNTHETIC_ORDERS = (-1, 1, 2)


class NonPositiveResponseWarning(UserWarning):
    """Non-positive uncensored responses feed an inverse-moment transform."""


@dataclass(frozen=True)
class CensoredSample:
    """Observed right-censored records (y, delta, x).

    y is the observed response min(T, C), delta = 1 when the response of
    interest was observed (T <= C) and 0 when it was censored, and x is the
    scalar covariate. Arrays are copied and frozen on construction.
    """

    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float, ndmin=1)
        delta = np.array(self.delta, ndmin=1)
        x = np.array(self.x, dtype=float, ndmin=1)
        if y.ndim != 1 or delta.shape != y.shape or x.shape != y.shape:
            raise DataError("y, delta and x must be one-dimensional and equally long")
        if y.size == 0:
            raise DataError("sample is empty")
        if not np.isfinite(y).all():
            raise DataError("non-finite response values")
        if not np.isfinite(x).all():
            raise DataError("non-finite covariate values")
        if not np.isin(delta, (0, 1)).all():
            raise DataError("delta entries must be 0 or 1")
        delta = delta.astype(np.int64)
        for name, arr in (("y", y), ("delta", delta), ("x", x)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class SurvivalStep:
    """Right-continuous, non-increasing step function with values in [0, 1].

    jump_times lists the ascending points where the value changes and values
    the new level holding at and after each time. The level is 1 before the
    first jump and 0 at and beyond the largest observation.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.jump_times, dtype=float, ndmin=1)
        values = np.array(self.values, dtype=float, ndmin=1)
        if times.shape != values.shape or times.ndim != 1 or times.size == 0:
            raise DataError("jump_times and values must be equally long, non-empty 1-d arrays")
        if np.any(np.diff(times) <= 0):
            raise DataError("jump_times must be strictly ascending")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise DataError("survival levels must lie in [0, 1]")
        if np.any(np.diff(values) > 0):
            raise DataError("survival levels must be non-increasing")
        if values[-1] != 0.0:
            raise DataError("survival level must reach 0 at the largest observation")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "values", values)

    def eval(self, t, side: str = "right"):
        """Value at t: right-continuous (side='right') or left limit (side='left')."""
        if side not in ("right", "left"):
            raise ConfigError(f"side must be 'right' or 'left', got {side!r}")
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t_arr, side=side) - 1
        out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], 1.0)
        return float(out) if t_arr.ndim == 0 else out


@dataclass(frozen=True)
class SyntheticResponses:
    """Censoring-compensated responses delta_i * y_i**(-order) / Gbar(y_i-).

    A value is zero exactly when the observation is censored. Order -1 gives
    the synthetic response itself; orders 1 and 2 give the inverse-moment
    responses consumed by the relative-error smoother.
    """

    order: int
    values: np.ndarray

    def __post_init__(self):
        if self.order not in SYNTHETIC_ORDERS:
            raise ConfigError(f"order must be one of {SYNTHETIC_ORDERS}, got {self.order!r}")
        values = np.array(self.values, dtype=float, ndmin=1)
        if not np.isfinite(values).all():
            raise DataError("synthetic responses must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def km_censoring_survival(sample: CensoredSample) -> SurvivalStep:
    """Product-limit estimate of the censoring survival function.

    Ties are resolved by a stable sort that places uncensored observations
    before censored ones at equal y, so tied uncensored records leave the
    risk set before a censored jump is taken.
    """
    order = np.lexsort((-sample.delta, sample.y))
    ys = sample.y[order]
    ds = sample.delta[order]
    n = ys.size
    at_risk = n - np.arange(n)
    factors = 1.0 - (1.0 - ds) / at_risk
    levels = np.cumprod(factors)

    last = np.flatnonzero(np.r_[ys[1:] != ys[:-1], True])
    times = ys[last]
    vals = levels[last].copy()
    vals[-1] = 0.0  # zero at and beyond the largest observation
    keep = vals != np.r_[1.0, vals[:-1]]
    return SurvivalStep(times[keep], vals[keep])


def loo_censoring_survival(sample: CensoredSample) -> np.ndarray:
    """Leave-one-out left-limit censoring survival at every response.

    Returns the n x n matrix G with G[i, j] the left limit at y_j of
    km_censoring_survival refitted without observation i, computed from two
    prefix products instead of n refits. Dropping i from the sorted sample
    keeps the order of the rest and lowers the at-risk count by one before
    i's sorted position p_i, so those factors become 1 - (1-d_k)/(n-1-k);
    the factors after p_i are the plain ones, and i's own factor is gone.
    The left limit at y_j multiplies the factors before the start s_j of
    j's tie group.
    """
    n = sample.n
    if n < 2:
        raise DataError("leave-one-out survival needs at least 2 observations")
    order = np.lexsort((-sample.delta, sample.y))
    ys = sample.y[order]
    censored = 1.0 - sample.delta[order]
    k = np.arange(n)
    plain = np.cumprod(np.r_[1.0, 1.0 - censored / (n - k)])
    reduced = np.cumprod(np.r_[1.0, 1.0 - censored[:-1] / (n - 1 - k[:-1])])
    group_start = np.maximum.accumulate(np.where(np.r_[True, ys[1:] != ys[:-1]], k, 0))
    p = np.argsort(order)  # sorted position of each record
    s = group_start[p]
    # factors p_i+1 .. s_j-1 are plain: reduced[p_i] * plain[s_j] / plain[p_i+1];
    # the last sorted record has no later group, so its ratio is never used
    rescale = reduced[p] / plain[np.minimum(p + 1, n - 1)]
    later = s[None, :] > p[:, None]
    gbar = np.where(later, rescale[:, None] * plain[s][None, :], reduced[s][None, :])
    if ys[-1] > ys[-2]:
        # a unique largest response lies beyond its own fold's largest
        # observation, where the step is 0
        gbar[order[-1], order[-1]] = 0.0
    return gbar


def survival_eval(step: SurvivalStep, t, side: str = "right"):
    """Evaluate a survival step at t; see SurvivalStep.eval for the side rule."""
    return step.eval(t, side=side)


def synthetic_values(y, delta, order: int, gbar) -> np.ndarray:
    """Core transform delta * y**(-order) / gbar given survival values at y.

    gbar holds the censoring survival evaluated at each response: pass
    Kaplan-Meier left limits for the feasible transform, or exact survival
    values when the censoring distribution is known. The three inputs
    broadcast, so one call can transform every leave-one-out fold.
    """
    if order not in SYNTHETIC_ORDERS:
        raise ConfigError(f"order must be one of {SYNTHETIC_ORDERS}, got {order!r}")
    y = np.asarray(y, dtype=float)
    uncensored = np.asarray(delta) == 1
    gbar = np.asarray(gbar, dtype=float)
    if order in (1, 2):
        if np.any(uncensored & (y == 0.0)):
            raise DataError(f"inverse moment of order {order} undefined at an uncensored zero response")
        if np.any(uncensored & (y < 0.0)):
            warnings.warn(
                "uncensored non-positive responses: the relative-error framework "
                "assumes positive lifetimes",
                NonPositiveResponseWarning,
                stacklevel=2,
            )
    if np.any(uncensored & (gbar <= 0.0)):
        raise DataError("censoring survival is zero at an uncensored response")
    with np.errstate(divide="ignore", over="ignore"):
        moment = y ** (-order)  # only uncensored entries are kept, and checked below
    out = np.zeros(np.broadcast_shapes(y.shape, uncensored.shape, gbar.shape))
    np.divide(moment, gbar, out=out, where=uncensored)
    if not np.isfinite(out).all():
        raise DataError("synthetic responses overflow; responses too close to zero")
    return out


def synthetic_transform(sample: CensoredSample, step: SurvivalStep, order: int) -> SyntheticResponses:
    """Synthetic responses of the given order using left limits of the step.

    The step must have been estimated from the same sample (not verified).
    """
    gbar = step.eval(sample.y, side="left")
    return SyntheticResponses(order, synthetic_values(sample.y, sample.delta, order, gbar))


def read_sample_csv(path) -> CensoredSample:
    """Load a censored sample from a CSV file with header y,delta,x."""
    ys: list[float] = []
    ds: list[int] = []
    xs: list[float] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if [c.strip().lower() for c in header] != ["y", "delta", "x"]:
            raise DataError(f"{path}: header must be y,delta,x")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}: row {lineno}: expected 3 columns, got {len(row)}")
            try:
                ys.append(float(row[0]))
                d = int(row[1])
                xs.append(float(row[2]))
            except ValueError:
                raise DataError(f"{path}: row {lineno}: could not parse y,delta,x values") from None
            if d not in (0, 1):
                raise DataError(f"{path}: row {lineno}: delta must be 0 or 1, got {d}")
            ds.append(d)
    if not ys:
        raise DataError(f"{path}: no data rows")
    return CensoredSample(np.array(ys), np.array(ds), np.array(xs))
