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
import sys
import warnings
from dataclasses import dataclass
from itertools import chain

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
        if not ((delta == 0) | (delta == 1)).all():
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
        _check_order(self.order)
        values = np.array(self.values, dtype=float, ndmin=1)
        if not np.isfinite(values).all():
            raise DataError("synthetic responses must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _product_limit(sample: CensoredSample):
    """(order, ys, censored = 1 - delta, plain, starts) of the records sorted by y, uncensored first
    at equal y: plain[k] multiplies the first k at-risk factors, starts flags each tie group's first record."""
    order = np.lexsort((-sample.delta, sample.y))
    ys = sample.y[order]
    censored = 1.0 - sample.delta[order]
    plain = np.cumprod(np.concatenate(([1.0], 1.0 - censored / (sample.n - np.arange(sample.n)))))
    starts = np.concatenate(([True], ys[1:] != ys[:-1]))
    return order, ys, censored, plain, starts


def km_censoring_survival(sample: CensoredSample) -> SurvivalStep:
    """Product-limit estimate of the censoring survival function.

    Ties are resolved by a stable sort that places uncensored observations
    before censored ones at equal y, so tied uncensored records leave the
    risk set before a censored jump is taken.
    """
    _, ys, _, plain, starts = _product_limit(sample)
    last = np.flatnonzero(np.concatenate((starts[1:], [True])))  # the last record of each tie group
    times = ys[last]
    vals = plain[last + 1]
    vals[-1] = 0.0  # zero at and beyond the largest observation
    keep = vals != np.concatenate(([1.0], vals[:-1]))
    return SurvivalStep(times[keep], vals[keep])


def _loo_responses(sample: CensoredSample, orders):
    """(target, rows): cross-validation's synthetic responses from one product-limit pass.

    target holds the order -1 responses under the full-sample Kaplan-Meier
    estimate. rows maps a slice of folds to {order: tau}, where tau[r, j] is
    record j's response under the estimate refitted without record
    folds.start + r, and 0 for that record itself. Dropping i from the sorted
    sample keeps the order of the rest and lowers the at-risk count by one
    before i's sorted position p_i, so those factors become
    1 - (1-d_k)/(n-1-k); the factors after p_i are the plain ones, and i's own
    factor is gone. The left limit at y_j multiplies the factors before the
    start s_j of j's tie group: a record with s_j <= p_i has one response for
    every such fold, computed once, and a later one is divided by the fold's
    survival there. A block of rows costs O(rows * n).
    """
    n = sample.n
    if n < 2:
        raise DataError("leave-one-out responses need at least 2 observations")
    uncensored = sample.delta == 1
    order, _, censored, plain, starts = _product_limit(sample)
    k = np.arange(n)
    reduced = np.cumprod(np.concatenate(([1.0], 1.0 - censored[:-1] / (n - 1 - k[:-1]))))
    p = np.argsort(order)  # sorted position of each record
    s = np.maximum.accumulate(np.where(starts, k, 0))[p]
    # factors p_i+1 .. s_j-1 are plain: reduced[p_i] * plain[s_j] / plain[p_i+1];
    # the last sorted record has no later group, so its ratio is never used
    rescale = reduced[p] / plain[np.minimum(p + 1, n - 1)]
    plain_s = plain[s]
    target = _check_finite(_moment(sample.y, uncensored, -1) / plain_s)
    _check_responses(sample.y, uncensored, orders)
    moments = {o: _moment(sample.y, uncensored, o) for o in orders}
    # reduced[s_j] is 0 only for a unique largest record after a censored one,
    # and only its own fold, whose entry is zeroed, reads it; a value that
    # overflows elsewhere fails _check_finite
    with np.errstate(all="ignore"):
        early = {o: m / reduced[s] for o, m in moments.items()}

    def rows(folds: slice) -> dict:
        before = s <= p[folds, None]
        out = {}
        for o, m in moments.items():
            tau = rescale[folds, None] * plain_s
            with np.errstate(all="ignore"):  # a 0 rescale is read only where before holds
                np.divide(m, tau, out=tau)
            np.copyto(tau, early[o], where=before)
            np.fill_diagonal(tau[:, folds.start :], 0.0)  # each fold's own record
            out[o] = _check_finite(tau)
        return out

    return target, rows


def _check_order(order) -> None:
    """A ConfigError unless order is one of SYNTHETIC_ORDERS."""
    if order not in SYNTHETIC_ORDERS:
        raise ConfigError(f"order must be one of {SYNTHETIC_ORDERS}, got {order!r}")


def _check_responses(y, uncensored, orders) -> None:
    """The checks of the synthetic responses that depend on the responses alone.

    One call covers several orders and raises or warns at most once. The
    warning names the first frame outside the package's modules, so it points
    at the user's call however deep inside the package the check runs.
    """
    for order in orders:
        _check_order(order)
    inverse = [o for o in orders if o in (1, 2)]
    if inverse:
        y = np.asarray(y, dtype=float)
        if np.any(uncensored & (y == 0.0)):
            raise DataError(f"inverse moment of order {inverse[0]} undefined at an uncensored zero response")
        if np.any(uncensored & (y < 0.0)):
            frame, level = sys._getframe(), 1
            while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith("llrer."):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                "uncensored non-positive responses: the relative-error framework "
                "assumes positive lifetimes",
                NonPositiveResponseWarning,
                stacklevel=level,
            )


def _moment(y, uncensored, order: int) -> np.ndarray:
    """delta * y**(-order) with uncensored = (delta == 1): 0 at every censored record."""
    with np.errstate(divide="ignore", over="ignore"):  # an overflow is kept, and fails _check_finite
        return np.where(uncensored, y ** (-order), 0.0)


def _check_finite(responses: np.ndarray) -> np.ndarray:
    """responses, or a DataError unless every one is finite."""
    if not np.isfinite(responses).all():
        raise DataError("synthetic responses overflow; responses too close to zero")
    return responses


def _divide_by_survival(y, uncensored, order: int, gbar) -> np.ndarray:
    """delta * y**(-order) / gbar with uncensored = (delta == 1), after
    _check_responses. gbar is the censoring survival at each response:
    Kaplan-Meier left limits, or exact values when the censoring distribution
    is known."""
    gbar = np.asarray(gbar, dtype=float)
    if np.any(uncensored & (gbar <= 0.0)):
        raise DataError("censoring survival is zero at an uncensored response")
    return _check_finite(np.divide(_moment(y, uncensored, order), gbar, out=np.zeros(gbar.shape), where=uncensored))


def synthetic_transform(sample: CensoredSample, step: SurvivalStep, order: int) -> SyntheticResponses:
    """Synthetic responses of the given order using left limits of the step.

    The step must have been estimated from the same sample (not verified).
    """
    return SyntheticResponses(order, _synthetic_responses(sample, step, (order,))[order])


def _synthetic_responses(sample: CensoredSample, step: SurvivalStep, orders) -> dict:
    """{order: synthetic_transform(sample, step, order).values}, checking the
    responses and evaluating the step's left limits once for every order."""
    uncensored = sample.delta == 1
    _check_responses(sample.y, uncensored, orders)
    gbar = step.eval(sample.y, side="left")
    return {o: _divide_by_survival(sample.y, uncensored, o, gbar) for o in orders}


def read_sample_csv(path) -> CensoredSample:
    """Load a censored sample from a CSV file with header y,delta,x."""
    records: list[tuple] = []
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
                y, d, x = float(row[0]), int(row[1]), float(row[2])
            except ValueError:
                raise DataError(f"{path}: row {lineno}: could not parse y,delta,x values") from None
            if d not in (0, 1):
                raise DataError(f"{path}: row {lineno}: delta must be 0 or 1, got {d}")
            if not (np.isfinite(y) and np.isfinite(x)):
                raise DataError(f"{path}: row {lineno}: y and x must be finite, got y={y}, x={x}")
            records.append((y, d, x))
    if not records:
        raise DataError(f"{path}: no data rows")
    return CensoredSample(*map(np.array, zip(*records)))


def _write_csv(path, header, rows) -> None:
    """Write a CSV file of one header row and then rows, each a sequence of text fields, in one write.
    No field holds a comma, quote or line break, so these are the bytes csv.writer writes: fields
    joined by commas, and every line ended by CRLF."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(map(",".join, chain([header], rows))) + "\r\n")
