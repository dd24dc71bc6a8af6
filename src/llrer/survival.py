"""Kaplan-Meier censoring-survival estimation and synthetic responses.

The product-limit estimate of the censoring survival function jumps only at
censored observations (delta = 0) and is forced to zero at and beyond the
largest observation. Synthetic responses evaluate the step at each response
through its LEFT limit: the step itself is zero at the largest observation,
so the largest uncensored response would otherwise divide by zero. The left
limit agrees with the step at every non-jump point and keeps every synthetic
response finite.

The product-limit pass (_product_limit) runs over the last axis, so one pass
serves one sample or samples of one length stacked in rows, a block of
simulated replications, each row's arithmetic its own. A record's left limit
is plain[s], the product of the at-risk factors before its tie group, which
equals the step's left limit bit for bit; curves (_kaplan_meier_responses)
and cross-validation's target read it without building a step.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, DataError, _check_instance, _check_integer

__all__ = [
    "CensoredSample", "NonPositiveResponseWarning", "SurvivalStep", "SyntheticResponses", "km_censoring_survival",
    "read_sample_csv", "synthetic_transform",
]

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


_check_sample = partial(_check_instance, kind=CensoredSample, name="sample")


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


def _product_limit(y: np.ndarray, delta: np.ndarray):
    """(ys, censored = 1 - delta, plain, starts, p, s) of the records of y and delta, or of each row of them:
    one pass over the last axis, each row's arithmetic its own. The records are sorted by y, uncensored
    first at equal y; ys and censored are in that order, plain[k] multiplies the first k at-risk factors
    and starts flags each tie group's first record. p is each record's sorted position and s the sorted
    position of the first record of its tie group, both in record order, so plain[s] is each record's
    left limit Gbar(y-)."""
    n = y.shape[-1]
    order = np.lexsort((-delta, y))
    ys = np.take_along_axis(y, order, -1)
    censored = 1.0 - np.take_along_axis(delta, order, -1)
    lead = y.shape[:-1] + (1,)
    plain = np.cumprod(np.concatenate((np.ones(lead), 1.0 - censored / (n - np.arange(n))), axis=-1), axis=-1)
    starts = np.concatenate((np.ones(lead, dtype=bool), ys[..., 1:] != ys[..., :-1]), axis=-1)
    p = np.argsort(order, axis=-1)
    s = np.take_along_axis(np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=-1), p, -1)
    return ys, censored, plain, starts, p, s


def _left_limits(y: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The Kaplan-Meier censoring survival's left limit at each record, plain[s] of _product_limit: for
    one sample km_censoring_survival(sample).eval(sample.y, side="left"), bit for bit, and for samples
    stacked along the first axis that of each row, from one pass."""
    _, _, plain, _, _, s = _product_limit(y, delta)
    return np.take_along_axis(plain, s, -1)


def km_censoring_survival(sample: CensoredSample) -> SurvivalStep:
    """Product-limit estimate of the censoring survival function.

    Ties are resolved by a stable sort that places uncensored observations
    before censored ones at equal y, so tied uncensored records leave the
    risk set before a censored jump is taken.
    """
    _check_sample(sample)
    ys, _, plain, starts, _, _ = _product_limit(sample.y, sample.delta)
    last = np.flatnonzero(np.concatenate((starts[1:], [True])))  # the last record of each tie group
    times = ys[last]
    vals = plain[last + 1]
    vals[-1] = 0.0  # zero at and beyond the largest observation
    keep = vals != np.concatenate(([1.0], vals[:-1]))
    return SurvivalStep(times[keep], vals[keep])


def _loo_responses(sample: CensoredSample, orders):
    """(target, rows): cross-validation's synthetic responses from one product-limit pass.

    target holds the order -1 responses under the full-sample Kaplan-Meier
    estimate. rows maps a slice of folds and a slice of columns (every column
    by default) that holds them to {order: tau}, where tau[r, c] is the
    response of the record at column c under the estimate refitted without
    record folds.start + r, and 0 for that record itself. Dropping i from the
    sorted sample keeps the order of the rest and lowers the at-risk count by
    one before i's sorted position p_i, so those factors become
    1 - (1-d_k)/(n-1-k); the factors after p_i are the plain ones, and i's own
    factor is gone. The left limit at y_j multiplies the factors before the
    start s_j of j's tie group: a record with s_j <= p_i has one response for
    every such fold, computed once, and a later one is divided by the fold's
    survival there. A block of rows costs O(rows * columns).

    Every response that some fold other than the record's own holds is
    checked once here, for every fold and column, so a DataError is raised
    exactly when one of them is not finite, whichever columns rows reads.
    """
    n = sample.n
    if n < 2:
        raise DataError("leave-one-out responses need at least 2 observations")
    uncensored = sample.delta == 1
    _, censored, plain, _, p, s = _product_limit(sample.y, sample.delta)
    k = np.arange(n)
    reduced = np.cumprod(np.concatenate(([1.0], 1.0 - censored[:-1] / (n - 1 - k[:-1]))))
    # factors p_i+1 .. s_j-1 are plain: reduced[p_i] * plain[s_j] / plain[p_i+1], by sorted
    # position; the last sorted record has no later group, so its ratio is never used
    ratio = reduced / plain[np.minimum(k + 1, n - 1)]
    rescale = ratio[p]
    plain_s = plain[s]
    target = _check_finite(_moment(sample.y, uncensored, -1) / plain_s)
    _check_responses(sample.y, uncensored, orders)
    moments = {o: _moment(sample.y, uncensored, o) for o in orders}
    # the folds sorted before j's tie group divide m_j by rescale_i * plain[s_j], and rounding is
    # monotone, so the largest in magnitude is at the least rescale_i among them
    least = np.minimum.accumulate(ratio)[np.maximum(s - 1, 0)]
    with np.errstate(all="ignore"):  # a response that is not finite fails the check, or no fold reads it
        early = {o: m / reduced[s] for o, m in moments.items()}
        for o, m in moments.items():
            # early[o][j] is read by a fold other than j's unless j sits alone at the last position,
            # where reduced[s_j] may be 0, and j has late responses when a fold sorts before s_j
            _check_finite(np.where(s < n - 1, early[o], 0.0))
            _check_finite(np.where(s > 0, m / (least * plain_s), 0.0))

    def rows(folds: slice, columns: slice = slice(None)) -> dict:
        before = s[columns] <= p[folds, None]
        survival = rescale[folds, None] * plain_s[columns]  # the refit's left limits at the later records
        own = folds.start - columns.indices(n)[0]
        out = {}
        for o, m in moments.items():
            with np.errstate(all="ignore"):  # a 0 rescale is read only where before holds
                tau = m[columns] / survival
            np.copyto(tau, early[o][columns], where=before)
            np.fill_diagonal(tau[:, own:], 0.0)  # each fold's own record
            out[o] = tau
        return out

    return target, rows


def _check_order(order) -> None:
    """A ConfigError unless order is an integer (True is not 1) and one of SYNTHETIC_ORDERS."""
    if _check_integer(order, "order", min(SYNTHETIC_ORDERS), max(SYNTHETIC_ORDERS)) not in SYNTHETIC_ORDERS:
        raise ConfigError(f"order must be one of {SYNTHETIC_ORDERS}, got {order!r}")


def _check_responses(y, uncensored, orders) -> None:
    """The checks of the synthetic responses that depend on the responses alone.

    One call covers several orders and raises or warns at most once.
    """
    for order in orders:
        _check_order(order)
    inverse = [o for o in orders if o in (1, 2)]
    if inverse:
        y = np.asarray(y, dtype=float)
        if np.any(uncensored & (y == 0.0)):
            raise _zero_response(inverse[0])
        if np.any(uncensored & (y < 0.0)):
            _warn_nonpositive()


def _zero_response(order: int) -> DataError:
    return DataError(f"inverse moment of order {order} undefined at an uncensored zero response")


def _warn_nonpositive() -> None:
    """Issue the NonPositiveResponseWarning at the first frame outside the package's modules, so it
    points at the user's call however deep inside the package the check runs."""
    frame, level = sys._getframe(), 1
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith("llrer."):
        frame, level = frame.f_back, level + 1
    warnings.warn(
        "uncensored non-positive responses: the relative-error framework assumes positive lifetimes",
        NonPositiveResponseWarning,
        stacklevel=level,
    )


def _moment(y, uncensored, order: int) -> np.ndarray:
    """delta * y**(-order) with uncensored = (delta == 1): 0 at every censored record."""
    with np.errstate(divide="ignore", over="ignore"):  # an overflow is kept, and fails _check_finite
        return np.where(uncensored, y ** (-order), 0.0)


_OVERFLOW = "synthetic responses overflow; responses too close to zero"


def _check_finite(responses: np.ndarray) -> np.ndarray:
    """responses, or a DataError unless every one is finite."""
    if not np.isfinite(responses).all():
        raise DataError(_OVERFLOW)
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
    sample, the step and the responses and evaluating the step's left limits
    once for every order."""
    uncensored = _check_sample(sample).delta == 1
    _check_instance(step, SurvivalStep, "step")
    _check_responses(sample.y, uncensored, orders)
    gbar = step.eval(sample.y, side="left")
    return {o: _divide_by_survival(sample.y, uncensored, o, gbar) for o in orders}


def _kaplan_meier_responses(y: np.ndarray, delta: np.ndarray, orders) -> tuple:
    """({order: responses}, faults) of samples stacked along the first axis of y and delta, each under
    its own Kaplan-Meier left limits, from one product-limit pass (_left_limits) for all of them.

    Row r's responses are _synthetic_responses(sample r, km_censoring_survival(sample r), orders)
    bit for bit. faults[r] is the DataError that call raises, or None, and a row with a fault is
    not to be read. At most one NonPositiveResponseWarning is issued, as _check_responses issues
    it, for the rows without a zero response.
    """
    uncensored = delta == 1
    inverse = [o for o in orders if o in (1, 2)]
    zero = np.any(uncensored & (y == 0.0), axis=-1) & bool(inverse)
    if inverse and np.any(uncensored & (y < 0.0) & ~zero[:, None]):
        _warn_nonpositive()
    gbar = _left_limits(y, delta)  # at least 1/n: the factors before position s multiply to at least (n - s) / n
    with np.errstate(over="ignore"):  # an overflow fails the row
        tau = {o: np.divide(_moment(y, uncensored, o), gbar, out=np.zeros(y.shape), where=uncensored) for o in orders}
    finite = np.ones(len(y), dtype=bool)
    for t in tau.values():
        finite &= np.isfinite(t).all(axis=-1)
    faults = [_zero_response(inverse[0]) if z else None if f else DataError(_OVERFLOW)
              for z, f in zip(zero.tolist(), finite.tolist())]
    return tau, faults


def _read_text(path, error, read):
    """read(fh) of the file at path, opened as UTF-8 text after a byte-order mark if one leads it, as
    spreadsheets write, with newlines untranslated; a file that cannot be opened or read as UTF-8 raises
    error, an exception class, with a message that names the path."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise error(f"{path}: {exc}") from None
    try:
        with fh:
            return read(fh)
    except UnicodeDecodeError as exc:  # raised while the text is read; its offset is within a read buffer
        raise error(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_sample_csv(path) -> CensoredSample:
    """Load a censored sample from a UTF-8 CSV file with header y,delta,x (_read_text)."""
    records = _read_text(path, DataError, lambda fh: _sample_records(path, csv.reader(fh)))
    return CensoredSample(*map(np.array, zip(*records)))


def _sample_records(path, reader) -> list:
    """The (y, delta, x) records of a sample file's csv reader, or a DataError naming path and the row."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if [c.strip().lower() for c in header] != ["y", "delta", "x"]:
        raise DataError(f"{path}: header must be y,delta,x")
    records = []
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
        if not (math.isfinite(y) and math.isfinite(x)):
            raise DataError(f"{path}: row {lineno}: y and x must be finite, got y={y}, x={x}")
        records.append((y, d, x))
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


# Lines that _write_csv joins into one piece of text: about 160 KB of a curves file
_CSV_CHUNK_LINES = 4096


def _write_csv(path, header, rows) -> None:
    """Write a CSV file of one header row and then rows, each a sequence of text fields. No field holds
    a comma, quote or line break, so these are the bytes csv.writer writes: fields joined by commas,
    and every line ended by CRLF. The text is built in chunks of _CSV_CHUNK_LINES lines, so no copy of
    the whole file is made, and written with one writelines call. It is complete before the file is
    opened, so a row that fails leaves an existing file as it was."""
    lines, text = map(",".join, chain([header], rows)), []
    while chunk := list(islice(lines, _CSV_CHUNK_LINES)):
        chunk.append("")  # so the join ends the chunk's last line too
        text.append("\r\n".join(chunk))
    with open(path, "w", newline="") as fh:
        fh.writelines(text)
