"""Monte Carlo study: data generation, censoring calibration, outlier
contamination, replication and curve error metrics.

The built-in generating process draws X ~ N(0,1), noise e ~ N(0,1) and a
censoring time C ~ N(3 + c, 1), sets T = 2X + 1 + 0.2 e and observes
(min(T, C), 1{T <= C}, X). The shift c tunes the censoring percentage.
T is not truncated at zero: roughly 31% of draws are non-positive and they
are kept, reproducing the generating process as stated. The count of
non-positive uncensored responses is reported per replication, and
positive_only=True switches to rejection sampling on (X, e) for users who
need strictly positive responses.

Seed discipline: a run consumes one master seed. Child streams derive from
numpy SeedSequence spawn keys, (0,) for calibration, (1, r, 0) for the data
of replication r and (1, r, 1) for its outlier selection, so any replication
can be reproduced in isolation and replications can run in any order or in
parallel without changing the output.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .bandwidth import DEFAULT_BANDWIDTH_GRID, BandwidthGrid, select_bandwidths
from .errors import (
    CalibrationError, ConfigError, _check_bool, _check_collection, _check_instance, _check_integer, _check_real
)
from .kernels import _DEFAULT_KERNEL, KernelKind, _check_bandwidth, _check_kernel
from .loclin import (
    DEFAULT_EPSILON, Estimator, EstimatorConfig, FittedCurve, _check_epsilon, _check_grid, _curve_rows, fit_curves
)
from .survival import CensoredSample, NonPositiveResponseWarning, _check_sample, _write_csv

__all__ = [
    "DEFAULT_CALIBRATION_TOLERANCE", "DEFAULT_GRID_SPEC", "ErrorMetrics", "GeneratedSample", "ReplicationResult",
    "SimulationConfig", "SimulationReport", "calibrate_censoring", "config_lines", "error_metrics", "generate_sample",
    "inject_outliers", "load_simulation_config", "monte_carlo_run", "parse_grid_spec", "theoretical_curve",
    "write_curves_csv", "write_summary_csv",
]

DEFAULT_GRID_SPEC = "1:4:61"
DEFAULT_CALIBRATION_TOLERANCE = 0.005
_DEFAULT_CALIBRATION_SEED = 0
# calibrate_censoring's fixed draws and bisection budget
_DRAWS = 1_000_000
_MAX_ITER = 200
# draws per slice of _draw_event_times's pass over the noise
_SLICE = 1 << 16


def theoretical_curve(x):
    """Reference relative-error regression curve of the built-in process."""
    x_arr = np.asarray(x, dtype=float)
    m = 2.0 * x_arr + 1.0
    if np.any(m == 0.0):
        raise ConfigError("theoretical curve undefined at x = -0.5")
    out = m + 0.04 / m
    return float(out) if x_arr.ndim == 0 else out


@dataclass(frozen=True)
class GeneratedSample:
    """A generated censored sample plus the latent times for diagnostics."""

    sample: CensoredSample
    event_times: np.ndarray
    censor_times: np.ndarray

    @property
    def realized_cp(self) -> float:
        """Fraction of censored observations (delta = 0)."""
        return int(np.count_nonzero(self.sample.delta == 0)) / self.sample.n

    @property
    def nonpositive_uncensored(self) -> int:
        return int(np.count_nonzero((self.sample.delta == 1) & (self.sample.y <= 0.0)))


def _draw_event_times(rng: np.random.Generator, n: int, positive_only: bool):
    """(X, T) of n draws of the built-in process; with positive_only, (X, e) is redrawn where T <= 0.
    T overwrites the noise draws a slice at a time, so no temporary is as long as a draw."""
    x = rng.standard_normal(n)
    t = rng.standard_normal(n)
    for start in range(0, n, _SLICE):
        part = slice(start, start + _SLICE)
        t[part] = 2.0 * x[part] + 1.0 + 0.2 * t[part]
    if positive_only:
        bad = np.flatnonzero(t <= 0.0)
        while bad.size:
            x[bad] = rng.standard_normal(bad.size)
            t[bad] = 2.0 * x[bad] + 1.0 + 0.2 * rng.standard_normal(bad.size)
            bad = bad[t[bad] <= 0.0]
    return x, t


def generate_sample(n: int, c: float, seed, positive_only: bool = False) -> GeneratedSample:
    """Draw one sample of the built-in process; deterministic given seed."""
    n = _check_integer(n, "n", 1)
    c = _check_real(c, "c")
    positive_only = _check_bool(positive_only, "positive_only")
    rng = np.random.default_rng(seed)
    x, t = _draw_event_times(rng, n, positive_only)
    censor = 3.0 + c + rng.standard_normal(n)
    y = np.minimum(t, censor)
    delta = (t <= censor).astype(int)
    return GeneratedSample(CensoredSample(y, delta, x), t, censor)


# calibrate_censoring's rules, shared with SimulationConfig
_check_target = partial(_check_real, name="target censoring proportion", lo=0, hi=1, open_lo=True, open_hi=True)
_check_tolerance = partial(_check_real, name="calibration tolerance", lo=0, open_lo=True)


def calibrate_censoring(
    target_cp: float, tolerance: float = DEFAULT_CALIBRATION_TOLERANCE, seed=_DEFAULT_CALIBRATION_SEED,
    positive_only: bool = False,
) -> float:
    """Bisect the censoring shift c to a target censoring proportion.

    One fixed set of _DRAWS draws of generate_sample's process, positive_only
    included, is reused across bisection steps, so the Monte Carlo censoring
    proportion is monotone non-increasing in c and the bisection is well
    behaved. Raises CalibrationError when the tolerance is unattainable within
    _MAX_ITER steps (the estimate moves in steps of 1 / _DRAWS, so tolerances
    below that cannot be met). The margin T - 3 - z is formed in place in the
    buffer of T, so calibration holds about two arrays of _DRAWS floats.
    """
    target_cp, tolerance = _check_target(target_cp), _check_tolerance(tolerance)
    positive_only = _check_bool(positive_only, "positive_only")
    if not isinstance(seed, np.random.SeedSequence):
        seed = _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    margin = _draw_event_times(rng, _DRAWS, positive_only)[1]
    # T > C  <=>  (T - 3 - z) > c with C = 3 + c + z
    margin -= 3.0
    margin -= rng.standard_normal(_DRAWS)
    above = np.empty(_DRAWS, dtype=bool)
    lo, hi = -60.0, 60.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        cp = int(np.count_nonzero(np.greater(margin, mid, out=above))) / _DRAWS
        if abs(cp - target_cp) <= tolerance:
            return mid
        if cp > target_cp:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"could not reach censoring proportion {target_cp} within +/-{tolerance} "
        f"in {_MAX_ITER} bisection steps"
    )


def _check_outliers(count, multiplier, n: int):
    """count as an int in [0, n] and multiplier as a real number in (0, inf), or a ConfigError."""
    return _check_integer(count, "outlier count", 0, n), _check_real(multiplier, "outlier multiplier", 0, open_lo=True)


def inject_outliers(sample: CensoredSample, count: int, multiplier: float, seed) -> CensoredSample:
    """Scale `count` uniformly chosen responses by `multiplier`.

    Indices are drawn without replacement; delta and x are untouched.
    """
    count, multiplier = _check_outliers(count, multiplier, _check_sample(sample).n)
    if count == 0:
        return sample
    rng = np.random.default_rng(seed)
    idx = rng.choice(sample.n, size=count, replace=False)
    y = sample.y.copy()
    y[idx] = y[idx] * multiplier
    return CensoredSample(y, sample.delta, sample.x)


class ErrorMetrics(NamedTuple):
    sup_error: float | None
    mise: float | None
    degenerate_count: int


def error_metrics(curve: FittedCurve, reference) -> ErrorMetrics:
    """Sup error and trapezoidal integrated squared error against a reference.

    Degenerate grid points are excluded: the sup runs over non-degenerate
    points and the integral over segments whose two endpoints are both
    non-degenerate. When every point is degenerate the metrics are absent
    (None) and only the count is reported. An error whose square overflows
    (beyond about 1.3e154) makes the mise inf, never nan, and raises no numpy
    warning. reference is called once, on the grid array, and returns an
    array of its shape or a scalar.
    """
    _check_grid(_check_instance(curve, FittedCurve, "curve").grid)
    return _score(curve, np.broadcast_to(np.asarray(reference(curve.grid), dtype=float), curve.grid.shape))


def _score(curve: FittedCurve, ref: np.ndarray) -> ErrorMetrics:
    """error_metrics(curve, reference) with ref the reference on curve.grid, which is not checked again."""
    count = int(np.count_nonzero(curve.degenerate))
    if count == curve.degenerate.size:
        return ErrorMetrics(None, None, count)
    ok = ~curve.degenerate
    with np.errstate(over="ignore"):  # an overflow gives inf
        err = np.abs(curve.values - ref)
        e2 = err * err
        segments = 0.5 * (e2[:-1] + e2[1:]) * np.diff(curve.grid)
        # a segment with a degenerate end adds 0, also where its inf * 0 would be nan
        mise = float(np.sum(np.where(ok[:-1] & ok[1:], segments, 0.0)))
    return ErrorMetrics(float(err[ok].max()), mise, count)


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one replication study.

    Exactly one of target_cp (calibrated to a shift c at run start) and c
    (used as-is) must be given, and at most one of h (fixed bandwidth) and
    cv_grid (cross-validation per replication and estimator; the default
    when neither is given).
    """

    n: int
    replications: int
    seed: int
    estimators: tuple = (Estimator.LLRER,)
    target_cp: float | None = None
    c: float | None = None
    outlier_count: int = 0
    outlier_mc: float = 1.0
    grid: np.ndarray = field(default_factory=lambda: parse_grid_spec(DEFAULT_GRID_SPEC))
    kernel: KernelKind = _DEFAULT_KERNEL
    h: float | None = None
    cv_grid: BandwidthGrid | None = None
    positive_only: bool = False
    denominator_epsilon: float = DEFAULT_EPSILON
    calibration_tolerance: float = DEFAULT_CALIBRATION_TOLERANCE

    def __post_init__(self):
        for name, minimum in (("n", 1), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name, minimum))
        names = _check_collection(self.estimators, "estimators")
        ests = tuple(Estimator.from_name(e) if isinstance(e, str) else e for e in names)
        if not ests or not all(isinstance(e, Estimator) for e in ests):
            raise ConfigError(f"estimators must name at least one of llrer, llcr, cr, got {self.estimators!r}")
        if len(set(ests)) != len(ests):
            raise ConfigError("estimators must not repeat")
        object.__setattr__(self, "estimators", ests)
        if (self.target_cp is None) == (self.c is None):
            raise ConfigError("exactly one of target_cp and c is required")
        if self.target_cp is not None:
            object.__setattr__(self, "target_cp", _check_target(self.target_cp))
        else:
            object.__setattr__(self, "c", _check_real(self.c, "c"))
        count, multiplier = _check_outliers(self.outlier_count, self.outlier_mc, self.n)
        object.__setattr__(self, "outlier_count", count)
        object.__setattr__(self, "outlier_mc", multiplier)
        grid = _check_grid(self.grid)
        if not np.all(np.isfinite(grid)):
            raise ConfigError("evaluation grid must be finite")
        theoretical_curve(grid)  # every replication's metrics need it defined on the grid
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if isinstance(self.kernel, str):
            object.__setattr__(self, "kernel", KernelKind.from_name(self.kernel))
        _check_kernel(self.kernel)
        if self.h is not None and self.cv_grid is not None:
            raise ConfigError("give a fixed h or a cv_grid, not both")
        if self.h is not None:
            object.__setattr__(self, "h", _check_bandwidth(self.h))
        elif self.n < 2:
            raise ConfigError(f"cross-validation needs n >= 2, got n = {self.n}; give a fixed h")
        elif self.cv_grid is None:
            object.__setattr__(self, "cv_grid", DEFAULT_BANDWIDTH_GRID)
        else:
            _check_instance(self.cv_grid, BandwidthGrid, "cv_grid")
        object.__setattr__(self, "positive_only", _check_bool(self.positive_only, "positive_only"))
        object.__setattr__(self, "denominator_epsilon", _check_epsilon(self.denominator_epsilon))
        object.__setattr__(self, "calibration_tolerance", _check_tolerance(self.calibration_tolerance))


@dataclass(frozen=True)
class ReplicationResult:
    """Curves, bandwidths and metrics of one replication (or its failure)."""

    rep: int
    realized_cp: float
    nonpositive_uncensored: int
    h_used: dict
    curves: dict
    metrics: dict
    error: str | None = None


@dataclass(frozen=True)
class SimulationReport:
    """All replication results plus the resolved censoring shift."""

    config: SimulationConfig
    c: float
    results: tuple

    def failures(self) -> list:
        return [r for r in self.results if r.error is not None]

    def summary_rows(self) -> list:
        """Aggregate rows (estimator, metric, median, q1, q3) across replications."""
        rows = []
        for est in self.config.estimators:
            for metric in ("sup_error", "mise", "degenerate_count"):
                vals = [
                    getattr(r.metrics[est], metric)
                    for r in self.results
                    if r.error is None and est in r.metrics and getattr(r.metrics[est], metric) is not None
                ]
                if not vals:
                    continue
                q1, med, q3 = _quartiles(vals)
                rows.append((est.value, metric, float(med), float(q1), float(q3)))
        return rows


def _quartiles(vals) -> list:
    """[q1, median, q3] of vals by np.percentile's linear interpolation, bit for bit where numpy gives no
    nan. Between a value and inf, where numpy's inf - inf gives nan, a quartile is inf, or that value at
    its exact position."""
    v = np.sort(np.asarray(vals, dtype=float))
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = (v.size - 1) * q
        lo = int(pos)
        a, b, t = v[lo], v[min(lo + 1, v.size - 1)], pos - lo
        if b == np.inf:
            out.append(a if t == 0.0 else b)
        else:  # numpy's lerp, from the nearer end
            out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))
    return out


def _replication_seed(master: int, rep: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(1, rep, stream))


def _run_replication(config: SimulationConfig, c: float, rep: int) -> ReplicationResult:
    gen = generate_sample(config.n, c, _replication_seed(config.seed, rep, 0), config.positive_only)
    sample = gen.sample
    if config.outlier_count:
        sample = inject_outliers(
            sample, config.outlier_count, config.outlier_mc, _replication_seed(config.seed, rep, 1)
        )
    with warnings.catch_warnings():
        # the per-replication non-positive count already reports this
        warnings.simplefilter("ignore", NonPositiveResponseWarning)
        h_used = dict.fromkeys(config.estimators, config.h)
        if config.h is None:
            selections = select_bandwidths(
                config.estimators, sample, config.kernel, config.cv_grid, config.denominator_epsilon
            )
            h_used = {est: float(selection.h_opt) for est, selection in selections.items()}
        configs = {est: EstimatorConfig(h, config.kernel, config.denominator_epsilon) for est, h in h_used.items()}
        curves = fit_curves(configs, sample, config.grid)
    ref = theoretical_curve(config.grid)
    metrics = {est: _score(curves[est], ref) for est in config.estimators}
    return ReplicationResult(rep, gen.realized_cp, gen.nonpositive_uncensored, h_used, curves, metrics)


def _replication_task(args) -> ReplicationResult:
    config, c, rep = args
    try:
        return _run_replication(config, c, rep)
    except Exception as exc:  # recorded, never fatal to the run
        return ReplicationResult(rep, float("nan"), 0, {}, {}, {}, error=f"{type(exc).__name__}: {exc}")


def monte_carlo_run(config: SimulationConfig, jobs: int = 1) -> SimulationReport:
    """Run the full replication study; deterministic given config.seed.

    Replications use independent derived seeds, so the output is identical
    for any jobs >= 1; jobs > 1 runs them in at most min(jobs, replications,
    CPU count) worker processes.
    """
    _check_instance(config, SimulationConfig, "config")
    jobs = _check_integer(jobs, "jobs", 1)
    if config.c is not None:
        c = config.c
    else:
        c = calibrate_censoring(
            config.target_cp,
            config.calibration_tolerance,
            seed=np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)),
            positive_only=config.positive_only,
        )
    tasks = [(config, c, rep) for rep in range(config.replications)]
    workers = min(jobs, config.replications, os.cpu_count() or 1)
    if workers <= 1:
        results = [_replication_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_task, tasks))
    return SimulationReport(config, c, tuple(results))


def write_curves_csv(report: SimulationReport, path) -> None:
    """Per-replication curves on the config's grid as CSV rep,estimator,x,estimate,degenerate."""
    _check_instance(report, SimulationReport, "report")
    xs = [repr(x) for x in report.config.grid.tolist()]  # formatted once for every curve
    rows = chain.from_iterable(
        _curve_rows(r.curves[est], xs, str(r.rep), est.value)
        for r in report.results if r.error is None for est in report.config.estimators
    )
    _write_csv(path, ("rep", "estimator", "x", "estimate", "degenerate"), rows)


def write_summary_csv(report: SimulationReport, path) -> None:
    """Aggregate metrics as CSV estimator,metric,median,q1,q3."""
    _check_instance(report, SimulationReport, "report")
    rows = ((est, metric, *map(repr, quartiles)) for est, metric, *quartiles in report.summary_rows())
    _write_csv(path, ("estimator", "metric", "median", "q1", "q3"), rows)


def parse_grid_spec(spec: str) -> np.ndarray:
    """Parse an evaluation-grid spec lo:hi:count into a linspace array."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec must be lo:hi:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid spec must be lo:hi:count, got {spec!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"grid needs finite lo and hi, got {spec!r}")
    if count == 1 and hi != lo:
        raise ConfigError("a single-point grid needs lo == hi")
    return _check_grid(np.linspace(lo, hi, max(count, 0)))  # a count < 0 gives an empty grid


def _grid_spec(grid: np.ndarray) -> str:
    spec = f"{float(grid[0])!r}:{float(grid[-1])!r}:{grid.size}"
    if not np.array_equal(parse_grid_spec(spec), grid):
        raise ConfigError("a config file holds only lo:hi:count linspace grids")
    return spec


def _parse_bool(word: str) -> bool:
    word = word.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a truth value: {word!r}")


def _show_float(value) -> str:
    return repr(float(value))


class _Key(NamedTuple):
    """A config-file key: how to parse its text and how to print its value.
    It sets the field of its name, or with a `part` that attribute of cv_grid."""

    name: str
    parse: Callable[[str], object]
    show: Callable[[object], str] = str
    part: str | None = None


_KEYS = (
    _Key("n", int),
    _Key("replications", int),
    _Key("seed", int),
    _Key(
        "estimators",
        lambda text: tuple(Estimator.from_name(tok) for tok in text.split(",") if tok.strip()),
        lambda ests: ",".join(e.value for e in ests),
    ),
    _Key("target_cp", float, _show_float),
    _Key("c", float, _show_float),
    _Key("kernel", KernelKind.from_name, lambda kernel: kernel.value),
    _Key("grid", parse_grid_spec, _grid_spec),
    _Key("outlier_count", int),
    _Key("outlier_mc", float, _show_float),
    _Key("h", float, _show_float),
    _Key("h_lo", float, _show_float, "lo"),
    _Key("h_hi", float, _show_float, "hi"),
    _Key("h_step", float, _show_float, "step"),
    _Key("positive_only", _parse_bool, lambda flag: str(flag).lower()),
    _Key("denominator_epsilon", float, _show_float),
    _Key("calibration_tolerance", float, _show_float),
)


def config_lines(config: SimulationConfig) -> list:
    """Print a config as the `key = value` lines that load_simulation_config
    reads back to an equal config; keys whose value is None are left out.
    Raises ConfigError for a grid that no lo:hi:count spec reproduces."""
    _check_instance(config, SimulationConfig, "config")
    lines = []
    for key in _KEYS:
        value = getattr(config.cv_grid, key.part, None) if key.part else getattr(config, key.name)
        if value is not None:
            lines.append(f"{key.name} = {key.show(value)}")
    return lines


def load_simulation_config(path) -> SimulationConfig:
    """Parse a plain-text `key = value` config file into a SimulationConfig.

    Blank lines and text after `#` are ignored. The keys are those of
    `_KEYS`; a cv_grid given in parts takes its missing parts from
    DEFAULT_BANDWIDTH_GRID. Required keys are the fields without a default.
    """
    known = {key.name: key for key in _KEYS}
    kwargs, cv_parts = {}, {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, sep, text = (part.strip() for part in line.partition("="))
            if not sep or not name or not text:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            key = known.get(name)
            if key is None:
                raise ConfigError(f"{path}: line {lineno}: unknown key {name!r}")
            target, slot = (cv_parts, key.part) if key.part else (kwargs, name)
            if slot in target:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {name!r}")
            try:
                target[slot] = key.parse(text)
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: bad value for {name!r}: {exc}") from None
    for f in fields(SimulationConfig):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in kwargs:
            raise ConfigError(f"{path}: missing required key {f.name!r}")
    try:
        if cv_parts:
            kwargs["cv_grid"] = replace(DEFAULT_BANDWIDTH_GRID, **cv_parts)
        return SimulationConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
