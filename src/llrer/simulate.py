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

import csv
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bandwidth import DEFAULT_BANDWIDTH_GRID, BandwidthGrid, select_bandwidths
from .errors import CalibrationError, ConfigError
from .kernels import KernelKind
from .loclin import DEFAULT_EPSILON, Estimator, EstimatorConfig, FittedCurve, fit_curve
from .survival import CensoredSample, NonPositiveResponseWarning


def theoretical_curve(x):
    """Reference relative-error regression curve of the built-in process."""
    x_arr = np.asarray(x, dtype=float)
    m = 2.0 * x_arr + 1.0
    if np.any(m == 0.0):
        raise ConfigError("theoretical curve undefined at x = -0.5")
    out = m + 0.04 / m
    return float(out) if x_arr.ndim == 0 else out


def ratio_second_order(mu1: float, mu2: float, v1: float, v2: float, v12: float, n: int) -> float:
    """Second-order approximation to the mean of a ratio of sample means.

    v1 is accepted for interface symmetry; the expansion uses only the
    denominator variance and the cross covariance.
    """
    if mu2 == 0.0:
        raise ConfigError("mu2 must be nonzero")
    if n < 1:
        raise ConfigError("n must be >= 1")
    return mu1 / mu2 + (mu1 * v2 / mu2**3 - v12 / mu2**2) / n


@dataclass(frozen=True)
class GeneratedSample:
    """A generated censored sample plus the latent times for diagnostics."""

    sample: CensoredSample
    event_times: np.ndarray
    censor_times: np.ndarray

    @property
    def realized_cp(self) -> float:
        """Fraction of censored observations (delta = 0)."""
        return float(np.mean(self.sample.delta == 0))

    @property
    def nonpositive_uncensored(self) -> int:
        return int(np.sum((self.sample.delta == 1) & (self.sample.y <= 0.0)))


def generate_sample(n: int, c: float, seed, positive_only: bool = False) -> GeneratedSample:
    """Draw one sample of the built-in process; deterministic given seed."""
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    t = 2.0 * x + 1.0 + 0.2 * noise
    if positive_only:
        bad = np.flatnonzero(t <= 0.0)
        while bad.size:
            x[bad] = rng.standard_normal(bad.size)
            noise[bad] = rng.standard_normal(bad.size)
            t[bad] = 2.0 * x[bad] + 1.0 + 0.2 * noise[bad]
            bad = bad[t[bad] <= 0.0]
    censor = 3.0 + c + rng.standard_normal(n)
    y = np.minimum(t, censor)
    delta = (t <= censor).astype(int)
    return GeneratedSample(CensoredSample(y, delta, x), t, censor)


def calibrate_censoring(
    target_cp: float,
    tolerance: float = 0.005,
    seed=0,
    draws: int = 1_000_000,
    max_iter: int = 200,
) -> float:
    """Bisect the censoring shift c to a target censoring proportion.

    One fixed set of draws is reused across bisection steps, so the Monte
    Carlo censoring proportion is monotone non-increasing in c and the
    bisection is well behaved. Raises CalibrationError when the tolerance is
    unattainable within the iteration budget (with 1e6 draws the estimate
    moves in steps of 1e-6, so tolerances below that cannot be met).
    """
    if not 0.0 < target_cp < 1.0:
        raise ConfigError(f"target censoring proportion must be in (0, 1), got {target_cp}")
    if tolerance <= 0.0:
        raise ConfigError(f"tolerance must be > 0, got {tolerance}")
    if draws < 1_000_000:
        raise ConfigError(f"calibration needs at least 1e6 draws, got {draws}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(draws)
    noise = rng.standard_normal(draws)
    z = rng.standard_normal(draws)
    # T > C  <=>  (T - 3 - z) > c with C = 3 + c + z
    margin = 2.0 * x + 1.0 + 0.2 * noise - 3.0 - z
    lo, hi = -60.0, 60.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        cp = float(np.mean(margin > mid))
        if abs(cp - target_cp) <= tolerance:
            return mid
        if cp > target_cp:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"could not reach censoring proportion {target_cp} within +/-{tolerance} "
        f"in {max_iter} bisection steps"
    )


def inject_outliers(sample: CensoredSample, count: int, multiplier: float, seed) -> CensoredSample:
    """Scale `count` uniformly chosen responses by `multiplier`.

    Indices are drawn without replacement; delta and x are untouched.
    """
    if not 0 <= count <= sample.n:
        raise ConfigError(f"outlier count must be in [0, n], got {count} with n={sample.n}")
    if not np.isfinite(multiplier) or multiplier <= 0.0:
        raise ConfigError(f"outlier multiplier must be a positive real, got {multiplier!r}")
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
    (None) and only the count is reported.
    """
    if curve.grid.size == 0:
        raise ConfigError("curve grid is empty")
    ref = np.array([float(reference(float(xx))) for xx in curve.grid])
    ok = ~curve.degenerate
    count = int(curve.degenerate.sum())
    if not ok.any():
        return ErrorMetrics(None, None, count)
    err = np.abs(curve.values - ref)
    sup = float(err[ok].max())
    e2 = err * err
    both = ok[:-1] & ok[1:]
    widths = np.diff(curve.grid)
    mise = float(np.sum(0.5 * (e2[:-1] + e2[1:]) * widths * both))
    return ErrorMetrics(sup, mise, count)


def _default_grid() -> np.ndarray:
    return np.linspace(1.0, 4.0, 61)


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
    grid: np.ndarray = field(default_factory=_default_grid)
    kernel: KernelKind = KernelKind.GAUSSIAN
    h: float | None = None
    cv_grid: BandwidthGrid | None = None
    positive_only: bool = False
    denominator_epsilon: float = DEFAULT_EPSILON
    calibration_tolerance: float = 0.005

    def __post_init__(self):
        if int(self.n) < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if int(self.replications) < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        ests = tuple(Estimator.from_name(e) if isinstance(e, str) else e for e in self.estimators)
        if not ests or not all(isinstance(e, Estimator) for e in ests):
            raise ConfigError(f"estimators must name at least one of llrer, llcr, cr, got {self.estimators!r}")
        if len(set(ests)) != len(ests):
            raise ConfigError("estimators must not repeat")
        object.__setattr__(self, "estimators", ests)
        if (self.target_cp is None) == (self.c is None):
            raise ConfigError("exactly one of target_cp and c is required")
        if self.target_cp is not None and not 0.0 < float(self.target_cp) < 1.0:
            raise ConfigError(f"target_cp must be in (0, 1), got {self.target_cp}")
        if not 0 <= int(self.outlier_count) <= self.n:
            raise ConfigError(f"outlier_count must be in [0, n], got {self.outlier_count}")
        object.__setattr__(self, "outlier_count", int(self.outlier_count))
        if not np.isfinite(self.outlier_mc) or self.outlier_mc <= 0.0:
            raise ConfigError(f"outlier_mc must be a positive real, got {self.outlier_mc!r}")
        grid = np.array(self.grid, dtype=float, ndmin=1)
        if grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ConfigError("grid must be non-empty and strictly ascending")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if isinstance(self.kernel, str):
            object.__setattr__(self, "kernel", KernelKind.from_name(self.kernel))
        if not isinstance(self.kernel, KernelKind):
            raise ConfigError(f"kernel must be a KernelKind, got {self.kernel!r}")
        if self.h is not None and self.cv_grid is not None:
            raise ConfigError("give a fixed h or a cv_grid, not both")
        if self.h is not None:
            if not np.isfinite(self.h) or float(self.h) <= 0.0:
                raise ConfigError(f"fixed bandwidth h must satisfy h > 0, got {self.h!r}")
            object.__setattr__(self, "h", float(self.h))
        elif self.cv_grid is None:
            object.__setattr__(self, "cv_grid", DEFAULT_BANDWIDTH_GRID)
        if self.denominator_epsilon < 0.0:
            raise ConfigError("denominator_epsilon must be >= 0")
        if self.calibration_tolerance <= 0.0:
            raise ConfigError("calibration_tolerance must be > 0")


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
                q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
                rows.append((est.value, metric, float(med), float(q1), float(q3)))
        return rows


def _replication_seed(master: int, rep: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(1, rep, stream))


def _run_replication(config: SimulationConfig, c: float, rep: int) -> ReplicationResult:
    gen = generate_sample(config.n, c, _replication_seed(config.seed, rep, 0), config.positive_only)
    sample = gen.sample
    if config.outlier_count:
        sample = inject_outliers(
            sample, config.outlier_count, config.outlier_mc, _replication_seed(config.seed, rep, 1)
        )
    h_used, curves, metrics = {}, {}, {}
    with warnings.catch_warnings():
        # the per-replication non-positive count already reports this
        warnings.simplefilter("ignore", NonPositiveResponseWarning)
        if config.h is None:
            selections = select_bandwidths(
                config.estimators, sample, config.kernel, config.cv_grid, config.denominator_epsilon
            )
        for est in config.estimators:
            h = config.h if config.h is not None else selections[est].h_opt
            est_config = EstimatorConfig(h, config.kernel, config.denominator_epsilon)
            curve = fit_curve(est, sample, est_config, config.grid)
            h_used[est] = float(h)
            curves[est] = curve
            metrics[est] = error_metrics(curve, theoretical_curve)
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
    if config.c is not None:
        c = float(config.c)
    else:
        c = calibrate_censoring(
            config.target_cp,
            config.calibration_tolerance,
            seed=np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)),
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
    """Per-replication curves as CSV rep,estimator,x,estimate,degenerate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "estimator", "x", "estimate", "degenerate"])
        for result in report.results:
            if result.error is not None:
                continue
            for est in report.config.estimators:
                curve = result.curves[est]
                for x, v, flag in zip(curve.grid, curve.values, curve.degenerate):
                    writer.writerow([result.rep, est.value, repr(float(x)), repr(float(v)), int(flag)])


def write_summary_csv(report: SimulationReport, path) -> None:
    """Aggregate metrics as CSV estimator,metric,median,q1,q3."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "metric", "median", "q1", "q3"])
        for est, metric, med, q1, q3 in report.summary_rows():
            writer.writerow([est, metric, repr(med), repr(q1), repr(q3)])


_CONFIG_KEYS = (
    "n",
    "replications",
    "seed",
    "estimators",
    "target_cp",
    "c",
    "outlier_count",
    "outlier_mc",
    "grid",
    "kernel",
    "h",
    "h_lo",
    "h_hi",
    "h_step",
    "positive_only",
    "denominator_epsilon",
    "calibration_tolerance",
)

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


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
    if count < 1:
        raise ConfigError(f"grid must contain at least one point, got {count}")
    if count == 1:
        if hi != lo:
            raise ConfigError("a single-point grid needs lo == hi")
        return np.array([lo])
    if hi <= lo:
        raise ConfigError(f"grid needs hi > lo, got {spec!r}")
    return np.linspace(lo, hi, count)


def load_simulation_config(path) -> SimulationConfig:
    """Parse a plain-text `key = value` config file into a SimulationConfig.

    Blank lines and text after `#` are ignored; keys mirror the
    SimulationConfig fields, with the bandwidth policy spelled either as
    `h = <float>` or as `h_lo`/`h_hi`/`h_step`.
    """
    entries: dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
            entries[key] = value

    def pull(key, conv):
        if key not in entries:
            return None
        try:
            return conv(entries[key])
        except (ValueError, TypeError):
            raise ConfigError(f"{path}: bad value for {key!r}: {entries[key]!r}") from None

    def parse_bool(word):
        word = word.strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(word)

    for key in ("n", "replications", "seed"):
        if key not in entries:
            raise ConfigError(f"{path}: missing required key {key!r}")

    kwargs = {
        "n": pull("n", int),
        "replications": pull("replications", int),
        "seed": pull("seed", int),
        "target_cp": pull("target_cp", float),
        "c": pull("c", float),
        "h": pull("h", float),
    }
    if "estimators" in entries:
        kwargs["estimators"] = tuple(
            Estimator.from_name(tok) for tok in entries["estimators"].split(",") if tok.strip()
        )
    if "grid" in entries:
        kwargs["grid"] = parse_grid_spec(entries["grid"])
    if "kernel" in entries:
        kwargs["kernel"] = KernelKind.from_name(entries["kernel"])
    if "outlier_count" in entries:
        kwargs["outlier_count"] = pull("outlier_count", int)
    if "outlier_mc" in entries:
        kwargs["outlier_mc"] = pull("outlier_mc", float)
    if "positive_only" in entries:
        kwargs["positive_only"] = pull("positive_only", parse_bool)
    if "denominator_epsilon" in entries:
        kwargs["denominator_epsilon"] = pull("denominator_epsilon", float)
    if "calibration_tolerance" in entries:
        kwargs["calibration_tolerance"] = pull("calibration_tolerance", float)

    cv_keys = [k for k in ("h_lo", "h_hi", "h_step") if k in entries]
    if cv_keys:
        if kwargs["h"] is not None:
            raise ConfigError(f"{path}: give h or h_lo/h_hi/h_step, not both")
        kwargs["cv_grid"] = BandwidthGrid(
            pull("h_lo", float) if "h_lo" in entries else DEFAULT_BANDWIDTH_GRID.lo,
            pull("h_hi", float) if "h_hi" in entries else DEFAULT_BANDWIDTH_GRID.hi,
            pull("h_step", float) if "h_step" in entries else DEFAULT_BANDWIDTH_GRID.step,
        )
    return SimulationConfig(**kwargs)
