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
numpy SeedSequence spawn keys, (1, r, 0) for the data of replication r and
(1, r, 1) for its outlier selection, so any replication can be reproduced in
isolation and replications can run in any order or in parallel without
changing the output. Calibration is exact and draws nothing; the key (0,)
that once seeded it stays reserved, so the data keys do not move.

Replications run in blocks of at most _REPLICATION_BLOCK, which bounds what
a block holds at once. Each replication of a block draws its data and, with
no fixed h, selects its bandwidths alone; the rest of the work is shared:
one loclin._fit_rows call fits every curve of the block, over one stacked
Kaplan-Meier pass, and one _scores call per estimator gives the error
metrics. Each row of that work is computed as a block of one would compute
it, so the outputs do not depend on the block size or on the number of
worker processes. A replication that fails, in its own steps or in the
shared fit, is recorded alone and the run goes on.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .bandwidth import DEFAULT_BANDWIDTH_GRID, _MAX_GRID_SIZE, BandwidthGrid, select_bandwidths
from .errors import ConfigError, _check_bool, _check_collection, _check_instance, _check_integer, _check_real
from .kernels import _DEFAULT_KERNEL, KernelKind, _check_bandwidth, _check_kernel
from .loclin import (
    DEFAULT_EPSILON, Estimator, EstimatorConfig, FittedCurve, _check_epsilon, _check_grid, _curve_rows, _fit_rows
)
from .survival import CensoredSample, NonPositiveResponseWarning, _check_sample, _read_text, _write_csv

__all__ = [
    "DEFAULT_CALIBRATION_TOLERANCE", "DEFAULT_GRID_SPEC", "ErrorMetrics", "GeneratedSample", "ReplicationResult",
    "SimulationConfig", "SimulationReport", "calibrate_censoring", "config_lines", "error_metrics", "generate_sample",
    "inject_outliers", "load_simulation_config", "monte_carlo_run", "parse_grid_spec", "theoretical_curve",
    "write_curves_csv", "write_summary_csv",
]

DEFAULT_GRID_SPEC = "1:4:61"
DEFAULT_CALIBRATION_TOLERANCE = 0.005


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


def _check_seed(seed):
    """seed, or a ConfigError unless it is an integer >= 0 or a numpy SeedSequence."""
    return seed if isinstance(seed, np.random.SeedSequence) else _check_integer(seed, "seed", 0)


def generate_sample(n: int, c: float, seed, positive_only: bool = False) -> GeneratedSample:
    """Draw one sample of the built-in process, deterministic given seed; positive_only redraws (X, e) where T <= 0."""
    n = _check_integer(n, "n", 1)
    c = _check_real(c, "c")
    positive_only = _check_bool(positive_only, "positive_only")
    rng = np.random.default_rng(_check_seed(seed))
    x = rng.standard_normal(n)
    t = 2.0 * x + 1.0 + 0.2 * rng.standard_normal(n)
    if positive_only:
        bad = np.flatnonzero(t <= 0.0)
        while bad.size:
            x[bad] = rng.standard_normal(bad.size)
            t[bad] = 2.0 * x[bad] + 1.0 + 0.2 * rng.standard_normal(bad.size)
            bad = bad[t[bad] <= 0.0]
    censor = 3.0 + c + rng.standard_normal(n)
    y = np.minimum(t, censor)
    delta = (t <= censor).astype(int)
    return GeneratedSample(CensoredSample(y, delta, x), t, censor)


# calibrate_censoring's rules, shared with SimulationConfig
_check_target = partial(_check_real, name="target censoring proportion", lo=0, hi=1, open_lo=True, open_hi=True)
_check_tolerance = partial(_check_real, name="calibration tolerance", lo=0, open_lo=True)


@cache
def _positive_event_nodes():
    """64 Gauss-Legendre nodes t on [0, 1 + 12 sd] for T ~ N(1, sd^2 = 4.04), and their weights times
    its density, up to a factor that cancels in _censored_fraction."""
    u, w = np.polynomial.legendre.leggauss(64)
    t = (0.5 + 6.0 * math.sqrt(4.04)) * (u + 1.0)
    return tuple(t.tolist()), tuple((w * np.exp((t - 1.0) ** 2 / -8.08)).tolist())


def _censored_fraction(c: float, positive_only: bool) -> float:
    """The exact P(T > C) of the built-in process at shift c, where T - C is N(-2 - c, 5.04); with
    positive_only, P(T > C | T > 0), the mean of P(C < T) over T ~ N(1, 4.04) cut at 0."""
    if not positive_only:
        return 0.5 * math.erfc((2.0 + c) / math.sqrt(10.08))
    t, mass = _positive_event_nodes()
    # fsum rounds the exact sum, so each sum is monotone in its terms and the proportion in c
    return math.fsum(m * 0.5 * math.erfc((3.0 + c - s) / math.sqrt(2.0)) for s, m in zip(t, mass)) / math.fsum(mass)


def calibrate_censoring(
    target_cp: float, tolerance: float = DEFAULT_CALIBRATION_TOLERANCE, seed=0, positive_only: bool = False,
) -> float:
    """The censoring shift c at which generate_sample's process, positive_only included, censors the
    target proportion exactly: a bisection in c over [-100, 100] to a width of 1e-12 inverts
    _censored_fraction. tolerance and seed are checked but do not change c; they stay so that calls
    written for the earlier Monte Carlo calibration keep working."""
    target_cp = _check_target(target_cp)
    _check_tolerance(tolerance)
    positive_only = _check_bool(positive_only, "positive_only")
    _check_seed(seed)
    lo, hi = -100.0, 100.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _censored_fraction(mid, positive_only) > target_cp:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_outliers(count, multiplier, n: int):
    """count as an int in [0, n] and multiplier as a real number in (0, inf), or a ConfigError."""
    return _check_integer(count, "outlier count", 0, n), _check_real(multiplier, "outlier multiplier", 0, open_lo=True)


def inject_outliers(sample: CensoredSample, count: int, multiplier: float, seed) -> CensoredSample:
    """Scale `count` uniformly chosen responses by `multiplier`.

    Indices are drawn without replacement; delta and x are untouched.
    """
    count, multiplier = _check_outliers(count, multiplier, _check_sample(sample).n)
    seed = _check_seed(seed)
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
    array of its shape or a scalar; any other shape is a ConfigError.
    """
    grid = _check_grid(_check_instance(curve, FittedCurve, "curve").grid)
    ref = np.asarray(reference(curve.grid), dtype=float)
    if ref.shape not in ((), grid.shape):
        name = getattr(reference, "__name__", repr(reference))
        raise ConfigError(f"reference {name} must return a scalar or an array of shape {grid.shape}, "
                          f"got shape {ref.shape}")
    return _scores(curve.values[None], curve.degenerate[None], grid, ref)[0]


def _scores(values: np.ndarray, degenerate: np.ndarray, grid: np.ndarray, ref: np.ndarray) -> list:
    """[error_metrics of each row of values and degenerate flags on grid], with ref the reference on the
    grid or a scalar; nothing is checked again. Each row's arithmetic is its own, so its metrics are the
    same bits whichever rows the call holds."""
    count = np.count_nonzero(degenerate, axis=-1).tolist()
    ok = ~degenerate
    with np.errstate(over="ignore"):  # an overflow gives inf
        err = np.abs(values - ref)
        e2 = err * err
        segments = 0.5 * (e2[:, :-1] + e2[:, 1:]) * np.diff(grid)
        # a segment with a degenerate end adds 0, also where its inf * 0 would be nan
        mise = np.sum(np.where(ok[:, :-1] & ok[:, 1:], segments, 0.0), axis=-1).tolist()
    sup = np.max(np.where(ok, err, -np.inf), axis=-1).tolist()
    return [ErrorMetrics(None, None, k) if k == grid.size else ErrorMetrics(e, m, k)
            for e, m, k in zip(sup, mise, count)]


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


def _draw_replication(config: SimulationConfig, c: float, rep: int) -> tuple:
    """(realized censoring, non-positive uncensored count, the sample the curves fit, {estimator:
    bandwidth}) of replication rep: its data from spawn key (1, rep, 0), its outliers from (1, rep, 1),
    and its bandwidths by cross-validation unless config.h is fixed."""
    gen = generate_sample(config.n, c, _replication_seed(config.seed, rep, 0), config.positive_only)
    sample = gen.sample
    if config.outlier_count:
        sample = inject_outliers(
            sample, config.outlier_count, config.outlier_mc, _replication_seed(config.seed, rep, 1)
        )
    h_used = dict.fromkeys(config.estimators, config.h)
    if config.h is None:
        selections = select_bandwidths(
            config.estimators, sample, config.kernel, config.cv_grid, config.denominator_epsilon
        )
        h_used = {est: float(selection.h_opt) for est, selection in selections.items()}
    return gen.realized_cp, gen.nonpositive_uncensored, sample, h_used


def _failed(rep: int, exc: Exception) -> ReplicationResult:
    return ReplicationResult(rep, float("nan"), 0, {}, {}, {}, error=f"{type(exc).__name__}: {exc}")


# Replications whose curves one block fits together. A block stacks its
# samples, synthetic responses, sums and curves, so this bounds the memory a
# block holds beyond one replication's
_REPLICATION_BLOCK = 16


def _run_block(config: SimulationConfig, c: float, reps) -> list:
    """The ReplicationResults of reps, one block of replications.

    Each replication draws its data and selects its bandwidths alone, and a failure there is recorded
    for it alone. The rest share one _fit_rows call, whose per-row DataErrors are recorded per
    replication too, and one _scores call per estimator. A failure of the shared steps is recorded for
    each of their replications. Never raises.
    """
    results, drawn = {}, {}
    with warnings.catch_warnings():
        # the per-replication non-positive count already reports this
        warnings.simplefilter("ignore", NonPositiveResponseWarning)
        for rep in reps:
            try:
                drawn[rep] = _draw_replication(config, c, rep)
            except Exception as exc:  # recorded, never fatal to the run
                results[rep] = _failed(rep, exc)
        if drawn:
            try:
                results.update(_fit_block(config, drawn))
            except Exception as exc:  # recorded, never fatal to the run
                results.update((rep, _failed(rep, exc)) for rep in drawn)
    return [results[rep] for rep in reps]


def _fit_block(config: SimulationConfig, drawn: dict) -> dict:
    """{rep: ReplicationResult} of the replications drawn = {rep: _draw_replication(config, c, rep)}."""
    configs = [
        {est: EstimatorConfig(h, config.kernel, config.denominator_epsilon) for est, h in h_used.items()}
        for *_, h_used in drawn.values()
    ]
    faults, fits = _fit_rows(configs, [sample for *_, sample, _ in drawn.values()], config.grid)
    ref = theoretical_curve(config.grid)
    metrics = {est: _scores(values, degenerate, config.grid, ref) for est, (values, degenerate) in fits.items()}
    out, row = {}, 0
    for (rep, (cp, nonpositive, _, h_used)), fault in zip(drawn.items(), faults):
        if fault is not None:
            out[rep] = _failed(rep, fault)
            continue
        curves = {est: FittedCurve(config.grid, values[row], flags[row]) for est, (values, flags) in fits.items()}
        scores = {est: metrics[est][row] for est in fits}
        out[rep] = ReplicationResult(rep, cp, nonpositive, h_used, curves, scores)
        row += 1
    return out


def monte_carlo_run(config: SimulationConfig, jobs: int = 1) -> SimulationReport:
    """Run the full replication study; deterministic given config.seed.

    Replications use independent derived seeds and go in blocks of at most _REPLICATION_BLOCK, and a
    replication's outputs do not depend on its block, so the output is identical for any jobs >= 1;
    jobs > 1 runs the blocks in at most min(jobs, replications, CPU count) worker processes, with
    blocks of at most a quarter of a worker's share, or of one replication.
    """
    _check_instance(config, SimulationConfig, "config")
    jobs = _check_integer(jobs, "jobs", 1)
    if config.c is not None:
        c = config.c
    else:
        c = calibrate_censoring(config.target_cp, positive_only=config.positive_only)
    workers = min(jobs, config.replications, os.cpu_count() or 1)
    size = _REPLICATION_BLOCK
    if workers > 1:  # at least four blocks per worker where there are enough replications, for an even load
        size = max(1, min(size, config.replications // (4 * workers)))
    blocks = [range(lo, min(lo + size, config.replications)) for lo in range(0, config.replications, size)]
    run = partial(_run_block, config, c)
    if workers <= 1:
        results = map(run, blocks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # here, so a run without workers never imports it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    return SimulationReport(config, c, tuple(chain.from_iterable(results)))


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
    count = _check_integer(count, "evaluation grid size", 1, _MAX_GRID_SIZE)
    if count == 1 and hi != lo:
        raise ConfigError("a single-point grid needs lo == hi")
    return _check_grid(np.linspace(lo, hi, count))


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

    The file is UTF-8 text, after a byte-order mark if one leads it
    (survival._read_text). Blank lines and text after `#` are ignored. The
    keys are those of `_KEYS`; a cv_grid given in parts takes its missing
    parts from DEFAULT_BANDWIDTH_GRID. Required keys are the fields without
    a default.
    """
    known = {key.name: key for key in _KEYS}
    kwargs, cv_parts = {}, {}
    for lineno, raw in enumerate(_read_text(path, ConfigError, lambda fh: fh.readlines()), start=1):
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
