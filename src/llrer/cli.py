"""Command-line entry point: estimation, bandwidth selection, simulation
campaigns and censoring calibration with file-based I/O.

Exit codes are a stable contract: 0 success, 2 input data error, 3
configuration error, 4 I/O error (unwritable outputs). All randomness flows
from a seed: the --seed flag for calibrate, the config file's seed (or the
--seed override) for simulate; estimation and bandwidth selection are
deterministic and take none.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import __version__
from .bandwidth import DEFAULT_BANDWIDTH_GRID, BandwidthGrid, select_bandwidth, write_cv_trace_csv
from .errors import CalibrationError, ConfigError, DataError
from .kernels import KernelKind
from .loclin import Estimator, EstimatorConfig, fit_curve, write_curve_csv
from .simulate import (
    calibrate_censoring,
    load_simulation_config,
    monte_carlo_run,
    parse_grid_spec,
    write_curves_csv,
    write_summary_csv,
)
from .survival import read_sample_csv

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with the configuration-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_estimator_flags(parser):
    parser.add_argument("--estimator", required=True, choices=[e.value for e in Estimator])
    parser.add_argument("--kernel", default="gaussian", choices=[k.value for k in KernelKind])


def _add_cv_grid_flags(parser):
    grid = DEFAULT_BANDWIDTH_GRID
    parser.add_argument("--h-lo", type=float, default=grid.lo, help=f"bandwidth grid start (default {grid.lo})")
    parser.add_argument("--h-hi", type=float, default=grid.hi, help=f"bandwidth grid end (default {grid.hi})")
    parser.add_argument("--h-step", type=float, default=grid.step, help=f"bandwidth grid step (default {grid.step})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="llrer", description=__doc__)
    parser.add_argument("--version", action="version", version=f"llrer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_est = sub.add_parser("estimate", help="fit one estimator over a grid and write a curve CSV")
    p_est.add_argument("--input", required=True, help="input CSV with header y,delta,x")
    p_est.add_argument("--out", required=True, help="output curve CSV path")
    _add_estimator_flags(p_est)
    p_est.add_argument("--h", type=float, default=None, help="fixed bandwidth (h > 0)")
    p_est.add_argument("--cv", action="store_true", help="select the bandwidth by cross-validation")
    _add_cv_grid_flags(p_est)
    p_est.add_argument("--grid", default="1:4:61", help="evaluation grid lo:hi:count (default 1:4:61)")
    p_est.set_defaults(func=_cmd_estimate)

    p_cv = sub.add_parser("cv", help="cross-validate the bandwidth and write the score trace")
    p_cv.add_argument("--input", required=True, help="input CSV with header y,delta,x")
    p_cv.add_argument("--out", required=True, help="output trace CSV path (h,score,degenerate_folds)")
    _add_estimator_flags(p_cv)
    _add_cv_grid_flags(p_cv)
    p_cv.set_defaults(func=_cmd_cv)

    p_sim = sub.add_parser("simulate", help="run a replication study from a config file")
    p_sim.add_argument("--config", required=True, help="config file path or bundled config name")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config file seed")
    p_sim.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, at most one per replication and CPU (output is identical for any value)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="find the censoring shift c for a target censoring proportion")
    p_cal.add_argument("--target", type=float, required=True, help="target censoring proportion in (0, 1)")
    p_cal.add_argument("--tol", type=float, default=0.005, help="tolerance on the proportion (default 0.005)")
    p_cal.add_argument("--seed", type=int, default=0, help="seed for the calibration draws")
    p_cal.set_defaults(func=_cmd_calibrate)
    return parser


def _cmd_estimate(args) -> int:
    if args.cv == (args.h is not None):
        raise ConfigError("exactly one of --h and --cv is required")
    sample = read_sample_csv(args.input)
    estimator = Estimator.from_name(args.estimator)
    kernel = KernelKind.from_name(args.kernel)
    grid = parse_grid_spec(args.grid)
    if args.cv:
        selection = select_bandwidth(estimator, sample, kernel, BandwidthGrid(args.h_lo, args.h_hi, args.h_step))
        h = selection.h_opt
        print(f"h_opt={h!r}")
    else:
        h = args.h
    config = EstimatorConfig(h, kernel)
    curve = fit_curve(estimator, sample, config, grid)
    write_curve_csv(curve, args.out)
    return EXIT_OK


def _cmd_cv(args) -> int:
    sample = read_sample_csv(args.input)
    estimator = Estimator.from_name(args.estimator)
    kernel = KernelKind.from_name(args.kernel)
    selection = select_bandwidth(estimator, sample, kernel, BandwidthGrid(args.h_lo, args.h_hi, args.h_step))
    write_cv_trace_csv(selection.trace, args.out)
    print(f"h_opt={selection.h_opt!r}")
    return EXIT_OK


def bundled_config_names() -> list:
    """Names of the simulation configs shipped with the package."""
    root = resources.files("llrer").joinpath("configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


def _resolve_config(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    name = arg if arg.endswith(".cfg") else f"{arg}.cfg"
    bundled = resources.files("llrer").joinpath("configs", name)
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"config not found: {arg!r} (not a file, and no bundled config of that name)")


def _manifest_lines(args, config, report, artifacts, duration: float) -> list:
    grid = config.grid
    lines = [
        "command = simulate",
        f"version = {__version__}",
        f"config_file = {args.config}",
        f"jobs = {args.jobs}",
        f"duration_seconds = {duration:.3f}",
        f"seed = {config.seed}",
        f"n = {config.n}",
        f"replications = {config.replications}",
        f"estimators = {','.join(e.value for e in config.estimators)}",
        f"kernel = {config.kernel.value}",
        f"grid = {grid[0]!r}:{grid[-1]!r}:{grid.size}",
        f"outlier_count = {config.outlier_count}",
        f"outlier_mc = {config.outlier_mc!r}",
        f"positive_only = {config.positive_only}",
        f"denominator_epsilon = {config.denominator_epsilon!r}",
    ]
    if config.target_cp is not None:
        lines.append(f"target_cp = {config.target_cp!r}")
        lines.append(f"calibration_tolerance = {config.calibration_tolerance!r}")
    lines.append(f"c = {report.c!r}")
    if config.h is not None:
        lines.append(f"h = {config.h!r}")
    else:
        cv = config.cv_grid
        lines.append(f"h_lo = {cv.lo!r}")
        lines.append(f"h_hi = {cv.hi!r}")
        lines.append(f"h_step = {cv.step!r}")
    for name in artifacts:
        lines.append(f"artifact = {name}")
    for r in report.results:
        if r.error is not None:
            lines.append(f"replication_{r.rep}_status = failed: {r.error}")
            continue
        lines.append(f"replication_{r.rep}_status = ok")
        lines.append(f"replication_{r.rep}_realized_cp = {r.realized_cp!r}")
        lines.append(f"replication_{r.rep}_nonpositive_uncensored = {r.nonpositive_uncensored}")
        for est in config.estimators:
            lines.append(f"replication_{r.rep}_h_{est.value} = {r.h_used[est]!r}")
    return lines


def _cmd_simulate(args) -> int:
    config = load_simulation_config(_resolve_config(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    report = monte_carlo_run(config, jobs=args.jobs)
    artifacts = ["curves.csv", "summary.csv"]
    write_curves_csv(report, outdir / "curves.csv")
    write_summary_csv(report, outdir / "summary.csv")
    duration = time.monotonic() - started
    lines = _manifest_lines(args, config, report, artifacts, duration)
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")
    failures = report.failures()
    for r in failures:
        print(f"replication {r.rep} failed: {r.error}", file=sys.stderr)
    print(f"wrote {outdir} ({config.replications} replications, {len(failures)} failed)")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    c = calibrate_censoring(args.target, args.tol, seed=args.seed)
    print(f"c={c!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except DataError as exc:
        print(f"llrer: input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, CalibrationError) as exc:
        print(f"llrer: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"llrer: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
