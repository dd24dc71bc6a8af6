"""One benchmark iteration in a fresh process; started by run.py.

    worker.py cli    WORKLOAD SEED WORKDIR [--tiny]
    worker.py replay WORKLOAD SEED WORKDIR [--tiny]

`cli` imports the package, writes the workload's inputs, then times one
`llrer.cli.main` call. `replay` makes the same calls through the public
functions that `llrer.cli` uses, in the same order, with a span around each
call, plus two probes outside the replayed run. The last stdout line is one
JSON object; run.py parses it. Nothing is recorded inside the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import llrer.cli
from llrer import (
    BandwidthGrid,
    Estimator,
    EstimatorConfig,
    KernelKind,
    NonPositiveResponseWarning,
    ReplicationResult,
    SimulationReport,
    calibrate_censoring,
    cv_score,
    error_metrics,
    fit_curve,
    generate_sample,
    inject_outliers,
    km_censoring_survival,
    load_simulation_config,
    read_sample_csv,
    select_bandwidth,
    theoretical_curve,
    write_curves_csv,
    write_cv_trace_csv,
    write_summary_csv,
)
from workloads import TINY, WORKLOADS, write_inputs

KM_PROBES = 5


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# Operands of the reference loop; fixed, so every run times the same work.
_REF_RNG = np.random.default_rng(0)
_REF_X, _REF_Y = _REF_RNG.standard_normal(300), _REF_RNG.standard_normal(300)
_REF_BIG = _REF_RNG.standard_normal((400, 400))


def reference() -> tuple:
    """Wall and CPU seconds of a fixed loop that does not touch llrer.

    It mixes the two kinds of work the workloads do: a Python loop of numpy
    calls on 300-element arrays (as in the per-point fits) and elementwise
    passes over a 1.3 MB array (as in the n x n bandwidth arrays; small
    enough not to raise the process's peak RSS above the workloads'). run.py
    divides the workload's times by it, so a host that runs slower for a
    while slows both and the ratio stays put.
    """
    cpu0, t0 = _cpu_s(), time.monotonic()
    acc = 0.0
    for x0 in np.linspace(-2.0, 2.0, 6000):
        d = _REF_X - x0
        w = np.exp(-0.5 * (d / 0.3) ** 2)
        s0, s1, s2 = w.sum(), (w * d).sum(), (w * d * d).sum()
        acc += (s2 * (w * _REF_Y).sum() - s1 * (w * d * _REF_Y).sum()) / (s0 * s2 - s1 * s1 + 1.0)
    for k in range(1, 21):
        acc += float(np.exp(-0.5 * (_REF_BIG / k) ** 2).sum())
    if not math.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite sum")
    return time.monotonic() - t0, _cpu_s() - cpu0


def run_cli(argv) -> dict:
    """Time one cli.main call between two runs of the reference loop; inputs are already written."""
    ref_before = reference()
    captured = io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(captured):
        rc = llrer.cli.main(argv)
    wall = time.monotonic() - t0
    cpu = _cpu_s() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, before the second reference
    ref_after = reference()
    return {
        "rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0, "stdout": captured.getvalue(),
        "ref_wall_s": (ref_before[0] + ref_after[0]) / 2.0, "ref_cpu_s": (ref_before[1] + ref_after[1]) / 2.0,
    }


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.monotonic(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.monotonic()


def _count_selection(counts, selection, n, grid_lo):
    counts["bandwidth.select_calls"] += 1
    counts["bandwidth.bandwidths_scored"] += len(selection.trace)
    counts["bandwidth.fold_evals"] += n * len(selection.trace)
    counts["bandwidth.h_at_grid_floor"] += int(selection.h_opt == grid_lo)
    chosen = next(p for p in selection.trace if p.h == selection.h_opt)
    counts["bandwidth.degenerate_folds_at_h_opt"] += chosen.degenerate_folds


def replication_seed(master: int, rep: int, stream: int) -> np.random.SeedSequence:
    """Documented spawn keys: (1, r, 0) data and (1, r, 1) outliers of replication r."""
    return np.random.SeedSequence(entropy=master, spawn_key=(1, rep, stream))


def _replay_replication(tr, counts, config, c, rep):
    """Mirror of one simulate replication (data, outliers, per-estimator fits)."""
    with tr.span("simulate.generate"):
        gen = generate_sample(config.n, c, replication_seed(config.seed, rep, 0), config.positive_only)
    sample = gen.sample
    if config.outlier_count:
        with tr.span("simulate.outliers"):
            seed = replication_seed(config.seed, rep, 1)
            sample = inject_outliers(sample, config.outlier_count, config.outlier_mc, seed)
    h_used, curves, metrics = {}, {}, {}
    for est in config.estimators:
        h = config.h
        if h is None:
            with tr.span("bandwidth.select"):
                selection = select_bandwidth(est, sample, config.kernel, config.cv_grid, config.denominator_epsilon)
            _count_selection(counts, selection, sample.n, config.cv_grid.lo)
            h = selection.h_opt
        with tr.span("loclin.fit_curve"):
            curve = fit_curve(est, sample, EstimatorConfig(h, config.kernel, config.denominator_epsilon), config.grid)
        counts["loclin.points"] += curve.grid.size
        counts["loclin.degenerate_points"] += int(curve.degenerate.sum())
        with tr.span("simulate.error_metrics"):
            metrics[est] = error_metrics(curve, theoretical_curve)
        h_used[est] = float(h)
        curves[est] = curve
    return sample, ReplicationResult(rep, gen.realized_cp, gen.nonpositive_uncensored, h_used, curves, metrics)


def replay_simulate(tr, counts, argv):
    cfg_path, outdir = Path(argv[2]), Path(argv[4])
    first = None
    with tr.span("cli.simulate"):
        config = load_simulation_config(cfg_path)
        outdir.mkdir(parents=True, exist_ok=True)
        if config.c is not None:
            c = float(config.c)
        else:
            with tr.span("simulate.calibrate"):
                seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))
                c = calibrate_censoring(config.target_cp, config.calibration_tolerance, seed=seed)
        results = []
        for rep in range(config.replications):
            with tr.span("simulate.replication"):
                try:
                    sample, result = _replay_replication(tr, counts, config, c, rep)
                except Exception as exc:  # a failed replication is recorded, as in simulate
                    counts["simulate.failed_replications"] += 1
                    result = ReplicationResult(rep, float("nan"), 0, {}, {}, {}, error=f"{type(exc).__name__}: {exc}")
                else:
                    counts["simulate.replications"] += 1
                    first = sample if first is None else first
            results.append(result)
        report = SimulationReport(config, c, tuple(results))
        with tr.span("cli.write_curves"):
            write_curves_csv(report, outdir / "curves.csv")
        with tr.span("cli.write_summary"):
            write_summary_csv(report, outdir / "summary.csv")
    counts["cli.bytes_written"] += sum((outdir / f).stat().st_size for f in ("curves.csv", "summary.csv"))
    if config.h is None and first is not None:
        with tr.span("bandwidth.cv_score"):
            cv_score(config.estimators[0], first, config.kernel, config.cv_grid.lo, config.denominator_epsilon)
    return first


def replay_cv(tr, counts, argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    estimator = Estimator.from_name(opts["--estimator"])
    kernel = KernelKind.from_name(opts["--kernel"])
    grid = BandwidthGrid(float(opts["--h-lo"]), float(opts["--h-hi"]), float(opts["--h-step"]))
    with tr.span("cli.cv"):
        with tr.span("survival.read_csv"):
            sample = read_sample_csv(opts["--input"])
        with tr.span("bandwidth.select"):
            selection = select_bandwidth(estimator, sample, kernel, grid)
        _count_selection(counts, selection, sample.n, grid.lo)
        with tr.span("cli.write_trace"):
            write_cv_trace_csv(selection.trace, opts["--out"])
    counts["cli.bytes_written"] += Path(opts["--out"]).stat().st_size
    with tr.span("bandwidth.cv_score"):
        cv_score(estimator, sample, kernel, grid.lo)
    return sample


COUNT_NAMES = (
    "bandwidth.select_calls",
    "bandwidth.bandwidths_scored",
    "bandwidth.fold_evals",
    "bandwidth.h_at_grid_floor",
    "bandwidth.degenerate_folds_at_h_opt",
    "loclin.points",
    "loclin.degenerate_points",
    "simulate.replications",
    "simulate.failed_replications",
    "cli.bytes_written",
)


def run_replay(command, argv) -> dict:
    tr = Tracer()
    counts = dict.fromkeys(COUNT_NAMES, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonPositiveResponseWarning)
        sample = (replay_simulate if command == "simulate" else replay_cv)(tr, counts, argv)
        if sample is not None:
            for _ in range(KM_PROBES):
                with tr.span("survival.km"):
                    km_censoring_survival(sample)
    return {"spans": tr.spans, "counts": counts}


def main(argv) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    workload = (TINY if "--tiny" in argv else WORKLOADS)[name]
    cli_argv = write_inputs(workload, seed, workdir)
    ready = time.monotonic()
    result = run_cli(cli_argv) if mode == "cli" else run_replay(workload.command, cli_argv)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
