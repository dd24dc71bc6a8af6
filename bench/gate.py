"""Correctness gate, run on a benchmark iteration's outputs after timing.

Every check is recomputed from the inputs with code paths other than the
ones that produced the outputs: leave-one-out scores by refitting
Kaplan-Meier once per fold, curve points by the O(n^2) double-sum forms.
Outputs are parsed and compared within a tolerance, never byte for byte
against stored files, since reordered sums move results by about 1e-12.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from llrer import (
    CensoredSample,
    Estimator,
    EstimatorConfig,
    KernelKind,
    NonPositiveResponseWarning,
    cr_point,
    generate_sample,
    inject_outliers,
    km_censoring_survival,
    llcr_point,
    llcr_point_naive,
    llrer_point,
    llrer_point_naive,
    moment_statistics,
    read_sample_csv,
    required_orders,
    synthetic_transform,
)
from workloads import STUDY_CONFIG

REL_TOL = 1e-9
EPSILON = 1e-12  # the program's default denominator_epsilon
SAMPLED_REPS = 2
SAMPLED_POINTS = 10
SAMPLED_HS = 4

_FAST = {Estimator.LLRER: llrer_point, Estimator.LLCR: llcr_point, Estimator.CR: cr_point}
_ORACLE = {Estimator.LLRER: llrer_point_naive, Estimator.LLCR: llcr_point_naive, Estimator.CR: cr_point}


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


def close(a: float, b: float, condition: float = 1.0) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL * max(1.0, condition))


def same_csv(a, b) -> bool:
    """Two CSV files agree cell by cell, numbers to REL_TOL (sums may be reordered)."""
    rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b) or not all(map(_same_cell, cells_a, cells_b)):
            return False
    return True


def _same_cell(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return close(float(a), float(b))
    except ValueError:
        return False


def read_manifest(path) -> dict:
    entries = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def replication_ok(path, replications: int) -> list:
    """Per replication, whether a simulate manifest marks it ok."""
    entries = read_manifest(path)
    return [entries.get(f"replication_{r}_status") == "ok" for r in range(replications)]


def loo_scores(estimator, sample, kernel, hs):
    """Leave-one-out scores and degenerate-fold counts by refitting every fold.

    Fold i drops observation i from the sample, re-estimates Kaplan-Meier on
    the rest and predicts at x_i with the point estimator (0 when
    degenerate); its target is the full-sample order -1 synthetic response.
    """
    target = synthetic_transform(sample, km_censoring_survival(sample), -1).values
    point = _FAST[estimator]
    scores = np.zeros(len(hs))
    degenerate = np.zeros(len(hs), dtype=int)
    idx = np.arange(sample.n)
    for i in range(sample.n):
        keep = idx != i
        sub = CensoredSample(sample.y[keep], sample.delta[keep], sample.x[keep])
        step = km_censoring_survival(sub)
        responses = [synthetic_transform(sub, step, o) for o in required_orders(estimator)]
        for k, h in enumerate(hs):
            est = point(sub, step, EstimatorConfig(h, kernel, EPSILON), float(sample.x[i]), responses=responses)
            degenerate[k] += est.degenerate
            scores[k] += (target[i] - est.value) ** 2
    return scores, degenerate


def check_cv(workload, sample_path, trace_path, stdout: str, rng) -> list:
    """`llrer cv`: grid, argmin and sampled trace rows against refitted folds."""
    want_h = workload.bandwidths()
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    hs = [float(r[0]) for r in rows]
    scores = [float(r[1]) for r in rows]
    folds = [int(r[2]) for r in rows]
    checks = [check("cv.grid", hs == want_h, f"{len(hs)} bandwidths, want {len(want_h)}")]
    if not checks[0].ok:
        return checks
    best = int(np.argmin(scores))  # first minimum: ties go to the smallest h
    printed = [line for line in stdout.splitlines() if line.startswith("h_opt=")]
    h_opt = float(printed[-1][6:]) if printed else float("nan")
    checks.append(check("cv.argmin", h_opt == hs[best], f"printed h_opt={h_opt}, trace argmin {hs[best]}"))
    picks = sorted({best, *rng.sample(range(len(hs)), min(SAMPLED_HS, len(hs)))})
    sample = read_sample_csv(sample_path)
    estimator = Estimator.from_name(workload.estimators[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonPositiveResponseWarning)
        want, want_folds = loo_scores(estimator, sample, KernelKind.from_name(workload.kernel), [hs[k] for k in picks])
    for k, s, d in zip(picks, want, want_folds):
        ok = close(scores[k], s) and folds[k] == d
        checks.append(check(f"cv.score[h={hs[k]}]", ok, f"got {scores[k]!r}/{folds[k]}, refit {float(s)!r}/{d}"))
    return checks


def _rebuild(workload, seed: int, c: float, rep: int) -> CensoredSample:
    """Replication rep's data from the documented spawn keys (1, rep, 0/1)."""
    data = np.random.SeedSequence(entropy=seed, spawn_key=(1, rep, 0))
    sample = generate_sample(workload.n, c, data).sample
    picks = np.random.SeedSequence(entropy=seed, spawn_key=(1, rep, 1))
    return inject_outliers(sample, int(STUDY_CONFIG["outlier_count"]), float(STUDY_CONFIG["outlier_mc"]), picks)


def _read_curves(path) -> dict:
    curves = defaultdict(list)
    with open(path, newline="") as fh:
        for rep, est, x, value, flag in list(csv.reader(fh))[1:]:
            curves[int(rep), est].append((float(x), float(value), bool(int(flag))))
    return curves


def _reference(x):
    m = 2.0 * x + 1.0
    return m + 0.04 / m


def _summary_rows(workload, curves) -> dict:
    """summary.csv recomputed from curves.csv: sup error, trapezoid ISE, degenerate count."""
    rows = {}
    for est in workload.estimators:
        per_rep = defaultdict(list)
        for (_, name), points in sorted(curves.items()):
            if name != est:
                continue
            x, v, flag = (np.array(col) for col in zip(*points))
            ok = ~flag
            per_rep["degenerate_count"].append(float(flag.sum()))
            if ok.any():
                err = np.abs(v - _reference(x))
                both = ok[:-1] & ok[1:]
                per_rep["sup_error"].append(float(err[ok].max()))
                per_rep["mise"].append(float(np.sum(0.5 * (err[:-1] ** 2 + err[1:] ** 2) * np.diff(x) * both)))
        for metric, vals in per_rep.items():
            q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
            rows[est, metric] = (med, q1, q3)
    return rows


def check_simulate(workload, seed: int, outdir, rng) -> list:
    """`llrer simulate`: sampled curve points, CV choices and the summary."""
    manifest = read_manifest(outdir / "manifest.txt")
    c = float(manifest["c"])
    curves = _read_curves(outdir / "curves.csv")
    want_keys = {(r, e) for r in range(workload.replications) for e in workload.estimators}
    checks = [check("simulate.curves", set(curves) == want_keys, f"{len(curves)} curves, want {len(want_keys)}")]
    if not checks[0].ok:
        return checks
    kernel = KernelKind.from_name(workload.kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonPositiveResponseWarning)
        for rep in sorted(rng.sample(range(workload.replications), min(SAMPLED_REPS, workload.replications))):
            sample = _rebuild(workload, seed, c, rep)
            step = km_censoring_survival(sample)
            for name in workload.estimators:
                est = Estimator.from_name(name)
                h = float(manifest[f"replication_{rep}_h_{name}"])
                checks.append(_check_curve(est, sample, step, kernel, h, curves[rep, name], rep, rng))
                if workload.h is None:
                    checks.append(_check_cv_choice(workload, est, sample, kernel, h, rep, rng))
                else:
                    checks.append(check(f"simulate.h[{rep},{name}]", h == workload.h, f"used h={h}, want {workload.h}"))
    checks.append(_check_summary(workload, outdir, curves))
    return checks


def _condition(est, sample, step, config, x) -> float:
    """|leading product| / |denominator| of the local linear fit at x (1 for CR).

    The fast and double-sum forms both round the denominator, so their
    relative disagreement grows with this ratio near degenerate points.
    """
    if est is Estimator.CR:
        return 1.0
    orders = required_orders(est)
    m = moment_statistics(sample, [synthetic_transform(sample, step, o) for o in orders], config, x)
    s = m.response_moments[2] if est is Estimator.LLRER else m.kernel_moments
    den = abs(s[2] * s[0] - s[1] * s[1])
    return abs(s[2] * s[0]) / den if den > 0.0 else math.inf


def _check_curve(est, sample, step, kernel, h, points, rep, rng) -> Check:
    config = EstimatorConfig(h, kernel, EPSILON)
    bad = []
    for k in sorted(rng.sample(range(len(points)), min(SAMPLED_POINTS, len(points)))):
        x, value, flag = points[k]
        want = _ORACLE[est](sample, step, config, x)
        if flag == want.degenerate and (flag or close(value, want.value, _condition(est, sample, step, config, x))):
            continue
        bad.append(f"x={x}: got {value!r}/{flag}, oracle {want.value!r}/{want.degenerate}")
    return check(f"simulate.curve[{rep},{est.value}]", not bad, "; ".join(bad) or f"h={h}")


def _check_cv_choice(workload, est, sample, kernel, h_opt, rep, rng) -> Check:
    """h_opt's refitted score is no worse than that of sampled other grid values."""
    grid = workload.bandwidths()
    others = rng.sample([h for h in grid if h != h_opt], min(SAMPLED_HS, len(grid) - 1))
    scores, _ = loo_scores(est, sample, kernel, [h_opt, *others])
    ok = h_opt in grid and all(scores[0] <= s * (1.0 + REL_TOL) for s in scores[1:])
    detail = f"h_opt={h_opt} refit score {float(scores[0])!r}, others {dict(zip(others, map(float, scores[1:])))}"
    return check(f"simulate.cv[{rep},{est.value}]", ok, detail)


def _check_summary(workload, outdir, curves) -> Check:
    want = _summary_rows(workload, curves)
    with open(outdir / "summary.csv", newline="") as fh:
        got = {(r[0], r[1]): tuple(map(float, r[2:])) for r in list(csv.reader(fh))[1:]}
    ok = got.keys() == want.keys() and all(all(map(close, got[k], want[k])) for k in want)
    return check("simulate.summary", ok, f"{len(got)} rows, recomputed {len(want)}")
