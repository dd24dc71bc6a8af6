"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The Monte Carlo criteria pin their seeds so every run is
bit-reproducible; the chosen configurations are recorded in each test.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import llrer as L
from llrer.cli import main

GAUSS = L.KernelKind.GAUSSIAN


def random_censored_sample(rng, n):
    y = rng.lognormal(mean=0.5, sigma=0.6, size=n)
    delta = rng.integers(0, 2, n)
    delta[rng.integers(0, n)] = 1
    if n >= 2:
        delta[rng.integers(0, n)] = 0  # keep delta genuinely mixed
    x = rng.normal(size=n)
    return L.CensoredSample(y, delta, x)


def test_criterion_1_oracle_equivalence():
    """Fast moment paths agree with the quadratic double sums."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(5, 51))
        s = random_censored_sample(rng, n)
        step = L.km_censoring_survival(s)
        kernel = GAUSS if rng.random() < 0.5 else L.KernelKind.EPANECHNIKOV
        cfg = L.EstimatorConfig(float(rng.uniform(0.3, 1.5)), kernel)
        lo, hi = float(s.x.min()), float(s.x.max())
        for x0 in rng.uniform(lo, hi, size=10):
            x0 = float(x0)
            fast = L.llrer_point(s, step, cfg, x0)
            slow = L.llrer_point_naive(s, step, cfg, x0)
            assert fast.degenerate == slow.degenerate
            if not fast.degenerate:
                assert fast.value == pytest.approx(slow.value, rel=1e-9)
                checked += 1
            fast2 = L.llcr_point(s, step, cfg, x0)
            slow2 = L.llcr_point_naive(s, step, cfg, x0)
            assert fast2.degenerate == slow2.degenerate
            if not fast2.degenerate:
                assert fast2.value == pytest.approx(slow2.value, rel=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS (200 datasets, {checked} non-degenerate comparisons, {elapsed:.1f}s)")


def test_criterion_2_kaplan_meier_hand_oracles():
    """The product-limit estimate matches hand-evaluated step functions exactly."""
    start = time.monotonic()
    # worked example: no censoring
    step = L.km_censoring_survival(L.CensoredSample([1, 2, 3], [1, 1, 1], [0, 0, 0]))
    assert np.array_equal(step.jump_times, [3.0]) and np.array_equal(step.values, [0.0])
    # worked example: middle observation censored, factor (1 - 1/2)
    step = L.km_censoring_survival(L.CensoredSample([1, 2, 3], [1, 0, 1], [0, 0, 0]))
    assert np.array_equal(step.jump_times, [2.0, 3.0])
    assert np.array_equal(step.values, [0.5, 0.0])
    assert step.eval(2.0, "left") == 1.0 and step.eval(3.0, "left") == 0.5
    # worked example: same data permuted
    permuted = L.km_censoring_survival(L.CensoredSample([2, 1, 3], [0, 1, 1], [0, 0, 0]))
    assert np.array_equal(permuted.jump_times, step.jump_times)
    assert np.array_equal(permuted.values, step.values)
    # tie case: the uncensored record at y = 2 leaves the risk set first
    step = L.km_censoring_survival(L.CensoredSample([1, 2, 2, 3], [1, 0, 1, 1], [0, 0, 0, 0]))
    assert np.array_equal(step.jump_times, [2.0, 3.0])
    assert np.array_equal(step.values, [0.5, 0.0])
    # all censored: telescoping product (n-1)/n * (n-2)/(n-1) * ...
    step = L.km_censoring_survival(L.CensoredSample([1, 2, 3], [0, 0, 0], [0, 0, 0]))
    f1 = 1.0 - 1.0 / 3.0
    f2 = f1 * (1.0 - 1.0 / 2.0)
    assert np.array_equal(step.jump_times, [1.0, 2.0, 3.0])
    assert np.array_equal(step.values, [f1, f2, 0.0])
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 2: PASS (5 hand-evaluated step functions, exact, {elapsed:.2f}s)")


def test_criterion_3_reproduction_properties():
    """Constants reproduce on all three estimators, lines on the local linear two."""
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    for _ in range(50):
        n = int(rng.integers(10, 41))
        x = rng.normal(size=n)
        h = float(rng.uniform(0.4, 1.2))
        cfg = L.EstimatorConfig(h, GAUSS)
        x0 = float(rng.uniform(x.min(), x.max()))

        const = float(rng.uniform(0.5, 20.0))
        s = L.CensoredSample(np.full(n, const), np.ones(n, dtype=int), x)
        step = L.km_censoring_survival(s)
        for fn in (L.llrer_point, L.llcr_point, L.cr_point):
            est = fn(s, step, cfg, x0)
            assert not est.degenerate
            assert est.value == pytest.approx(const, rel=1e-10)

        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(1.0, 5.0)) + abs(a) * float(np.abs(x).max()) * 1.1
        s = L.CensoredSample(a * x + b, np.ones(n, dtype=int), x)
        step = L.km_censoring_survival(s)
        for fn in (L.llrer_point, L.llcr_point):
            assert fn(s, step, cfg, x0).value == pytest.approx(a * x0 + b, abs=1e-8)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 3: PASS (50 randomized configurations, {elapsed:.1f}s)")


def test_criterion_4_scale_and_translation_equivariance():
    start = time.monotonic()
    rng = np.random.default_rng(1004)
    point_fns = (L.llrer_point, L.llcr_point, L.cr_point)
    for _ in range(12):
        n = int(rng.integers(15, 40))
        s = random_censored_sample(rng, n)
        step = L.km_censoring_survival(s)
        cfg = L.EstimatorConfig(float(rng.uniform(0.4, 1.2)), GAUSS)
        points = rng.uniform(s.x.min(), s.x.max(), size=4)

        for a in (0.1, 3.0, 100.0):
            scaled = L.CensoredSample(a * s.y, s.delta, s.x)
            sstep = L.km_censoring_survival(scaled)
            for fn in point_fns:
                for x0 in points:
                    base = fn(s, step, cfg, float(x0))
                    got = fn(scaled, sstep, cfg, float(x0))
                    assert got.degenerate == base.degenerate
                    if not base.degenerate:
                        assert got.value == pytest.approx(a * base.value, rel=1e-10)

        for shift in (-5.0, 1.25):
            moved = L.CensoredSample(s.y, s.delta, s.x + shift)
            mstep = L.km_censoring_survival(moved)
            for fn in point_fns:
                for x0 in points:
                    base = fn(s, step, cfg, float(x0))
                    got = fn(moved, mstep, cfg, float(x0) + shift)
                    assert got.degenerate == base.degenerate
                    if not base.degenerate:
                        assert got.value == pytest.approx(base.value, rel=1e-10)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 4: PASS (y-scale a in {{0.1, 3, 100}} and x-shifts, {elapsed:.1f}s)")


def test_criterion_5_synthetic_unbiasedness():
    """With the true censoring survival, synthetic means match inverse moments.

    Positive-response process: T lognormal(0, 0.5), C exponential(rate 0.3),
    so Gbar(t) = exp(-0.3 t) exactly and E[T^-l] has a quadrature oracle.
    """
    start = time.monotonic()
    rng = np.random.default_rng(1005)
    n = 100_000
    sigma = 0.5
    rate = 0.3
    t = rng.lognormal(mean=0.0, sigma=sigma, size=n)
    c = rng.exponential(1.0 / rate, size=n)
    y = np.minimum(t, c)
    delta = (t <= c).astype(int)
    gbar = np.exp(-rate * y)
    for order in (1, 2):
        vals = L.survival._divide_by_survival(y, delta == 1, order, gbar)
        truth, err = quad(
            lambda z: math.exp(-order * sigma * z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
            -12.0, 12.0, limit=200,
        )
        assert err < 1e-6 * truth
        se = float(np.std(vals, ddof=1)) / math.sqrt(n)
        z = abs(float(vals.mean()) - truth) / se
        assert z <= 4.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 5: PASS (orders 1 and 2 within 4 MC standard errors, {elapsed:.1f}s)")


def test_criterion_6_consistency_in_n():
    """Median sup-error of the relative-error fit falls as n grows.

    Configuration: censoring shift calibrated to 65%, fixed bandwidth 0.5,
    50 replications per n, evaluation on 31 points over [1, 2.5]. The
    pinned seed makes the run bit-reproducible. At this censoring level the
    evaluation range holds almost no uncensored data, so the fits are
    extrapolations and the ordering is sensitive to the seed at these
    sample sizes; the test reproduces the qualitative claim at the pinned
    configuration rather than a distribution-free law.
    """
    start = time.monotonic()
    c65 = L.calibrate_censoring(0.65, 0.005, seed=1)
    grid = np.linspace(1.0, 2.5, 31)
    medians = []
    cps = []
    for n in (100, 300, 500):
        cfg = L.SimulationConfig(
            n=n, replications=50, seed=77, estimators=(L.Estimator.LLRER,),
            c=c65, h=0.5, grid=grid,
        )
        report = L.monte_carlo_run(cfg)
        assert not report.failures()
        sups = [
            r.metrics[L.Estimator.LLRER].sup_error
            for r in report.results
            if r.metrics[L.Estimator.LLRER].sup_error is not None
        ]
        assert len(sups) >= 45
        medians.append(float(np.median(sups)))
        cps.append(float(np.mean([r.realized_cp for r in report.results])))
    for cp in cps:
        assert cp == pytest.approx(0.65, abs=0.05)
    assert medians[0] > medians[1] > medians[2]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    meds = ", ".join(f"{m:.3f}" for m in medians)
    print(f"criterion 6: PASS (median sup-error {meds} for n=100,300,500, {elapsed:.1f}s)")


def test_criterion_7_outlier_robustness():
    """With 15 of 300 responses scaled by 100, the relative-error fit wins on MISE.

    Bandwidths are cross-validated per replication and per estimator on the
    default 200-candidate grid; censoring is calibrated to 35%.
    """
    start = time.monotonic()
    c35 = L.calibrate_censoring(0.35, 0.005, seed=1)
    ests = (L.Estimator.LLRER, L.Estimator.LLCR, L.Estimator.CR)
    cfg = L.SimulationConfig(
        n=300, replications=50, seed=20260810, estimators=ests,
        c=c35, outlier_count=15, outlier_mc=100.0, grid=np.linspace(1.0, 2.5, 31),
    )
    report = L.monte_carlo_run(cfg)
    assert not report.failures()
    wins = 0
    total = 0
    for r in report.results:
        mises = {e: r.metrics[e].mise for e in ests}
        if any(v is None for v in mises.values()):
            continue
        total += 1
        wins += mises[L.Estimator.LLRER] < mises[L.Estimator.LLCR] and mises[L.Estimator.LLRER] < mises[L.Estimator.CR]
    assert total >= 45
    assert wins / total >= 0.80
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 7: PASS (LLRER beats both on {wins}/{total} replications, {elapsed:.0f}s)")


def test_criterion_8_censoring_calibration():
    start = time.monotonic()
    c_half = L.calibrate_censoring(0.5, 0.005, seed=8)
    assert c_half == pytest.approx(-2.0, abs=0.05)
    realized = {}
    for target in (0.35, 0.65, 0.70):
        c = L.calibrate_censoring(target, 0.005, seed=8)
        gen = L.generate_sample(100_000, c, seed=80)
        realized[target] = gen.realized_cp
        assert gen.realized_cp == pytest.approx(target, abs=0.02)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    summary = ", ".join(f"{t}->{cp:.3f}" for t, cp in realized.items())
    print(f"criterion 8: PASS (c(0.5)={c_half:.4f}; realized CP {summary}, {elapsed:.1f}s)")


@pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
def test_criterion_9_cv_conformance():
    start = time.monotonic()
    # the default grid is exactly 0.01, 0.02, ..., 2.00
    values = L.DEFAULT_BANDWIDTH_GRID.values()
    assert values.size == 200
    assert np.array_equal(values, np.round(0.01 * np.arange(1, 201), 12))
    # the selection minimizes its own trace on a generated censored sample
    sample = L.generate_sample(100, -2.0, seed=9).sample
    h_opt, trace = L.select_bandwidth(L.Estimator.LLRER, sample, GAUSS)
    scores = np.array([p.score for p in trace])
    hs = np.array([p.h for p in trace])
    assert trace[int(np.argmin(scores))].h == h_opt
    assert h_opt in hs
    assert all(scores[hs == h_opt] <= scores)
    # constructed tie: a fully censored sample scores zero at every h
    tied = L.CensoredSample(np.arange(1.0, 21.0), np.zeros(20, dtype=int), np.linspace(-2, 2, 20))
    h_tie, tie_trace = L.select_bandwidth(L.Estimator.LLRER, tied, GAUSS)
    assert len({p.score for p in tie_trace}) == 1
    assert h_tie == 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 9: PASS (200-candidate default grid, argmin h={h_opt}, tie->0.01, {elapsed:.1f}s)")


def test_criterion_10_cli_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(
        "n = 50\n"
        "replications = 6\n"
        "seed = 424242\n"
        "estimators = llrer,llcr,cr\n"
        "c = -2\n"
        "grid = 1:2.5:11\n"
        "h_lo = 0.2\n"
        "h_hi = 0.6\n"
        "h_step = 0.2\n"
    )
    outs = [tmp_path / name for name in ("run1", "run2", "run8")]
    assert main(["simulate", "--config", str(cfg), "--out", str(outs[0]), "--jobs", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(outs[1]), "--jobs", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(outs[2]), "--jobs", "8"]) == 0
    for name in ("curves.csv", "summary.csv"):
        reference = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == reference
        assert (outs[2] / name).read_bytes() == reference
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 10: PASS (bit-identical CSVs across reruns and jobs 1 vs 8, {elapsed:.1f}s)")
