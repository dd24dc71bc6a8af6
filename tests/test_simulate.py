import math

import numpy as np
import pytest

import llrer.simulate
from llrer import (
    BandwidthGrid,
    CalibrationError,
    ConfigError,
    Estimator,
    EstimatorConfig,
    FittedCurve,
    SimulationConfig,
    calibrate_censoring,
    error_metrics,
    fit_curve,
    generate_sample,
    inject_outliers,
    load_simulation_config,
    monte_carlo_run,
    ratio_second_order,
    theoretical_curve,
    write_curves_csv,
)

SD_DIFF = math.sqrt(5.04)  # var(T) + var(C) = 4.04 + 1


def censoring_probability(c):
    """Closed form P(T > C) for the built-in process, via the normal difference."""
    return 0.5 * (1.0 - math.erf(((2.0 + c) / SD_DIFF) / math.sqrt(2.0)))


class TestTheoreticalCurve:
    def test_direct_substitution(self):
        assert theoretical_curve(1.0) == pytest.approx(3.0 + 0.04 / 3.0, rel=1e-15)
        assert theoretical_curve(4.0) == pytest.approx(9.0 + 0.04 / 9.0, rel=1e-15)
        assert theoretical_curve(0.0) == pytest.approx(1.04, rel=1e-15)

    def test_rejects_pole(self):
        with pytest.raises(ConfigError):
            theoretical_curve(-0.5)

    def test_above_line_on_unit_interval(self):
        x = np.linspace(1.0, 4.0, 301)
        assert np.all(theoretical_curve(x) >= 2.0 * x + 1.0)


class TestRatioSecondOrder:
    def test_zero_variance(self):
        assert ratio_second_order(1.0, 1.0, 123.0, 0.0, 0.0, 10) == 1.0

    def test_direct_substitution(self):
        assert ratio_second_order(1.0, 2.0, 0.0, 4.0, 0.0, 100) == pytest.approx(0.505, rel=1e-15)

    def test_large_n_limit(self):
        assert ratio_second_order(3.0, 2.0, 1.0, 5.0, 2.0, 10**12) == pytest.approx(1.5, rel=1e-9)

    def test_rejects_zero_denominator_mean(self):
        with pytest.raises(ConfigError):
            ratio_second_order(1.0, 0.0, 1.0, 1.0, 0.0, 10)
        with pytest.raises(ConfigError):
            ratio_second_order(1.0, 1.0, 1.0, 1.0, 0.0, 0)


class TestGenerateSample:
    def test_extreme_shift_kills_censoring(self):
        gen = generate_sample(200, 100.0, 1)
        assert np.all(gen.sample.delta == 1)
        assert gen.realized_cp == 0.0

    def test_extreme_negative_shift_censors_everything(self):
        gen = generate_sample(200, -100.0, 1)
        assert np.all(gen.sample.delta == 0)
        assert gen.realized_cp == 1.0

    def test_deterministic(self):
        a = generate_sample(50, -1.0, 99)
        b = generate_sample(50, -1.0, 99)
        assert np.array_equal(a.sample.y, b.sample.y)
        assert np.array_equal(a.sample.delta, b.sample.delta)
        assert np.array_equal(a.sample.x, b.sample.x)

    def test_observed_is_min_and_indicator(self):
        gen = generate_sample(500, 0.0, 7)
        assert np.array_equal(gen.sample.y, np.minimum(gen.event_times, gen.censor_times))
        assert np.array_equal(gen.sample.delta, (gen.event_times <= gen.censor_times).astype(int))

    def test_realized_cp_matches_closed_form(self):
        gen = generate_sample(100_000, 0.0, 123)
        assert gen.realized_cp == pytest.approx(censoring_probability(0.0), abs=0.01)

    def test_realized_cp_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(5150)
        t = 2.0 * rng.standard_normal(10**6) + 1.0 + 0.2 * rng.standard_normal(10**6)
        cens = 3.0 + rng.standard_normal(10**6)
        oracle = float(np.mean(t > cens))
        gen = generate_sample(100_000, 0.0, 321)
        assert gen.realized_cp == pytest.approx(oracle, abs=0.01)

    def test_positive_only(self):
        gen = generate_sample(2000, -2.0, 11, positive_only=True)
        assert np.all(gen.event_times > 0.0)
        again = generate_sample(2000, -2.0, 11, positive_only=True)
        assert np.array_equal(gen.sample.y, again.sample.y)

    def test_nonpositive_count(self):
        gen = generate_sample(10_000, 100.0, 3)  # all uncensored
        assert gen.nonpositive_uncensored == int(np.sum(gen.event_times <= 0.0))


class TestCalibrateCensoring:
    def test_half_is_minus_two(self):
        c = calibrate_censoring(0.5, 0.005, seed=17)
        assert c == pytest.approx(-2.0, abs=0.05)

    def test_rejects_bad_target(self):
        for t in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ConfigError):
                calibrate_censoring(t, 0.005, seed=1)

    def test_deterministic(self):
        assert calibrate_censoring(0.65, 0.005, seed=4) == calibrate_censoring(0.65, 0.005, seed=4)

    def test_achieves_closed_form_target(self):
        for target in (0.35, 0.65):
            c = calibrate_censoring(target, 0.005, seed=9)
            assert censoring_probability(c) == pytest.approx(target, abs=0.01)

    def test_near_zero_target_needs_large_positive_shift(self):
        assert calibrate_censoring(0.05, 0.005, seed=6) > 0.0

    def test_unattainable_tolerance_raises(self):
        # the 1e6-draw estimate moves in 1e-6 steps, so 1e-10 around an
        # off-grid target cannot be met
        with pytest.raises(CalibrationError):
            calibrate_censoring(1.0 / 3.0, 1e-10, seed=2)

    def test_rejects_too_few_draws(self):
        with pytest.raises(ConfigError):
            calibrate_censoring(0.5, 0.005, seed=1, draws=1000)


class TestInjectOutliers:
    def sample(self):
        return generate_sample(300, -1.0, 77).sample

    def test_zero_count_identity(self):
        s = self.sample()
        assert inject_outliers(s, 0, 100.0, 1) is s

    def test_unit_multiplier_identity(self):
        s = self.sample()
        out = inject_outliers(s, s.n, 1.0, 1)
        assert np.array_equal(out.y, s.y)

    def test_scales_exactly_count_records(self):
        s = self.sample()
        out = inject_outliers(s, 15, 100.0, 5)
        changed = np.flatnonzero(out.y != s.y)
        assert changed.size == 15
        assert np.allclose(out.y[changed], 100.0 * s.y[changed], rtol=1e-15)
        assert np.array_equal(out.delta, s.delta)
        assert np.array_equal(out.x, s.x)
        assert out.n == s.n

    def test_deterministic(self):
        s = self.sample()
        a = inject_outliers(s, 15, 100.0, 5)
        b = inject_outliers(s, 15, 100.0, 5)
        assert np.array_equal(a.y, b.y)

    def test_rejects_bad_count(self):
        s = self.sample()
        with pytest.raises(ConfigError):
            inject_outliers(s, s.n + 1, 100.0, 1)
        with pytest.raises(ConfigError):
            inject_outliers(s, -1, 100.0, 1)


class TestErrorMetrics:
    def test_exact_match(self):
        grid = np.linspace(0, 1, 11)
        curve = FittedCurve(grid, 2 * grid + 1, np.zeros(11, dtype=bool))
        m = error_metrics(curve, lambda x: 2 * x + 1)
        assert m == (0.0, 0.0, 0)

    def test_constant_offset_closed_form(self):
        grid = np.linspace(0, 2, 21)
        d = 0.3
        curve = FittedCurve(grid, 2 * grid + 1 + d, np.zeros(21, dtype=bool))
        m = error_metrics(curve, lambda x: 2 * x + 1)
        assert m.sup_error == pytest.approx(d, rel=1e-12)
        assert m.mise == pytest.approx(d * d * 2.0, rel=1e-12)
        assert m.degenerate_count == 0

    def test_mixed_degenerate_hand_values(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        ref = lambda x: 0.0
        values = np.array([0.1, 0.2, 0.3, 0.4])
        degenerate = np.array([False, True, False, False])
        m = error_metrics(FittedCurve(grid, values, degenerate), ref)
        assert m.sup_error == pytest.approx(0.4, rel=1e-12)
        # only the (2, 3) segment has two live endpoints
        assert m.mise == pytest.approx(0.5 * (0.09 + 0.16) * 1.0, rel=1e-12)
        assert m.degenerate_count == 1

    def test_all_degenerate_absent(self):
        grid = np.array([0.0, 1.0])
        m = error_metrics(FittedCurve(grid, np.zeros(2), np.ones(2, dtype=bool)), lambda x: 1.0)
        assert m.sup_error is None and m.mise is None and m.degenerate_count == 2


class TestSimulationConfig:
    def test_requires_exactly_one_censoring_spec(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=1, seed=1)
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=1, seed=1, target_cp=0.5, c=-2.0)

    def test_rejects_zero_replications(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=0, seed=1, c=-2.0)

    def test_rejects_both_bandwidth_policies(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=1, seed=1, c=-2.0, h=0.5, cv_grid=BandwidthGrid(0.1, 1, 0.1))

    def test_defaults(self):
        cfg = SimulationConfig(n=10, replications=1, seed=1, c=-2.0)
        assert cfg.cv_grid == BandwidthGrid(0.01, 2.0, 0.01)
        assert cfg.grid.size == 61
        assert cfg.grid[0] == 1.0 and cfg.grid[-1] == 4.0
        assert cfg.estimators == (Estimator.LLRER,)

    def test_coerces_names(self):
        cfg = SimulationConfig(n=10, replications=1, seed=1, c=-2.0, estimators=("llrer", "cr"), kernel="epanechnikov")
        assert cfg.estimators == (Estimator.LLRER, Estimator.CR)

    def test_rejects_outlier_count_above_n(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=1, seed=1, c=-2.0, outlier_count=11)


class TestMonteCarloRun:
    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    def test_single_replication_is_plain_composition(self):
        cfg = SimulationConfig(
            n=40, replications=1, seed=31, c=-2.0, h=0.6,
            estimators=(Estimator.LLRER,), grid=np.linspace(1.0, 2.0, 5),
        )
        report = monte_carlo_run(cfg)
        gen = generate_sample(40, -2.0, np.random.SeedSequence(entropy=31, spawn_key=(1, 0, 0)))
        curve = fit_curve(Estimator.LLRER, gen.sample, EstimatorConfig(0.6), cfg.grid)
        got = report.results[0].curves[Estimator.LLRER]
        assert np.array_equal(got.values, curve.values)
        assert np.array_equal(got.degenerate, curve.degenerate)
        assert report.results[0].realized_cp == gen.realized_cp

    def test_outliers_enter_via_documented_stream(self):
        cfg = SimulationConfig(
            n=40, replications=1, seed=31, c=-2.0, h=0.6, outlier_count=5, outlier_mc=50.0,
            estimators=(Estimator.CR,), grid=np.linspace(1.0, 2.0, 5),
        )
        report = monte_carlo_run(cfg)
        gen = generate_sample(40, -2.0, np.random.SeedSequence(entropy=31, spawn_key=(1, 0, 0)))
        contaminated = inject_outliers(gen.sample, 5, 50.0, np.random.SeedSequence(entropy=31, spawn_key=(1, 0, 1)))
        curve = fit_curve(Estimator.CR, contaminated, EstimatorConfig(0.6), cfg.grid)
        assert np.array_equal(report.results[0].curves[Estimator.CR].values, curve.values)

    def test_bit_reproducible(self):
        cfg = SimulationConfig(
            n=30, replications=3, seed=8, c=-2.0, cv_grid=BandwidthGrid(0.3, 0.9, 0.3),
            estimators=(Estimator.LLRER, Estimator.CR), grid=np.linspace(1.0, 2.5, 7),
        )
        a = monte_carlo_run(cfg)
        b = monte_carlo_run(cfg)
        assert a.c == b.c
        for ra, rb in zip(a.results, b.results):
            assert ra.h_used == rb.h_used
            for est in cfg.estimators:
                assert np.array_equal(ra.curves[est].values, rb.curves[est].values)

    def test_parallel_matches_serial(self):
        cfg = SimulationConfig(
            n=25, replications=4, seed=9, c=-2.0, h=0.5,
            estimators=(Estimator.LLRER,), grid=np.linspace(1.0, 2.0, 5),
        )
        serial = monte_carlo_run(cfg, jobs=1)
        parallel = monte_carlo_run(cfg, jobs=3)
        for ra, rb in zip(serial.results, parallel.results):
            assert ra.rep == rb.rep
            assert np.array_equal(ra.curves[Estimator.LLRER].values, rb.curves[Estimator.LLRER].values)

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(64, 8, 3), (2, 8, 2), (64, 2, 2), (64, None, None), (1, 8, None), (4, 1, None)],
    )
    def test_worker_pool_capped(self, monkeypatch, tmp_path, jobs, cpus, workers):
        # the pool is replaced by an in-process stand-in that records its size,
        # so no worker process is ever started
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(llrer.simulate, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(llrer.simulate.os, "cpu_count", lambda: cpus)
        cfg = SimulationConfig(
            n=25, replications=3, seed=9, c=-2.0, h=0.5,
            estimators=(Estimator.CR,), grid=np.linspace(1.0, 2.0, 5),
        )
        write_curves_csv(monte_carlo_run(cfg, jobs=jobs), tmp_path / "pooled.csv")
        assert created == ([] if workers is None else [workers])
        write_curves_csv(monte_carlo_run(cfg), tmp_path / "serial.csv")
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_failed_replication_recorded_not_fatal(self):
        # n = 1 cannot cross-validate, so every replication fails but the
        # run itself completes
        cfg = SimulationConfig(n=1, replications=2, seed=5, c=-2.0, grid=np.array([1.0, 2.0]))
        report = monte_carlo_run(cfg)
        assert len(report.failures()) == 2
        assert all("cross-validation" in r.error for r in report.results)
        assert report.summary_rows() == []

    def test_calibrates_when_target_given(self):
        cfg = SimulationConfig(
            n=30, replications=1, seed=12, target_cp=0.5, h=0.5,
            estimators=(Estimator.CR,), grid=np.linspace(1.0, 2.0, 3),
        )
        report = monte_carlo_run(cfg)
        assert report.c == pytest.approx(-2.0, abs=0.05)

    def test_summary_rows_match_percentiles(self):
        cfg = SimulationConfig(
            n=60, replications=8, seed=13, c=-2.0, h=0.5,
            estimators=(Estimator.LLRER,), grid=np.linspace(1.0, 2.0, 9),
        )
        report = monte_carlo_run(cfg)
        sups = [r.metrics[Estimator.LLRER].sup_error for r in report.results]
        rows = {(est, metric): (med, q1, q3) for est, metric, med, q1, q3 in report.summary_rows()}
        med, q1, q3 = rows[("llrer", "sup_error")]
        assert med == pytest.approx(float(np.percentile(sups, 50)), rel=1e-12)
        assert q1 == pytest.approx(float(np.percentile(sups, 25)), rel=1e-12)
        assert q3 == pytest.approx(float(np.percentile(sups, 75)), rel=1e-12)


class TestConfigFile:
    def test_full_parse(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# comment line\n"
            "n = 120\n"
            "replications = 3\n"
            "seed = 42\n"
            "estimators = llrer, cr\n"
            "target_cp = 0.35  # trailing comment\n"
            "outlier_count = 5\n"
            "outlier_mc = 25\n"
            "grid = 1:2.5:16\n"
            "kernel = epanechnikov\n"
            "h_lo = 0.1\n"
            "h_hi = 1.0\n"
            "h_step = 0.1\n"
            "positive_only = true\n"
        )
        cfg = load_simulation_config(p)
        assert cfg.n == 120
        assert cfg.replications == 3
        assert cfg.seed == 42
        assert cfg.estimators == (Estimator.LLRER, Estimator.CR)
        assert cfg.target_cp == 0.35
        assert cfg.outlier_count == 5
        assert cfg.outlier_mc == 25.0
        assert cfg.grid.size == 16
        assert cfg.cv_grid == BandwidthGrid(0.1, 1.0, 0.1)
        assert cfg.positive_only is True

    def test_fixed_h(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = 1\nseed = 1\nc = -2\nh = 0.5\n")
        cfg = load_simulation_config(p)
        assert cfg.h == 0.5
        assert cfg.cv_grid is None

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = 1\nseed = 1\nc = -2\nbananas = 7\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_simulation_config(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nn = 11\nreplications = 1\nseed = 1\nc = -2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_simulation_config(p)

    def test_missing_required(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = 1\nc = -2\n")
        with pytest.raises(ConfigError, match="seed"):
            load_simulation_config(p)

    def test_h_conflict(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = 1\nseed = 1\nc = -2\nh = 0.5\nh_lo = 0.1\n")
        with pytest.raises(ConfigError, match="not both"):
            load_simulation_config(p)

    def test_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n 10\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_simulation_config(p)
