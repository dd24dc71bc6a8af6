import csv
import dataclasses
import inspect
import math
import re
from statistics import NormalDist
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import llrer.loclin
import llrer.simulate
import llrer.survival
from llrer import (
    DEFAULT_BANDWIDTH_GRID,
    DEFAULT_CALIBRATION_TOLERANCE,
    DEFAULT_GRID_SPEC,
    BandwidthGrid,
    ConfigError,
    CVPoint,
    DataError,
    ErrorMetrics,
    Estimator,
    EstimatorConfig,
    FittedCurve,
    KernelKind,
    ReplicationResult,
    SimulationConfig,
    SimulationReport,
    SurvivalStep,
    calibrate_censoring,
    config_lines,
    error_metrics,
    fit_curve,
    fit_curves,
    generate_sample,
    inject_outliers,
    load_simulation_config,
    monte_carlo_run,
    parse_grid_spec,
    select_bandwidth,
    theoretical_curve,
    write_curve_csv,
    write_curves_csv,
    write_cv_trace_csv,
    write_summary_csv,
)
from llrer.cli import bundled_config_names
from llrer.kernels import _BANDWIDTH_RANGE
from llrer.simulate import _censored_fraction, _quartiles

SD_DIFF = math.sqrt(5.04)  # var(T) + var(C) = 4.04 + 1


def per_point(reference):
    """reference evaluated one grid point at a time, as error_metrics once did."""
    return lambda grid: np.array([float(reference(float(x))) for x in grid])


def replication_seed(master, rep, stream):
    """Documented spawn keys: (1, r, 0) data and (1, r, 1) outliers of replication r."""
    return np.random.SeedSequence(entropy=master, spawn_key=(1, rep, stream))


def censoring_probability(c):
    """Closed form P(T > C) for the built-in process, via the normal difference."""
    return 0.5 * (1.0 - math.erf(((2.0 + c) / SD_DIFF) / math.sqrt(2.0)))


def whole_array_event_times(rng, n, positive_only):
    """(X, T) of the built-in process, each formula over whole arrays; (X, e) redrawn where T <= 0."""
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
    return x, t


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

    @pytest.mark.parametrize("n", (0, -1, 2.5, float("nan")))
    def test_same_message_as_simulation_config(self, n):
        with pytest.raises(ConfigError) as direct:
            generate_sample(n, 0.0, 1)
        with pytest.raises(ConfigError) as config:
            SimulationConfig(n=n, replications=1, seed=1, c=0.0, h=0.5)
        assert str(direct.value) == str(config.value)

    @pytest.mark.parametrize("positive_only", [False, True])
    @pytest.mark.parametrize("n", [1, 300, 131079])
    def test_equals_whole_array_formulas_bit_for_bit(self, n, positive_only):
        c, rng = -1.0, np.random.default_rng(29)
        x, t = whole_array_event_times(rng, n, positive_only)
        censor = 3.0 + c + rng.standard_normal(n)
        gen = generate_sample(n, c, 29, positive_only)
        assert gen.sample.x.tobytes() == x.tobytes()
        assert gen.event_times.tobytes() == t.tobytes()
        assert gen.censor_times.tobytes() == censor.tobytes()
        assert gen.sample.y.tobytes() == np.minimum(t, censor).tobytes()
        assert np.array_equal(gen.sample.delta, (t <= censor).astype(int))

    def test_integral_float_size(self):
        a, b = generate_sample(5.0, 0.0, 8), generate_sample(5, 0.0, 8)
        assert a.sample.y.tobytes() == b.sample.y.tobytes()


class TestCalibrateCensoring:
    def test_half_is_minus_two(self):
        c = calibrate_censoring(0.5, 0.005, seed=17)
        assert c == pytest.approx(-2.0, abs=0.05)

    def test_rejects_bad_target(self):
        for t in (0.0, 1.0, 1.5, -0.2, None, "0.35"):
            with pytest.raises(ConfigError, match="target censoring proportion must be a real number in"):
                calibrate_censoring(t, 0.005, seed=1)

    @pytest.mark.parametrize(
        "target_cp, tolerance, seed",
        [
            (0.5, 0.0, 1), (0.5, -0.1, 1), (0.5, math.inf, 1), (0.5, math.nan, 1),
            (0.0, 0.005, 1), (1.0, 0.005, 1), (math.nan, 0.005, 1), (0.5, 0.005, -1),
            ("0.35", 0.005, 1), (0.5, "0.005", 1),
        ],
    )
    def test_same_message_as_simulation_config(self, target_cp, tolerance, seed):
        with pytest.raises(ConfigError) as direct:
            calibrate_censoring(target_cp, tolerance, seed=seed)
        with pytest.raises(ConfigError) as config:
            SimulationConfig(n=10, replications=1, seed=seed, target_cp=target_cp, calibration_tolerance=tolerance)
        assert str(config.value) == str(direct.value)

    def test_deterministic(self):
        assert calibrate_censoring(0.65, 0.005, seed=4) == calibrate_censoring(0.65, 0.005, seed=4)

    def test_integral_float_seed(self):
        assert calibrate_censoring(0.65, 0.005, seed=4.0) == calibrate_censoring(0.65, 0.005, seed=4)

    def test_achieves_closed_form_target(self):
        for target in (0.35, 0.65):
            c = calibrate_censoring(target, 0.005, seed=9)
            assert censoring_probability(c) == pytest.approx(target, abs=0.01)

    def test_near_zero_target_needs_large_positive_shift(self):
        assert calibrate_censoring(0.05, 0.005, seed=6) > 0.0

    @settings(deadline=None)
    @given(st.floats(1e-6, 1.0 - 1e-6))
    @example(1e-6).via("the low end")
    @example(1.0 - 1e-6).via("the high end")
    def test_built_in_shift_is_the_normal_quantile(self, target):
        # T - C is N(-2 - c, 5.04), so P(T > C) = target at c = -sqrt(5.04) * Phi^-1(target) - 2
        want = -SD_DIFF * NormalDist().inv_cdf(target) - 2.0
        assert calibrate_censoring(target) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("positive_only", [False, True])
    @pytest.mark.parametrize("target", [0.35, 0.5])
    def test_proportion_matches_a_million_draws(self, target, positive_only):
        c = calibrate_censoring(target, positive_only=positive_only)
        rng = np.random.default_rng(2718)
        t = whole_array_event_times(rng, 10**6, positive_only)[1]
        drawn = float(np.mean(t > 3.0 + c + rng.standard_normal(10**6)))
        assert abs(_censored_fraction(c, positive_only) - drawn) <= 4.0 * math.sqrt(drawn * (1.0 - drawn) / 10**6)

    def test_positive_only_quadrature_matches_adaptive_quadrature(self):
        from scipy import integrate

        sd = math.sqrt(4.04)
        for c in np.linspace(-20.0, 20.0, 41):
            def density_times_censored(t):
                return math.exp(-0.5 * ((t - 1.0) / sd) ** 2) * 0.5 * math.erfc((3.0 + c - t) / math.sqrt(2.0))

            numerator = integrate.quad(density_times_censored, 0.0, math.inf, epsabs=1e-15, epsrel=1e-13)[0]
            positive = sd * math.sqrt(2.0 * math.pi) * 0.5 * math.erfc(-1.0 / (sd * math.sqrt(2.0)))
            assert _censored_fraction(c, True) == pytest.approx(numerator / positive, abs=1e-12), c

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.booleans())
    def test_shift_is_finite_non_increasing_and_inverts_the_proportion(self, a, b, positive_only):
        low, high = sorted((a, b))
        c_low, c_high = (calibrate_censoring(t, positive_only=positive_only) for t in (low, high))
        assert math.isfinite(c_low) and math.isfinite(c_high)
        assert c_low >= c_high
        for target, c in ((low, c_low), (high, c_high)):
            assert abs(_censored_fraction(c, positive_only) - target) <= 1e-9

    def test_tolerance_and_seed_do_not_move_the_shift(self):
        c = calibrate_censoring(0.35)
        assert calibrate_censoring(0.35, 0.2, seed=np.random.SeedSequence(entropy=3, spawn_key=(0,))) == c
        assert calibrate_censoring(0.35, 1e-12, seed=11) == c


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

    def test_integral_float_count(self):
        s = self.sample()
        assert np.array_equal(inject_outliers(s, 15.0, 100.0, 5).y, inject_outliers(s, 15, 100.0, 5).y)

    @pytest.mark.parametrize(
        "count, multiplier",
        [
            (2.5, 50.0), (-1, 50.0), (11, 50.0), (math.nan, 50.0), (2, 0.0), (2, -1.0), (2, math.inf), (2, math.nan),
            ("3", 50.0), (None, 50.0), (2, "2"), (2, None),
        ],
    )
    def test_same_message_as_simulation_config(self, count, multiplier):
        s = generate_sample(10, -1.0, 77).sample
        with pytest.raises(ConfigError) as direct:
            inject_outliers(s, count, multiplier, 1)
        with pytest.raises(ConfigError) as config:
            SimulationConfig(n=10, replications=1, seed=1, c=-2.0, outlier_count=count, outlier_mc=multiplier)
        assert str(config.value) == str(direct.value)


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

    def test_theoretical_curve_equals_per_point_loop(self):
        rng = np.random.default_rng(14)
        for grid in (np.linspace(1.0, 4.0, 61), np.linspace(-3.0, 2.0, 40), np.array([0.7])):
            assert theoretical_curve(grid).tobytes() == per_point(theoretical_curve)(grid).tobytes()
            for flags in (np.zeros(grid.size, dtype=bool), rng.random(grid.size) < 0.3):
                curve = FittedCurve(grid, 2.0 * grid + 1.0 + rng.normal(0.0, 0.1, grid.size), flags)
                assert error_metrics(curve, theoretical_curve) == error_metrics(curve, per_point(theoretical_curve))

    def test_scalar_reference(self):
        grid = np.array([0.0, 1.0, 3.0])
        m = error_metrics(FittedCurve(grid, np.array([1.5, 0.5, 1.0]), np.zeros(3, dtype=bool)), lambda x: 1.0)
        assert m == (0.5, 0.5 * 0.25 * 1.0 + 0.5 * 0.25 * 1.0 + 0.5 * 0.25 * 2.0, 0)

    @pytest.mark.parametrize("shape", [(3,), (1,), (5, 1), (1, 5)])
    def test_reference_of_another_shape_is_config_error(self, shape):
        grid = np.linspace(0.0, 1.0, 5)
        curve = FittedCurve(grid, np.zeros(5), np.zeros(5, dtype=bool))

        def wrong_shape(x):
            return np.ones(shape)

        message = f"reference wrong_shape must return a scalar or an array of shape (5,), got shape {shape}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            error_metrics(curve, wrong_shape)

    def test_overflowing_square_gives_inf_never_nan(self):
        # the squares of these errors overflow; pyproject turns numpy's
        # RuntimeWarning into an error
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([1e200, 0.5, 1e200, 2e200])
        m = error_metrics(FittedCurve(grid, values, np.array([False, True, False, False])), lambda x: 0.0)
        assert m == (2e200, math.inf, 1)
        # a segment with a degenerate end adds 0, not inf * 0 = nan
        m = error_metrics(FittedCurve(grid[:3], values[:3], np.array([False, True, False])), lambda x: 0.0)
        assert m == (1e200, 0.0, 1)


class TestSimulationConfig:
    def test_requires_exactly_one_censoring_spec(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=1, seed=1)
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=1, seed=1, target_cp=0.5, c=-2.0)

    @pytest.mark.parametrize("c", ["0.5", math.nan, -math.inf])
    def test_rejects_non_real_or_non_finite_shift(self, c):
        with pytest.raises(ConfigError, match=r"^c must be a real number in \(-inf, inf\), got "):
            SimulationConfig(n=10, replications=1, seed=1, c=c)

    def test_stores_real_values_as_floats(self):
        given = SimulationConfig(n=10, replications=1, seed=1, c=np.int64(-2), calibration_tolerance=1)
        assert type(given.c) is float and given.c == -2.0
        assert type(given.calibration_tolerance) is float and given.calibration_tolerance == 1.0
        target = SimulationConfig(n=10, replications=1, seed=1, target_cp=np.float32(0.5))
        assert type(target.target_cp) is float and target.target_cp == 0.5

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_positive_only_must_be_a_bool(self, flag):
        # a truthy string would draw positive-only data while config.cfg printed "false"
        with pytest.raises(ConfigError, match=f"^positive_only must be a bool, got {re.escape(repr(flag))}$"):
            SimulationConfig(n=10, replications=1, seed=1, c=-2.0, positive_only=flag)
        assert SimulationConfig(n=10, replications=1, seed=1, c=-2.0, positive_only=np.True_).positive_only is True

    @pytest.mark.parametrize("grid", [(0.1, 1, 0.1), [0.1, 0.5], "0.1:1:0.1"])
    def test_cv_grid_must_be_a_bandwidth_grid(self, grid):
        with pytest.raises(ConfigError, match="^cv_grid must be a BandwidthGrid, got "):
            SimulationConfig(n=10, replications=1, seed=1, c=-2.0, cv_grid=grid)

    def test_rejects_zero_replications(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, replications=0, seed=1, c=-2.0)

    @pytest.mark.parametrize("field", ("n", "replications", "seed"))
    def test_rejects_fractional_count(self, field):
        # n, replications and seed follow one integer rule; 2.5 is not truncated
        minimum = 0 if field == "seed" else 1
        with pytest.raises(ConfigError, match=rf"^{field} must be an integer in \[{minimum}, inf\), got 2\.5$"):
            SimulationConfig(**{"n": 10, "replications": 1, "seed": 1, "c": -2.0, field: 2.5})

    @pytest.mark.parametrize(
        "estimators, match",
        [((), "at least one"), (("llrer", "llrer"), "repeat"), ((Estimator.CR, "cr"), "repeat")],
        ids=["none", "twice", "name_and_member"],
    )
    def test_rejects_empty_or_repeated_estimators(self, estimators, match):
        with pytest.raises(ConfigError, match=match):
            SimulationConfig(n=10, replications=1, seed=1, c=-2.0, estimators=estimators)

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

    def test_cross_validation_needs_two_observations(self):
        with pytest.raises(ConfigError, match="n >= 2"):
            SimulationConfig(n=1, replications=1, seed=1, c=-2.0)
        with pytest.raises(ConfigError, match="n >= 2"):
            SimulationConfig(n=1, replications=1, seed=1, c=-2.0, cv_grid=BandwidthGrid(0.1, 1.0, 0.1))
        assert SimulationConfig(n=1, replications=1, seed=1, c=-2.0, h=0.5).h == 0.5
        assert SimulationConfig(n=2, replications=1, seed=1, c=-2.0).cv_grid == DEFAULT_BANDWIDTH_GRID

    @pytest.mark.parametrize(
        "grid", [[1.0, float("nan"), 3.0], [float("nan")], [float("inf")], [1.0, float("inf")], [-np.inf, 0.0]]
    )
    def test_rejects_non_finite_grid(self, grid):
        with pytest.raises(ConfigError, match="grid"):
            SimulationConfig(n=10, replications=1, seed=1, c=-2.0, grid=np.array(grid))

    def test_rejects_grid_through_the_pole(self):
        for grid in (parse_grid_spec("-1:0:3"), np.array([-0.5]), np.array([-2.0, -0.5, 1.0])):
            with pytest.raises(ConfigError, match="-0.5"):
                SimulationConfig(n=10, replications=1, seed=1, c=-2.0, h=0.5, grid=grid)
        near = np.array([np.nextafter(-0.5, -1.0), np.nextafter(-0.5, 0.0)])
        assert np.array_equal(SimulationConfig(n=10, replications=1, seed=1, c=-2.0, h=0.5, grid=near).grid, near)

    def test_defaults_have_one_copy(self):
        cfg = SimulationConfig(n=10, replications=1, seed=1, c=-2.0)
        assert np.array_equal(cfg.grid, parse_grid_spec(DEFAULT_GRID_SPEC))
        assert np.array_equal(cfg.grid, np.linspace(1.0, 4.0, 61))
        assert cfg.calibration_tolerance == DEFAULT_CALIBRATION_TOLERANCE == 0.005
        tolerance = inspect.signature(calibrate_censoring).parameters["tolerance"].default
        assert tolerance == DEFAULT_CALIBRATION_TOLERANCE


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
        # responses scaled towards zero overflow their synthetic responses,
        # so every replication fails but the run itself completes
        cfg = SimulationConfig(
            n=5, replications=2, seed=5, c=-2.0, outlier_count=5, outlier_mc=1e-300, grid=np.array([1.0, 2.0])
        )
        report = monte_carlo_run(cfg)
        assert len(report.failures()) == 2
        assert all("overflow" in r.error for r in report.results)
        assert report.summary_rows() == []

    def test_calibrates_when_target_given(self):
        cfg = SimulationConfig(
            n=30, replications=1, seed=12, target_cp=0.5, h=0.5,
            estimators=(Estimator.CR,), grid=np.linspace(1.0, 2.0, 3),
        )
        report = monte_carlo_run(cfg)
        assert report.c == pytest.approx(-2.0, abs=0.05)

    def test_positive_only_calibration_reaches_the_target(self):
        # calibration computes the proportion of the process with the rejection
        # step that the replications draw, so the realized censoring meets the target
        cfg = SimulationConfig(
            n=2000, replications=20, seed=14, target_cp=0.35, h=0.5, positive_only=True,
            estimators=(Estimator.CR,), grid=np.linspace(1.0, 2.0, 3),
        )
        report = monte_carlo_run(cfg)
        assert np.mean([r.realized_cp for r in report.results]) == pytest.approx(0.35, abs=0.02)

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

    def test_quartiles_are_numpy_percentiles_bit_for_bit_and_reach_inf_without_nan(self):
        rng = np.random.default_rng(8)
        hexes = lambda qs: [float(q).hex() for q in qs]
        for n in range(1, 40):
            for vals in (rng.random(n) * 10.0 ** rng.integers(-300, 300), rng.integers(0, 62, n).tolist()):
                assert hexes(_quartiles(vals)) == hexes(np.percentile(vals, [25.0, 50.0, 75.0])), vals
        # np.percentile gives nan for each of these but the first quartile 1.75
        assert _quartiles([1.0, 2.0, math.inf, math.inf]) == [1.75, math.inf, math.inf]
        assert _quartiles([0.0, 2.0, math.inf, math.inf, math.inf]) == [2.0, math.inf, math.inf]
        assert _quartiles([math.inf]) == [math.inf] * 3

    def test_overflowing_errors_give_inf_metrics_and_quartiles(self):
        # 5 of 50 responses scaled by 1e200 put the LLCR and CR curves about
        # 1e200 from the reference, so their squared errors overflow: their
        # mise and its quartiles are inf, never nan, and no replication fails
        # on numpy's RuntimeWarning, which pyproject makes an error
        cfg = SimulationConfig(
            n=50, replications=2, seed=1, target_cp=0.35, h=0.3, outlier_count=5, outlier_mc=1e200,
            estimators=tuple(Estimator),
        )
        report = monte_carlo_run(cfg)
        assert report.failures() == []
        for r in report.results:
            for est in (Estimator.LLCR, Estimator.CR):
                assert r.metrics[est].mise == math.inf and 1e199 < r.metrics[est].sup_error < math.inf
        rows = {(est, metric): stats for est, metric, *stats in report.summary_rows()}
        assert rows[("llcr", "mise")] == rows[("cr", "mise")] == [math.inf] * 3
        assert not any(math.isnan(v) for stats in rows.values() for v in stats)


def per_estimator_recipe(config, c, rep):
    """One replication as it was computed before the shared pass: a bandwidth
    selection, a curve (with its own Kaplan-Meier fit) and a per-point
    reference loop for each estimator alone. {estimator: (h, curve, metrics)}"""
    sample = generate_sample(config.n, c, replication_seed(config.seed, rep, 0), config.positive_only).sample
    if config.outlier_count:
        sample = inject_outliers(sample, config.outlier_count, config.outlier_mc, replication_seed(config.seed, rep, 1))
    out = {}
    for est in config.estimators:
        h = config.h
        if h is None:
            h = select_bandwidth(est, sample, config.kernel, config.cv_grid, config.denominator_epsilon).h_opt
        curve = fit_curve(est, sample, EstimatorConfig(h, config.kernel, config.denominator_epsilon), config.grid)
        out[est] = (float(h), curve, error_metrics(curve, per_point(theoretical_curve)))
    return out


def row_by_row_curves_csv(report, path):
    """write_curves_csv as it was before it wrote a curve per call."""
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


FIXED_H_STUDY = SimulationConfig(
    n=80, replications=3, seed=21, c=-1.0, h=0.4, outlier_count=4, outlier_mc=50.0,
    estimators=(Estimator.LLCR, Estimator.LLRER, Estimator.CR), grid=np.linspace(1.0, 4.0, 61),
)
CV_STUDY = SimulationConfig(
    n=40, replications=4, seed=23, c=-1.0, cv_grid=BandwidthGrid(0.2, 1.0, 0.2),
    estimators=(Estimator.LLRER, Estimator.LLCR, Estimator.CR), grid=np.linspace(1.0, 4.0, 61),
)


class TestReplication:
    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("config", [FIXED_H_STUDY, CV_STUDY], ids=["fixed_h", "cv"])
    def test_equals_per_estimator_recipe(self, config):
        groups = set()
        results = monte_carlo_run(config).results
        for rep in range(config.replications):
            result = results[rep]
            want = per_estimator_recipe(config, -1.0, rep)
            for est, (h, curve, metrics) in want.items():
                assert type(result.h_used[est]) is float and result.h_used[est] == h
                assert result.curves[est].values.tobytes() == curve.values.tobytes()
                assert np.array_equal(result.curves[est].degenerate, curve.degenerate)
                assert result.metrics[est] == metrics
            groups.add(len(set(result.h_used.values())))
        # fixed h is one group; this CV study's replications select one, two
        # and three distinct bandwidths
        assert groups == ({1} if config.h is not None else {1, 2, 3})

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("config", [FIXED_H_STUDY, CV_STUDY], ids=["fixed_h", "cv"])
    def test_one_kaplan_meier_fit_for_the_curves(self, config):
        # one stacked Kaplan-Meier pass and one fit serve each block of two replications; cross-validation
        # fits its own target step inside bandwidth
        passes = mock.patch.object(
            llrer.loclin, "_kaplan_meier_responses", wraps=llrer.survival._kaplan_meier_responses
        )
        calls = mock.patch.object(llrer.simulate, "_fit_rows", wraps=llrer.simulate._fit_rows)
        with mock.patch.object(llrer.simulate, "_REPLICATION_BLOCK", 2), passes as km, calls as fits:
            report = monte_carlo_run(config)
        assert not report.failures()
        assert km.call_count == fits.call_count == (config.replications + 1) // 2

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    def test_one_left_limit_evaluation_per_fixed_h_replication(self):
        # in blocks of one replication; the left limits come from the product-limit pass, not a step
        assert len(FIXED_H_STUDY.estimators) == 3
        limits = mock.patch.object(llrer.survival, "_left_limits", wraps=llrer.survival._left_limits)
        steps = mock.patch.object(SurvivalStep, "eval", autospec=True, side_effect=SurvivalStep.eval)
        with mock.patch.object(llrer.simulate, "_REPLICATION_BLOCK", 1), limits as evals, steps as step_evals:
            report = monte_carlo_run(FIXED_H_STUDY)
        assert not report.failures()
        assert evals.call_count == FIXED_H_STUDY.replications
        assert step_evals.call_count == 0


# one outlier scaled by 1e-300 overflows y**-2 where it is uncensored: replications 1, 3, 5 and 6 fail
OVERFLOWING_STUDY = SimulationConfig(
    n=30, replications=7, seed=1, c=-2.0, h=0.5, outlier_count=1, outlier_mc=1e-300,
    estimators=tuple(Estimator), grid=np.linspace(0.0, 2.0, 11),
)


class TestBlocks:
    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("size", [1, 3, 16])
    def test_a_failed_replication_is_recorded_alone(self, size):
        config = OVERFLOWING_STUDY
        with mock.patch.object(llrer.simulate, "_REPLICATION_BLOCK", size):
            report = monte_carlo_run(config)
        assert [r.rep for r in report.failures()] == [1, 3, 5, 6]
        for result in report.results:
            sample = generate_sample(config.n, config.c, replication_seed(config.seed, result.rep, 0)).sample
            sample = inject_outliers(sample, 1, 1e-300, replication_seed(config.seed, result.rep, 1))
            configs = dict.fromkeys(config.estimators, EstimatorConfig(0.5))
            try:
                want = fit_curves(configs, sample, config.grid)
            except DataError as exc:
                assert result.error == f"DataError: {exc}"
                continue
            assert result.error is None and result.h_used == dict.fromkeys(config.estimators, 0.5)
            for est, curve in want.items():
                assert result.curves[est].values.tobytes() == curve.values.tobytes()
                assert np.array_equal(result.curves[est].degenerate, curve.degenerate)
                assert result.metrics[est] == error_metrics(curve, theoretical_curve)

    def test_a_failed_shared_step_is_recorded_for_each_replication_of_its_block(self):
        def fail_second_block(configs, samples, grid):
            if fit_rows.call_count == 2:
                raise RuntimeError("forced failure")
            return llrer.loclin._fit_rows(configs, samples, grid)

        patcher = mock.patch.object(llrer.simulate, "_fit_rows", side_effect=fail_second_block)
        with mock.patch.object(llrer.simulate, "_REPLICATION_BLOCK", 2), patcher as fit_rows:
            report = monte_carlo_run(dataclasses.replace(FIXED_H_STUDY, replications=5))
        assert [(r.rep, r.error) for r in report.failures()] == [(2, "RuntimeError: forced failure"),
                                                                (3, "RuntimeError: forced failure")]
        assert all(r.curves for r in report.results if r.error is None)


class TestWriteCurvesCsv:
    def test_equals_row_by_row_writer_on_edge_floats(self, tmp_path):
        grid = np.array([-0.0, 5e-324, 1.0, 1e16])
        config = SimulationConfig(
            n=5, replications=3, seed=0, c=0.0, h=0.3, estimators=(Estimator.CR, Estimator.LLRER), grid=grid
        )
        live = np.zeros(4, dtype=bool)
        curves = {
            Estimator.CR: FittedCurve(grid, np.array([-0.0, 5e-324, 1e16, 0.1]), live),
            Estimator.LLRER: FittedCurve(grid, np.zeros(4), np.array([True, False, True, True])),
        }
        results = (
            ReplicationResult(0, 0.2, 0, dict.fromkeys(curves, 0.3), curves, {}),
            ReplicationResult(1, float("nan"), 0, {}, {}, {}, error="DataError: forced"),
            ReplicationResult(2, 0.4, 1, dict.fromkeys(curves, 0.3), dict(reversed(curves.items())), {}),
        )
        report = SimulationReport(config, 0.0, results)
        write_curves_csv(report, tmp_path / "batched.csv")
        row_by_row_curves_csv(report, tmp_path / "rows.csv")
        text = (tmp_path / "batched.csv").read_bytes()
        assert text == (tmp_path / "rows.csv").read_bytes()
        assert b"\r\n0,cr,-0.0,-0.0,0\r\n0,cr,5e-324,5e-324,0\r\n0,cr,1.0,1e+16,0\r\n" in text
        assert b"\r\n2,llrer,1e+16,0.0,1\r\n" in text and b"\r\n1," not in text

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    def test_equals_row_by_row_writer_on_a_run(self, tmp_path):
        report = monte_carlo_run(dataclasses.replace(FIXED_H_STUDY, replications=2))
        write_curves_csv(report, tmp_path / "batched.csv")
        row_by_row_curves_csv(report, tmp_path / "rows.csv")
        assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]


def csv_writer_bytes(path, header, rows):
    """The bytes csv.writer writes for header and rows; floats go in as floats, ints as ints."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestCsvWriters:
    """Every CSV writer writes the bytes csv.writer writes, with CRLF line ends."""

    grid = np.array([-1.0, -0.0, 5e-324, 1.0, 1e16, 1e300])
    flags = np.array([False, True, False, False, True, False])

    def report(self):
        config = SimulationConfig(
            n=5, replications=3, seed=0, c=0.0, h=0.3, estimators=(Estimator.LLRER, Estimator.CR), grid=self.grid
        )
        curves = {
            Estimator.LLRER: FittedCurve(self.grid, EDGE_VALUES, self.flags),
            Estimator.CR: FittedCurve(self.grid, EDGE_VALUES[::-1], ~self.flags),
        }
        # no infinite metric: np.percentile warns when it interpolates between inf and another value
        finite = [math.nan, -0.0, 5e-324, 1e300]
        metrics = [ErrorMetrics(v, w, k) for v, w, k in zip(finite, finite[::-1], range(4))]
        results = (
            ReplicationResult(0, 0.2, 0, dict.fromkeys(curves, 0.3), curves, dict(zip(curves, metrics[:2]))),
            ReplicationResult(1, math.nan, 0, {}, {}, {}, error="DataError: forced"),
            ReplicationResult(2, 0.4, 1, dict.fromkeys(curves, 0.3), curves, dict(zip(curves, metrics[2:4]))),
        )
        return SimulationReport(config, 0.0, results)

    @staticmethod
    def assert_crlf(data):
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")

    def test_curve(self, tmp_path):
        curve = FittedCurve(self.grid, EDGE_VALUES, self.flags)
        write_curve_csv(curve, tmp_path / "curve.csv")
        rows = zip(self.grid.tolist(), EDGE_VALUES, self.flags.astype(int).tolist())
        expected = csv_writer_bytes(tmp_path / "expected.csv", ("x", "estimate", "degenerate"), rows)
        data = (tmp_path / "curve.csv").read_bytes()
        assert data == expected
        assert b"\r\n-0.0,inf,1\r\n5e-324,-inf,0\r\n" in data and b"\r\n1e+300,1e+300,0\r\n" in data
        self.assert_crlf(data)

    def test_curves_skip_a_failed_replication(self, tmp_path):
        report = self.report()
        write_curves_csv(report, tmp_path / "curves.csv")
        rows = [
            (r.rep, est.value, x, v, int(d))
            for r in report.results if r.error is None for est in report.config.estimators
            for x, v, d in zip(self.grid.tolist(), r.curves[est].values.tolist(), r.curves[est].degenerate)
        ]
        header = ("rep", "estimator", "x", "estimate", "degenerate")
        data = (tmp_path / "curves.csv").read_bytes()
        assert data == csv_writer_bytes(tmp_path / "expected.csv", header, rows)
        assert b"\r\n0,llrer,-1.0,nan,0\r\n" in data and b"\r\n2,cr,1e+300,nan,1\r\n" in data
        assert b"\r\n1," not in data and len(rows) == 24
        self.assert_crlf(data)

    def test_summary(self, tmp_path):
        report = self.report()
        write_summary_csv(report, tmp_path / "summary.csv")
        rows = report.summary_rows()
        data = (tmp_path / "summary.csv").read_bytes()
        assert data == csv_writer_bytes(tmp_path / "expected.csv", ("estimator", "metric", "median", "q1", "q3"), rows)
        assert b"\r\nllrer,sup_error,nan,nan,nan\r\n" in data and len(rows) == 6
        self.assert_crlf(data)

    def test_cv_trace(self, tmp_path):
        trace = [CVPoint(h, score, k) for h, score, k in zip((0.1, 0.2, 0.3, 5e-324, 1.0, 1e300), EDGE_VALUES, range(6))]
        write_cv_trace_csv(trace, tmp_path / "trace.csv")
        expected = csv_writer_bytes(tmp_path / "expected.csv", ("h", "score", "degenerate_folds"), trace)
        data = (tmp_path / "trace.csv").read_bytes()
        assert data == expected
        assert data.startswith(b"h,score,degenerate_folds\r\n0.1,nan,0\r\n0.2,inf,1\r\n0.3,-inf,2\r\n")
        self.assert_crlf(data)


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


class TestParseGridSpec:
    @pytest.mark.parametrize("spec", ["-inf:0:5", "1:inf:5", "nan:1:3", "inf:inf:1", "1:nan:1"])
    def test_rejects_non_finite_ends(self, spec):
        with pytest.raises(ConfigError, match="finite"):
            parse_grid_spec(spec)

    @pytest.mark.parametrize(
        "spec, match", [("1:4", "lo:hi:count"), ("a:4:3", "lo:hi:count"), ("1:4:x", "lo:hi:count"), ("1:2:1", "lo == hi")]
    )
    def test_rejects_malformed_spec(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            parse_grid_spec(spec)

    def test_linspace(self):
        assert np.array_equal(parse_grid_spec("1:2.5:16"), np.linspace(1.0, 2.5, 16))
        assert np.array_equal(parse_grid_spec("2:2:1"), np.array([2.0]))


def assert_same_config(a, b):
    for f in dataclasses.fields(SimulationConfig):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "grid":
            assert np.array_equal(x, y)
        else:
            assert x == y, f.name


def reload_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return load_simulation_config(path)


finite = dict(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, **finite)


@st.composite
def simulation_configs(draw):
    """Valid SimulationConfigs whose grid is a lo:hi:count linspace."""
    use_h = draw(st.booleans())
    n = draw(st.integers(1 if use_h else 2, 10**6))
    count = draw(st.integers(1, 200))
    lo = draw(st.floats(-1e3, 1e3))
    hi = lo if count == 1 else lo + draw(st.floats(1e-3, 1e3))
    grid = np.linspace(lo, hi, count)
    assume(not np.any(grid == -0.5))  # the reference curve's pole
    if draw(st.booleans()):
        censoring = {"target_cp": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))}
    else:
        censoring = {"c": draw(st.floats(**finite))}
    if use_h:
        bandwidth = {"h": draw(st.floats(*_BANDWIDTH_RANGE))}
    else:
        # every value of the grid rounds to a bandwidth, and it holds at most about 10**4 of them
        h_lo = draw(st.floats(1e-12, 1e3))
        h_hi = draw(st.floats(h_lo, 2e3))
        step = draw(st.floats((h_hi - h_lo) / 1e4, 1e300, exclude_min=h_hi == h_lo))
        bandwidth = {"cv_grid": BandwidthGrid(h_lo, h_hi, step)}
    return SimulationConfig(
        n=n,
        replications=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64)),
        estimators=tuple(draw(st.lists(st.sampled_from(list(Estimator)), min_size=1, max_size=3, unique=True))),
        outlier_count=draw(st.integers(0, n)),
        outlier_mc=draw(positive),
        grid=grid,
        kernel=draw(st.sampled_from(list(KernelKind))),
        positive_only=draw(st.booleans()),
        denominator_epsilon=draw(st.floats(0.0, 1.0)),
        calibration_tolerance=draw(positive),
        **censoring,
        **bandwidth,
    )


class TestConfigLines:
    @pytest.mark.parametrize("name", bundled_config_names())
    def test_bundled_configs_round_trip(self, tmp_path, name):
        cfg = load_simulation_config(resources.files("llrer").joinpath("configs", name))
        lines = config_lines(cfg)
        again = reload_lines(tmp_path / name, lines)
        assert_same_config(cfg, again)
        assert config_lines(again) == lines

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(simulation_configs())
    def test_round_trip(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        lines = config_lines(cfg)
        again = reload_lines(path, lines)
        assert_same_config(cfg, again)
        assert config_lines(again) == lines

    def test_absent_values_are_left_out(self):
        keys = lambda cfg: [line.split(" = ")[0] for line in config_lines(cfg)]
        fixed = keys(SimulationConfig(n=10, replications=1, seed=1, c=-2.0, h=0.5))
        assert "c" in fixed and "h" in fixed
        assert not {"target_cp", "h_lo", "h_hi", "h_step"} & set(fixed)
        cv = keys(SimulationConfig(n=10, replications=1, seed=1, target_cp=0.5))
        assert {"target_cp", "h_lo", "h_hi", "h_step"} <= set(cv)
        assert not {"c", "h"} & set(cv)

    def test_prints_plain_floats(self):
        cfg = SimulationConfig(
            n=10, replications=1, seed=1, c=np.float64(-2.5), outlier_mc=np.float32(0.5), grid=np.linspace(1.0, 4.0, 61)
        )
        lines = config_lines(cfg)
        assert "grid = 1.0:4.0:61" in lines
        assert "c = -2.5" in lines and "outlier_mc = 0.5" in lines
        assert not any("np." in line for line in lines)

    def test_rejects_grid_a_spec_cannot_hold(self):
        cfg = SimulationConfig(n=10, replications=1, seed=1, c=-2.0, grid=np.array([1.0, 2.0, 4.0]))
        with pytest.raises(ConfigError, match="lo:hi:count"):
            config_lines(cfg)


class TestConfigFileErrors:
    def test_bad_value_names_line_and_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = many\nseed = 1\nc = -2\n")
        with pytest.raises(ConfigError, match="line 2: bad value for 'replications'"):
            load_simulation_config(p)

    def test_bad_flag(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = 1\nseed = 1\nc = -2\npositive_only = maybe\n")
        with pytest.raises(ConfigError, match="line 5: bad value for 'positive_only'"):
            load_simulation_config(p)

    def test_duplicate_bandwidth_part(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = 1\nseed = 1\nc = -2\nh_lo = 0.1\nh_lo = 0.2\n")
        with pytest.raises(ConfigError, match="line 6: duplicate key 'h_lo'"):
            load_simulation_config(p)

    def test_missing_bandwidth_parts_take_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 10\nreplications = 1\nseed = 1\nc = -2\nh_hi = 0.5\n")
        grid = load_simulation_config(p).cv_grid
        assert grid == BandwidthGrid(DEFAULT_BANDWIDTH_GRID.lo, 0.5, DEFAULT_BANDWIDTH_GRID.step)

    @pytest.mark.parametrize("name", ("absent.cfg", "."), ids=("missing", "directory"))
    def test_unreadable_path_names_file(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ConfigError, match=str(path)):
            load_simulation_config(path)

    def test_invalid_config_names_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 1\nreplications = 1\nseed = 1\nc = -2\n")
        with pytest.raises(ConfigError, match=r"run\.cfg: cross-validation needs n >= 2"):
            load_simulation_config(p)
