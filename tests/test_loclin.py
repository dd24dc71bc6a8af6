import contextlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llrer import (
    CensoredSample,
    ConfigError,
    DataError,
    Estimator,
    EstimatorConfig,
    FittedCurve,
    KernelKind,
    cr_point,
    fit_curve,
    fit_curves,
    km_censoring_survival,
    llcr_point,
    llcr_point_naive,
    llrer_point,
    llrer_point_naive,
    generate_sample,
    moment_statistics,
    required_orders,
    SurvivalStep,
    SyntheticResponses,
    synthetic_transform,
    write_curve_csv,
)
import llrer.loclin
from llrer.loclin import _blocks


def gauss(u):
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


POINT_FN = {Estimator.LLRER: llrer_point, Estimator.LLCR: llcr_point, Estimator.CR: cr_point}
ORACLE = {Estimator.LLRER: llrer_point_naive, Estimator.LLCR: llcr_point_naive, Estimator.CR: cr_point}


def random_censored_sample(rng, n):
    y = rng.lognormal(mean=0.5, sigma=0.6, size=n)
    delta = rng.integers(0, 2, n)
    delta[rng.integers(0, n)] = 1  # keep at least one uncensored
    x = rng.normal(size=n)
    return CensoredSample(y, delta, x)


@contextlib.contextmanager
def block_rows(n, rows):
    """Force blocks of `rows` evaluation points on a sample of n observations,
    and check that the curves cut every block they made that way."""
    cuts = []

    def recorded_blocks(count, width):
        cuts.append((count, list(_blocks(count, width))))
        return iter(cuts[-1][1])

    with mock.patch.object(llrer.loclin, "_BLOCK_ENTRIES", rows * n), mock.patch.object(
        llrer.loclin, "_blocks", recorded_blocks
    ):
        yield
    for count, blocks in cuts:
        assert [(b.start, b.stop) for b in blocks] == [(lo, lo + rows) for lo in range(0, count, rows)]


def condition_number(est, sample, step, config, x):
    """|leading product| / |denominator| of the local linear fit at x (1 for CR)."""
    if est is Estimator.CR:
        return 1.0
    m = moment_statistics(sample, [synthetic_transform(sample, step, o) for o in required_orders(est)], config, x)
    s = m.response_moments[2] if est is Estimator.LLRER else m.kernel_moments
    den = abs(s[2] * s[0] - s[1] * s[1])
    return abs(s[2] * s[0]) / den if den > 0.0 else math.inf


@st.composite
def curve_cases(draw):
    """Samples on a coarse lattice (ties in x and y, all-censored allowed) and
    grids running past the data into tails that are degenerate for the
    Epanechnikov kernel. Gaussian grids stay within a few bandwidths, where
    no denominator falls near the degeneracy threshold by rounding alone."""
    n = draw(st.integers(2, 25))
    x = draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(2, 16), min_size=n, max_size=n))
    delta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    kernel = draw(st.sampled_from(list(KernelKind)))
    h = draw(st.sampled_from((0.3, 0.5, 1.0) if kernel is KernelKind.EPANECHNIKOV else (0.5, 1.0)))
    est = draw(st.sampled_from(list(Estimator)))
    reach = 2.6 if kernel is KernelKind.EPANECHNIKOV else 1.2
    grid = np.linspace(-reach, reach, draw(st.integers(1, 31))) + 0.0123
    sample = CensoredSample(np.array(y) / 4.0, np.array(delta), np.array(x) / 10.0)
    return sample, est, EstimatorConfig(h, kernel), grid


class TestEstimatorConfig:
    def test_rejects_bad_bandwidth(self):
        for h in (0.0, -0.5, float("nan")):
            with pytest.raises(ConfigError):
                EstimatorConfig(h)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(1.0, denominator_epsilon=-1e-9)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(1.0, kernel="gaussian")

    def test_estimator_names(self):
        assert Estimator.from_name("LLRER") is Estimator.LLRER
        with pytest.raises(ConfigError):
            Estimator.from_name("ols")


class TestMomentStatistics:
    def test_single_point_at_anchor(self):
        s = CensoredSample([1.0], [1], [0.7])
        step = km_censoring_survival(s)
        responses = [synthetic_transform(s, step, o) for o in (1, 2)]
        m = moment_statistics(s, responses, EstimatorConfig(1.0), 0.7)
        k0 = gauss(0.0)
        for order in (1, 2):
            assert m.response_moments[order][0] == pytest.approx(k0, rel=1e-15)
            assert m.response_moments[order][1] == 0.0
            assert m.response_moments[order][2] == 0.0

    def test_all_censored_zero(self):
        s = CensoredSample([1.0, 2.0, 4.0], [0, 0, 0], [0.0, 1.0, 2.0])
        step = km_censoring_survival(s)
        responses = [synthetic_transform(s, step, o) for o in (1, 2)]
        m = moment_statistics(s, responses, EstimatorConfig(0.5), 1.0)
        for order in (1, 2):
            for gamma in range(3):
                assert m.response_moments[order][gamma] == 0.0

    def test_against_direct_summation(self):
        rng = np.random.default_rng(31)
        s = random_censored_sample(rng, 5)
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.8, KernelKind.EPANECHNIKOV)
        responses = {o: synthetic_transform(s, step, o) for o in (-1, 1, 2)}
        x0 = 0.3
        m = moment_statistics(s, responses.values(), cfg, x0)
        for order in (-1, 1, 2):
            tau = responses[order].values
            for gamma in range(3):
                direct = 0.0
                for i in range(s.n):
                    d = s.x[i] - x0
                    u = d / 0.8
                    k = 0.75 * (1 - u * u) if abs(u) <= 1 else 0.0
                    direct += tau[i] * d**gamma * k
                assert m.response_moments[order][gamma] == pytest.approx(direct, rel=1e-13, abs=1e-13)
        for gamma in range(3):
            direct = sum(
                (s.x[i] - x0) ** gamma * (0.75 * (1 - ((s.x[i] - x0) / 0.8) ** 2) if abs((s.x[i] - x0) / 0.8) <= 1 else 0.0)
                for i in range(s.n)
            )
            assert m.kernel_moments[gamma] == pytest.approx(direct, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_infinite_point_has_zero_moments(self, kernel):
        # every weight is 0 there; pyproject turns a RuntimeWarning, as of a 0 * inf, into an error
        s = CensoredSample([1.0, 2.0, 4.0], [1, 0, 1], [0.0, 1.0, 2.0])
        step = km_censoring_survival(s)
        responses = [synthetic_transform(s, step, o) for o in (-1, 1, 2)]
        for x in (math.inf, -math.inf):
            m = moment_statistics(s, responses, EstimatorConfig(0.5, kernel), x)
            assert m.kernel_moments.tolist() == [0.0, 0.0, 0.0]
            assert {o: r.tolist() for o, r in m.response_moments.items()} == dict.fromkeys((-1, 1, 2), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_ratios_of_the_sums_are_the_point_estimates(self, kernel):
        # the point estimates read their five sums from the same moments, so their ratios agree bit for bit
        fitted = 0
        for seed in range(3):
            s = random_censored_sample(np.random.default_rng(seed), 60)
            step = km_censoring_survival(s)
            cfg = EstimatorConfig(0.4, kernel)
            responses = [synthetic_transform(s, step, o) for o in (-1, 1, 2)]
            for x in np.linspace(-2.5, 2.5, 26):
                m = moment_statistics(s, responses, cfg, x)
                k, t, r1, r2 = m.kernel_moments, m.response_moments[-1], m.response_moments[1], m.response_moments[2]
                ratios = {
                    llrer_point: (r2[2] * r1[0] - r2[1] * r1[1], r2[2] * r2[0] - r2[1] * r2[1]),
                    llcr_point: (k[2] * t[0] - k[1] * t[1], k[2] * k[0] - k[1] * k[1]),
                    cr_point: (t[0], k[0]),
                }
                for point, (num, den) in ratios.items():
                    want = point(s, step, cfg, x)
                    if not want.degenerate:
                        assert num / den == want.value, (point.__name__, seed, x)
                        fitted += 1
        assert fitted > 150


class TestFastVsNaive:
    def test_random_agreement(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            s = random_censored_sample(rng, n)
            step = km_censoring_survival(s)
            cfg = EstimatorConfig(float(rng.uniform(0.3, 1.5)))
            x0 = float(rng.uniform(s.x.min(), s.x.max()))
            fast = llrer_point(s, step, cfg, x0)
            slow = llrer_point_naive(s, step, cfg, x0)
            assert fast.degenerate == slow.degenerate
            if not fast.degenerate:
                assert fast.value == pytest.approx(slow.value, rel=1e-9)
            fast2 = llcr_point(s, step, cfg, x0)
            slow2 = llcr_point_naive(s, step, cfg, x0)
            assert fast2.degenerate == slow2.degenerate
            if not fast2.degenerate:
                assert fast2.value == pytest.approx(slow2.value, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("far", (1e200, 1e308))
    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_far_covariate(self, kernel, far):
        # the far record's weight is 0, so it adds exactly 0 to the double
        # sums; beyond about 1.3e154 its d * (d - d') would overflow, warn
        # (an error under pyproject's filter) and flag the point degenerate
        s = generate_sample(20, -1.11328125, 3).sample
        sample = CensoredSample(s.y, s.delta, np.where(np.arange(s.n) == 7, far, s.x))
        step = km_censoring_survival(sample)
        cfg = EstimatorConfig(0.5, kernel)
        for fast, naive in ((llrer_point, llrer_point_naive), (llcr_point, llcr_point_naive)):
            want, got = fast(sample, step, cfg, 0.0), naive(sample, step, cfg, 0.0)
            assert not want.degenerate and not got.degenerate
            assert got.value == pytest.approx(want.value, rel=1e-9)

    def test_naive_against_pure_python_loop(self):
        # guards the shipped naive forms against transcription slips
        rng = np.random.default_rng(33)
        s = random_censored_sample(rng, 6)
        step = km_censoring_survival(s)
        h = 0.9
        cfg = EstimatorConfig(h)
        tau1 = synthetic_transform(s, step, 1).values.tolist()
        tau2 = synthetic_transform(s, step, 2).values.tolist()
        taum1 = synthetic_transform(s, step, -1).values.tolist()
        x0 = 0.1
        d = [xi - x0 for xi in s.x.tolist()]
        k = [gauss(di / h) for di in d]
        num = den = 0.0
        num_v = den_v = 0.0
        for i in range(6):
            for j in range(6):
                w = d[i] * (d[i] - d[j]) * k[i] * k[j] * tau2[i]
                num += w * tau1[j]
                den += w * tau2[j]
                v = d[i] * (d[i] - d[j]) * k[i] * k[j]
                num_v += v * taum1[j]
                den_v += v
        got = llrer_point_naive(s, step, cfg, x0)
        assert got.value == pytest.approx(num / den, rel=1e-12)
        got_v = llcr_point_naive(s, step, cfg, x0)
        assert got_v.value == pytest.approx(num_v / den_v, rel=1e-12)

    def test_two_point_hand_expansion(self):
        # n = 2, fully uncensored: only the two cross terms survive
        s = CensoredSample([2.0, 4.0], [1, 1], [0.0, 1.0])
        step = km_censoring_survival(s)
        h = 1.0
        cfg = EstimatorConfig(h)
        # all Kaplan-Meier left limits are 1 here
        t1 = [1 / 2.0, 1 / 4.0]
        t2 = [1 / 4.0, 1 / 16.0]
        x0 = 0.25
        d = [0.0 - x0, 1.0 - x0]
        k = [gauss(d[0] / h), gauss(d[1] / h)]
        w01 = d[0] * (d[0] - d[1]) * k[0] * k[1] * t2[0]
        w10 = d[1] * (d[1] - d[0]) * k[1] * k[0] * t2[1]
        num = w01 * t1[1] + w10 * t1[0]
        den = w01 * t2[1] + w10 * t2[0]
        got = llrer_point_naive(s, step, cfg, x0)
        assert got.value == pytest.approx(num / den, rel=1e-12)
        assert llrer_point(s, step, cfg, x0).value == pytest.approx(num / den, rel=1e-12)


class TestReproduction:
    def test_constant_responses(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=20)
        s = CensoredSample(np.full(20, 3.7), np.ones(20, dtype=int), x)
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.8)
        for fn in (llrer_point, llcr_point, cr_point, llrer_point_naive, llcr_point_naive):
            est = fn(s, step, cfg, 0.3)
            assert not est.degenerate
            assert est.value == pytest.approx(3.7, rel=1e-10)

    def test_linear_responses(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=30)
        a, b = 1.5, 10.0
        s = CensoredSample(a * x + b, np.ones(30, dtype=int), x)
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.7)
        for x0 in (-0.5, 0.0, 0.8):
            assert llrer_point(s, step, cfg, x0).value == pytest.approx(a * x0 + b, abs=1e-8)
            assert llcr_point(s, step, cfg, x0).value == pytest.approx(a * x0 + b, abs=1e-8)


class TestCrPoint:
    def test_hand_weighted_average(self):
        s = CensoredSample([1.0, 2.0, 3.0], [1, 1, 1], [0.0, 0.5, 1.0])
        step = km_censoring_survival(s)
        got = cr_point(s, step, EstimatorConfig(1.0), 0.5)
        k = [gauss(-0.5), gauss(0.0), gauss(0.5)]
        expected = (1.0 * k[0] + 2.0 * k[1] + 3.0 * k[2]) / (k[0] + k[1] + k[2])
        assert got.value == pytest.approx(expected, rel=1e-12)

    def test_far_outside_epanechnikov_degenerate(self):
        s = CensoredSample([1.0, 2.0], [1, 1], [0.0, 0.2])
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.5, KernelKind.EPANECHNIKOV)
        est = cr_point(s, step, cfg, 10.0)
        assert est.degenerate
        assert est.value == 0.0


class TestDegenerateConvention:
    def test_all_censored_llrer_flagged_zero(self):
        s = CensoredSample([1.0, 2.0, 3.0], [0, 0, 0], [0.0, 0.5, 1.0])
        step = km_censoring_survival(s)
        est = llrer_point(s, step, EstimatorConfig(1.0), 0.5)
        assert est.degenerate and est.value == 0.0

    def test_all_censored_llcr_zero(self):
        # numerator is zero while the kernel denominator stays positive
        s = CensoredSample([1.0, 2.0, 3.0], [0, 0, 0], [0.0, 0.5, 1.0])
        step = km_censoring_survival(s)
        est = llcr_point(s, step, EstimatorConfig(1.0), 0.5)
        assert est.value == 0.0

    def test_single_uncensored_point_degenerate(self):
        # one informative point makes the moment determinant an exact 0/0
        s = CensoredSample([1.0, 2.0], [1, 0], [0.3, 0.9])
        step = km_censoring_survival(s)
        est = llrer_point(s, step, EstimatorConfig(0.5), 0.5)
        assert est.degenerate and est.value == 0.0


    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_nan_point_degenerate(self, kernel):
        # every sum is nan there, and a nan denominator counts as degenerate
        s = CensoredSample([1.0, 2.0, 3.0], [1, 1, 0], [0.0, 0.5, 1.0])
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(1.0, kernel)
        for point in (llrer_point, llrer_point_naive, llcr_point, llcr_point_naive, cr_point):
            assert point(s, step, cfg, math.nan) == (0.0, True)


class TestPointResponses:
    def test_supplied_responses_equal_computed_ones(self):
        rng = np.random.default_rng(46)
        s = random_censored_sample(rng, 30)
        step = km_censoring_survival(s)
        responses = [synthetic_transform(s, step, o) for o in (2, -1, 1)]
        cfg = EstimatorConfig(0.6)
        for point in (llrer_point, llrer_point_naive, llcr_point, llcr_point_naive, cr_point):
            assert point(s, step, cfg, 0.2, responses=responses) == point(s, step, cfg, 0.2)

    def test_rejects_bad_responses(self):
        rng = np.random.default_rng(44)
        s = random_censored_sample(rng, 30)
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.6)
        order_minus_one = [synthetic_transform(s, step, -1)]
        for point in (llrer_point, llrer_point_naive):
            with pytest.raises(ConfigError, match="missing"):
                point(s, step, cfg, 0.0, responses=order_minus_one + [synthetic_transform(s, step, 1)])
        for point in (llcr_point, llcr_point_naive, cr_point):
            with pytest.raises(ConfigError, match="missing"):
                point(s, step, cfg, 0.0, responses=[synthetic_transform(s, step, 1)])
        short = [SyntheticResponses(o, synthetic_transform(s, step, o).values[:-1]) for o in (-1, 1, 2)]
        for point in (llrer_point, llrer_point_naive, llcr_point, llcr_point_naive, cr_point):
            with pytest.raises(DataError, match="length"):
                point(s, step, cfg, 0.0, responses=short)


class TestEquivariance:
    def test_scale_in_y(self):
        rng = np.random.default_rng(36)
        s = random_censored_sample(rng, 30)
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.6)
        for a in (0.1, 3.0):
            scaled = CensoredSample(a * s.y, s.delta, s.x)
            sstep = km_censoring_survival(scaled)
            for fn in (llrer_point, llcr_point, cr_point):
                for x0 in (-0.4, 0.5):
                    base = fn(s, step, cfg, x0)
                    got = fn(scaled, sstep, cfg, x0)
                    assert got.degenerate == base.degenerate
                    if not base.degenerate:
                        assert got.value == pytest.approx(a * base.value, rel=1e-10)

    def test_translation_in_x(self):
        rng = np.random.default_rng(37)
        s = random_censored_sample(rng, 30)
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.6)
        shift = 2.5
        moved = CensoredSample(s.y, s.delta, s.x + shift)
        mstep = km_censoring_survival(moved)
        for fn in (llrer_point, llcr_point, cr_point):
            for x0 in (-0.4, 0.5):
                base = fn(s, step, cfg, x0)
                got = fn(moved, mstep, cfg, x0 + shift)
                assert got.degenerate == base.degenerate
                if not base.degenerate:
                    assert got.value == pytest.approx(base.value, rel=1e-10)


class TestFitCurve:
    def test_singleton_grid_matches_point(self):
        rng = np.random.default_rng(38)
        s = random_censored_sample(rng, 25)
        cfg = EstimatorConfig(0.7)
        curve = fit_curve(Estimator.LLRER, s, cfg, [0.2])
        step = km_censoring_survival(s)
        point = llrer_point(s, step, cfg, 0.2)
        assert curve.values[0] == point.value
        assert curve.degenerate[0] == point.degenerate

    def test_grid_matches_pointwise_calls(self):
        rng = np.random.default_rng(39)
        s = random_censored_sample(rng, 25)
        cfg = EstimatorConfig(0.7)
        grid = np.linspace(-1.0, 1.0, 21)
        step = km_censoring_survival(s)
        for est, fn in ((Estimator.LLRER, llrer_point), (Estimator.LLCR, llcr_point), (Estimator.CR, cr_point)):
            curve = fit_curve(est, s, cfg, grid)
            for i, x0 in enumerate(grid):
                point = fn(s, step, cfg, float(x0))
                assert curve.values[i] == point.value
                assert curve.degenerate[i] == point.degenerate

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    def test_sixty_one_point_grid_on_generated_data(self):
        from llrer import generate_sample

        s = generate_sample(120, -1.0, seed=404).sample
        cfg = EstimatorConfig(0.5)
        grid = np.linspace(1.0, 4.0, 61)
        curve = fit_curve(Estimator.LLRER, s, cfg, grid)
        step = km_censoring_survival(s)
        for i, x0 in enumerate(grid):
            point = llrer_point(s, step, cfg, float(x0))
            assert curve.values[i] == point.value
            assert curve.degenerate[i] == point.degenerate

    def test_deterministic(self):
        rng = np.random.default_rng(40)
        s = random_censored_sample(rng, 25)
        cfg = EstimatorConfig(0.7)
        grid = np.linspace(-1, 1, 11)
        a = fit_curve(Estimator.LLRER, s, cfg, grid)
        b = fit_curve(Estimator.LLRER, s, cfg, grid)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.degenerate, b.degenerate)

    def test_one_point_grid_is_point_estimate_bit_for_bit(self):
        rng = np.random.default_rng(41)
        s = random_censored_sample(rng, 30)
        step = km_censoring_survival(s)
        for kernel in KernelKind:
            cfg = EstimatorConfig(0.4, kernel)
            for est, fn in POINT_FN.items():
                for x0 in (-3.0, -0.2, 0.0, 0.9, 5.0):
                    curve = fit_curve(est, s, cfg, [x0])
                    point = fn(s, step, cfg, x0)
                    assert np.float64(curve.values[0]).tobytes() == np.float64(point.value).tobytes()
                    assert curve.degenerate[0] == point.degenerate

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    def test_long_rows_match_points(self):
        # numpy reduces a lone row of more than 8192 entries differently from
        # a taller array; a point must still equal its curve value
        s = generate_sample(9000, -1.0, seed=405).sample
        step = km_censoring_survival(s)
        cfg = EstimatorConfig(0.3)
        grid = np.linspace(1.0, 4.0, 9)
        for est, fn in POINT_FN.items():
            curve = fit_curve(est, s, cfg, grid)
            for i, x0 in enumerate(grid):
                point = fn(s, step, cfg, float(x0))
                assert curve.values[i] == point.value
                assert curve.degenerate[i] == point.degenerate

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(curve_cases())
    def test_matches_naive_oracles(self, case):
        s, est, cfg, grid = case
        curve = fit_curve(est, s, cfg, grid)
        step = km_censoring_survival(s)
        for x0, value, flag in zip(grid, curve.values, curve.degenerate):
            want = ORACLE[est](s, step, cfg, float(x0))
            assert flag == want.degenerate, (x0, value, want)
            if not flag:
                cond = condition_number(est, s, step, cfg, float(x0))
                assert value == pytest.approx(want.value, rel=1e-9 * max(1.0, cond), abs=1e-300), (x0, cond)

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    def test_memory_stays_below_one_grid_by_n_array(self):
        s = generate_sample(200_000, -1.0, seed=406).sample
        grid = np.linspace(1.0, 4.0, 61)
        full_block = grid.size * s.n * 8
        for est in Estimator:
            tracemalloc.start()
            try:
                fit_curve(est, s, EstimatorConfig(0.3), grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * full_block, (est, peak)

    @pytest.mark.parametrize("rows", (1, 2, 7))
    def test_blocks_of_rows(self, rows):
        # every block reads every column, so values cannot depend on the
        # block size
        rng = np.random.default_rng(42)
        s = random_censored_sample(rng, 40)
        grid = np.linspace(-2.5, 2.5, 23)
        for config in (EstimatorConfig(0.6, KernelKind.GAUSSIAN), EstimatorConfig(0.3, KernelKind.EPANECHNIKOV)):
            for est in Estimator:
                whole = fit_curve(est, s, config, grid)
                with block_rows(s.n, rows):
                    split = fit_curve(est, s, config, grid)
                assert whole.values.tobytes() == split.values.tobytes()
                assert np.array_equal(whole.degenerate, split.degenerate)

    def test_rejects_nan_in_grid(self):
        # comparisons with a nan are false, so the ascending check must
        # be written to fail on one
        s = CensoredSample([1.0, 2.0], [1, 1], [0.0, 1.0])
        for grid in ([np.nan, 0.5, 1.0], [0.0, np.nan, -1.0], [0.0, 1.0, np.nan]):
            with pytest.raises(ConfigError):
                fit_curve(Estimator.CR, s, EstimatorConfig(1.0, KernelKind.EPANECHNIKOV), grid)
        # a lone nan point, infinite ends and a point whose dx * dx overflows
        # have no weight or a nan denominator, and are degenerate for every
        # estimator and kernel
        for kernel in KernelKind:
            cfg = EstimatorConfig(1.0, kernel)
            for est in Estimator:
                lone = fit_curve(est, s, cfg, [np.nan])
                assert list(lone.degenerate) == [True] and list(lone.values) == [0.0]
                ends = fit_curve(est, s, cfg, [-np.inf, 0.5, np.inf])
                assert list(ends.degenerate) == [True, False, True]
                assert ends.values[0] == ends.values[2] == 0.0
                # pyproject turns a RuntimeWarning into an error: the overflow is silent
                far = fit_curve(est, s, cfg, [-np.inf, 0.5, 1e308, np.inf])
                assert list(far.degenerate) == [True, False, True, True]
                assert list(far.values[[0, 2, 3]]) == [0.0, 0.0, 0.0]

    def test_rejects_unsorted_grid(self):
        s = CensoredSample([1.0, 2.0], [1, 1], [0.0, 1.0])
        with pytest.raises(ConfigError):
            fit_curve(Estimator.CR, s, EstimatorConfig(1.0), [1.0, 0.5])
        with pytest.raises(ConfigError):
            fit_curve(Estimator.CR, s, EstimatorConfig(1.0), [])


ESTIMATOR_ORDERS = [p for k in (1, 2, 3) for p in itertools.permutations(Estimator, k)]


# a bandwidth per estimator: three distinct ones, then two estimators sharing one
DISTINCT_BANDWIDTHS = (
    {Estimator.LLRER: 0.3, Estimator.LLCR: 0.5, Estimator.CR: 0.8},
    {Estimator.LLRER: 0.5, Estimator.LLCR: 0.5, Estimator.CR: 0.3},
)


class TestFitCurves:
    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("rows", (None, 1, 2, 7))
    def test_equals_fit_curve_bit_for_bit(self, rows):
        s = generate_sample(50, -1.0, seed=407).sample
        grid = np.linspace(-2.5, 3.0, 23)
        def blocks():
            return block_rows(s.n, rows) if rows else contextlib.nullcontext()

        for config in (EstimatorConfig(0.5, KernelKind.GAUSSIAN), EstimatorConfig(0.4, KernelKind.EPANECHNIKOV)):
            alone = {est: fit_curve(est, s, config, grid) for est in Estimator}
            with blocks():
                for ests in ESTIMATOR_ORDERS:
                    curves = fit_curves(dict.fromkeys(ests, config), s, grid)
                    assert list(curves) == list(ests)
                    for est, curve in curves.items():
                        assert curve.grid.tobytes() == alone[est].grid.tobytes()
                        assert curve.values.tobytes() == alone[est].values.tobytes(), (ests, est)
                        assert np.array_equal(curve.degenerate, alone[est].degenerate)
            # the Epanechnikov tails are degenerate, so the flags are exercised too
            assert any(c.degenerate.any() for c in alone.values()) == (config.kernel is KernelKind.EPANECHNIKOV)

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("rows", (1, 2, 7))
    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_each_estimator_at_its_own_config(self, kernel, rows):
        s = generate_sample(50, -1.0, seed=408).sample
        grid = np.linspace(-2.5, 3.0, 23)
        for bandwidths in DISTINCT_BANDWIDTHS:
            configs = {est: EstimatorConfig(h, kernel) for est, h in bandwidths.items()}
            alone = {est: fit_curve(est, s, config, grid) for est, config in configs.items()}
            with block_rows(s.n, rows):
                curves = fit_curves(configs, s, grid)
            assert list(curves) == list(configs)
            for est, curve in curves.items():
                assert curve.values.tobytes() == alone[est].values.tobytes(), (bandwidths, est)
                assert np.array_equal(curve.degenerate, alone[est].degenerate)

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("far", (1e200, 1e308))
    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_far_covariate_leaves_the_other_points_alone(self, kernel, far):
        # beyond about 1.3e154 the record's dx * dx overflows; its zero weight
        # must still add 0 to every point's sums, as it does at 1e150. The
        # naive oracles' double sums overflow there, so 1e150 is the reference
        def curves(x_far):
            s = generate_sample(20, -1.11328125, 3).sample
            sample = CensoredSample(s.y, s.delta, np.where(np.arange(s.n) == 7, x_far, s.x))
            return fit_curves(dict.fromkeys(Estimator, EstimatorConfig(0.5, kernel)), sample, np.linspace(-1, 1, 5))

        want, got = curves(1e150), curves(far)
        for est in Estimator:
            assert got[est].values.tobytes() == want[est].values.tobytes(), est
            assert np.array_equal(got[est].degenerate, want[est].degenerate), est

    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_overflow_in_a_sum_the_estimator_does_not_read_is_silent(self, kernel):
        # each point's moments hold every group's sums: here sum tau-1 * w * dx overflows, but CR reads
        # only t0 and p0, and pyproject turns a RuntimeWarning into an error
        s = CensoredSample([1e307, 1.5e307, 1.7e307, 1e307], [1, 1, 1, 1], [0.0, 100.0, 200.0, 300.0])
        curve = fit_curve(Estimator.CR, s, EstimatorConfig(1000.0, kernel), [0.0, 150.0, 310.0])
        assert not curve.degenerate.any() and np.all(curve.values > 1e307)

    def test_computes_the_step_once(self):
        rng = np.random.default_rng(43)
        s = random_censored_sample(rng, 30)
        with mock.patch.object(llrer.loclin, "km_censoring_survival", wraps=km_censoring_survival) as km:
            for calls, bandwidths in enumerate(DISTINCT_BANDWIDTHS, start=1):
                fit_curves({est: EstimatorConfig(h) for est, h in bandwidths.items()}, s, [0.0, 0.5])
                assert km.call_count == calls

    def test_evaluates_the_left_limits_once(self):
        rng = np.random.default_rng(45)
        s = random_censored_sample(rng, 30)
        with mock.patch.object(SurvivalStep, "eval", autospec=True, side_effect=SurvivalStep.eval) as evals:
            for calls, bandwidths in enumerate(DISTINCT_BANDWIDTHS, start=1):
                fit_curves({est: EstimatorConfig(h) for est, h in bandwidths.items()}, s, [0.0, 0.5])
                assert evals.call_count == calls


class TestFittedCurve:
    @pytest.mark.parametrize(
        "grid, values, degenerate",
        [([0.0, 1.0], [1.0], [False, False]), ([0.0], [1.0], [False, True]), ([[0.0, 1.0]], [[1.0, 2.0]], [[0, 0]])],
        ids=["values", "flags", "2-d"],
    )
    def test_rejects_unequal_arrays(self, grid, values, degenerate):
        with pytest.raises(DataError, match="equally long 1-d"):
            FittedCurve(grid, values, degenerate)


class TestCurveCsv:
    def test_writes_exact_bytes(self, tmp_path):
        curve = FittedCurve(
            np.array([0.5, 1.0, 1.5]),
            np.array([1.234567890123456, -0.1, 0.0]),
            np.array([False, False, True]),
        )
        p = tmp_path / "curve.csv"
        write_curve_csv(curve, p)
        assert p.read_bytes() == b"x,estimate,degenerate\r\n0.5,1.234567890123456,0\r\n1.0,-0.1,0\r\n1.5,0.0,1\r\n"

