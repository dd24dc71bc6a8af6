import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from llrer import (
    CensoredSample,
    DataError,
    NonPositiveResponseWarning,
    km_censoring_survival,
    loo_censoring_survival,
    read_sample_csv,
    survival_eval,
    synthetic_transform,
    synthetic_values,
)


def make(y, delta, x=None):
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.zeros_like(y)
    return CensoredSample(y, np.asarray(delta), x)


@st.composite
def tied_samples(draw, pool=st.floats(0.01, 10.0)):
    """Small samples with tied responses, optional outlier scaling and one of
    three censoring patterns: random, all censored or a single uncensored record."""
    n = draw(st.integers(2, 12))
    values = draw(st.lists(pool, min_size=1, max_size=n))
    y = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    pattern = draw(st.sampled_from(("random", "all_censored", "one_uncensored")))
    if pattern == "random":
        delta = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        delta = np.zeros(n, dtype=int)
        if pattern == "one_uncensored":
            delta[draw(st.integers(0, n - 1))] = 1
    scaled = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    y = np.where(scaled, y * draw(st.sampled_from((50.0, 1e6))), y)
    return make(y, delta)


def refit_left_limits(sample):
    """Row i: left limits at every y of Kaplan-Meier refitted without record i."""
    idx = np.arange(sample.n)
    rows = []
    for i in range(sample.n):
        keep = idx != i
        sub = CensoredSample(sample.y[keep], sample.delta[keep], sample.x[keep])
        rows.append(km_censoring_survival(sub).eval(sample.y, side="left"))
    return np.array(rows)


class TestCensoredSample:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            CensoredSample(np.array([]), np.array([]), np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            make([1.0, np.inf], [1, 1])
        with pytest.raises(DataError):
            CensoredSample(np.array([1.0, 2.0]), np.array([1, 1]), np.array([0.0, np.nan]))

    def test_rejects_bad_delta(self):
        with pytest.raises(DataError):
            make([1.0, 2.0], [1, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            CensoredSample(np.array([1.0, 2.0]), np.array([1]), np.array([0.0, 0.0]))

    def test_immutable(self):
        s = make([1.0, 2.0], [1, 0])
        with pytest.raises(ValueError):
            s.y[0] = 5.0


class TestKaplanMeier:
    def test_no_censoring(self):
        step = km_censoring_survival(make([1, 2, 3], [1, 1, 1]))
        assert np.array_equal(step.jump_times, [3.0])
        assert np.array_equal(step.values, [0.0])
        assert step.eval(2.9) == 1.0
        assert step.eval(3.0) == 0.0

    def test_hand_product(self):
        # factor (1 - 1/2) enters at the middle censored observation
        step = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        assert np.array_equal(step.jump_times, [2.0, 3.0])
        assert np.array_equal(step.values, [1.0 - 1.0 / 2.0, 0.0])
        assert step.eval(1.999) == 1.0
        assert step.eval(2.0) == 0.5
        assert step.eval(2.5) == 0.5
        assert step.eval(3.0) == 0.0

    def test_permutation_invariance(self):
        a = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        b = km_censoring_survival(make([2, 1, 3], [0, 1, 1]))
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.values, b.values)

    def test_all_censored(self):
        step = km_censoring_survival(make([1, 2, 3], [0, 0, 0]))
        f1 = 1.0 - 1.0 / 3.0
        f2 = f1 * (1.0 - 1.0 / 2.0)
        assert np.array_equal(step.jump_times, [1.0, 2.0, 3.0])
        assert np.array_equal(step.values, [f1, f2, 0.0])

    def test_tie_uncensored_first(self):
        # the tied uncensored record leaves the risk set before the censored jump
        step = km_censoring_survival(make([1, 2, 2, 3], [1, 0, 1, 1]))
        assert np.array_equal(step.jump_times, [2.0, 3.0])
        assert np.array_equal(step.values, [0.5, 0.0])

    def test_single_observation(self):
        for d in (0, 1):
            step = km_censoring_survival(make([5.0], [d]))
            assert step.eval(4.999) == 1.0
            assert step.eval(5.0) == 0.0

    def test_monotone_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            s = make(rng.exponential(2.0, n), rng.integers(0, 2, n))
            step = km_censoring_survival(s)
            grid = np.sort(rng.normal(2.0, 2.0, 200))
            vals = step.eval(grid)
            assert np.all(np.diff(vals) <= 0)
            assert np.all((vals >= 0) & (vals <= 1))
            assert step.eval(float(s.y.min()) - 1.0) == 1.0
            assert step.eval(float(s.y.max())) == 0.0

    def test_jumps_only_at_censored_or_max(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            s = make(rng.exponential(2.0, n), rng.integers(0, 2, n))
            step = km_censoring_survival(s)
            allowed = set(s.y[s.delta == 0]) | {float(s.y.max())}
            assert set(step.jump_times) <= allowed

    def test_rank_invariance_of_levels(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=25)
        d = rng.integers(0, 2, 25)
        a = km_censoring_survival(make(y, d))
        b = km_censoring_survival(make(np.exp(y), d))
        assert np.array_equal(a.values, b.values)


class TestLeaveOneOutSurvival:
    @settings(max_examples=300, deadline=None)
    @given(tied_samples())
    def test_matches_refit_per_fold(self, sample):
        np.testing.assert_allclose(loo_censoring_survival(sample), refit_left_limits(sample), rtol=1e-12, atol=0.0)

    def test_hand_values(self):
        # fold 0 keeps the uncensored 2 (nothing below it); fold 1 keeps only
        # the censored 1, whose step is 0 from y = 1 on
        got = loo_censoring_survival(make([1.0, 2.0], [0, 1]))
        assert np.array_equal(got, [[1.0, 1.0], [1.0, 0.0]])

    def test_ties_across_delta(self):
        s = make([1.0, 2.0, 2.0, 2.0, 3.0], [0, 0, 1, 0, 1])
        np.testing.assert_allclose(loo_censoring_survival(s), refit_left_limits(s), rtol=1e-12, atol=0.0)

    def test_rejects_single_observation(self):
        with pytest.raises(DataError):
            loo_censoring_survival(make([1.0], [1]))


class TestSurvivalEval:
    def test_left_limit_at_jump(self):
        step = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        assert survival_eval(step, 2.0, side="right") == 0.5
        assert survival_eval(step, 2.0, side="left") == 1.0
        assert survival_eval(step, 3.0, side="left") == 0.5

    def test_below_first_jump(self):
        step = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        assert survival_eval(step, -100.0) == 1.0

    def test_vectorized(self):
        step = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        got = survival_eval(step, np.array([0.0, 2.0, 2.5, 3.0, 9.0]))
        assert np.array_equal(got, [1.0, 0.5, 0.5, 0.0, 0.0])

    def test_bad_side(self):
        step = km_censoring_survival(make([1.0], [1]))
        from llrer import ConfigError

        with pytest.raises(ConfigError):
            step.eval(1.0, side="middle")


class TestSyntheticTransform:
    def test_all_censored_gives_zeros(self):
        s = make([1, 2, 3], [0, 0, 0])
        step = km_censoring_survival(s)
        for order in (-1, 1, 2):
            assert np.array_equal(synthetic_transform(s, step, order).values, np.zeros(3))

    def test_hand_values_order_one(self):
        s = make([1, 2, 3], [1, 0, 1])
        step = km_censoring_survival(s)
        got = synthetic_transform(s, step, 1).values
        # left limits: Gbar(1-) = 1, Gbar(3-) = 0.5
        assert np.array_equal(got, [1.0, 0.0, (1.0 / 3.0) / 0.5])

    def test_hand_values_order_minus_one(self):
        s = make([1, 2, 3], [1, 0, 1])
        step = km_censoring_survival(s)
        assert np.array_equal(synthetic_transform(s, step, -1).values, [1.0, 0.0, 6.0])

    def test_zero_iff_censored(self):
        rng = np.random.default_rng(21)
        y = rng.lognormal(size=40)
        d = rng.integers(0, 2, 40)
        s = make(y, d)
        step = km_censoring_survival(s)
        for order in (-1, 1, 2):
            vals = synthetic_transform(s, step, order).values
            assert np.array_equal(vals == 0.0, s.delta == 0)

    def test_rejects_uncensored_zero_for_inverse_orders(self):
        s = make([0.0, 2.0], [1, 1])
        step = km_censoring_survival(s)
        for order in (1, 2):
            with pytest.raises(DataError):
                synthetic_transform(s, step, order)
        # order -1 is the plain response; zero is fine there
        assert np.array_equal(synthetic_transform(s, step, -1).values, [0.0, 2.0])

    def test_warns_on_negative_uncensored(self):
        s = make([-1.0, 2.0], [1, 1])
        step = km_censoring_survival(s)
        with pytest.warns(NonPositiveResponseWarning):
            vals = synthetic_transform(s, step, 2).values
        assert vals[0] == 1.0  # (-1)^-2 / 1

    def test_rejects_bad_order(self):
        s = make([1.0], [1])
        step = km_censoring_survival(s)
        from llrer import ConfigError

        with pytest.raises(ConfigError):
            synthetic_transform(s, step, 3)

    def test_mean_matches_inverse_moment_with_true_survival(self):
        # known censoring survival, moderate n; the full-size check is in
        # the acceptance suite
        rng = np.random.default_rng(2024)
        n = 20000
        sigma = 0.5
        t = rng.lognormal(mean=0.0, sigma=sigma, size=n)
        rate = 0.3
        c = rng.exponential(1.0 / rate, size=n)
        y = np.minimum(t, c)
        delta = (t <= c).astype(int)
        gbar = np.exp(-rate * y)
        for order in (1, 2):
            vals = synthetic_values(y, delta, order, gbar)
            truth, _ = quad(
                lambda z: math.exp(-order * sigma * z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
                -12.0,
                12.0,
                limit=200,
            )
            se = float(np.std(vals, ddof=1)) / math.sqrt(n)
            assert abs(float(vals.mean()) - truth) <= 5.0 * se


class TestReadSampleCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y,delta,x\n1.5,1,0.25\n2.0,0,-1.0\n")
        s = read_sample_csv(p)
        assert np.array_equal(s.y, [1.5, 2.0])
        assert np.array_equal(s.delta, [1, 0])
        assert np.array_equal(s.x, [0.25, -1.0])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(DataError, match="header"):
            read_sample_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(DataError):
            read_sample_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y,delta,x\n")
        with pytest.raises(DataError, match="no data rows"):
            read_sample_csv(p)

    def test_reports_row_number(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y,delta,x\n1.0,1,0.0\nnope,1,0.0\n")
        with pytest.raises(DataError, match="row 3"):
            read_sample_csv(p)

    def test_rejects_fractional_delta(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y,delta,x\n1.0,0.5,0.0\n")
        with pytest.raises(DataError, match="row 2"):
            read_sample_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_sample_csv(tmp_path / "absent.csv")
