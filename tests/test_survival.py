import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import llrer.survival
from llrer import (
    BandwidthGrid,
    CensoredSample,
    DataError,
    Estimator,
    EstimatorConfig,
    KernelKind,
    NonPositiveResponseWarning,
    cv_score,
    fit_curve,
    fit_curves,
    km_censoring_survival,
    llrer_point,
    read_sample_csv,
    select_bandwidth,
    select_bandwidths,
    synthetic_transform,
)


def make(y, delta, x=None):
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.zeros_like(y)
    return CensoredSample(y, np.asarray(delta), x)


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


class TestSurvivalStep:
    @pytest.mark.parametrize(
        "times, values, match",
        [
            ([1.0, 2.0], [0.0], "equally long"),
            ([], [], "equally long"),
            ([2.0, 1.0], [0.5, 0.0], "strictly ascending"),
            ([1.0, 2.0], [1.5, 0.0], r"in \[0, 1\]"),
            ([1.0, 2.0, 3.0], [0.25, 0.5, 0.0], "non-increasing"),
            ([1.0, 2.0], [0.5, 0.25], "reach 0"),
        ],
        ids=["lengths", "empty", "unsorted", "range", "increasing", "no_zero"],
    )
    def test_rejects_broken_invariant(self, times, values, match):
        with pytest.raises(DataError, match=match):
            llrer.survival.SurvivalStep(times, values)


class TestSurvivalEval:
    def test_left_limit_at_jump(self):
        step = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        assert step.eval(2.0, side="right") == 0.5
        assert step.eval(2.0, side="left") == 1.0
        assert step.eval(3.0, side="left") == 0.5

    def test_below_first_jump(self):
        step = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        assert step.eval(-100.0) == 1.0

    def test_vectorized(self):
        step = km_censoring_survival(make([1, 2, 3], [1, 0, 1]))
        got = step.eval(np.array([0.0, 2.0, 2.5, 3.0, 9.0]))
        assert np.array_equal(got, [1.0, 0.5, 0.5, 0.0, 0.0])

    def test_bad_side(self):
        step = km_censoring_survival(make([1.0], [1]))
        from llrer import ConfigError

        with pytest.raises(ConfigError):
            step.eval(1.0, side="middle")


CV_GRID = BandwidthGrid(0.5, 1.0, 0.5)
# public entry points that compute inverse-moment responses, one call each
WARNING_CALLS = {
    "llrer_point": lambda s: llrer_point(s, km_censoring_survival(s), EstimatorConfig(0.8), 0.0),
    "fit_curve": lambda s: fit_curve(Estimator.LLRER, s, EstimatorConfig(0.8), [0.0, 0.5]),
    "fit_curves": lambda s: fit_curves({e: EstimatorConfig(0.8) for e in Estimator}, s, [0.0, 0.5]),
    "select_bandwidth": lambda s: select_bandwidth(Estimator.LLRER, s, KernelKind.GAUSSIAN, CV_GRID),
    "select_bandwidths": lambda s: select_bandwidths(tuple(Estimator), s, KernelKind.GAUSSIAN, CV_GRID),
    "cv_score": lambda s: cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.8),
    "synthetic_transform": lambda s: synthetic_transform(s, km_censoring_survival(s), 2),
}


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

    @pytest.mark.parametrize("call", list(WARNING_CALLS.values()), ids=list(WARNING_CALLS))
    def test_one_warning_per_call_at_the_caller(self, call):
        sample = make([-1.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5], [1, 1, 0, 1, 1, 0, 1, 1], np.linspace(-1.0, 1.0, 8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(sample)
        assert [w.filename for w in caught if issubclass(w.category, NonPositiveResponseWarning)] == [__file__]

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_rejects_non_finite_responses(self, bad):
        with pytest.raises(DataError, match="finite"):
            llrer.survival.SyntheticResponses(1, [1.0, bad])

    def test_rejects_step_at_zero_below_an_uncensored_response(self):
        # a user step may fall to 0 before the largest observation
        s = make([1.0, 2.0], [0, 1])
        step = llrer.survival.SurvivalStep([1.5], [0.0])
        with pytest.raises(DataError, match="zero at an uncensored response"):
            synthetic_transform(s, step, -1)

    def test_overflow_under_a_tiny_step_is_a_data_error(self):
        # 1e-10 ** -2 / 1e-300 overflows: one DataError, not a numpy warning
        s = make([1e-10, 2.0], [1, 1])
        step = llrer.survival.SurvivalStep([1e-20, 2.0], [1e-300, 0.0])
        with pytest.raises(DataError, match="synthetic responses overflow"):
            synthetic_transform(s, step, 2)

    def test_stacked_faults_come_in_order(self):
        # a zero response, then a survival of zero at an uncensored response, then an overflow
        y = np.array([[0.0, 2.0], [1.0, 2.0], [1e-160, 2.0], [1.0, 2.0]])
        gbar = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.5]])
        tau, faults = llrer.survival._kaplan_meier_responses(y, np.ones((4, 2), dtype=int), (2,), gbar)
        assert [None if f is None else str(f) for f in faults] == [
            "inverse moment of order 2 undefined at an uncensored zero response",
            "censoring survival is zero at an uncensored response",
            "synthetic responses overflow; responses too close to zero",
            None,
        ]
        assert tau[2][3].tolist() == [1.0, 0.5]

    def test_rejects_bad_order(self):
        s = make([1.0], [1])
        step = km_censoring_survival(s)
        from llrer import ConfigError

        with pytest.raises(ConfigError):
            synthetic_transform(s, step, 3)
        # True is not order 1, and 0 lies inside [-1, 2] but is no order
        for order, message in (
            (True, r"^order must be an integer in \[-1, 2\], got True$"),
            ("1", r"^order must be an integer in \[-1, 2\], got '1'$"),
            (0, r"^order must be one of \(-1, 1, 2\), got 0$"),
        ):
            with pytest.raises(ConfigError, match=message):
                synthetic_transform(s, step, order)

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
            tau, (fault,) = llrer.survival._kaplan_meier_responses(y[None], delta[None], (order,), gbar[None])
            assert fault is None
            vals = tau[order][0]
            truth, _ = quad(
                lambda z: math.exp(-order * sigma * z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
                -12.0,
                12.0,
                limit=200,
            )
            se = float(np.std(vals, ddof=1)) / math.sqrt(n)
            assert abs(float(vals.mean()) - truth) <= 5.0 * se


@st.composite
def stacked_samples(draw):
    """Samples of one length n >= 1, from 1 to 4 of them, with tied responses from a pool that holds
    zero, negative and tiny values, each censored at random, totally or in all records but one."""
    n = draw(st.integers(1, 12))
    pool = st.sampled_from((0.0, -0.5, 1e-170, 0.3, 1.0, 2.5)) | st.floats(-5.0, 5.0)
    values = draw(st.lists(pool, min_size=1, max_size=n))
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        y = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        pattern = draw(st.sampled_from(("random", "all_censored", "one_uncensored")))
        if pattern == "random":
            delta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        else:
            delta = [int(pattern == "one_uncensored" and i == n - 1) for i in range(n)]
        samples.append(make(y, delta))
    return samples


class TestStackedKaplanMeier:
    @settings(max_examples=150, deadline=None)
    @given(stacked_samples())
    @example([make([2.0], [0])]).via("n = 1")
    @example([make([1.0, 1.0], [0, 1]), make([3.0, 1.0], [0, 0])]).via("n = 2, ties, all censored")
    def test_left_limits_are_the_steps_left_limits(self, samples):
        y, delta = np.stack([s.y for s in samples]), np.stack([s.delta for s in samples])
        stacked = llrer.survival._left_limits(y, delta)
        for s, got in zip(samples, stacked):
            want = km_censoring_survival(s).eval(s.y, side="left")
            assert got.tobytes() == want.tobytes()
            assert llrer.survival._left_limits(s.y, s.delta).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @settings(max_examples=150, deadline=None)
    @given(stacked_samples(), st.sampled_from([(-1,), (1, 2), (2, -1, 1)]))
    def test_responses_and_faults_are_each_samples_own(self, samples, orders):
        y, delta = np.stack([s.y for s in samples]), np.stack([s.delta for s in samples])
        tau, faults = llrer.survival._kaplan_meier_responses(y, delta, orders)
        for r, (s, fault) in enumerate(zip(samples, faults)):
            try:
                want = llrer.survival._synthetic_responses(s, km_censoring_survival(s), orders)
            except DataError as exc:
                assert type(fault) is DataError and str(fault) == str(exc)
                continue
            assert fault is None
            for o in orders:
                assert tau[o][r].tobytes() == want[o].tobytes()


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

    def test_skips_blank_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y,delta,x\n1.5,1,0.25\n\n  \n2.0,0,-1.0\n")
        assert np.array_equal(read_sample_csv(p).y, [1.5, 2.0])

    @pytest.mark.parametrize(
        "row, match", [("1.0,1", "row 3: expected 3 columns, got 2"), ("1.0,2,0.0", "row 3: delta must be 0 or 1, got 2")]
    )
    def test_rejects_bad_row(self, tmp_path, row, match):
        p = tmp_path / "s.csv"
        p.write_text(f"y,delta,x\n1.0,1,0.0\n{row}\n")
        with pytest.raises(DataError, match=match):
            read_sample_csv(p)

    def test_rejects_fractional_delta(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y,delta,x\n1.0,0.5,0.0\n")
        with pytest.raises(DataError, match="row 2"):
            read_sample_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_sample_csv(tmp_path / "absent.csv")

    def test_byte_order_mark_reads_as_the_same_sample(self, tmp_path):
        # spreadsheets write UTF-8 with a leading byte-order mark
        text = b"y,delta,x\n1.5,1,0.25\n2.0,0,-1.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want, got = read_sample_csv(plain), read_sample_csv(marked)
        for name in ("y", "delta", "x"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_undecodable_byte_is_a_data_error_naming_the_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"y,delta,x\n1.5,1,0.25\n2.0,0,\xff1.0\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: not UTF-8 text"):
            read_sample_csv(p)


class TestWriteCsv:
    HEADER = ("a", "b")

    @staticmethod
    def rows(count, fail_at=None):
        for i in range(count):
            if i == fail_at:
                raise DataError("row failed")
            yield (str(i), repr(i / 7))

    def reference(self, rows):
        """The file's bytes, joined in one piece."""
        return "".join(",".join(row) + "\r\n" for row in [self.HEADER, *rows]).encode()

    def test_rows_over_several_chunks_equal_one_join(self, tmp_path):
        chunk = llrer.survival._CSV_CHUNK_LINES
        for count in (0, 1, chunk - 1, chunk, 3 * chunk + 5):
            p = tmp_path / f"{count}.csv"
            llrer.survival._write_csv(p, self.HEADER, self.rows(count))
            assert p.read_bytes() == self.reference(self.rows(count)), count

    def test_a_row_that_fails_in_the_last_chunk_leaves_the_file_as_it_was(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_bytes(b"earlier,run\r\n")
        count = 3 * llrer.survival._CSV_CHUNK_LINES + 5
        with pytest.raises(DataError, match="row failed"):
            llrer.survival._write_csv(p, self.HEADER, self.rows(count, fail_at=count - 2))
        assert p.read_bytes() == b"earlier,run\r\n"
