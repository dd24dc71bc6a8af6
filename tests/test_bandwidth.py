import contextlib
import functools
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llrer import (
    BandwidthGrid,
    CensoredSample,
    ConfigError,
    DataError,
    DEFAULT_BANDWIDTH_GRID,
    Estimator,
    EstimatorConfig,
    KernelKind,
    NonPositiveResponseWarning,
    cr_point,
    cv_score,
    fit_curves,
    generate_sample,
    inject_outliers,
    km_censoring_survival,
    llcr_point,
    llcr_point_naive,
    llrer_point,
    llrer_point_naive,
    select_bandwidth,
    select_bandwidths,
    synthetic_transform,
    write_cv_trace_csv,
)
import llrer.bandwidth
import llrer.loclin
import llrer.survival
from llrer.bandwidth import _cells, _cv_traces, _windows
from llrer.loclin import _CHUNK, _FOLD_FACTORS, _TILE, DEFAULT_EPSILON, _blocks, _offsets
from llrer.survival import _loo_responses
from llrer.kernels import _kernel_of_squares

POINT_FN = {Estimator.LLRER: llrer_point, Estimator.LLCR: llcr_point, Estimator.CR: cr_point}


def loo_score_oracle(estimator, sample, kernel, h):
    """Independent leave-one-out loop: rebuild each subsample explicitly."""
    full = km_censoring_survival(sample)
    target = synthetic_transform(sample, full, -1).values
    idx = np.arange(sample.n)
    score = 0.0
    degenerate = 0
    for i in range(sample.n):
        keep = idx != i
        sub = CensoredSample(sample.y[keep], sample.delta[keep], sample.x[keep])
        sub_step = km_censoring_survival(sub)
        est = POINT_FN[estimator](sub, sub_step, EstimatorConfig(h, kernel), float(sample.x[i]))
        degenerate += est.degenerate
        score += (target[i] - est.value) ** 2
    return score, degenerate


def refit_fold_responses(sample, order):
    """Row i: order-`order` synthetic responses of Kaplan-Meier refitted without i."""
    out = np.zeros((sample.n, sample.n))
    idx = np.arange(sample.n)
    for i in range(sample.n):
        keep = idx != i
        sub = CensoredSample(sample.y[keep], sample.delta[keep], sample.x[keep])
        out[i, keep] = synthetic_transform(sub, km_censoring_survival(sub), order).values
    return out


@contextlib.contextmanager
def block_rows(n, rows):
    """Force blocks of `rows` folds on a sample of n observations, and check
    that cross-validation cut every block it made that way. The forced
    blocks take the factor bound alone, counted over every column, so they
    need not hold whole tiles, keep their sums within a tile's size or lie in
    one cell; a block across cells is weighed over the union of their
    windows."""
    cuts = []

    def recorded_blocks(count, *rule):
        cuts.append((count, list(_blocks(count, _FOLD_FACTORS * count))))
        return iter(cuts[-1][1])

    with mock.patch.object(llrer.loclin, "_BLOCK_ENTRIES", rows * _FOLD_FACTORS * n), mock.patch.object(
        llrer.bandwidth, "_blocks", recorded_blocks
    ):
        yield
    for count, blocks in cuts:
        assert [(b.start, b.stop) for b in blocks] == [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def cv_blocks(estimators, sample, kernel, grid):
    """The blocks of folds, as (start, stop), that select_bandwidths cuts on sample."""
    cuts = []

    def recorded_blocks(*args):
        cuts.append(list(_blocks(*args)))
        return iter(cuts[-1])

    with mock.patch.object(llrer.bandwidth, "_blocks", recorded_blocks):
        select_bandwidths(estimators, sample, kernel, grid)
    (blocks,) = cuts
    return [(b.start, min(b.stop, sample.n)) for b in blocks]


def recorded(fn):
    """(value or DataError raised, number of NonPositiveResponseWarnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except DataError as exc:
            value = exc
    return value, sum(issubclass(w.category, NonPositiveResponseWarning) for w in caught)


def fold_responses(sample, order):
    """Row i: the order-`order` fold responses that cross-validation builds
    for fold i of sample."""
    _, rows = _loo_responses(sample, (order,))
    out = np.empty((sample.n, sample.n))
    for block in llrer.bandwidth._blocks(sample.n, _FOLD_FACTORS * sample.n):
        out[block] = rows(block)[order]
    return out


def outcome(fn):
    """(value or DataError raised, whether a NonPositiveResponseWarning was emitted)."""
    value, warned = recorded(fn)
    return value, warned > 0


@st.composite
def awkward_samples(draw):
    """Tied responses drawn from a pool that holds zero, negative, tiny and
    outlying values, with random censoring."""
    n = draw(st.integers(2, 10))
    pool = st.sampled_from((0.0, -0.5, 1e-170, 0.3, 1.0, 2.5, 40.0, 1e6))
    y = draw(st.lists(pool | st.floats(0.05, 5.0), min_size=n, max_size=n))
    delta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return CensoredSample(np.array(y), np.array(delta), np.zeros(n))


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
    return CensoredSample(y, delta, np.zeros(n))


def traces_bits(selection):
    return [(p.h.hex(), p.score.hex(), p.degenerate_folds) for p in selection.trace]


def random_censored_sample(rng, n):
    y = rng.lognormal(mean=0.5, sigma=0.6, size=n)
    delta = rng.integers(0, 2, n)
    delta[rng.integers(0, n)] = 1
    x = rng.normal(size=n)
    return CensoredSample(y, delta, x)


class TestBandwidthGrid:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BandwidthGrid(0.0, 1.0, 0.1)
        with pytest.raises(ConfigError):
            BandwidthGrid(1.0, 0.5, 0.1)
        with pytest.raises(ConfigError, match=r"^bandwidth grid hi must be a real number in \[0\.5, 1e\+150\], got 1e\+151$"):
            BandwidthGrid(0.5, 1e151, 0.1)
        with pytest.raises(ConfigError):
            BandwidthGrid(0.1, 1.0, 0.0)
        for bounds, end, interval, shown in (
            ((float("nan"), 1.0, 0.1), "lo", r"\[1e-150, 1e\+150\]", "nan"),
            ((0.1, float("inf"), 0.1), "hi", r"\[0\.1, 1e\+150\]", "inf"),
            ((0.1, 1.0, float("inf")), "step", r"\(0, inf\)", "inf"),
        ):
            with pytest.raises(ConfigError, match=rf"^bandwidth grid {end} must be a real number in {interval}, got {shown}$"):
                BandwidthGrid(*bounds)

    def test_default_grid_is_two_hundred_candidates(self):
        vals = DEFAULT_BANDWIDTH_GRID.values()
        assert vals.size == 200
        assert np.array_equal(vals, np.round(0.01 * np.arange(1, 201), 12))
        assert vals[0] == 0.01
        assert vals[-1] == 2.0

    def test_single_value_grid(self):
        vals = BandwidthGrid(0.5, 0.5, 0.1).values()
        assert np.array_equal(vals, [0.5])

    def test_count_formula(self):
        assert BandwidthGrid(0.1, 1.0, 0.25).values().size == 4  # floor(0.9/0.25)+1

    def test_every_value_is_a_bandwidth(self):
        # values are snapped to 12 decimals, so a lo of 1e-13 would give the bandwidth 0.0
        with pytest.raises(ConfigError, match=r"^bandwidth grid value must be a real number in \[1e-150, 1e\+150\], got 0\.0$"):
            BandwidthGrid(1e-13, 1.0, 0.25)
        assert BandwidthGrid(1e-12, 1.0, 0.25).values()[0] == 1e-12

    @pytest.mark.parametrize("hi, step, shown", [(2.0, 1e-300, "1.99e+300"), (1e150, 1e-300, "inf")])
    def test_size_is_checked_before_any_value_is_built(self, hi, step, shown):
        with pytest.raises(ConfigError, match=rf"^bandwidth grid size must be an integer in \[1, 100000\], got {re.escape(shown)}$"):
            BandwidthGrid(0.01, hi, step)

    def test_size_bound_is_closed(self):
        assert BandwidthGrid(1.0, 1e5, 1.0).values().size == 10**5
        with pytest.raises(ConfigError, match="bandwidth grid size"):
            BandwidthGrid(1.0, 1e5 + 1, 1.0)


class TestCvScore:
    def test_overflowing_scores_are_inf_without_warning(self):
        # five responses scaled by 1e200 square beyond the largest float; the
        # suite turns a RuntimeWarning into an error
        sample = inject_outliers(generate_sample(50, -1.113, 1).sample, 5, 1e200, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPositiveResponseWarning)
            for kernel in KernelKind:
                selections = select_bandwidths(list(Estimator), sample, kernel, BandwidthGrid(0.1, 1.0, 0.1))
                for selection in selections.values():
                    assert [p.score for p in selection.trace] == [math.inf] * 10
                    assert selection.h_opt == 0.1  # every score ties, so the smallest h wins

    def test_rejects_small_sample(self):
        s = CensoredSample([1.0], [1], [0.0])
        with pytest.raises(ConfigError):
            cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.5)

    def test_rejects_bad_bandwidth(self):
        s = CensoredSample([1.0, 2.0], [1, 1], [0.0, 1.0])
        with pytest.raises(ConfigError):
            cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.0)

    def test_two_censored_observations(self):
        # all synthetic responses are zero and each fold is degenerate,
        # so the score is the sum of squared zero targets
        s = CensoredSample([1.0, 2.0], [0, 0], [0.0, 1.0])
        h_opt, trace = select_bandwidth(Estimator.LLRER, s, KernelKind.GAUSSIAN, BandwidthGrid(0.5, 0.5, 0.1))
        assert trace[0].score == 0.0
        assert trace[0].degenerate_folds == 2

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_matches_independent_loop(self, estimator):
        rng = np.random.default_rng(55)
        s = random_censored_sample(rng, 5)
        for h in (0.4, 1.0):
            got = cv_score(estimator, s, KernelKind.GAUSSIAN, h)
            want, _ = loo_score_oracle(estimator, s, KernelKind.GAUSSIAN, h)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_matches_independent_loop_larger(self, estimator):
        rng = np.random.default_rng(56)
        s = random_censored_sample(rng, 18)
        got = cv_score(estimator, s, KernelKind.EPANECHNIKOV, 1.2)
        want, _ = loo_score_oracle(estimator, s, KernelKind.EPANECHNIKOV, 1.2)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("delta", ([1, 1, 0, 1], [1, 0, 1, 1]), ids=("after_censored", "after_uncensored"))
    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_matches_independent_loop_at_a_unique_largest_record(self, estimator, delta):
        # the fold of the largest record refits without it, so the second
        # largest is its fold's largest observation
        s = CensoredSample([1.0, 2.0, 3.0, 9.0], delta, [0.0, 0.3, 0.7, 1.0])
        for h in (0.4, 1.0):
            got = cv_score(estimator, s, KernelKind.GAUSSIAN, h)
            want, _ = loo_score_oracle(estimator, s, KernelKind.GAUSSIAN, h)
            assert got == pytest.approx(want, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(57)
        s = random_censored_sample(rng, 15)
        perm = rng.permutation(15)
        shuffled = CensoredSample(s.y[perm], s.delta[perm], s.x[perm])
        a = cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.6)
        b = cv_score(Estimator.LLRER, shuffled, KernelKind.GAUSSIAN, 0.6)
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("eps", (float("nan"), -1e-12, float("inf")), ids=("nan", "negative", "inf"))
    def test_rejects_invalid_denominator_epsilon(self, eps):
        # the rule and message of EstimatorConfig; a nan would otherwise
        # score nan and pin h_opt to the grid floor without a message
        rng = np.random.default_rng(67)
        s = random_censored_sample(rng, 10)
        grid = BandwidthGrid(0.5, 1.0, 0.5)
        with pytest.raises(ConfigError) as want:
            EstimatorConfig(0.5, KernelKind.EPANECHNIKOV, eps)
        for call in (
            lambda: cv_score(Estimator.LLRER, s, KernelKind.EPANECHNIKOV, 0.5, eps),
            lambda: select_bandwidth(Estimator.LLRER, s, KernelKind.EPANECHNIKOV, grid, eps),
            lambda: select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, grid, eps),
        ):
            with pytest.raises(ConfigError) as got:
                call()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kernel", ("gaussian", None, 0))
    def test_rejects_kernel_that_is_not_a_kernel_kind(self, kernel):
        # the rule and message of EstimatorConfig, not a KeyError from the
        # kernel's support table
        rng = np.random.default_rng(68)
        s = random_censored_sample(rng, 10)
        grid = BandwidthGrid(0.5, 1.0, 0.5)
        with pytest.raises(ConfigError) as want:
            EstimatorConfig(0.5, kernel)
        for call in (
            lambda: cv_score(Estimator.LLRER, s, kernel, 0.5),
            lambda: select_bandwidth(Estimator.LLRER, s, kernel, grid),
            lambda: select_bandwidths(Estimator, s, kernel, grid),
        ):
            with pytest.raises(ConfigError) as got:
                call()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("h", (0.0, -0.5, float("inf"), float("nan")))
    def test_bandwidth_rule_of_estimator_config(self, h):
        s = CensoredSample([1.0, 2.0], [1, 1], [0.0, 1.0])
        with pytest.raises(ConfigError) as want:
            EstimatorConfig(h)
        with pytest.raises(ConfigError) as got:
            cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, h)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_far_covariate_without_a_warning(self, kernel):
        # dx * dx and dx / h overflow; pyproject turns the RuntimeWarning into
        # an error, and the far record's own fold is degenerate
        rng = np.random.default_rng(69)
        s = random_censored_sample(rng, 12)
        far = CensoredSample(s.y, s.delta, np.r_[s.x[:-1], 1e308])
        for selection in select_bandwidths(Estimator, far, kernel, BandwidthGrid(0.1, 0.5, 0.2)).values():
            assert all(point.degenerate_folds >= 1 for point in selection.trace)

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("far", (1e200, 1e308))
    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_far_covariate_leaves_the_other_folds_alone(self, kernel, far):
        # beyond about 1.3e154 the record's dx * dx overflows; its zero weight
        # must still add 0 to every other fold's sums, as it does at 1e150.
        # The naive oracles' double sums overflow there, so 1e150 is the reference
        def traces(x_far):
            s = generate_sample(20, -1.11328125, 3).sample
            sample = CensoredSample(s.y, s.delta, np.where(np.arange(s.n) == 7, x_far, s.x))
            selections = select_bandwidths(Estimator, sample, kernel, BandwidthGrid(0.2, 1.0, 0.4))
            return {est: traces_bits(selection) for est, selection in selections.items()}

        assert traces(far) == traces(1e150)

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_opposite_far_covariates_leave_the_folds_alone(self, kernel):
        # x_j - x_i overflows between 1e308 and -1e308; the censored record at
        # 1e308 (response 0) must still add 0 to the folds at -1e308, whose CR
        # fit rests on their tied neighbour, as it does at +-1e150
        def traces(x_far):
            s = generate_sample(20, -1.11328125, 3).sample
            x = s.x.copy()
            x[7], x[8], x[9] = x_far, -x_far, -x_far
            sample = CensoredSample(s.y, np.where(np.arange(s.n) == 7, 0, s.delta), x)
            selections = select_bandwidths(Estimator, sample, kernel, BandwidthGrid(0.2, 1.0, 0.4))
            return {est: traces_bits(selection) for est, selection in selections.items()}

        assert traces(1e308) == traces(1e150)

    def test_duplicating_records_changes_score(self):
        # documentation example: no invariance under duplication is claimed
        rng = np.random.default_rng(58)
        s = random_censored_sample(rng, 8)
        doubled = CensoredSample(np.r_[s.y, s.y], np.r_[s.delta, s.delta], np.r_[s.x, s.x])
        a = cv_score(Estimator.CR, s, KernelKind.GAUSSIAN, 0.6)
        b = cv_score(Estimator.CR, doubled, KernelKind.GAUSSIAN, 0.6)
        assert a != b


class TestFoldResponses:
    @settings(max_examples=200, deadline=None)
    @given(awkward_samples(), st.sampled_from((-1, 1, 2)))
    def test_closed_form_matches_refit(self, sample, order):
        # the same DataError and, when none is raised, the same warning and
        # responses; after a DataError the refit's warnings depend on the
        # order in which it visits the folds, so they are not compared. The
        # records come in input order and shuffled, as sorting them shuffles
        # them, in blocks of 1, 2 and all rows
        want, want_warned = outcome(lambda: refit_fold_responses(sample, order))
        shuffled = np.random.default_rng(0).permutation(sample.n)
        for cols in (np.arange(sample.n), shuffled):
            permuted = CensoredSample(sample.y[cols], sample.delta[cols], sample.x[cols])
            for rows in (1, 2, sample.n):
                with block_rows(sample.n, rows):
                    got, got_warned = outcome(lambda: fold_responses(permuted, order))
                if isinstance(want, DataError):
                    assert isinstance(got, DataError), (cols, rows)
                else:
                    assert not isinstance(got, DataError), (got, cols, rows)
                    assert got_warned == want_warned, (cols, rows)
                    np.testing.assert_allclose(got, want[np.ix_(cols, cols)], rtol=1e-12, atol=0.0)

    def test_inverse_moment_at_zero_raises(self):
        s = CensoredSample([0.0, 1.0, 2.0], [1, 1, 0], [0.0, 0.5, 1.0])
        with pytest.raises(DataError, match="inverse moment"):
            cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.5)
        # order -1 is the plain response, so LLCR and CR accept the zero
        assert np.isfinite(cv_score(Estimator.CR, s, KernelKind.GAUSSIAN, 0.5))

    def test_warns_on_negative_uncensored(self):
        s = CensoredSample([-1.0, 1.0, 2.0], [1, 1, 0], [0.0, 0.5, 1.0])
        with pytest.warns(NonPositiveResponseWarning):
            cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.5)


class TestLeaveOneOutResponses:
    @settings(max_examples=300, deadline=None)
    @given(tied_samples())
    def test_matches_refit_per_fold(self, sample):
        for order in (-1, 1, 2):
            want = refit_fold_responses(sample, order)
            for rows in (1, 2, sample.n):
                with block_rows(sample.n, rows):
                    got = fold_responses(sample, order)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(tied_samples())
    def test_target_is_the_full_sample_response(self, sample):
        target, _ = _loo_responses(sample, (1, 2))
        want = synthetic_transform(sample, km_censoring_survival(sample), -1).values
        assert target.tobytes() == want.tobytes()

    def test_hand_values(self):
        # fold 0 keeps the uncensored 2 with nothing below it, so its response
        # is 2; fold 1 keeps only the censored 1
        s = CensoredSample([1.0, 2.0], [0, 1], [0.0, 0.0])
        assert np.array_equal(fold_responses(s, -1), [[0.0, 2.0], [0.0, 0.0]])

    def test_ties_across_delta(self):
        s = CensoredSample([1.0, 2.0, 2.0, 2.0, 3.0], [0, 0, 1, 0, 1], np.zeros(5))
        for order in (-1, 1, 2):
            np.testing.assert_allclose(fold_responses(s, order), refit_fold_responses(s, order), rtol=1e-12, atol=0.0)

    def test_rejects_single_observation(self):
        with pytest.raises(DataError):
            _loo_responses(CensoredSample([1.0], [1], [0.0]), (-1,))

    @settings(max_examples=200, deadline=None)
    @given(tied_samples(), st.data())
    def test_a_window_of_columns_is_the_slice_of_every_column(self, sample, data):
        # cross-validation builds a block's responses over its window only
        n = sample.n
        _, rows = _loo_responses(sample, (-1, 1, 2))
        for size in (1, 2, 7, n):
            for block in (slice(lo, lo + size) for lo in range(0, n, size)):  # as _blocks cuts them
                start = data.draw(st.integers(0, block.start))
                stop = data.draw(st.integers(min(block.stop, n), n))
                window, full = rows(block, slice(start, stop)), rows(block)
                for o in (-1, 1, 2):
                    assert window[o].tobytes() == full[o][:, start:stop].tobytes(), (size, block, start, stop)

    def test_raises_exactly_when_a_fold_holds_a_non_finite_response(self):
        # order 2 responses near 1.6e308 overflow in the folds whose refit divides them by a survival
        # below their moment's headroom, and censored records below them set that survival; each
        # response of every fold and column, its own entry excluded, is built without the check
        rng = np.random.default_rng(24)
        edge = 1.6e308 ** -0.5
        pool = np.concatenate([edge * np.array([0.9, 0.95, 0.98, 1.0, 1.02, 1.05, 1.1, 1.3]), [1e-160, 0.3, 1.0, 2.0]])
        # by hand: an overflowed moment alone at the last position, which only the other record's fold
        # reads, and a last record after a censored one, whose own fold alone divides by 0
        cases = [(CensoredSample([1e-170, 1e-160], [0, 1], [0.0, 0.0]), (2,)),
                 (CensoredSample([1.0, 2.0], [0, 1], [0.0, 0.0]), (1, 2))]
        for _ in range(400):
            n = int(rng.integers(2, 11))
            cases.append((CensoredSample(rng.choice(pool, n), rng.integers(0, 2, n), np.zeros(n)),
                          ((1, 2), (2,), (-1, 1, 2))[int(rng.integers(3))]))
        raised = []
        for sample, orders in cases:
            n = sample.n
            with mock.patch.object(llrer.survival, "_check_finite", lambda responses: responses):
                target, rows = _loo_responses(sample, orders)
                built = rows(slice(0, n))
            off_diagonal = ~np.eye(n, dtype=bool)
            finite = np.isfinite(target).all() and all(np.isfinite(t[off_diagonal]).all() for t in built.values())
            try:
                _loo_responses(sample, orders)
            except DataError as exc:
                assert str(exc) == "synthetic responses overflow; responses too close to zero"
                raised.append(True)
            else:
                raised.append(False)
            assert raised[-1] == (not finite), (sample, orders)
        assert raised[:2] == [True, False]
        assert 40 <= sum(raised) <= 360  # both outcomes are common

    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_an_overflow_that_no_window_reads_still_raises(self, kernel):
        # the tiny uncensored response's early response, m / reduced[1], overflows in every fold sorted
        # after it; with folds of one record and covariates 10 apart, no Epanechnikov window reads it
        y = [1e-160, 7.905694150420949e-155, 0.3, 0.5, 1.0, 2.0, 3.0, 4.0]
        s = CensoredSample(y, [0, 1, 1, 0, 1, 1, 0, 1], 10.0 * np.arange(8))
        with block_rows(s.n, 1), pytest.raises(DataError, match="synthetic responses overflow"):
            select_bandwidths((Estimator.LLRER,), s, kernel)


class TestSelectBandwidths:
    SUBSETS = [c for r in (1, 2, 3) for c in itertools.combinations(Estimator, r)]

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("subset", SUBSETS, ids=lambda c: "+".join(e.value for e in c))
    def test_joint_equals_single_bit_for_bit(self, subset, kernel):
        rng = np.random.default_rng(64)
        s = random_censored_sample(rng, 30)
        grid = BandwidthGrid(0.1, 1.5, 0.1)
        joint = select_bandwidths(subset, s, kernel, grid)
        assert list(joint) == list(subset)
        for est in subset:
            alone = select_bandwidth(est, s, kernel, grid)
            assert joint[est].h_opt == alone.h_opt
            assert traces_bits(joint[est]) == traces_bits(alone)

    def test_rejects_empty(self):
        s = CensoredSample([1.0, 2.0], [1, 1], [0.0, 1.0])
        with pytest.raises(ConfigError):
            select_bandwidths((), s, KernelKind.GAUSSIAN)


class TestSelectBandwidth:
    def test_single_element_grid(self):
        rng = np.random.default_rng(59)
        s = random_censored_sample(rng, 10)
        h_opt, trace = select_bandwidth(Estimator.CR, s, KernelKind.GAUSSIAN, BandwidthGrid(0.7, 0.7, 0.1))
        assert h_opt == 0.7
        assert len(trace) == 1

    def test_returns_trace_argmin(self):
        rng = np.random.default_rng(60)
        s = random_censored_sample(rng, 20)
        grid = BandwidthGrid(0.2, 1.4, 0.2)
        h_opt, trace = select_bandwidth(Estimator.LLRER, s, KernelKind.GAUSSIAN, grid)
        scores = [p.score for p in trace]
        hs = [p.h for p in trace]
        assert h_opt in hs
        assert min(scores) == scores[hs.index(h_opt)]

    def test_trace_scores_equal_cv_score(self):
        rng = np.random.default_rng(61)
        s = random_censored_sample(rng, 12)
        grid = BandwidthGrid(0.3, 0.9, 0.3)
        _, trace = select_bandwidth(Estimator.LLCR, s, KernelKind.GAUSSIAN, grid)
        for point in trace:
            assert cv_score(Estimator.LLCR, s, KernelKind.GAUSSIAN, point.h) == point.score

    def test_tie_breaks_to_smaller_h(self):
        # a fully censored sample scores zero everywhere: every h ties
        s = CensoredSample([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0], [0.0, 0.5, 1.0, 1.5])
        grid = BandwidthGrid(0.3, 0.9, 0.3)
        h_opt, trace = select_bandwidth(Estimator.LLRER, s, KernelKind.GAUSSIAN, grid)
        assert len({p.score for p in trace}) == 1
        assert h_opt == 0.3

    def test_deterministic(self):
        rng = np.random.default_rng(62)
        s = random_censored_sample(rng, 15)
        grid = BandwidthGrid(0.2, 1.0, 0.2)
        a = select_bandwidth(Estimator.LLRER, s, KernelKind.GAUSSIAN, grid)
        b = select_bandwidth(Estimator.LLRER, s, KernelKind.GAUSSIAN, grid)
        assert a.h_opt == b.h_opt
        assert a.trace == b.trace


def test_trace_csv(tmp_path):
    rng = np.random.default_rng(63)
    s = random_censored_sample(rng, 10)
    selection = select_bandwidth(Estimator.CR, s, KernelKind.GAUSSIAN, BandwidthGrid(0.2, 0.6, 0.2))
    p = tmp_path / "trace.csv"
    write_cv_trace_csv(selection.trace, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "h,score,degenerate_folds"
    assert len(lines) == 4
    h, score, degs = lines[1].split(",")
    assert float(h) == selection.trace[0].h
    assert float(score) == selection.trace[0].score
    assert int(degs) == selection.trace[0].degenerate_folds


@st.composite
def epanechnikov_cv_cases(draw):
    """Samples whose x lie on a lattice of 0.25 (so windows end exactly at
    tied x with a zero weight) or in a cluster of 0.0625 steps narrower than
    most bandwidths; tied y, all-censored samples and n = 2 included."""
    n = draw(st.integers(2, 12))
    step = draw(st.sampled_from((0.25, 0.0625)))
    x = np.array(draw(st.lists(st.integers(0, 12 if step == 0.25 else 4), min_size=n, max_size=n))) * step
    y = draw(st.lists(st.sampled_from((0.75, 1.5)) | st.floats(0.5, 3.0), min_size=n, max_size=n))
    censored = draw(st.booleans())
    delta = [0] * n if censored else draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # below every lattice gap, lattice multiples, and wider than any x range
    grid = draw(st.sampled_from((BandwidthGrid(0.1, 1.0, 0.15), BandwidthGrid(0.1, 0.1, 1.0), BandwidthGrid(0.25, 1.0, 0.25), BandwidthGrid(5.0, 5.0, 1.0))))
    rows = draw(st.sampled_from((1, 2, 7, n)))
    return CensoredSample(np.array(y), np.array(delta), x), grid, rows


@st.composite
def permuted_samples(draw):
    """A sample with tied x and tied y (all-censored samples and n = 2
    included), a permutation of its records and a forced block size."""
    n = draw(st.integers(2, 12))
    x = draw(st.lists(st.sampled_from((-0.5, 0.0, 0.25, 1.0)) | st.floats(-2.0, 2.0), min_size=n, max_size=n))
    y = draw(st.lists(st.sampled_from((0.75, 1.5)) | st.floats(0.5, 3.0), min_size=n, max_size=n))
    censored = draw(st.booleans())
    delta = [0] * n if censored else draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    perm = np.array(draw(st.permutations(range(n))))
    rows = draw(st.sampled_from((1, 2, 7)))
    return CensoredSample(np.array(y), np.array(delta), np.array(x)), perm, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(permuted_samples())
def test_traces_do_not_depend_on_record_order(case):
    s, perm, rows = case
    shuffled = CensoredSample(s.y[perm], s.delta[perm], s.x[perm])
    grid = BandwidthGrid(0.1, 1.3, 0.3)
    for kernel in KernelKind:
        with block_rows(s.n, rows):
            want = select_bandwidths(Estimator, s, kernel, grid)
            got = select_bandwidths(Estimator, shuffled, kernel, grid)
        for est in Estimator:
            assert got[est].h_opt == want[est].h_opt
            assert traces_bits(got[est]) == traces_bits(want[est]), (kernel, est)


class TestChunks:
    """Cross-validation weighs the Gaussian kernel's bandwidths in chunks of _CHUNK. A bandwidth's
    score must not depend on its position in a chunk, on the bandwidths beside it, on the zero
    padding of the last chunk or on the block size; the Epanechnikov kernel's chunks of one must not
    either."""

    # 37 bandwidths: two full chunks and a padded one
    GRID = BandwidthGrid(0.05, 1.85, 0.05)

    @pytest.fixture(scope="class")
    def sample(self):
        s = random_censored_sample(np.random.default_rng(68), 301)
        assert len(list(_blocks(s.n, _FOLD_FACTORS * s.n))) > 1  # Gaussian blocks
        assert _cells(KernelKind.EPANECHNIKOV, self.GRID.values(), np.sort(s.x))[0].size > 2  # and cells
        assert self.GRID.values().size == 37 and 37 % _CHUNK != 0
        return s

    @staticmethod
    def bits(trace):
        return [(p.h.hex(), p.score.hex(), p.degenerate_folds) for p in trace]

    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_trace_scores_equal_cv_score_at_every_position(self, sample, kernel):
        joint = select_bandwidths(Estimator, sample, kernel, self.GRID)
        for est in Estimator:
            for point in joint[est].trace:
                assert cv_score(est, sample, kernel, point.h).hex() == point.score.hex(), (est, point)

    @pytest.mark.parametrize("rows", (None, 7))
    @pytest.mark.parametrize("kernel", list(KernelKind))
    def test_a_grid_prefix_gives_the_trace_prefix(self, sample, kernel, rows):
        # the blocks follow the grid's largest bandwidth and its size, but no fold's window does: at the
        # blocks that each grid cuts, and at forced ones, a prefix scores bit for bit as in the whole grid
        hs = self.GRID.values()
        cut = functools.partial(block_rows, sample.n, rows) if rows else contextlib.nullcontext
        with cut():
            full = _cv_traces(Estimator, sample, kernel, hs, DEFAULT_EPSILON)
        for m in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
            with cut():
                head = _cv_traces(Estimator, sample, kernel, hs[:m], DEFAULT_EPSILON)
            for est in Estimator:
                assert self.bits(head[est]) == self.bits(full[est][:m]), (m, est)

    def test_gaussian_traces_equal_at_every_block_size(self, sample):
        default = select_bandwidths(Estimator, sample, KernelKind.GAUSSIAN, self.GRID)
        for rows in (1, 2, 7):
            with block_rows(sample.n, rows):
                split = select_bandwidths(Estimator, sample, KernelKind.GAUSSIAN, self.GRID)
            for est in Estimator:
                assert traces_bits(split[est]) == traces_bits(default[est]), (rows, est)

    @pytest.mark.parametrize("rows", (1, 2, 7))
    def test_epanechnikov_traces_equal_at_every_block_size_in_the_cells(self, sample, rows):
        # a smaller _TILE makes the sums bound cut blocks of `rows` folds in each cell, over its windows
        kernel = KernelKind.EPANECHNIKOV
        default = select_bandwidths(Estimator, sample, kernel, self.GRID)
        with mock.patch.object(llrer.loclin, "_TILE", rows * _FOLD_FACTORS * self.GRID.values().size):
            assert max(stop - start for start, stop in cv_blocks(Estimator, sample, kernel, self.GRID)) == rows
            split = select_bandwidths(Estimator, sample, kernel, self.GRID)
        for est in Estimator:
            assert traces_bits(split[est]) == traces_bits(default[est]), (rows, est)


@contextlib.contextmanager
def tile_folds(folds):
    """Force tiles of `folds` folds in every block, whatever its kernel and window, and leave the blocks
    as cross-validation cuts them: the block rule reads _TILE, so only the tile is replaced."""
    with mock.patch.object(llrer.loclin, "_tile_folds", lambda size, columns: folds):
        yield


class TestTiles:
    """Cross-validation weighs each chunk of bandwidths over tiles of a block's folds. A fold's sums
    take the same matrix product in any tile, so no trace may depend on the tile size."""

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("subset", TestSelectBandwidths.SUBSETS, ids=lambda c: "+".join(e.value for e in c))
    def test_traces_equal_the_default_tiles_bit_for_bit(self, subset, kernel):
        # n = 61: one block and one tile by default; tiles of 2 and 7 folds leave a short last tile
        s = random_censored_sample(np.random.default_rng(70), 61)
        assert _TILE // (_CHUNK * s.n) >= s.n
        for rows in (None, 1, 2, 7):
            cut = functools.partial(block_rows, s.n, rows) if rows else contextlib.nullcontext
            with cut():
                default = select_bandwidths(subset, s, kernel, TestChunks.GRID)
            for folds in (1, 2, 7, s.n):
                with cut(), tile_folds(folds):
                    tiled = select_bandwidths(subset, s, kernel, TestChunks.GRID)
                for est in subset:
                    assert traces_bits(tiled[est]) == traces_bits(default[est]), (rows, folds, est)

    def test_several_tiles_per_block_and_a_short_last_one(self):
        # blocks of 78 folds, six whole tiles of 13, and a last block of 66, five tiles and one fold
        s = random_censored_sample(np.random.default_rng(71), 300)
        start, stop = cv_blocks(Estimator, s, KernelKind.GAUSSIAN, TestChunks.GRID)[-1]
        block = stop - start
        tile = _TILE // (_CHUNK * s.n)
        assert 1 < tile < block and block % tile
        default = select_bandwidths(Estimator, s, KernelKind.GAUSSIAN, TestChunks.GRID)
        for folds in (1, block):
            with tile_folds(folds):
                tiled = select_bandwidths(Estimator, s, KernelKind.GAUSSIAN, TestChunks.GRID)
            for est in Estimator:
                assert traces_bits(tiled[est]) == traces_bits(default[est]), (folds, est)


class TestBlockRule:
    """A compact kernel's folds form cells (bandwidth._cells), and a block lies in one cell: it takes
    folds while its factors, _FOLD_FACTORS per fold and per column of its cell's window (the columns
    that its cell's folds are weighed over at some bandwidth of the grid), stay within _BLOCK_ENTRIES
    floats and its sums, _FOLD_FACTORS per fold and bandwidth, within _TILE. A Gaussian cell is every
    fold and every column, and a Gaussian block holds whole tiles."""

    @staticmethod
    def sample(n):
        return random_censored_sample(np.random.default_rng(72), n)

    @staticmethod
    def fits(x, h, lo, hi):
        """Whether the node of folds lo:hi fits at h: one fold, or factors over its window within bound."""
        (start,), (stop,) = _windows(KernelKind.EPANECHNIKOV, [h], x, x[lo], x[hi - 1])
        return hi - lo <= 1 or (hi - lo) * _FOLD_FACTORS * (stop - start) <= llrer.loclin._BLOCK_ENTRIES

    def test_gaussian_blocks_hold_whole_tiles_on_the_default_grid(self):
        s = self.sample(300)
        tile = _TILE // (_CHUNK * s.n)
        assert tile == 13 and _FOLD_FACTORS * DEFAULT_BANDWIDTH_GRID.values().size * 26 <= _TILE
        blocks = cv_blocks(Estimator, s, KernelKind.GAUSSIAN, DEFAULT_BANDWIDTH_GRID)
        assert [start for start, _ in blocks] == list(range(0, s.n, 26))
        assert blocks[-1][1] == s.n
        assert all((stop - start) % tile == 0 for start, stop in blocks[:-1])

    def test_the_factor_bound_still_binds_at_n2000(self):
        s = self.sample(2000)
        grid = BandwidthGrid(0.05, 1.0, 0.05)
        factor_rows = llrer.loclin._BLOCK_ENTRIES // (_FOLD_FACTORS * s.n)
        assert factor_rows == 13 and _TILE // (_CHUNK * s.n) == 2
        want = [(lo, min(lo + 12, s.n)) for lo in range(0, s.n, 12)]  # six tiles of 2
        assert cv_blocks((Estimator.LLRER,), s, KernelKind.GAUSSIAN, grid) == want
        # an Epanechnikov cell's window is narrower than every column, so its blocks take more folds
        blocks = cv_blocks((Estimator.LLRER,), s, KernelKind.EPANECHNIKOV, grid)
        assert [start for start, _ in blocks[1:]] == [stop for _, stop in blocks[:-1]] and blocks[-1][1] == s.n
        assert min(stop - start for start, stop in blocks[:-1]) > factor_rows
        assert len(blocks) < math.ceil(s.n / factor_rows)

    def test_epanechnikov_cells_are_the_highest_nodes_that_fit(self):
        # the tree of halves walked here from the root: a node that fits at the largest bandwidth is a cell
        x = np.sort(self.sample(2000).x)
        hs = BandwidthGrid(0.05, 1.0, 0.05).values()

        def cells(lo, hi):
            if self.fits(x, hs[-1], lo, hi):
                return [lo]
            return cells(lo, (lo + hi) // 2) + cells((lo + hi) // 2, hi)

        bounds, _, _ = _cells(KernelKind.EPANECHNIKOV, hs, x)
        assert bounds.tolist() == cells(0, x.size) + [x.size]

    def test_a_folds_window_follows_its_bandwidth_alone(self):
        # fold i is weighed at h over the window of the highest node that holds it and fits at h, walked
        # here from the root, so over the same columns in every grid that holds h
        x = np.sort(self.sample(600).x)
        hs = BandwidthGrid(0.1, 2.0, 0.1).values()

        def window(i, h):
            lo, hi = 0, x.size
            while not self.fits(x, h, lo, hi):
                lo, hi = (lo, (lo + hi) // 2) if i < (lo + hi) // 2 else ((lo + hi) // 2, hi)
            (start,), (stop,) = _windows(KernelKind.EPANECHNIKOV, [h], x, x[lo], x[hi - 1])
            return start, stop

        for grid in (hs, hs[:7], hs[3:4]):
            bounds, starts, stops = _cells(KernelKind.EPANECHNIKOV, grid, x)
            for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                for k, h in enumerate(grid):
                    assert window(lo, h) == window(hi - 1, h) == (starts[k, c], stops[k, c]), (len(grid), c, h)

    def test_epanechnikov_blocks_fill_their_cells(self):
        # every block keeps both bounds over its cell's window, and every block but its cell's last would
        # break one with one more fold
        s = self.sample(2000)
        hs = BandwidthGrid(0.05, 1.0, 0.05).values()
        bounds, starts, stops = _cells(KernelKind.EPANECHNIKOV, hs, np.sort(s.x))

        def fits(cell, rows):
            factors = rows * _FOLD_FACTORS * int(stops[:, cell].max() - starts[:, cell].min())
            return factors <= llrer.loclin._BLOCK_ENTRIES and rows * _FOLD_FACTORS * hs.size <= _TILE

        blocks = cv_blocks((Estimator.LLRER,), s, KernelKind.EPANECHNIKOV, BandwidthGrid(0.05, 1.0, 0.05))
        assert [start for start, _ in blocks[1:]] == [stop for _, stop in blocks[:-1]] and blocks[-1][1] == s.n
        for start, stop in blocks:
            cell = int(bounds.searchsorted(start, "right")) - 1
            assert stop <= bounds[cell + 1] and fits(cell, stop - start), (start, stop)
            assert stop == bounds[cell + 1] or not fits(cell, stop - start + 1), (start, stop)

    def test_epanechnikov_sums_bound_on_the_default_grid(self):
        # 200 bandwidths: the sums bound, 32 folds, binds before the factors of the cells; the stored
        # predictions take 1.37 MiB, and blocks of 87 folds, the factor bound over every column, took 7.8 MiB
        s = self.sample(300)
        assert _TILE // (_FOLD_FACTORS * DEFAULT_BANDWIDTH_GRID.values().size) == 32
        bounds = _cells(KernelKind.EPANECHNIKOV, DEFAULT_BANDWIDTH_GRID.values(), np.sort(s.x))[0].tolist()
        assert min(np.diff(bounds)) > 32
        blocks = cv_blocks(Estimator, s, KernelKind.EPANECHNIKOV, DEFAULT_BANDWIDTH_GRID)
        assert blocks == [(lo, min(lo + 32, b)) for a, b in zip(bounds, bounds[1:]) for lo in range(a, b, 32)]
        tracemalloc.start()
        try:
            select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak

    @pytest.mark.parametrize("seed", (3, 8))
    def test_epanechnikov_traces_match_factor_bound_blocks_at_n2000(self, seed):
        # blocks in cells against forced blocks of 13, the factor bound over every column, which reach
        # across cells: each bandwidth's products run over other windows, so the scores agree to rounding
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPositiveResponseWarning)
            s = generate_sample(2000, -1.135, seed).sample
            grid = BandwidthGrid(0.05, 1.0, 0.05)
            got = select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, grid)
            with block_rows(s.n, 13):
                want = select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, grid)
        for est in Estimator:
            assert got[est].h_opt == want[est].h_opt, est
            assert [p[::2] for p in got[est].trace] == [p[::2] for p in want[est].trace], est
            np.testing.assert_allclose([p.score for p in got[est].trace], [p.score for p in want[est].trace],
                                       rtol=1e-12, atol=0.0, err_msg=str(est))

    def test_gaussian_memory_on_the_default_grid(self):
        # the stored predictions take 1.37 MiB; blocks of 87 folds, the factor bound alone, took 8.2 MiB
        s = self.sample(300)
        tracemalloc.start()
        try:
            select_bandwidths(Estimator, s, KernelKind.GAUSSIAN)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak


class TestBlocks:
    @pytest.mark.parametrize("rows", (1, 2, 7))
    def test_gaussian_traces_equal_one_block_bit_for_bit(self, rows):
        rng = np.random.default_rng(65)
        s = random_censored_sample(rng, 23)
        grid = BandwidthGrid(0.1, 1.5, 0.2)
        whole = select_bandwidths(Estimator, s, KernelKind.GAUSSIAN, grid)
        with block_rows(s.n, rows):
            split = select_bandwidths(Estimator, s, KernelKind.GAUSSIAN, grid)
        for est in Estimator:
            assert traces_bits(split[est]) == traces_bits(whole[est])

    def test_gaussian_traces_equal_at_every_block_size_bit_for_bit(self):
        # n = 200 takes two blocks by default, so no block size below is the whole sample
        rng = np.random.default_rng(67)
        s = random_censored_sample(rng, 200)
        assert len(list(_blocks(s.n, _FOLD_FACTORS * s.n))) == 2
        grid = BandwidthGrid(0.1, 1.5, 0.2)
        default = select_bandwidths(Estimator, s, KernelKind.GAUSSIAN, grid)
        for rows in (1, 2, 7):
            with block_rows(s.n, rows):
                split = select_bandwidths(Estimator, s, KernelKind.GAUSSIAN, grid)
            for est in Estimator:
                assert traces_bits(split[est]) == traces_bits(default[est]), (rows, est)

    @pytest.mark.parametrize("rows", (1, 2, 7))
    def test_epanechnikov_traces_agree_with_one_block(self, rows):
        rng = np.random.default_rng(66)
        s = random_censored_sample(rng, 23)
        grid = BandwidthGrid(0.1, 1.5, 0.2)
        whole = select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, grid)
        with block_rows(s.n, rows):
            split = select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, grid)
        for est in Estimator:
            for a, b in zip(split[est].trace, whole[est].trace):
                assert a.h == b.h
                assert a.score == pytest.approx(b.score, rel=1e-9)
                assert a.degenerate_folds == b.degenerate_folds

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(epanechnikov_cv_cases())
    def test_epanechnikov_matches_independent_loop(self, case):
        s, grid, rows = case
        with block_rows(s.n, rows):
            joint = select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, grid)
        for est in Estimator:
            for point in joint[est].trace:
                want, degenerate = loo_score_oracle(est, s, KernelKind.EPANECHNIKOV, point.h)
                assert point.score == pytest.approx(want, rel=1e-9), (est, point)
                assert point.degenerate_folds == degenerate, (est, point)

    def test_bandwidth_below_every_gap_leaves_every_fold_degenerate(self):
        s = CensoredSample([1.0, 2.0, 0.5, 1.5], [1, 0, 1, 1], [0.0, 0.25, 0.5, 1.0])
        joint = select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, BandwidthGrid(0.2, 0.25, 0.05))
        for est in Estimator:
            assert [p.degenerate_folds for p in joint[est].trace] == [4, 4]

    @pytest.mark.parametrize("rows", (1, 2, 7))
    @pytest.mark.parametrize(
        "y, match",
        [([0.0, 1.0, 2.0, 3.0, 0.7, 1.1, 1.3, 0.9, 2.2], "inverse moment"), ([1e-170] + [1.0] * 8, "overflow")],
    )
    def test_data_errors_with_many_blocks(self, rows, y, match):
        s = CensoredSample(y, [1, 1, 0, 1, 1, 0, 1, 1, 1], np.linspace(-1.0, 1.0, 9))
        for kernel in KernelKind:
            with block_rows(s.n, rows), pytest.raises(DataError, match=match):
                cv_score(Estimator.LLRER, s, kernel, 0.5)

    @pytest.mark.parametrize("rows", (1, 2, 7))
    def test_warns_once_per_call_with_many_blocks(self, rows):
        s = CensoredSample([-1.0, 1.0, 2.0, 0.5, -0.3, 1.2, 0.8, 2.5, 1.7], [1, 1, 0, 1, 1, 1, 0, 1, 1], np.linspace(0, 2, 9))
        grid = BandwidthGrid(0.3, 0.9, 0.3)
        with block_rows(s.n, rows):
            _, count = recorded(lambda: select_bandwidths(Estimator, s, KernelKind.EPANECHNIKOV, grid))
            assert count == 1
            _, count = recorded(lambda: cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.5))
            assert count == 1

    @settings(max_examples=100, deadline=None)
    @given(awkward_samples(), st.sampled_from((1, 2, 7)))
    def test_blocks_raise_and_warn_as_one_block(self, sample, rows):
        def run():
            return select_bandwidths(Estimator, sample, KernelKind.GAUSSIAN, BandwidthGrid(0.5, 1.0, 0.5))

        want, want_warnings = recorded(run)
        with block_rows(sample.n, rows):
            got, got_warnings = recorded(run)
        assert got_warnings == want_warnings <= 1
        if isinstance(want, DataError):
            assert isinstance(got, DataError)
        else:
            assert {e: traces_bits(sel) for e, sel in got.items()} == {e: traces_bits(sel) for e, sel in want.items()}

    @pytest.mark.parametrize("kernel", list(KernelKind))
    @pytest.mark.parametrize("subset", [(Estimator.LLRER,), tuple(Estimator)], ids=("llrer", "all"))
    def test_memory_stays_below_four_blocks(self, subset, kernel):
        # a block's factors take at most _BLOCK_ENTRIES floats; its offsets,
        # responses and weights, and the stored predictions, stay below three
        # times that more, far below one n x n array (32 MB)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPositiveResponseWarning)
            s = generate_sample(2000, -1.0, seed=7).sample
            tracemalloc.start()
            try:
                select_bandwidths(subset, s, kernel, BandwidthGrid(0.05, 1.0, 0.05))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4 * llrer.loclin._BLOCK_ENTRIES * 8, peak


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-1e6, 1e6) | st.sampled_from((0.0, 0.5, 1.0, 1.5)), min_size=1, max_size=30),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from((1e-9, 0.25, 0.5, 1.0, 3.0, 1e7)),
)
def test_window_holds_every_non_zero_weight(x, a, b, h):
    # every column left out of a block's window weighs exactly 0 at every
    # point of the block, including points and columns at the window's edges,
    # under the squared-offset weights that cross-validation evaluates; far
    # columns, whose dx * dx is capped, weigh 0 too
    far = np.array([-1e308, -1e200, 1e200, 1e308])
    for kind in KernelKind:
        xs = np.sort(x)
        lo = xs[int(a * (xs.size - 1))]
        hi = max(lo, xs[int(b * (xs.size - 1))])
        (start,), (stop,) = _windows(kind, [h], xs, lo, hi)
        outside = np.r_[xs[:start], xs[stop:], far]
        for p in (lo, hi, 0.5 * (lo + hi), np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)):
            if lo <= p <= hi:
                _, dx2 = _offsets(outside, np.array([p]))
                with np.errstate(over="ignore"):  # as every caller of _kernel_of_squares holds it
                    assert not np.any(_kernel_of_squares(kind, dx2, h)), (kind, p, start, stop)


def test_epanechnikov_folds_do_not_weigh_records_on_the_support_edge():
    # records exactly 0.3 apart at h = 0.3, a grid value: a fold's nearest other records sit on its support's
    # edge, where dx * dx equals h * h and the weight (h**2 - dx**2)+ / h**2 is exactly 0, so every fold of
    # every estimator is degenerate, as the naive oracles find. The form 1 - dx**2 * (1 / h**2) would weigh
    # them about 1e-16, since 0.3**2 * (1 / 0.3**2) < 1, and fit the middle fold
    sample = CensoredSample([1.0, 2.0, 3.0], [1, 1, 1], [-0.3, 0.0, 0.3])
    grid = BandwidthGrid(0.1, 0.5, 0.1)
    assert 0.3 in grid.values().tolist()
    config = EstimatorConfig(0.3, KernelKind.EPANECHNIKOV)
    for i in range(sample.n):
        keep = np.arange(sample.n) != i
        fold = CensoredSample(sample.y[keep], sample.delta[keep], sample.x[keep])
        for naive in (llrer_point_naive, llcr_point_naive):
            assert naive(fold, km_censoring_survival(fold), config, float(sample.x[i])) == (0.0, True), (i, naive)
    for e, selection in select_bandwidths(tuple(Estimator), sample, KernelKind.EPANECHNIKOV, grid).items():
        assert {p.h: p.degenerate_folds for p in selection.trace}[0.3] == sample.n, e


@st.composite
def invariance_cases(draw):
    """(sample, grid, bandwidths): small samples with tied responses and covariates, censoring random,
    total or of all records but one, n from 2, covariates, grid points and bandwidths on scales where
    no weight, response or product of sums is subnormal."""
    n = draw(st.integers(2, 24))
    values = draw(st.lists(st.sampled_from((0.3, 1.0, 2.5, -0.7, -2.0, 7.0)) | st.floats(0.05, 20.0)
                           | st.floats(-20.0, -0.05), min_size=1, max_size=n))
    y = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    pattern = draw(st.sampled_from(("random", "all_censored", "one_uncensored")))
    if pattern == "random":
        delta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        delta = [int(pattern == "one_uncensored" and i == 0) for i in range(n)]
    # 0 or at least 1e-100 in magnitude, so that no offset between a covariate and a grid point squares to a
    # subnormal (a grid point of 7.7e-157 over covariates at 0 did)
    place = st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)
    spots = draw(st.lists(place, min_size=1, max_size=n))
    x = draw(st.lists(st.sampled_from(spots), min_size=n, max_size=n))
    grid = np.unique(draw(st.lists(place, min_size=1, max_size=7)))
    hs = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4))
    return CensoredSample(y, delta, x), grid, hs


class TestExactInvariances:
    """Scaling by a power of two commutes with rounding, and the Kaplan-Meier estimate depends on the
    ranks of y alone, so these hold bit for bit at any n, with no oracle and no tolerance."""

    @staticmethod
    def fits(sample, grid, hs, kernel):
        configs = {e: EstimatorConfig(hs[i % len(hs)], kernel) for i, e in enumerate(Estimator)}
        curves = fit_curves(configs, sample, grid)
        traces = _cv_traces(tuple(Estimator), sample, kernel, hs, DEFAULT_EPSILON)
        return curves, traces

    @classmethod
    def check_scaling(cls, sample, grid, hs, kernels):
        by4 = CensoredSample(4.0 * sample.y, sample.delta, sample.x)
        by2 = CensoredSample(sample.y, sample.delta, 2.0 * sample.x)
        for kernel in kernels:
            curves, traces = cls.fits(sample, grid, hs, kernel)
            # y -> 4y: curves times 4, scores times 16
            curves4, traces4 = cls.fits(by4, grid, hs, kernel)
            # (x, grid, h) -> 2 (x, grid, h): curves and traces unchanged
            curves2, traces2 = cls.fits(by2, 2.0 * grid, [2.0 * h for h in hs], kernel)
            for e in Estimator:
                assert curves4[e].values.tobytes() == (4.0 * curves[e].values).tobytes(), (kernel, e)
                assert curves2[e].values.tobytes() == curves[e].values.tobytes(), (kernel, e)
                assert np.array_equal(curves4[e].degenerate, curves[e].degenerate)
                assert np.array_equal(curves2[e].degenerate, curves[e].degenerate)
                for p, p4, p2 in zip(traces[e], traces4[e], traces2[e]):
                    assert p4.score == 16.0 * p.score and p2.score == p.score, (kernel, e, p, p4, p2)
                    assert p4.degenerate_folds == p2.degenerate_folds == p.degenerate_folds

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    @settings(max_examples=40, deadline=None)
    @given(invariance_cases())
    def test_scaling_y_and_the_covariate_scale(self, case):
        self.check_scaling(*case, KernelKind)

    @pytest.mark.filterwarnings("ignore::llrer.NonPositiveResponseWarning")
    def test_scaling_a_large_epanechnikov_sample(self):
        # n = 10^4, beyond the reach of the oracles; two small bandwidths keep the folds' windows narrow, so
        # the three fits take a few seconds
        sample = generate_sample(10_000, -1.135, 11).sample
        self.check_scaling(sample, np.linspace(-2.0, 3.0, 21), [0.01, 0.03], [KernelKind.EPANECHNIKOV])
