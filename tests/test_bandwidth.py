import itertools
import warnings

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
    km_censoring_survival,
    llcr_point,
    llrer_point,
    select_bandwidth,
    select_bandwidths,
    synthetic_transform,
    write_cv_trace_csv,
)
from llrer.bandwidth import _workspace

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


def outcome(fn):
    """(value or DataError raised, whether a NonPositiveResponseWarning was emitted)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except DataError as exc:
            value = exc
    return value, any(issubclass(w.category, NonPositiveResponseWarning) for w in caught)


@st.composite
def awkward_samples(draw):
    """Tied responses drawn from a pool that holds zero, negative, tiny and
    outlying values, with random censoring."""
    n = draw(st.integers(2, 10))
    pool = st.sampled_from((0.0, -0.5, 1e-170, 0.3, 1.0, 2.5, 40.0, 1e6))
    y = draw(st.lists(pool | st.floats(0.05, 5.0), min_size=n, max_size=n))
    delta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return CensoredSample(np.array(y), np.array(delta), np.zeros(n))


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
        with pytest.raises(ConfigError):
            BandwidthGrid(0.1, 1.0, 0.0)

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


class TestCvScore:
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

    def test_permutation_invariance(self):
        rng = np.random.default_rng(57)
        s = random_censored_sample(rng, 15)
        perm = rng.permutation(15)
        shuffled = CensoredSample(s.y[perm], s.delta[perm], s.x[perm])
        a = cv_score(Estimator.LLRER, s, KernelKind.GAUSSIAN, 0.6)
        b = cv_score(Estimator.LLRER, shuffled, KernelKind.GAUSSIAN, 0.6)
        assert a == pytest.approx(b, rel=1e-9)

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
        # order in which it visits the folds, so they are not compared
        got, got_warned = outcome(lambda: _workspace(sample, (order,)).tau[order])
        want, want_warned = outcome(lambda: refit_fold_responses(sample, order))
        if isinstance(want, DataError):
            assert isinstance(got, DataError)
        else:
            assert not isinstance(got, DataError), got
            assert got_warned == want_warned
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

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
