"""One input rule for every scalar number a public entry point takes.

Each parameter below is fed None, a numeric string, a bool, nan, +-inf and
an out-of-range value. Each must raise a ConfigError of the one message
shape: the parameter's name, its interval and the value as Python prints it.
Evaluation points, flags, collections and the arguments that must be one
of the package's types follow the same shape without an interval.
"""

import math
import re

import numpy as np
import pytest

from llrer import (
    BandwidthGrid,
    CensoredSample,
    ConfigError,
    Estimator,
    EstimatorConfig,
    KernelKind,
    SimulationConfig,
    calibrate_censoring,
    config_lines,
    cr_point,
    cv_score,
    error_metrics,
    fit_curve,
    fit_curves,
    generate_sample,
    inject_outliers,
    km_censoring_survival,
    llcr_point,
    llcr_point_naive,
    llrer_point,
    llrer_point_naive,
    moment_statistics,
    monte_carlo_run,
    parse_grid_spec,
    select_bandwidth,
    select_bandwidths,
    synthetic_transform,
    theoretical_curve,
    write_curve_csv,
    write_curves_csv,
    write_cv_trace_csv,
    write_summary_csv,
)

SAMPLE = CensoredSample([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 1], [0.0, 1.0, 2.0, 3.0])
GRID = BandwidthGrid(0.5, 1.0, 0.5)
STUDY = dict(n=10, replications=1, seed=1, c=-2.0, h=0.5)
REAL, INTEGER = "a real number", "an integer"


def study(**changes):
    return SimulationConfig(**{**STUDY, **changes})


def cv(estimator=Estimator.LLRER, h=0.5, eps=1e-12):
    return cv_score(estimator, SAMPLE, KernelKind.GAUSSIAN, h, eps)


# (parameter, call with the value, name in the message, kind, interval, out-of-range value and its print,
#  whether None means "not given")
CASES = [
    ("EstimatorConfig.bandwidth", lambda v: EstimatorConfig(v), "bandwidth h", REAL, "[1e-150, 1e+150]",
     (np.float64(0.0), "0.0"), False),
    ("EstimatorConfig.denominator_epsilon", lambda v: EstimatorConfig(0.5, denominator_epsilon=v),
     "denominator_epsilon", REAL, "[0, inf)", (-1e-9, "-1e-09"), False),
    ("BandwidthGrid.lo", lambda v: BandwidthGrid(v, 1.0, 0.1), "bandwidth grid lo", REAL, "[1e-150, 1e+150]",
     (0.0, "0.0"), False),
    ("BandwidthGrid.hi", lambda v: BandwidthGrid(0.1, v, 0.1), "bandwidth grid hi", REAL, "[0.1, 1e+150]",
     (0.05, "0.05"), False),
    ("BandwidthGrid.step", lambda v: BandwidthGrid(0.1, 1.0, v), "bandwidth grid step", REAL, "(0, inf)",
     (np.float32(0.0), "0.0"), False),
    ("cv_score.h", lambda v: cv(h=v), "bandwidth h", REAL, "[1e-150, 1e+150]", (1e151, "1e+151"), False),
    ("cv_score.denominator_epsilon", lambda v: cv(eps=v), "denominator_epsilon", REAL, "[0, inf)",
     (-1.0, "-1.0"), False),
    ("select_bandwidth.denominator_epsilon",
     lambda v: select_bandwidth(Estimator.CR, SAMPLE, KernelKind.GAUSSIAN, GRID, v),
     "denominator_epsilon", REAL, "[0, inf)", (-1.0, "-1.0"), False),
    ("select_bandwidths.denominator_epsilon",
     lambda v: select_bandwidths((Estimator.CR, Estimator.LLCR), SAMPLE, KernelKind.GAUSSIAN, GRID, v),
     "denominator_epsilon", REAL, "[0, inf)", (-1.0, "-1.0"), False),
    ("generate_sample.n", lambda v: generate_sample(v, 0.0, 1), "n", INTEGER, "[1, inf)", (0, "0"), False),
    ("generate_sample.c", lambda v: generate_sample(5, v, 1), "c", REAL, "(-inf, inf)", None, False),
    ("calibrate_censoring.target_cp", lambda v: calibrate_censoring(v, 0.005, 1), "target censoring proportion",
     REAL, "(0, 1)", (1.0, "1.0"), False),
    ("calibrate_censoring.tolerance", lambda v: calibrate_censoring(0.5, v, 1), "calibration tolerance", REAL,
     "(0, inf)", (0.0, "0.0"), False),
    ("calibrate_censoring.seed", lambda v: calibrate_censoring(0.5, 0.005, v), "seed", INTEGER, "[0, inf)",
     (np.int64(-1), "-1"), False),
    ("inject_outliers.count", lambda v: inject_outliers(SAMPLE, v, 2.0, 1), "outlier count", INTEGER, "[0, 4]",
     (5, "5"), False),
    ("inject_outliers.multiplier", lambda v: inject_outliers(SAMPLE, 1, v, 1), "outlier multiplier", REAL,
     "(0, inf)", (-2.0, "-2.0"), False),
    ("generate_sample.seed", lambda v: generate_sample(5, 0.0, v), "seed", INTEGER, "[0, inf)", (-1, "-1"), False),
    ("inject_outliers.seed", lambda v: inject_outliers(SAMPLE, 1, 2.0, v), "seed", INTEGER, "[0, inf)",
     (-1, "-1"), False),
    ("inject_outliers.seed at count 0", lambda v: inject_outliers(SAMPLE, 0, 2.0, v), "seed", INTEGER, "[0, inf)",
     (np.int64(-1), "-1"), False),
    ("SimulationConfig.n", lambda v: study(n=v), "n", INTEGER, "[1, inf)", (0, "0"), False),
    ("SimulationConfig.replications", lambda v: study(replications=v), "replications", INTEGER, "[1, inf)",
     (0.0, "0.0"), False),
    ("SimulationConfig.seed", lambda v: study(seed=v), "seed", INTEGER, "[0, inf)", (-1, "-1"), False),
    ("SimulationConfig.target_cp", lambda v: study(c=None, target_cp=v), "target censoring proportion", REAL,
     "(0, 1)", (0.0, "0.0"), True),
    ("SimulationConfig.c", lambda v: study(c=v), "c", REAL, "(-inf, inf)", None, True),
    ("SimulationConfig.outlier_count", lambda v: study(outlier_count=v), "outlier count", INTEGER, "[0, 10]",
     (11, "11"), False),
    ("SimulationConfig.outlier_mc", lambda v: study(outlier_mc=v), "outlier multiplier", REAL, "(0, inf)",
     (0.0, "0.0"), False),
    ("SimulationConfig.h", lambda v: study(h=v), "bandwidth h", REAL, "[1e-150, 1e+150]", (0.0, "0.0"), True),
    ("SimulationConfig.denominator_epsilon", lambda v: study(denominator_epsilon=v), "denominator_epsilon", REAL,
     "[0, inf)", (-1e-12, "-1e-12"), False),
    ("SimulationConfig.calibration_tolerance", lambda v: study(calibration_tolerance=v), "calibration tolerance",
     REAL, "(0, inf)", (np.float64(-0.5), "-0.5"), False),
    ("monte_carlo_run.jobs", lambda v: monte_carlo_run(study(), jobs=v), "jobs", INTEGER, "[1, inf)", (0, "0"), False),
]

BAD = [(None, "None"), ("0.3", "'0.3'"), (True, "True"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]


def bad_inputs():
    for param, call, name, kind, interval, out_of_range, optional in CASES:
        for value, shown in BAD + ([out_of_range] if out_of_range else []):
            if not (optional and value is None):
                yield pytest.param(call, value, f"{name} must be {kind} in {interval}, got {shown}", id=f"{param}-{shown}")


@pytest.mark.parametrize("call, value, message", bad_inputs())
def test_rejects_with_the_one_message_shape(call, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("param, call, name, kind, interval, out_of_range, optional", CASES, ids=[c[0] for c in CASES])
def test_accepts_numpy_scalars_and_integral_floats(param, call, name, kind, interval, out_of_range, optional):
    # the numpy scalar of each parameter's valid value, and for an integer its integral float
    valid = {"[0, inf)": 1, "(0, inf)": 1, "(0, 1)": 0.5, "[1e-150, 1e+150]": 0.5, "(-inf, inf)": -2.0}
    value = valid.get(interval, 1)
    given = [np.float64(value), np.float32(value)] + ([np.int64(value), float(value)] if kind == INTEGER else [])
    for v in given:
        call(v)


def test_stored_values_are_python_numbers():
    cfg = study(n=np.int64(10), seed=3.0, outlier_count=np.int32(2), outlier_mc=np.int64(3), h=np.float32(0.5),
                denominator_epsilon=np.float64(1e-9), calibration_tolerance=np.int64(1))
    for name, kind in (("n", int), ("seed", int), ("outlier_count", int), ("outlier_mc", float), ("h", float),
                       ("denominator_epsilon", float), ("calibration_tolerance", float)):
        assert type(getattr(cfg, name)) is kind, name
    grid = BandwidthGrid(np.float32(0.5), np.int64(1), np.float64(0.25))
    assert (type(grid.lo), type(grid.hi), type(grid.step)) == (float, float, float)


STEP = km_censoring_survival(SAMPLE)
CONFIG = EstimatorConfig(0.5)
RESPONSES = [synthetic_transform(SAMPLE, STEP, 1)]
GAUSSIAN = KernelKind.GAUSSIAN

# (argument, call with the value, the message's "must be" part); each is fed every value of NOT_AN_INSTANCE
TYPED = [
    ("cv_score.estimator", lambda v: cv_score(v, SAMPLE, GAUSSIAN, 0.5), "estimator", "an Estimator"),
    ("select_bandwidth.estimator", lambda v: select_bandwidth(v, SAMPLE, GAUSSIAN, GRID), "estimator", "an Estimator"),
    ("select_bandwidths.estimators", lambda v: select_bandwidths((Estimator.CR, v), SAMPLE, GAUSSIAN, GRID),
     "estimator", "an Estimator"),
    ("select_bandwidth.grid", lambda v: select_bandwidth(Estimator.CR, SAMPLE, GAUSSIAN, v), "bandwidth grid",
     "a BandwidthGrid"),
    ("select_bandwidths.grid", lambda v: select_bandwidths((Estimator.CR,), SAMPLE, GAUSSIAN, v), "bandwidth grid",
     "a BandwidthGrid"),
    ("cv_score.kernel", lambda v: cv_score(Estimator.CR, SAMPLE, v, 0.5), "kernel", "a KernelKind"),
    ("fit_curve.config", lambda v: fit_curve(Estimator.CR, SAMPLE, v, [0.0, 1.0]), "config", "an EstimatorConfig"),
    ("fit_curves.estimator", lambda v: fit_curves({v: CONFIG}, SAMPLE, [0.0, 1.0]), "estimator", "an Estimator"),
    ("fit_curves.config", lambda v: fit_curves({Estimator.LLRER: CONFIG, Estimator.CR: v}, SAMPLE, [0.0, 1.0]),
     "config", "an EstimatorConfig"),
    ("cr_point.config", lambda v: cr_point(SAMPLE, STEP, v, 1.0), "config", "an EstimatorConfig"),
    ("llrer_point_naive.config", lambda v: llrer_point_naive(SAMPLE, STEP, v, 1.0), "config", "an EstimatorConfig"),
    ("cr_point.sample", lambda v: cr_point(v, STEP, CONFIG, 1.0), "sample", "a CensoredSample"),
    ("llcr_point_naive.sample", lambda v: llcr_point_naive(v, STEP, CONFIG, 1.0, responses=RESPONSES), "sample",
     "a CensoredSample"),
    ("moment_statistics.sample", lambda v: moment_statistics(v, RESPONSES, CONFIG, 1.0), "sample", "a CensoredSample"),
    ("synthetic_transform.sample", lambda v: synthetic_transform(v, STEP, 1), "sample", "a CensoredSample"),
    ("km_censoring_survival.sample", lambda v: km_censoring_survival(v), "sample", "a CensoredSample"),
    ("fit_curve.sample", lambda v: fit_curve(Estimator.CR, v, CONFIG, [0.0, 1.0]), "sample", "a CensoredSample"),
    ("select_bandwidth.sample", lambda v: select_bandwidth(Estimator.CR, v, GAUSSIAN, GRID), "sample",
     "a CensoredSample"),
    ("inject_outliers.sample", lambda v: inject_outliers(v, 1, 2.0, 0), "sample", "a CensoredSample"),
    ("llrer_point.step", lambda v: llrer_point(SAMPLE, v, CONFIG, 1.0), "step", "a SurvivalStep"),
    ("llcr_point_naive.step", lambda v: llcr_point_naive(SAMPLE, v, CONFIG, 1.0), "step", "a SurvivalStep"),
    ("synthetic_transform.step", lambda v: synthetic_transform(SAMPLE, v, 1), "step", "a SurvivalStep"),
    ("llrer_point.responses", lambda v: llrer_point(SAMPLE, STEP, CONFIG, 1.0, responses=[v]), "responses entry",
     "a SyntheticResponses"),
    ("moment_statistics.responses", lambda v: moment_statistics(SAMPLE, RESPONSES + [v], CONFIG, 1.0),
     "responses entry", "a SyntheticResponses"),
    ("error_metrics.curve", lambda v: error_metrics(v, theoretical_curve), "curve", "a FittedCurve"),
    ("monte_carlo_run.config", lambda v: monte_carlo_run(v), "config", "a SimulationConfig"),
    ("config_lines.config", lambda v: config_lines(v), "config", "a SimulationConfig"),
    # a seed is an integer >= 0 or a SeedSequence, with the integer rule's message
    ("generate_sample.seed", lambda v: generate_sample(5, 0.0, v), "seed", "an integer in [0, inf)"),
    ("inject_outliers.seed", lambda v: inject_outliers(SAMPLE, 1, 2.0, v), "seed", "an integer in [0, inf)"),
    ("calibrate_censoring.seed", lambda v: calibrate_censoring(0.5, 0.005, v), "seed", "an integer in [0, inf)"),
]

NOT_AN_INSTANCE = [("cr", "'cr'"), (0.5, "0.5"), ((0.1, 1.0, 0.1), "(0.1, 1.0, 0.1)"), (True, "True")]


@pytest.mark.parametrize(
    "call, value, message",
    [pytest.param(call, value, f"{name} must be {kind}, got {shown}", id=f"{param}-{shown}")
     for param, call, name, kind in TYPED for value, shown in NOT_AN_INSTANCE],
)
def test_rejects_an_argument_of_the_wrong_type(call, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


PAIRS = [(Estimator.CR, CONFIG)]
# (argument, call with the value, the value and its print); strings and lone estimators iterate as no collection should
NOT_A_COLLECTION = [
    ("select_bandwidths.estimators", lambda v: select_bandwidths(v, SAMPLE, GAUSSIAN, GRID), "estimators",
     "a collection (not a string)"),
    ("SimulationConfig.estimators", lambda v: study(estimators=v), "estimators", "a collection (not a string)"),
    ("moment_statistics.responses", lambda v: moment_statistics(SAMPLE, v, CONFIG, 1.0), "responses",
     "a collection (not a string)"),
]
COLLECTION_VALUES = [("llrer", "'llrer'"), ("cr", "'cr'"), (b"cr", "b'cr'"), (Estimator.CR, "<Estimator.CR: 'cr'>"),
                     (None, "None"), (3, "3")]


@pytest.mark.parametrize(
    "call, value, message",
    [pytest.param(call, value, f"{name} must be {kind}, got {shown}", id=f"{param}-{shown}")
     for param, call, name, kind in NOT_A_COLLECTION for value, shown in COLLECTION_VALUES]
    + [pytest.param(lambda v: fit_curves(v, SAMPLE, [0.0, 1.0]), PAIRS, f"configs must be a Mapping, got {PAIRS!r}",
                    id="fit_curves.configs-pairs")],
)
def test_rejects_a_collection_argument_of_the_wrong_kind(call, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


# (writer, its first argument's name, the message's "must be" part, the values it is fed)
WRITERS = [
    (write_curves_csv, "report", "a SimulationReport", NOT_AN_INSTANCE + [(None, "None")]),
    (write_summary_csv, "report", "a SimulationReport", NOT_AN_INSTANCE + [(None, "None")]),
    (write_curve_csv, "curve", "a FittedCurve", NOT_AN_INSTANCE + [(None, "None")]),
    (write_cv_trace_csv, "trace", "a collection (not a string)", COLLECTION_VALUES),
    (write_cv_trace_csv, "trace entry", "a CVPoint", [([1], "1"), ([(0.5, 1.0, 0)], "(0.5, 1.0, 0)")]),
]


@pytest.mark.parametrize(
    "writer, value, message",
    [pytest.param(writer, value, f"{name} must be {kind}, got {shown}", id=f"{writer.__name__}.{name}-{shown}")
     for writer, name, kind, values in WRITERS for value, shown in values],
)
def test_a_writer_rejects_its_argument_and_leaves_the_file_as_it_was(tmp_path, writer, value, message):
    path = tmp_path / "out.csv"
    path.write_bytes(b"kept\r\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        writer(value, path)
    assert path.read_bytes() == b"kept\r\n"


POINTS = [llrer_point, llrer_point_naive, llcr_point, llcr_point_naive, cr_point]
LONE = synthetic_transform(SAMPLE, STEP, -1)


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize(
    "value, message",
    [("12", "responses must be a collection (not a string), got '12'"),
     (LONE, f"responses must be a collection (not a string), got {LONE!r}"),
     ([1, 2], "responses entry must be a SyntheticResponses, got 1")],
    ids=("str", "lone", "ints"),
)
def test_supplied_responses_must_be_a_collection_of_synthetic_responses(point, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        point(SAMPLE, STEP, CONFIG, 1.0, responses=value)


@pytest.mark.parametrize("point", POINTS)
def test_supplied_responses_need_no_step(point):
    every_order = [synthetic_transform(SAMPLE, STEP, o) for o in (-1, 1, 2)]
    assert point(SAMPLE, None, CONFIG, 1.0, responses=every_order) == point(SAMPLE, STEP, CONFIG, 1.0)


@pytest.mark.parametrize("count", ["0", "-3", "100001", "10000000000000"])
def test_evaluation_grid_size_follows_the_bandwidth_grid_rule(count):
    message = f"evaluation grid size must be an integer in [1, 100000], got {count}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_grid_spec(f"1:2:{count}")


def test_evaluation_grid_may_hold_the_largest_size():
    assert parse_grid_spec("1:2:100000").size == 100000


def test_estimators_may_be_any_other_collection():
    pair = (Estimator.CR, Estimator.LLCR)
    want = select_bandwidths(pair, SAMPLE, GAUSSIAN, GRID)
    for given in (list(pair), iter(pair), dict.fromkeys(pair)):
        assert select_bandwidths(given, SAMPLE, GAUSSIAN, GRID) == want
    for given in (["cr", "llcr"], iter(("cr", Estimator.LLCR)), ("CR", "llcr")):
        assert study(estimators=given).estimators == (Estimator.CR, Estimator.LLCR)


FLAGGED = [
    ("generate_sample", lambda v: generate_sample(5, 0.0, 1, positive_only=v)),
    ("calibrate_censoring", lambda v: calibrate_censoring(0.35, positive_only=v)),
]


@pytest.mark.parametrize("call", [c for _, c in FLAGGED], ids=[p for p, _ in FLAGGED])
@pytest.mark.parametrize("value, shown", [("false", "'false'"), ("True", "'True'"), (0, "0"), (1, "1"),
                                          (np.int64(0), "0"), (None, "None")])
def test_positive_only_must_be_a_bool(call, value, shown):
    with pytest.raises(ConfigError, match=f"^{re.escape(f'positive_only must be a bool, got {shown}')}$"):
        call(value)


def test_numpy_bools_are_bools():
    for flag in (False, True):
        python, numpy = generate_sample(50, 0.0, 3, flag), generate_sample(50, 0.0, 3, np.bool_(flag))
        assert np.array_equal(python.sample.y, numpy.sample.y)
        assert np.array_equal(python.event_times, numpy.event_times)
        assert calibrate_censoring(0.35, seed=2, positive_only=np.bool_(flag)) == calibrate_censoring(
            0.35, seed=2, positive_only=flag
        )


AT_POINT = [
    ("llrer_point", lambda x: llrer_point(SAMPLE, STEP, CONFIG, x)),
    ("llrer_point_naive", lambda x: llrer_point_naive(SAMPLE, STEP, CONFIG, x)),
    ("llcr_point", lambda x: llcr_point(SAMPLE, STEP, CONFIG, x)),
    ("llcr_point_naive", lambda x: llcr_point_naive(SAMPLE, STEP, CONFIG, x)),
    ("cr_point", lambda x: cr_point(SAMPLE, STEP, CONFIG, x)),
    ("moment_statistics", lambda x: moment_statistics(SAMPLE, RESPONSES, CONFIG, x)),
]


@pytest.mark.parametrize("call", [c for _, c in AT_POINT], ids=[p for p, _ in AT_POINT])
@pytest.mark.parametrize(
    "value, shown",
    [("0.3", "'0.3'"), (True, "True"), (np.False_, "False"), (None, "None"), (1j, "1j"), (10**400, repr(10**400))],
    ids=("str", "bool", "numpy-bool", "None", "complex", "int-beyond-float"),
)
def test_point_must_be_a_real_number(call, value, shown):
    message = f"x must be a real number (nan and +-inf included), got {shown}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("call", [c for _, c in AT_POINT], ids=[p for p, _ in AT_POINT])
def test_point_takes_ints_floats_and_numpy_reals(call):
    want = call(1.0)
    for x in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        got = call(x)
        assert repr(got) == repr(want), x


@pytest.mark.parametrize("call", [c for p, c in AT_POINT if p != "moment_statistics"],
                         ids=[p for p, _ in AT_POINT if p != "moment_statistics"])
def test_point_keeps_nan_and_infinite_points_degenerate(call):
    for x in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        assert call(x) == (0.0, True), x
