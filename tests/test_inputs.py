"""One input rule for every scalar number a public entry point takes.

Each parameter below is fed None, a numeric string, a bool, nan, +-inf and
an out-of-range value. Each must raise a ConfigError of the one message
shape: the parameter's name, its interval and the value as Python prints it.
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
    cv_score,
    generate_sample,
    inject_outliers,
    monte_carlo_run,
    select_bandwidth,
    select_bandwidths,
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
