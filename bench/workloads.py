"""Workload definitions and seeded input generation.

A workload is one `llrer` command line plus the input files it reads. The
inputs are generated from the benchmark seed alone; the program under test
sees only the written config or CSV file, never the seed flag. Why each
workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Censoring shift giving about 35% censoring under the built-in process
# (`llrer calibrate --target 0.35 --seed 0`). Fixed here so the CSV input of
# the `cv` workload does not depend on the program's calibration code.
CV_CENSOR_SHIFT = -1.11328125


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "cv"
    n: int
    replications: int = 0  # simulate only
    h: float | None = None  # simulate: fixed bandwidth, else default CV grid
    kernel: str = "gaussian"
    estimators: tuple = ("llrer", "llcr", "cr")
    h_grid: tuple = (0.01, 2.0, 0.01)  # CV grid lo, hi, step

    def bandwidths(self) -> list:
        """The CV grid as the program documents it: lo, lo+step, ... up to hi."""
        lo, hi, step = self.h_grid
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return [round(lo + step * k, 12) for k in range(count)]


# fig8_mc50 study settings: n = 300, llrer/llcr/cr, 35% censoring, 15 of 300
# responses scaled by 50, Gaussian kernel, curve grid 1:4:61.
_STUDY = dict(n=300, estimators=("llrer", "llcr", "cr"), kernel="gaussian")
STUDY_CONFIG = {
    "target_cp": "0.35",
    "grid": "1:4:61",
    "outlier_count": "15",
    "outlier_mc": "50",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_cv_n300", "simulate", replications=3, **_STUDY),
        Workload("sim_fixed_h_n300", "simulate", replications=200, h=0.3, **_STUDY),
        Workload(
            "cv_n2000_epan", "cv", n=2000, kernel="epanechnikov",
            estimators=("llrer",), h_grid=(0.05, 1.0, 0.05),
        ),
    )
}

# Same code paths at a size that runs in about a second; used by smoke.py.
TINY = {
    "sim_cv_n300": Workload(
        "sim_cv_n300", "simulate", n=60, replications=1,
        estimators=("llrer", "llcr", "cr"), h_grid=(0.1, 1.0, 0.1),
    ),
    "sim_fixed_h_n300": Workload(
        "sim_fixed_h_n300", "simulate", n=60, replications=4, h=0.3, estimators=("llrer", "llcr", "cr"),
    ),
    "cv_n2000_epan": Workload(
        "cv_n2000_epan", "cv", n=120, kernel="epanechnikov", estimators=("llrer",), h_grid=(0.2, 1.0, 0.2),
    ),
}


def config_text(w: Workload, seed: int) -> str:
    """The `llrer simulate` config file of a simulate workload."""
    lines = [
        f"n = {w.n}",
        f"replications = {w.replications}",
        f"seed = {seed}",
        f"estimators = {','.join(w.estimators)}",
        f"kernel = {w.kernel}",
    ]
    lines += [f"{k} = {v}" for k, v in STUDY_CONFIG.items()]
    if w.h is not None:
        lines.append(f"h = {w.h!r}")
    else:
        lo, hi, step = w.h_grid
        lines += [f"h_lo = {lo!r}", f"h_hi = {hi!r}", f"h_step = {step!r}"]
    return "\n".join(lines) + "\n"


def sample_csv_text(w: Workload, seed: int) -> str:
    """One dataset of the built-in process as CSV y,delta,x.

    X ~ N(0,1), T = 2X + 1 + 0.2 e, C ~ N(3 + c, 1); generated here rather
    than by the package so the input stays fixed across program versions.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(w.n)
    t = 2.0 * x + 1.0 + 0.2 * rng.standard_normal(w.n)
    c = 3.0 + CV_CENSOR_SHIFT + rng.standard_normal(w.n)
    y = np.minimum(t, c)
    delta = (t <= c).astype(int)
    rows = [f"{float(a)!r},{int(d)},{float(b)!r}" for a, d, b in zip(y, delta, x)]
    return "y,delta,x\n" + "\n".join(rows) + "\n"


def write_inputs(w: Workload, seed: int, workdir) -> list:
    """Write the workload's input file into workdir; return the CLI argv."""
    if w.command == "simulate":
        path = workdir / "study.cfg"
        path.write_text(config_text(w, seed))
        return ["simulate", "--config", str(path), "--out", str(workdir / "out"), "--jobs", "1"]
    path = workdir / "sample.csv"
    path.write_text(sample_csv_text(w, seed))
    lo, hi, step = w.h_grid
    return [
        "cv", "--input", str(path), "--out", str(workdir / "trace.csv"),
        "--estimator", w.estimators[0], "--kernel", w.kernel,
        "--h-lo", repr(lo), "--h-hi", repr(hi), "--h-step", repr(step),
    ]
