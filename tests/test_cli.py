import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from llrer import (
    DEFAULT_GRID_SPEC,
    EstimatorConfig,
    KernelKind,
    SimulationConfig,
    calibrate_censoring,
    load_simulation_config,
    parse_grid_spec,
)
import llrer.cli
import llrer.simulate
from llrer.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_REPLICATION,
    build_parser,
    bundled_config_names,
    main,
)

HAND_CSV = "y,delta,x\n1.0,1,0.0\n2.0,1,0.5\n3.0,1,1.0\n"


def write_hand_csv(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text(HAND_CSV)
    return p


def read_curve_rows(path):
    """The (x, estimate, degenerate) rows of a curve CSV, after its header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "estimate", "degenerate"]
    return [(float(x), float(v), int(flag)) for x, v, flag in rows[1:]]


def gauss(u):
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


class TestEstimate:
    def test_cr_hand_oracle(self, tmp_path, capsys):
        data = write_hand_csv(tmp_path)
        out = tmp_path / "curve.csv"
        code = main([
            "estimate", "--input", str(data), "--out", str(out),
            "--estimator", "cr", "--kernel", "gaussian", "--h", "1", "--grid", "0.5:0.5:1",
        ])
        assert code == EXIT_OK
        [(x, value, degenerate)] = read_curve_rows(out)
        k = [gauss(-0.5), gauss(0.0), gauss(0.5)]
        expected = (1.0 * k[0] + 2.0 * k[1] + 3.0 * k[2]) / (k[0] + k[1] + k[2])
        assert x == 0.5
        assert value == pytest.approx(expected, rel=1e-12)
        assert degenerate == 0

    def test_zero_bandwidth_is_config_error(self, tmp_path, capsys):
        data = write_hand_csv(tmp_path)
        code = main([
            "estimate", "--input", str(data), "--out", str(tmp_path / "o.csv"),
            "--estimator", "llrer", "--h", "0", "--grid", "1:2:3",
        ])
        assert code == EXIT_CONFIG
        assert "bandwidth h must be a real number in [1e-150, 1e+150], got 0.0" in capsys.readouterr().err

    def test_oversized_grid_is_config_error(self, tmp_path, capsys):
        data = write_hand_csv(tmp_path)
        out = tmp_path / "o.csv"
        code = main([
            "estimate", "--input", str(data), "--out", str(out), "--estimator", "cr", "--h", "1",
            "--grid", "1:2:10000000000000",
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "llrer: config error: evaluation grid size must be an integer in [1, 100000], got 10000000000000"
        ]
        assert not out.exists()

    def test_empty_data_file(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        code = main([
            "estimate", "--input", str(data), "--out", str(tmp_path / "o.csv"),
            "--estimator", "cr", "--h", "1",
        ])
        assert code == EXIT_DATA

    def test_malformed_row_reports_number(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("y,delta,x\n1.0,1,0.0\noops,1,0.0\n")
        code = main([
            "estimate", "--input", str(data), "--out", str(tmp_path / "o.csv"),
            "--estimator", "cr", "--h", "1",
        ])
        assert code == EXIT_DATA
        assert "row 3" in capsys.readouterr().err

    def test_requires_exactly_one_bandwidth_mode(self, tmp_path):
        data = write_hand_csv(tmp_path)
        base = ["estimate", "--input", str(data), "--out", str(tmp_path / "o.csv"), "--estimator", "cr"]
        assert main(base) == EXIT_CONFIG
        assert main(base + ["--h", "1", "--cv"]) == EXIT_CONFIG

    def test_cv_prints_selected_h(self, tmp_path, capsys):
        data = write_hand_csv(tmp_path)
        out = tmp_path / "curve.csv"
        code = main([
            "estimate", "--input", str(data), "--out", str(out),
            "--estimator", "cr", "--cv", "--h-lo", "0.5", "--h-hi", "1.0", "--h-step", "0.25",
            "--grid", "0:1:5",
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert printed.startswith("h_opt=")
        assert float(printed.split("=", 1)[1]) in (0.5, 0.75, 1.0)
        assert len(read_curve_rows(out)) == 5

    def test_unknown_flag_value(self, tmp_path, capsys):
        data = write_hand_csv(tmp_path)
        code = main([
            "estimate", "--input", str(data), "--out", str(tmp_path / "o.csv"),
            "--estimator", "spline", "--h", "1",
        ])
        assert code == EXIT_CONFIG
        assert "expected one of: llrer, llcr, cr" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        code = main([
            "estimate", "--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv"),
            "--estimator", "cr", "--h", "1",
        ])
        assert code == EXIT_DATA


class TestCv:
    def test_single_grid_point(self, tmp_path, capsys):
        data = write_hand_csv(tmp_path)
        out = tmp_path / "trace.csv"
        code = main([
            "cv", "--input", str(data), "--out", str(out),
            "--estimator", "llcr", "--h-lo", "0.5", "--h-hi", "0.5",
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "h_opt=0.5"
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h,score,degenerate_folds"
        assert len(lines) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--h-step", "1e-300"], "bandwidth grid size must be an integer in [1, 100000], got 1.99e+300"),
            (["--h-lo", "1e-13"], "bandwidth grid value must be a real number in [1e-150, 1e+150], got 0.0"),
        ],
        ids=["step", "lo"],
    )
    def test_grid_cv_cannot_use_is_config_error(self, tmp_path, capsys, flags, message):
        data = write_hand_csv(tmp_path)
        out = tmp_path / "trace.csv"
        assert main(["cv", "--input", str(data), "--out", str(out), "--estimator", "cr", *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"llrer: config error: {message}"]
        assert not out.exists()

    def test_default_flags_give_two_hundred_rows(self, tmp_path, capsys):
        data = write_hand_csv(tmp_path)
        out = tmp_path / "trace.csv"
        code = main(["cv", "--input", str(data), "--out", str(out), "--estimator", "cr"])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 200
        assert lines[1].split(",")[0] == "0.01"
        assert lines[-1].split(",")[0] == "2.0"

    def test_names_in_any_case(self, tmp_path, capsys):
        # as a config file takes `estimators = LLRER` and `kernel = Gaussian`
        data = write_hand_csv(tmp_path)
        runs = {}
        for estimator, kernel in (("llrer", "gaussian"), ("LLRER", "Gaussian"), (" Llrer", "GAUSSIAN ")):
            out = tmp_path / f"{estimator.strip()}_{kernel.strip()}.csv"
            code = main([
                "cv", "--input", str(data), "--out", str(out), "--estimator", estimator, "--kernel", kernel,
                "--h-lo", "0.5", "--h-hi", "1.5", "--h-step", "0.5",
            ])
            assert code == EXIT_OK
            runs[estimator, kernel] = (out.read_bytes(), capsys.readouterr().out)
        assert len(set(runs.values())) == 1

    @pytest.mark.parametrize("row", ("nan,1,0.5", "2.0,1,inf", "-inf,0,0.5"))
    def test_non_finite_value_reports_file_and_row(self, tmp_path, capsys, row):
        data = tmp_path / "bad.csv"
        data.write_text(f"y,delta,x\n1.0,1,0.0\n{row}\n3.0,1,1.0\n")
        code = main(["cv", "--input", str(data), "--out", str(tmp_path / "t.csv"), "--estimator", "llrer"])
        assert code == EXIT_DATA
        assert f"{data}: row 3: y and x must be finite" in capsys.readouterr().err

    def test_byte_order_mark_gives_the_same_trace(self, tmp_path, capsys):
        data, marked = write_hand_csv(tmp_path), tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
        runs = []
        for path in (data, marked):
            out = tmp_path / f"{path.stem}_trace.csv"
            assert main(["cv", "--input", str(path), "--out", str(out), "--estimator", "llrer"]) == EXIT_OK
            runs.append((out.read_bytes(), capsys.readouterr()))
        assert runs[0] == runs[1]

    def test_undecodable_byte_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(HAND_CSV.encode().replace(b"2.0,1", b"2.0\xff,1"))
        out = tmp_path / "t.csv"
        assert main(["cv", "--input", str(data), "--out", str(out), "--estimator", "llrer"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"llrer: input error: {data}: not UTF-8 text: invalid start byte"]
        assert not out.exists()

    def test_single_observation_rejected(self, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("y,delta,x\n1.0,1,0.0\n")
        code = main(["cv", "--input", str(data), "--out", str(tmp_path / "t.csv"), "--estimator", "llrer"])
        assert code == EXIT_CONFIG


class TestCalibrate:
    def test_half_prints_minus_two(self, capsys):
        assert main(["calibrate", "--target", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("c=")
        assert float(out.split("=", 1)[1]) == pytest.approx(-2.0, abs=1e-9)

    def test_prints_the_library_shift(self, capsys):
        assert main(["calibrate", "--target", "0.35"]) == EXIT_OK
        assert capsys.readouterr().out == f"c={calibrate_censoring(0.35)!r}\n"

    def test_out_of_range_target(self, capsys):
        assert main(["calibrate", "--target", "1.5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "target censoring proportion must be a real number in (0, 1), got 1.5" in captured.err

    @pytest.mark.parametrize("flag", ["--tol", "--seed"])
    def test_takes_no_tolerance_or_seed(self, capsys, flag):
        # calibration is exact and draws nothing, so neither would change c
        assert main(["calibrate", "--target", "0.5", flag, "1"]) == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err


SMALL_CFG = (
    "n = 40\n"
    "replications = 2\n"
    "seed = 77\n"
    "estimators = llrer,cr\n"
    "c = -2\n"
    "grid = 1:2:6\n"
    "h = 0.6\n"
)
# the same study, calibrated and cross-validated
CALIBRATED_CV_CFG = SMALL_CFG.replace("c = -2\n", "target_cp = 0.5\n").replace("h = 0.6\n", "")


class TestSimulate:
    def test_small_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "curves.csv").is_file()
        assert (out / "summary.csv").is_file()
        assert (out / "manifest.txt").is_file()
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "rep,estimator,x,estimate,degenerate"
        # 2 reps x 2 estimators x 6 grid points
        assert len(lines) == 1 + 2 * 2 * 6
        manifest = (out / "manifest.txt").read_text()
        assert "artifact = curves.csv" in manifest
        assert "artifact = summary.csv" in manifest
        assert "replication_0_status = ok" in manifest

    def test_zero_replications_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 10\nreplications = 0\nseed = 1\nc = -2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line",
        ["c = nan", "c = inf", "denominator_epsilon = nan", "denominator_epsilon = inf",
         "calibration_tolerance = nan", "grid = -inf:0:5", "grid = 1:inf:5", "grid = nan:1:3",
         "grid = inf:inf:1"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        key = line.split(" = ")[0]
        body = "".join(row for row in SMALL_CFG.splitlines(keepends=True) if row.split(" = ")[0] != key)
        cfg.write_text(body + line + "\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_oversized_grid_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("grid = 1:2:6\n", "grid = 1:2:10000000000000\n"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("llrer: config error: ")
        assert line.endswith("evaluation grid size must be an integer in [1, 100000], got 10000000000000")

    def test_grid_through_the_pole_is_config_error(self, tmp_path, capsys):
        # the theoretical curve is undefined at x = -0.5, so no replication
        # could score a curve on this grid
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("grid = 1:2:6\n", "grid = -1:0:3\n"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
        assert "x = -0.5" in capsys.readouterr().err

    def test_cross_validation_at_one_observation_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 1\nreplications = 1\nseed = 1\nc = -2\ngrid = 1:2:3\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
        cfg.write_text("n = 1\nreplications = 1\nseed = 1\nc = -2\ngrid = 1:2:3\nh = 0.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize(
        "body, extra",
        [(SMALL_CFG, []), (CALIBRATED_CV_CFG, ["--seed", "9"])],
        ids=["fixed_h", "calibrated_cv_seed_override"],
    )
    def test_config_cfg_reruns_itself(self, tmp_path, capsys, body, extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["simulate", "--config", str(cfg), "--out", str(first)] + extra) == EXIT_OK
        written = (first / "config.cfg").read_text()
        if extra:
            assert "seed = 9\n" in written
        assert main(["simulate", "--config", str(first / "config.cfg"), "--out", str(second)]) == EXIT_OK
        for name in ("curves.csv", "summary.csv", "config.cfg"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        manifest = (first / "manifest.txt").read_text().splitlines()
        config_block = written.splitlines()
        assert manifest[: len(config_block)] == config_block
        assert "artifact = config.cfg" in manifest
        entries = [line.split(" = ", 1) for line in manifest]
        assert [key for key, _ in entries].count("c") == 1
        grid_spec = dict(entries)["grid"]
        assert np.array_equal(parse_grid_spec(grid_spec), load_simulation_config(cfg).grid)

    def test_failed_replication_sets_exit_code(self, tmp_path, monkeypatch, capsys):
        draw_replication = llrer.simulate._draw_replication

        def fail_second(config, c, rep):
            if rep == 1:
                raise RuntimeError("forced failure")
            return draw_replication(config, c, rep)

        monkeypatch.setattr(llrer.simulate, "_draw_replication", fail_second)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == EXIT_REPLICATION
        assert EXIT_REPLICATION == 5
        assert len((out / "curves.csv").read_text().splitlines()) == 1 + 2 * 6
        assert (out / "summary.csv").is_file()
        manifest = (out / "manifest.txt").read_text()
        assert "replication_0_status = ok" in manifest
        assert "replication_1_status = failed: RuntimeError: forced failure" in manifest
        assert "1 failed" in capsys.readouterr().out

    def test_grid_value_of_zero_is_config_error(self, tmp_path, capsys):
        # h_lo = 1e-13 snaps to the grid value 0.0: a config error, not a failure of every replication
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CALIBRATED_CV_CFG + "h_lo = 1e-13\nh_step = 0.25\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        message = "bandwidth grid value must be a real number in [1e-150, 1e+150], got 0.0"
        assert capsys.readouterr().err.splitlines() == [f"llrer: config error: {cfg}: {message}"]
        assert not (tmp_path / "o").exists()

    def test_zero_jobs_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "0"]) == EXIT_CONFIG
        assert "jobs must be an integer in [1, inf), got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_byte_order_mark_gives_the_same_outputs(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(SMALL_CFG, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + SMALL_CFG.encode())
        for cfg in (plain, marked):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == EXIT_OK
        for name in ("curves.csv", "summary.csv", "config.cfg"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "marked" / name).read_bytes(), name

    def test_undecodable_byte_is_one_config_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# caf\xe9\n" + SMALL_CFG.encode())
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        message = "not UTF-8 text: invalid continuation byte"
        assert capsys.readouterr().err.splitlines() == [f"llrer: config error: {cfg}: {message}"]
        assert not (tmp_path / "o").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unwritable_outdir(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        code = main(["simulate", "--config", str(cfg), "--out", str(blocker / "sub")])
        assert code == EXIT_IO

    def test_unusable_outdir_fails_before_any_replication(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(llrer.cli, "monte_carlo_run", lambda *args, **kwargs: runs.append(args))
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        assert main(["simulate", "--config", str(cfg), "--out", str(blocker / "sub")]) == EXIT_IO
        assert runs == []

    def test_repeat_runs_identical_data(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        drop = lambda text: [l for l in text.splitlines() if not l.startswith("duration_seconds")]
        assert drop((out1 / "manifest.txt").read_text()) == drop((out2 / "manifest.txt").read_text())

    def test_seed_override_changes_data(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "123"]) == EXIT_OK
        assert (out1 / "curves.csv").read_bytes() != (out2 / "curves.csv").read_bytes()
        assert "seed = 123" in (out2 / "manifest.txt").read_text()

    def test_bundled_configs_exist(self):
        names = bundled_config_names()
        assert "fig1_n100.cfg" in names
        for fam in range(1, 9):
            assert any(n.startswith(f"fig{fam}_") for n in names)

    def test_bundled_config_resolves_by_name(self, tmp_path):
        # n = 100 at ~65% censoring: runs end to end and writes the
        # evaluation curve on [1, 4]
        out = tmp_path / "fig1"
        code = main(["simulate", "--config", "fig1_n100", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 61
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[2]) == 1.0 and float(last[2]) == 4.0


def test_defaults_come_from_named_constants():
    parser = build_parser()
    estimate = parser.parse_args(["estimate", "--input", "d.csv", "--out", "c.csv", "--estimator", "cr", "--h", "1"])
    assert estimate.grid == DEFAULT_GRID_SPEC
    cv = parser.parse_args(["cv", "--input", "d.csv", "--out", "t.csv", "--estimator", "cr"])
    for args in (estimate, cv):
        assert KernelKind.from_name(args.kernel) is EstimatorConfig.kernel is SimulationConfig.kernel


def test_module_entry_point(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(HAND_CSV)
    out = tmp_path / "c.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "llrer", "estimate", "--input", str(data), "--out", str(out),
         "--estimator", "llcr", "--h", "1", "--grid", "0:1:3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(read_curve_rows(out)) == 3


def test_non_ascii_config_path_under_an_ascii_locale(tmp_path):
    # config.cfg and manifest.txt are UTF-8 whatever the locale: under LC_ALL=C without UTF-8 mode the
    # file system decodes the path's bytes into surrogate escapes, and the manifest names it by those bytes
    cfg = tmp_path / "\u00e9tude" / "plain.cfg"
    cfg.parent.mkdir()
    cfg.write_text("# \u00e9tude \u00e0 h fixe\n" + SMALL_CFG, encoding="utf-8")
    ascii_env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    for name, mode, env in (("ascii", "utf8=0", ascii_env), ("utf8", "utf8", os.environ)):
        proc = subprocess.run(
            [sys.executable, "-X", mode, "-m", "llrer", "simulate", "--config", str(cfg), "--out", str(tmp_path / name)],
            capture_output=True, env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode(errors="replace")
    manifest = (tmp_path / "ascii" / "manifest.txt").read_bytes().decode("utf-8")
    assert f"config_file = {cfg}" in manifest.splitlines()
    for f in ("curves.csv", "summary.csv", "config.cfg"):
        assert (tmp_path / "ascii" / f).read_bytes() == (tmp_path / "utf8" / f).read_bytes(), f


def test_import_leaves_the_process_pool_out():
    # only simulate --jobs N > 1 starts a pool, so importing the command line loads none of its modules
    modules = ("concurrent.futures.process", "multiprocessing", "logging")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, llrer.cli; print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", (["cv"], ["estimate", "--cv", "--grid", "0:1:3"]), ids=("cv", "estimate"))
def test_non_positive_response_warning_is_one_line(tmp_path, command):
    # an uncensored negative response: LLRER's inverse moments warn, in CV
    # and again in the curve of estimate --cv, but the command prints one
    # warning line of its own and names no line inside the package
    data = tmp_path / "d.csv"
    data.write_text("y,delta,x\n-0.5,1,0.0\n1.0,1,0.3\n2.0,0,0.6\n1.5,1,0.9\n2.5,1,1.2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "llrer", *command, "--input", str(data), "--out", str(tmp_path / "o.csv"),
         "--estimator", "llrer", "--h-lo", "0.5", "--h-hi", "1.5", "--h-step", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("h_opt=")
    lines = proc.stderr.splitlines()
    assert lines == ["llrer: warning: uncensored non-positive responses: the relative-error framework assumes positive lifetimes"]
    assert "__main__.py" not in proc.stderr


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    assert "llrer" in capsys.readouterr().out
