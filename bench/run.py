"""llrer benchmark: times `llrer.cli.main` on a named workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each iteration is a fresh process (see
worker.py) that imports the package from src/, writes the workload's inputs
from the seed and times one single-process CLI call. Iterations repeat until
about S seconds have passed; every metric is the median over iterations.
Afterwards the correctness gate (gate.py) recomputes sampled outputs.

--trace 0 prints the end-to-end metrics: wall_norm_s, cpu_norm_s, setup_s
(process start until the inputs are written), peak_rss_mb and ok_frac
(operations that did not fail / operations attempted). The three times are
normalised: each iteration divides them by the time of a fixed reference
loop run next to them in the same process (worker.reference) and multiplies
by REF_S, so they read as seconds on a host where that loop takes REF_S.
--trace 1 spends half the time on untimed CLI iterations and half on traced
replays of the same calls, and prints the per-layer metrics; the spans go
to .bench_out/. The last stdout line is the result JSON {correct, attempted,
failed, metrics}; a failed operation or check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP threads before numpy is imported (lazily, below) or in any worker.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / str(os.getpid())
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120
E2E_TIMED = ("wall_norm_s", "cpu_norm_s", "setup_s", "peak_rss_mb")  # medians over CLI iterations
RAW_TIMES = ("wall_s", "cpu_s", "setup_raw_s", "ref_wall_s", "ref_cpu_s")  # logged, not reported
# Scale of the normalised times: about the reference loop's time on an
# unloaded 2-vCPU x86-64 VM, so they read close to plain seconds there.
REF_S = 0.15
MIN_ITERATIONS = 3  # timed run
MIN_TRACE_ITERATIONS = 2  # each half of a traced run; two replays give the exact-count check


class IterationError(Exception):
    pass


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_hash(SRC / "llrer"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_worker(mode: str, workload: str, seed: int, workdir: Path, tiny: bool) -> dict:
    """One fresh worker process; returns its result with setup_raw_s added."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), str(workdir)]
    if tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise IterationError(f"{mode} worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise IterationError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - started
    return result


class Run:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def repeat(budget_s: float, minimum: int, step) -> list:
    """Call step(k) until about budget_s seconds are used, at least `minimum` times."""
    results = []
    started = time.monotonic()
    while True:
        results.append(step(len(results)))
        elapsed = time.monotonic() - started
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > budget_s:
            return results


def iterations(run: Run, mode: str, workload, seed: int, budget_s: float, minimum: int, tiny: bool) -> list:
    """Fresh-process iterations of one mode; failed ones are recorded and dropped."""
    from gate import replication_ok

    def step(k):
        workdir = WORK / f"{mode}{k}"
        try:
            res = run_worker(mode, workload.name, seed, workdir, tiny)
        except IterationError as exc:
            run.record(f"{mode}[{k}]", False, str(exc))
            return None
        if mode == "cli":
            run.record(f"cli[{k}].exit", res["rc"] == 0, f"exit code {res['rc']}")
            if res["rc"] != 0:
                return None
            res["wall_norm_s"] = res["wall_s"] / res["ref_wall_s"] * REF_S
            res["cpu_norm_s"] = res["cpu_s"] / res["ref_cpu_s"] * REF_S
            res["setup_s"] = res["setup_raw_s"] / res["ref_wall_s"] * REF_S
            if workload.command == "simulate":
                statuses = replication_ok(workdir / "out" / "manifest.txt", workload.replications)
                for r, ok in enumerate(statuses):
                    run.record(f"cli[{k}].replication[{r}]", ok, "marked failed in manifest.txt")
        res["digest"] = _outputs_digest(workdir)
        res["workdir"] = workdir
        return res

    results = [r for r in repeat(budget_s, minimum, step) if r is not None]
    digests = {r["digest"] for r in results}
    run.record(f"{mode}.deterministic", len(digests) == 1, f"{len(digests)} distinct outputs in {len(results)} iterations")
    return results


def _outputs_digest(workdir: Path) -> str:
    """Hash of the outputs that must repeat exactly (the manifest holds a duration)."""
    digest = hashlib.sha256()
    for name in ("out/curves.csv", "out/summary.csv", "trace.csv"):
        path = workdir / name
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


def correctness_gate(run: Run, workload, seed: int, first: dict):
    """Recompute sampled outputs of one CLI iteration (outside any timing)."""
    import gate

    rng = random.Random(seed)
    workdir = first["workdir"]
    if workload.command == "simulate":
        checks = gate.check_simulate(workload, seed, workdir / "out", rng)
    else:
        checks = gate.check_cv(workload, workdir / "sample.csv", workdir / "trace.csv", first["stdout"], rng)
    for check in checks:
        run.record(check.name, check.ok, check.detail)
    return [c._asdict() for c in checks]


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def layer_metrics(replay: dict, workload, wall_s: float) -> dict:
    """Per-layer metrics of one traced replay; see README.md for what each should move."""
    spans, counts = replay["spans"], replay["counts"]
    total = {}
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + end - start

    def t(name):
        return total.get(name, 0.0)

    selects = [end - start for name, start, end, _ in spans if name == "bandwidth.select"]
    km = [end - start for name, start, end, _ in spans if name == "survival.km"]
    probe = t("bandwidth.cv_score")
    grid = len(workload.bandwidths())
    per_h = (selects[0] - probe) / (grid - 1) if selects and grid > 1 else 0.0
    folds = counts["bandwidth.fold_evals"]
    calls = counts["bandwidth.select_calls"]
    points = counts["loclin.points"]
    return {
        "bandwidth.select_s": t("bandwidth.select"),
        "bandwidth.select_calls": calls,
        "bandwidth.bandwidths_scored": counts["bandwidth.bandwidths_scored"],
        "bandwidth.fold_evals": folds,
        "bandwidth.ns_per_fold_eval": t("bandwidth.select") / folds * 1e9 if folds else 0.0,
        "bandwidth.cv_score_s": probe,
        "bandwidth.per_h_ms": per_h * 1e3,
        "bandwidth.workspace_est_s": probe - per_h if probe else 0.0,
        "bandwidth.h_at_grid_floor": counts["bandwidth.h_at_grid_floor"],
        "bandwidth.degenerate_fold_frac": (
            counts["bandwidth.degenerate_folds_at_h_opt"] / (workload.n * calls) if calls else 0.0
        ),
        "survival.km_s": statistics.median(km) if km else 0.0,
        "survival.read_csv_s": t("survival.read_csv"),
        "loclin.fit_curve_s": t("loclin.fit_curve"),
        "loclin.points": points,
        "loclin.us_per_point": t("loclin.fit_curve") / points * 1e6 if points else 0.0,
        "loclin.degenerate_points": counts["loclin.degenerate_points"],
        "loclin.degenerate_point_frac": counts["loclin.degenerate_points"] / points if points else 0.0,
        "simulate.calibrate_s": t("simulate.calibrate"),
        "simulate.generate_s": t("simulate.generate"),
        "simulate.outliers_s": t("simulate.outliers"),
        "simulate.error_metrics_s": t("simulate.error_metrics"),
        "simulate.replications": counts["simulate.replications"],
        "simulate.failed_replications": counts["simulate.failed_replications"],
        "cli.write_curves_s": t("cli.write_curves"),
        "cli.write_summary_s": t("cli.write_summary"),
        "cli.write_trace_s": t("cli.write_trace"),
        "cli.bytes_written": counts["cli.bytes_written"],
        "trace.overhead_s": t(f"cli.{workload.command}") - wall_s,
    }


def traced(run: Run, workload, seed: int, seconds: float, tiny: bool, env: dict):
    """Untraced CLI iterations, then traced replays; returns them and the per-layer metrics."""
    half = seconds / 2.0
    cli = iterations(run, "cli", workload, seed, half, MIN_TRACE_ITERATIONS, tiny)
    replays = iterations(run, "replay", workload, seed, half, MIN_TRACE_ITERATIONS, tiny)
    if not cli or not replays:
        return cli, {}
    wall = statistics.median(r["wall_s"] for r in cli)
    per_pass = [layer_metrics(r, workload, wall) for r in replays]
    counts = [r["counts"] for r in replays]
    run.record("trace.exact_counts", all(c == counts[0] for c in counts), f"counts differ across replays: {counts}")
    out = "out/curves.csv" if workload.command == "simulate" else "trace.csv"
    from gate import same_csv

    run.record("trace.replay_matches_cli", same_csv(cli[0]["workdir"] / out, replays[0]["workdir"] / out), out)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        exact = isinstance(values[0], int) or name.endswith("_frac")
        metrics[name] = values[0] if exact else statistics.median(values)
    _write_trace_file(workload, seed, env, replays, metrics, wall)
    return cli, metrics


def _write_trace_file(workload, seed, env, replays, metrics, wall):
    passes = []
    for run_id, replay in enumerate(replays):
        spans = replay["spans"]
        selfs = _self_times(spans)
        by_name = {}
        for (name, *_), s in zip(spans, selfs):
            by_name[name] = by_name.get(name, 0.0) + s
        passes.append({
            "run_id": run_id,
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p, "run_id": run_id, "self_s": s}
                for (n, a, b, p), s in zip(spans, selfs)
            ],
            "self_s_by_name": dict(sorted(by_name.items(), key=lambda kv: -kv[1])),
            "counts": replay["counts"],
        })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    record = {"workload": workload.name, "seed": seed, "env": env, "untraced_wall_s": wall,
              "metrics": metrics, "passes": passes}
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    from workloads import TINY, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    units = declared_metrics(bool(args.trace))
    env = environment()
    print(json.dumps({"workload": workload.name, "seed": args.seed, "env": env}))
    run = Run()
    try:
        if args.trace:
            cli, values = traced(run, workload, args.seed, args.seconds, args.tiny, env)
        else:
            cli = iterations(run, "cli", workload, args.seed, args.seconds, MIN_ITERATIONS, args.tiny)
            values = {name: statistics.median(r[name] for r in cli) for name in E2E_TIMED if cli}
            samples = {n: [r[n] for r in cli] for n in E2E_TIMED + RAW_TIMES}
            print(json.dumps({"iterations": len(cli), "samples": samples}))
        if cli:
            print(json.dumps({"checks": correctness_gate(run, workload, args.seed, cli[0])}))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()  # only when no other run is using it
    values["ok_frac"] = 1.0 - run.failed / max(run.attempted, 1)
    correct = run.failed == 0 and set(units) <= set(values)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (SRC / "llrer" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no llrer sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    sys.exit(main())
