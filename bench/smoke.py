"""Smoke run of every workload at tiny size; takes under a minute.

    python3 bench/smoke.py

For each workload it makes one timed run and two traced runs with the same
seed on tiny inputs (workloads.TINY), and asserts that
  - every run exits 0 and passes its correctness gate,
  - every metric BENCHMARK.json declares is emitted with its declared unit,
  - the exact counts are identical across the two traced runs,
  - the fixed-bandwidth workload never enters the bandwidth layer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# Counts a later change may rest a claim on; they must repeat exactly.
EXACT_COUNTS = (
    "bandwidth.bandwidths_scored",
    "bandwidth.fold_evals",
    "bandwidth.h_at_grid_floor",
    "loclin.points",
    "loclin.degenerate_points",
    "simulate.replications",
)


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list, label: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics/units {got} != declared {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        check_result(bench(w, 0), spec["end_to_end"], f"{w} --trace 0")
        first, second = bench(w, 1), bench(w, 1)
        for result in (first, second):
            check_result(result, spec["per_layer"], f"{w} --trace 1")
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{w}: {name} differs across traced runs of one seed: {a} != {b}"
        if w == "sim_fixed_h_n300":
            assert first["metrics"]["bandwidth.select_calls"]["value"] == 0, w
        print(f"ok {w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
