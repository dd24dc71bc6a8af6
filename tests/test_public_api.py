import ast
import re
from pathlib import Path

import numpy as np

import llrer

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def bench_imports() -> dict:
    """{name: bench file} of every `from llrer import name` in bench/*.py."""
    names = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "llrer" and node.level == 0:
                names.update((alias.name, path.name) for alias in node.names)
    return names


def test_bench_imports_are_public():
    names = bench_imports()
    assert names, "no `from llrer import` found under bench/"
    missing = {name: where for name, where in names.items() if name not in llrer.__all__}
    assert not missing


def test_every_public_name_resolves():
    assert [name for name in llrer.__all__ if not hasattr(llrer, name)] == []
    assert len(set(llrer.__all__)) == len(llrer.__all__)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # the README's library example, run as written on a small data.csv
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 4.0, 60)
    t = 2.0 * x + 1.0 + 0.2 * rng.standard_normal(60)
    c = 6.0 + rng.standard_normal(60)
    rows = [f"{min(a, b)!r},{int(a <= b)},{xi!r}" for a, b, xi in zip(t.tolist(), c.tolist(), x.tolist())]
    (tmp_path / "data.csv").write_text("y,delta,x\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "curve.csv").is_file()
