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


def unused_imports(path: Path) -> list:
    """Names that a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # the re-exports of llrer/__init__.py
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted((ROOT / "src" / "llrer").glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in unused_imports(path)] == []
