import ast
import re
from pathlib import Path

import numpy as np

import llrer

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src" / "llrer"


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
    """Names that a module imports but does not use; a star import re-exports, so it is not counted."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted((ROOT / "src" / "llrer").glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in unused_imports(path)] == []


def star_imported_modules() -> list:
    """The modules that llrer/__init__.py star-imports, in the order it imports them."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [
        node.module for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and [a.name for a in node.names] == ["*"]
    ]


def declared_names(module: str) -> list:
    """The literal __all__ of src/llrer/<module>.py, asserting that it lists only names the module binds itself."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    declared = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    assert len(declared) == 1, f"{module} has no single __all__"
    names = ast.literal_eval(declared[0])  # a ValueError unless it is a literal
    assert isinstance(names, list) and all(isinstance(name, str) for name in names)
    own = set()
    for node in tree.body:  # def, class and assignment; an import is not a definition
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own.update(t.id for t in targets if isinstance(t, ast.Name))
    assert [name for name in names if name not in own] == [], f"{module} re-exports names"
    return names


def test_each_public_name_is_declared_once_by_the_module_that_defines_it():
    modules = star_imported_modules()
    assert modules
    names = [name for module in modules for name in declared_names(module)]
    assert len(set(names)) == len(names), "a name is declared by two modules"
    assert llrer.__all__ == ["__version__", *names]


def referenced_names(path: Path) -> set:
    """The names that a module reads, imports or looks up as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_the_fold_pass_layout_is_loclins_own():
    # cross-validation's blocks, tiles and chunks are laid out in loclin alone, and bandwidth scores
    # the pass's predictions without knowing a kernel's support
    layout = {"_BLOCK_ENTRIES", "_CHUNK", "_TILE", "_FOLD_FACTORS"}
    assert layout <= referenced_names(SRC / "loclin.py")
    others = {path.name: referenced_names(path) & layout for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in others.items() if found and name != "loclin.py"} == {}
    assert "KERNEL_SUPPORT" not in referenced_names(SRC / "bandwidth.py")
