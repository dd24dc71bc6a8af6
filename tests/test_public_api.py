import ast
from pathlib import Path

import llrer

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
