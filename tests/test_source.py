"""Static checks over the ``ced`` package source."""

import ast
from pathlib import Path

import ced

SOURCE = Path(ced.__file__).parent


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so a check made by one would vanish there
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Names a module imports and never reads; ``__future__`` and ``__all__`` excepted."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detector():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Optional[int]) -> None: ...\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "Callable")]


def test_no_unused_imports_in_the_package():
    found = [
        f"{path.relative_to(SOURCE)}:{line} {name}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
