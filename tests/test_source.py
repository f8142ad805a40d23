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
