"""Static checks over the ``ced`` package source."""

import ast
import dataclasses
import json
import re
import typing
from pathlib import Path

import ced
from ced.harness import scenario
from ced.harness.presets import preset_runs

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


def _repeated_struct_formats(tree: ast.Module) -> list[int]:
    """Lines that call ``struct.Struct`` with a ``*`` in the format: a format repeated per row."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("struct.Struct", "Struct")
        and any(
            isinstance(part, ast.BinOp) and isinstance(part.op, ast.Mult)
            for arg in node.args for part in ast.walk(arg)
        )
    ]


def test_only_the_codec_builds_per_row_structs():
    # ``ced.codec.pack_rows`` is the one row packer; every byte format is a layout of it
    found = [
        f"{path.relative_to(SOURCE)}:{line}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path != SOURCE / "codec.py"
        for line in _repeated_struct_formats(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    assert _repeated_struct_formats(ast.parse((SOURCE / "codec.py").read_text(encoding="utf-8")))


def _schema_keys(doc: str) -> tuple[set[str], dict[str, set[str]]]:
    """Top-level keys of the JSON schema after ``::`` in ``doc``, and for each
    key the quoted names inside its objects."""
    body = doc[doc.index("::"):]
    top: set[str] = set()
    nested: dict[str, set[str]] = {}
    brackets: list[str] = []
    key = None
    for token in re.finditer(r'"([^"]*)"(\s*:)?|[{}\[\]]', body):
        text = token.group(0)
        if text in "{[":
            brackets.append(text)
        elif text in "}]":
            brackets.pop()
            if not brackets:
                break
        elif len(brackets) == 1:
            if token.group(2):
                key = token.group(1)
                top.add(key)
        elif brackets[-1] == "{":
            nested.setdefault(key, set()).add(token.group(1))
    return top, nested


def test_scenario_schema_docstring_names_every_accepted_field(tmp_path):
    hints = typing.get_type_hints(scenario.ScenarioConfig)
    fields = {f.name for f in dataclasses.fields(scenario.ScenarioConfig)}
    nested = {}
    for name in fields:
        kind = hints[name]
        if typing.get_origin(kind) is tuple:
            kind = typing.get_args(kind)[0]
        if dataclasses.is_dataclass(kind):
            nested[name] = {f.name for f in dataclasses.fields(kind)}
    assert _schema_keys(scenario.__doc__) == (fields, nested)
    # and the loader takes each of those fields back
    _, config = preset_runs("cache_sweep")[-1]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dataclasses.asdict(config)))
    assert scenario.load_scenario_file(path) == config


def _write_only_attributes(package: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """``self.<name> = ...`` assignments in ``package`` whose name no module of
    ``readers`` reads as an attribute, a ``getattr`` string or a keyword."""
    read: set[str] = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                read.add(node.arg)
            elif (
                isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    found = []
    for where, tree in package.items():
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            for target in targets:
                for part in ast.walk(target):
                    if (
                        isinstance(part, ast.Attribute) and isinstance(part.ctx, ast.Store)
                        and ast.unparse(part.value) == "self" and part.attr not in read
                    ):
                        found.append(f"{where}:{part.lineno} self.{part.attr}")
    return found


def test_write_only_attributes_detector():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, x):\n"
        "        self.kept, self.dropped = x, x\n"
        "        self.by_name: int = 0\n"
        "        self.by_keyword = 0\n"
        "    def f(self):\n"
        "        return self.kept, getattr(self, 'by_name'), g(by_keyword=1)\n"
    )
    assert _write_only_attributes({"a.py": tree}, [tree]) == ["a.py:3 self.dropped"]


def test_no_write_only_attributes_in_the_package():
    # state that is set and never read is code to delete, not to keep in step
    root = SOURCE.parent.parent
    trees = {
        str(path.relative_to(root)): ast.parse(path.read_text(encoding="utf-8"), str(path))
        for folder in (SOURCE, root / "tests", root / "perfbench")
        for path in sorted(folder.rglob("*.py"))
    }
    package = {where: tree for where, tree in trees.items() if where.startswith("src")}
    assert _write_only_attributes(package, list(trees.values())) == []
