"""List the ``src/ced`` functions that no scenario enters, and compare with a pinned list.

    PYTHONPATH=src python tests/check_scenario_reach.py

Under ``sys.setprofile`` (function entries only), runs:

* the six presets, as ``ced run --scenario PRESET --scale 0.3``;
* ``ced gen`` once, on a small workload file, and, as CI's smoke steps do,
  ``ced run`` once on a small scenario file and ``ced presets list``;
* the three workloads of ``perfbench/workloads.py`` at seed 0, each scenario
  as ``Cluster(config, dir).run()``.

Every function in ``src/ced`` is taken from the AST and keyed by its file and
first line, which is what a code object records (a decorated function's
first line is its first decorator's).  The functions no run enters are
compared exactly with ``tests/scenario_reach.txt``.  Exits 1 on a function
that is newly unreached, and on a pinned one that is now reached or gone:
either way the pinned file changes in the same commit, so the diff shows it.
Each pinned line gives the reason the function stays (see that file's head).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "ced"
PINNED = Path(__file__).with_name("scenario_reach.txt")
REASONS = ("hook", "fault", "perfbench", "test")
PRESET_SCALE = "0.3"
GEN_WORKLOAD = {"sensor_count": 3, "total_rows": 2000, "flush_every_rows": 500}
SCENARIO = {
    "name": "reach", "queries": [{"name": "Q1", "sql": "SELECT t1 FROM dev"},
                                 {"name": "Q6", "sql": "SELECT count(t1), max_value(t3) FROM dev GROUP BY 5m"}],
    "workload": {"sensor_count": 3, "total_rows": 3000, "sampling_interval_ms": 1000},
    "warm_series": ["t1", "t3"], "forced_migration_at_rows": 1000,
}


def source_functions() -> dict[tuple[str, int], str]:
    """(file relative to ``src/ced``, first line) -> qualified name, for every def."""
    found: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, prefix: str, rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(rel, first)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.", rel)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", rel)
            else:
                visit(child, prefix, rel)

    for path in sorted(SOURCE.rglob("*.py")):
        rel = path.relative_to(SOURCE).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "", rel)
    return found


def run_scenarios(workdir: Path) -> None:
    """Every run this check counts; ``ced`` is imported here, under the profiler."""
    from ced.harness import cli
    from ced.harness.presets import list_presets
    from ced.harness.runtime import Cluster

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload, scenario = workdir / "workload.json", workdir / "scenario.json"
    workload.write_text(json.dumps(GEN_WORKLOAD))
    scenario.write_text(json.dumps(SCENARIO))
    commands = [
        *(["run", "--scenario", name, "--scale", PRESET_SCALE, "--out", str(workdir / name)]
          for name in list_presets()),
        ["gen", "--workload", str(workload), "--out", str(workdir / "gen")],
        ["run", "--scenario", str(scenario), "--out", str(workdir / "scenario")],
        ["presets", "list"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            if cli.main(argv) != 0:
                raise SystemExit(f"ced {' '.join(argv)} failed")
    for name, build in WORKLOADS.items():
        for index, config in enumerate(build(0)):
            Cluster(config, workdir / "perfbench" / f"{name}-{index}").run()


def entered_functions(workdir: Path) -> set[tuple[str, int]]:
    """(file relative to ``src/ced``, first line) of every code object the runs enter."""
    codes: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    sys.setprofile(profile)
    try:
        run_scenarios(workdir)
    finally:
        sys.setprofile(None)
    entered = set()
    for code in codes.values():
        path = Path(code.co_filename).resolve()
        if path.is_relative_to(SOURCE):
            entered.add((path.relative_to(SOURCE).as_posix(), code.co_firstlineno))
    return entered


def read_pinned() -> set[str]:
    """The pinned ``file qualified-name`` entries; each must give a known reason."""
    pinned = set()
    for number, line in enumerate(PINNED.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        rel, name, reason, *_why = line.split()
        if reason.rstrip(":") not in REASONS:
            raise SystemExit(f"{PINNED.name}:{number}: reason {reason!r} is not one of {REASONS}")
        pinned.add(f"{rel} {name}")
    return pinned


def main() -> int:
    start = time.perf_counter()
    functions = source_functions()
    with tempfile.TemporaryDirectory(prefix="ced-reach-") as tmp:
        entered = entered_functions(Path(tmp))
    names = {key: f"{key[0]} {name}" for key, name in functions.items()}
    unreached = {entry for key, entry in names.items() if key not in entered}
    pinned = read_pinned()
    newly = sorted(unreached - pinned)
    left = sorted(pinned - unreached)
    print(f"{len(functions)} functions in src/ced, {len(unreached)} entered by no scenario "
          f"({time.perf_counter() - start:.1f} s)")
    for entry in newly:
        print(f"newly unreached: {entry}  (make a scenario run it, delete it, or pin it with a reason)")
    for entry in left:
        print(f"pinned but {'reached' if entry in names.values() else 'gone'}: "
              f"{entry}  (remove it from {PINNED.name})")
    return 1 if newly or left else 0


if __name__ == "__main__":
    sys.exit(main())
