"""Command line entry point.

    ced run --scenario <preset-or-json> --out <dir> [--seed N] [--scale F]
    ced gen --workload <json> --out <dir>
    ced presets list
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from ..errors import PlanError, ScenarioError, SqlSyntaxError, UnknownSeries, UnsupportedFeature
from ..tsstore import SeriesStore
from .metrics import emit
from .presets import list_presets, preset_runs
from .runtime import run_scenario
from .scenario import load_config_file, load_scenario_file
from .workload import WorkloadConfig, generate


def _cmd_run(args) -> int:
    if args.scenario in list_presets():
        runs = preset_runs(args.scenario, seed=args.seed or 0)
    else:
        config = load_scenario_file(Path(args.scenario))
        runs = [(config.name, config)]
    reports = []
    for label, config in runs:
        if args.seed is not None:
            config = config.with_seed(args.seed)
        if args.scale is not None:
            config = config.scaled(args.scale)
        workdir = Path(tempfile.mkdtemp(prefix="ced-run-"))
        try:
            report = run_scenario(config, workdir, run_label=label)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reports.append(report)
        print(
            f"{label}: mode={report.mode} queries={len(report.queries)} "
            f"mean_time={report.query_execution_time:.6f}s qps={report.qps:.3f} "
            f"migrations={report.migrations}"
        )
    paths = emit(reports, Path(args.out))
    for kind, path in sorted(paths.items()):
        print(f"wrote {path}")
    return 0


def _cmd_gen(args) -> int:
    config = load_config_file(WorkloadConfig, Path(args.workload), "workload")
    outdir = Path(args.out)
    if any(outdir.glob("*.cedf")):
        print(f"error: {outdir} already holds .cedf files; give an empty or new directory", file=sys.stderr)
        return 1
    store = SeriesStore(
        outdir, chunk_target_rows=config.chunk_target_rows, page_rows=config.page_rows
    )
    dataset = generate(store, config)
    print(
        f"generated {dataset.total_points} points: {len(dataset.sensors)} sensors x "
        f"{dataset.rows_per_sensor} rows under {dataset.device} -> {outdir}"
    )
    return 0


def _cmd_presets(args) -> int:
    for name in list_presets():      # "list", the one action the parser accepts
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ced",
        description="Cloud-edge collaborative time-series query simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a preset or a scenario file")
    run.add_argument("--scenario", required=True, help="preset name or scenario JSON path")
    run.add_argument("--out", required=True, help="directory for metrics/decisions/bytes CSVs")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--scale", type=float, default=None, help="dataset row multiplier")
    run.set_defaults(func=_cmd_run)

    gen = sub.add_parser("gen", help="generate a workload into a store directory")
    gen.add_argument("--workload", required=True, help="WorkloadConfig JSON path")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    presets = sub.add_parser("presets", help="preset utilities")
    presets.add_argument("action", choices=["list"])
    presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SqlSyntaxError, UnsupportedFeature, PlanError, UnknownSeries) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
