"""One repetition of one workload, in a fresh process and working directory.

    python3 perfbench/rep.py --workload NAME --seed N --result FILE [--trace SPANS]

Runs the workload's scenarios back to back, as ``ced run`` would, and writes
a JSON result: host times (wall clock and process CPU time, for the whole
process and summed over ``Cluster`` construction and ``Cluster.run``), peak
memory, and for each scenario run its query results and simulated figures.
A run that raises, or that leaves a query unfinished, is recorded as failed
and the next run still executes.  With ``--trace`` the tracer is installed
and the per-layer figures are added.
"""

from __future__ import annotations

import time

# taken before the program is imported: imports count in the whole-process times
_T_START = time.perf_counter()
_CPU_START = time.process_time()

import argparse
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ced.harness.runtime import Cluster  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def simulated_figures(cluster: Cluster, report) -> dict:
    """The model outputs a speed-only change must leave bit-identical."""
    return {
        "durations": [[q.name, q.instance, q.duration_s] for q in report.queries],
        "qps": report.qps,
        "migrations": report.migrations,
        "remigrations": report.remigrations,
        "link_bytes": [list(row) for row in report.bytes_rows],
        "bytes_read": [cluster.edge_store.io.bytes_read, cluster.cloud_store.io.bytes_read],
        "events": cluster.engine.events_dispatched,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", type=Path, default=None, help="write spans to this file")
    args = parser.parse_args()

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workdir = Path.cwd()
    runs = []
    setup_t = [0.0, 0.0]               # wall, CPU
    run_t = [0.0, 0.0]
    for index, config in enumerate(WORKLOADS[args.workload](args.seed)):
        entry = {"label": config.name, "mode": config.mode, "error": None}
        runs.append(entry)
        run_dir = workdir / f"run{index}"
        if tracer is not None:
            tracer.begin_run(config.name)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            cluster = Cluster(config, run_dir)
            t1, c1 = time.perf_counter(), time.process_time()
            setup_t[0] += t1 - t0
            setup_t[1] += c1 - c0
            report = cluster.run(config.name)
            run_t[0] += time.perf_counter() - t1
            run_t[1] += time.process_time() - c1
            unfinished = [f"{c.name}#{c.instance}" for c in cluster.contexts if c.running]
            if unfinished:
                entry["error"] = f"unfinished queries: {', '.join(unfinished)}"
            entry["queries"] = [[q.name, q.instance, q.rows, q.checksum] for q in report.queries]
            entry["figures"] = simulated_figures(cluster, report)
            if tracer is not None:
                tracer.end_run(cluster)
        except Exception:                # a failed run is reported, the batch goes on
            entry["error"] = traceback.format_exc(limit=4)
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "wall_s": time.perf_counter() - _T_START,
        "cpu_s": time.process_time() - _CPU_START,
        "setup_s": setup_t[0],
        "setup_cpu_s": setup_t[1],
        "run_s": run_t[0],
        "run_cpu_s": run_t[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
