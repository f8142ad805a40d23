"""Record the simulated figures the drift report compares against.

    python3 perfbench/record.py --workload NAME --seeds 0 1 2 ...

Runs one repetition of the workload per seed, checks its outputs exactly as
run.py does, and stores a digest of each run's query results and simulated
figures under perfbench/golden/NAME.json, keyed by seed and run label.
Recording again replaces those seeds only; do it on purpose, when a change
re-baselines the model.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(run.SRC), str(run.BENCH)]
    from oracle import expected_results
    from workloads import WORKLOADS

    path = run.BENCH / "golden" / f"{args.workload}.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    for seed in args.seeds:
        configs = WORKLOADS[args.workload](seed)
        checker = run.Checker([c.name for c in configs], expected_results(configs[0].workload))
        checker.check(run.run_rep(args.workload, seed, False, 170.0))
        if checker.failed or checker.problems:
            print(f"seed {seed}: not recorded: {checker.problems}", file=sys.stderr)
            return 1
        golden[str(seed)] = {
            label: run.outputs_digest(queries, figures)
            for label, (queries, figures) in checker.first.items()
        }
        print(f"seed {seed}: recorded {len(checker.first)} runs")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(golden.items(), key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
