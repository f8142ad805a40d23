"""Host-time benchmark of the ``ced`` simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload (see workloads.py) is
executed repeatedly for about S seconds, each repetition in a fresh Python
process with a fresh working directory, so nothing cached in memory or on
disk carries over.  ``--trace 0`` reports the end-to-end host metrics as
medians over repetitions; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics (layers.py) and the tracing
overhead.

Host times are scaled to a reference core speed.  On a shared host the
speed of one core swings by up to 2x over seconds to minutes, with the
neighbours' load, so raw times of the same code differ by 20-30% between
batches.  This process and the repetition are pinned to one core, and while
the repetition runs this process times a fixed pure-Python kernel (the
probe) on that core every ``PROBE_PERIOD_S``.  A repetition's process CPU
time, which leaves out the probe's slices, is multiplied by
``PROBE_REF_S / mean probe time``: the seconds the workload would take on a
core that runs the probe in ``PROBE_REF_S``.  Raw wall-clock medians are
printed next to the scaled ones.

Every query result of every repetition is checked against a reference
computed without the engine (oracle.py), the simulated figures must repeat
across repetitions, and they are compared with the recorded ones (golden/).

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every run of
every repetition succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"          # scratch space and span files, inside the checkout

# name, unit, the repetition's figure it is computed from, scaled to the reference core?
E2E_METRICS = [
    ("wall_s", "s", "cpu_s", True),
    ("setup_s", "s", "setup_cpu_s", True),
    ("run_s", "s", "run_cpu_s", True),
    ("peak_rss_mb", "MiB", "peak_rss_mb", False),
]
MIN_REPS = 3                 # untraced repetitions, whatever --seconds says
HARD_LIMIT_S = 160.0         # no repetition starts after this; the process must end by 180 s
PROBE_PERIOD_S = 0.03        # pause between probes, so the probe takes ~10% of the core
PROBE_REF_S = 0.0025         # probe CPU time on the reference core


def _probe() -> float:
    """CPU seconds of a fixed allocation-, hashing- and packing-heavy kernel."""
    gc.disable()
    try:
        start = time.thread_time()
        rng = random.Random(1)
        values = {f"v{i}": rng.random() * 1000.0 for i in range(5000)}
        out = bytearray()
        for key in sorted(values):
            out += struct.pack("<d", values[key])
        hashlib.sha256(out).digest()
        return time.thread_time() - start
    finally:
        gc.enable()


def pin_to_one_core() -> str:
    """Pin this process, and so every repetition it starts, to one core."""
    try:
        core = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
        return f"core {core}"
    except (AttributeError, OSError) as exc:     # the probe then runs on any core
        return f"not pinned ({exc})"


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# --- repetitions ------------------------------------------------------------------


def run_rep(workload: str, seed: int, trace: bool, timeout_s: float) -> dict:
    """Execute rep.py once in a fresh process and directory; returns its result or an error."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK))
    result_file = tmp / "result.json"
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--result", str(result_file)]
    if trace:
        cmd += ["--trace", str(WORK / f"spans-{workload}-seed{seed}.jsonl")]
    env = dict(os.environ, TMPDIR=str(tmp))
    probes: list[float] = []
    try:
        with open(tmp / "stderr.txt", "w+") as err:
            proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=err)
            deadline = time.monotonic() + timeout_s
            try:
                while proc.poll() is None:
                    if time.monotonic() > deadline:
                        return {"error": f"rep.py did not finish within {timeout_s:.0f} s"}
                    time.sleep(PROBE_PERIOD_S)
                    probes.append(_probe())
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            err.seek(0)
            stderr = err.read()
        if proc.returncode != 0 or not result_file.exists():
            return {"error": f"rep.py exited {proc.returncode}: {stderr[-2000:]}"}
        result = json.loads(result_file.read_text())
        result["probe_s"] = statistics.mean(probes or [_probe()])
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def scale(rep: dict) -> float:
    """Factor from a repetition's CPU seconds to seconds on the reference core."""
    return PROBE_REF_S / rep["probe_s"]


def collect(workload: str, seed: int, seconds: float, traced: bool) -> list[tuple[bool, dict]]:
    """(traced?, result) per repetition; untraced and traced alternate when ``traced``."""
    start = time.perf_counter()
    reps: list[tuple[bool, dict]] = []
    last_s = {False: 0.0, True: 0.0}
    while True:
        kind = traced and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        enough = len(reps) >= (2 if traced else MIN_REPS)
        if elapsed > HARD_LIMIT_S or (enough and elapsed + last_s[kind] > seconds):
            return reps
        t0 = time.perf_counter()
        reps.append((kind, run_rep(workload, seed, kind, 175.0 - elapsed)))
        last_s[kind] = time.perf_counter() - t0


# --- output checks ----------------------------------------------------------------


class Checker:
    """Checks every run of every repetition; a run that fails any check counts as failed."""

    def __init__(self, labels: list[str], expected: dict[str, tuple[int, str]]):
        self.labels = labels
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, tuple] = {}    # label -> (queries, figures) of its first good run

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def check(self, rep: dict) -> None:
        self.attempted += len(self.labels)
        if "error" in rep:
            self.failed += len(self.labels)
            self._problem(f"repetition failed: {rep['error'].strip()}")
            return
        for run in rep["runs"]:
            label = run["label"]
            bad = self._check_run(run)
            if not bad:
                outputs = (run["queries"], run["figures"])
                if self.first.setdefault(label, outputs) != outputs:
                    bad = "simulated figures differ from an earlier repetition (nondeterminism)"
            if bad:
                self.failed += 1
                self._problem(f"{label}: {bad}")

    def _check_run(self, run: dict) -> str | None:
        """Every instance of every query must match the reference, so all modes agree."""
        if run["error"]:
            return run["error"].strip()
        for name, instance, rows, checksum in run["queries"]:
            want = self.expected.get(name)
            if want is None:
                return f"{name}: no reference result"
            if (rows, checksum) != want:
                return f"{name}#{instance} gives {rows} rows {checksum[:12]}, " \
                       f"reference {want[0]} rows {want[1][:12]}"
        return None


def outputs_digest(queries: list, figures: dict) -> str:
    """Digest of one run's query results and simulated figures, as golden/ records them."""
    text = json.dumps({"queries": queries, "figures": figures}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def drift_report(workload: str, seed: int, first: dict[str, tuple]) -> str:
    """Compare this run's simulated figures with the recorded ones, without bounding them."""
    path = BENCH / "golden" / f"{workload}.json"
    recorded = json.loads(path.read_text()).get(str(seed)) if path.exists() else None
    if not first:
        return "no successful run to compare"
    if recorded is None:
        return f"no recorded figures for seed {seed}"
    current = {label: outputs_digest(q, f) for label, (q, f) in first.items()}
    differ = sorted(label for label in recorded.keys() | current.keys()
                    if recorded.get(label) != current.get(label))
    if not differ:
        return f"bit-identical to the recorded figures for seed {seed} ({len(current)} runs)"
    return f"DIFFERS from the recorded figures for seed {seed} in: {', '.join(differ)}"


def registry_mismatch(workloads) -> str | None:
    """Why BENCHMARK.json disagrees with the metrics and workloads defined here, if it does."""
    from layers import LAYER_METRICS

    try:
        registry = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    pairs = [
        ({(m["name"], m["unit"]) for m in registry["end_to_end"]},
         {(name, unit) for name, unit, _, _ in E2E_METRICS}, "end_to_end"),
        ({(m["name"], m["unit"]) for m in registry["per_layer"]},
         {(name, unit) for name, unit, _, _ in LAYER_METRICS}, "per_layer"),
        ({w["name"] for w in registry["workloads"]}, set(workloads), "workloads"),
    ]
    for listed, defined, key in pairs:
        if listed != defined:
            return f"BENCHMARK.json {key} differ from the benchmark: {sorted(listed ^ defined)}"
    return None


# --- provenance ---------------------------------------------------------------------


def provenance(seed: int) -> dict:
    sources = sorted((SRC / "ced").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_ced_lines": lines,
    }


# --- aggregation ----------------------------------------------------------------------


def summary(values: list[float]) -> tuple[float, float, float]:
    """median, first and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_e2e(results: list[dict]) -> dict:
    metrics = {}
    for name, unit, source, scaled in E2E_METRICS:
        values = [r[source] * scale(r) if scaled else r[source] for r in results]
        median, q1, q3 = summary(values)
        metrics[name] = {"value": median, "unit": unit}
        raw = f"; raw wall-clock median {_fmt(statistics.median(r[name] for r in results))} s" \
            if scaled else ""
        print(f"  {name:<14} {_fmt(median):>10} {unit:<4} median  (q1 {_fmt(q1)}, "
              f"q3 {_fmt(q3)}, n={len(values)}{raw})")
    probe = summary([r["probe_s"] for r in results])
    print(f"  probe          {_fmt(probe[0])} s median (q1 {_fmt(probe[1])}, q3 {_fmt(probe[2])}); "
          f"reference {PROBE_REF_S} s")
    return metrics


def report_layers(workload: str, untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    from layers import COUNT_METRICS, DESIGN_SHARES, LAYER_METRICS
    from workloads import EXERCISES

    problems = []
    per_rep = [r["layers"] for r in traced]
    for layer in EXERCISES[workload]:
        if any(not layers.get(f"{layer}.calls") for layers in per_rep):
            problems.append(f"traced boundary {layer} recorded no calls on {workload}")
    for name in COUNT_METRICS:
        if len({layers.get(name, 0) for layers in per_rep}) > 1:
            problems.append(f"{name} differs between traced repetitions")

    traced_wall = statistics.median(r["cpu_s"] * scale(r) for r in traced)
    untraced_wall = statistics.median(r["cpu_s"] * scale(r) for r in untraced)
    metrics = {}
    for name, unit, _better, (moves, mostly_on, little_on) in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            value = traced_wall / untraced_wall
        elif unit == "s":
            value = statistics.median(r["layers"].get(name, 0) * scale(r) for r in traced)
        else:
            value = statistics.median(layers.get(name, 0) for layers in per_rep)
        metrics[name] = {"value": value, "unit": unit}
        share = f"{100 * value / traced_wall:5.1f}%" if unit == "s" else "      "
        print(f"  {name:<40} {_fmt(value):>12} {unit:<5} {share}  moves {moves:<7} "
              f"mostly on {mostly_on}; little on {little_on}")
    print(f"  traced wall_s {_fmt(traced_wall)} s (n={len(traced)}), "
          f"untraced wall_s {_fmt(untraced_wall)} s (n={len(untraced)})")
    for group, names in DESIGN_SHARES.items():
        share = sum(metrics[n]["value"] for n in names) / traced_wall
        print(f"  design share {group:<14} {100 * share:5.1f}% of traced wall_s")
    return metrics, problems


# --- main -------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ced" / "__init__.py").is_file():
        return _fail_setup(f"no ced sources under {SRC}; run from the root of a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    from oracle import expected_results
    from workloads import WHY, WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail_setup(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    mismatch = registry_mismatch(WORKLOADS)
    if mismatch:
        return _fail_setup(mismatch)
    configs = WORKLOADS[args.workload](args.seed)
    # bytecode is compiled once here, not by the first timed repetition
    compileall.compile_dir(str(SRC / "ced"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    print(f"perfbench {args.workload}: {WHY[args.workload]}")
    print(f"  provenance {json.dumps(provenance(args.seed))}")
    print(f"  probe and repetitions pinned to {pin_to_one_core()}")
    expected = expected_results(configs[0].workload)
    checker = Checker([c.name for c in configs], expected)
    reps = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    for _, rep in reps:
        checker.check(rep)
    good = [(kind, rep) for kind, rep in reps if "error" not in rep]
    untraced = [rep for kind, rep in good if not kind]
    traced = [rep for kind, rep in good if kind]

    print(f"  repetitions: {len(untraced)} untraced, {len(traced)} traced "
          f"(each a fresh process and directory)")
    metrics: dict = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            metrics, problems = report_layers(args.workload, untraced, traced)
            checker.problems += problems
        else:
            metrics = report_e2e(untraced)
    else:
        checker.problems.append("no successful repetition of each kind")
    ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  run_fail_ratio {ratio:.6g} ratio  ({checker.failed} of {checker.attempted} runs failed)")
    print(f"  checks (every query's rows and checksum match the engine-free reference; simulated "
          f"figures repeat; traced boundaries called): {'FAIL' if checker.problems else 'pass'}")
    for problem in checker.problems:
        print(f"    - {problem}")
    print(f"  simulated-figure drift: {drift_report(args.workload, args.seed, checker.first)}")

    correct = not checker.problems and checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
