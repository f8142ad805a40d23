"""Check every preset's CSVs at full scale against pinned SHA-256 digests,
and the paper's claims as orderings of their mean query times.

    PYTHONPATH=src python tests/check_full_scale_digests.py [PRESET ...]

Runs each named preset (all six by default) as ``ced run --scenario PRESET
--scale 1`` would, into a temporary directory, and compares the SHA-256 of
its ``metrics.csv``, ``decisions.csv`` and ``bytes.csv`` with
``FULL_SCALE_DIGESTS``.  From the same ``metrics.csv`` it takes each run's
mean query time (total time over query count, as
``MetricsReport.query_execution_time``) and checks the orderings the paper
claims (``claim_failures``): in ``io_sweep`` and ``cpu_sweep`` every query is
faster ``collaborative`` than ``edge_only``, and in ``cache_sweep`` the mean
falls as more of the queried series are warm in the cloud cache.  Exits 1 if
a digest differs, naming the preset and printing the digests it found, or if
an ordering breaks, printing both figures.  Tier-1 pins the same three files
at a small scale (``tests/test_presets.py``); this check covers the scale
the presets are reported at.  It takes about 9 s on a 2-core VM.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from collections import defaultdict
from itertools import pairwise
from pathlib import Path

from ced.harness import cli
from ced.harness.presets import list_presets

# Simulated figures are model outputs, not targets: a change that moves them
# re-records these digests on purpose and says why in CHANGES.md.
FULL_SCALE_DIGESTS = {
    "bandwidth_sweep": {
        "metrics": "b3c04fe06e61c887114bf8f9a99850c200b2a84931b4a1dc0ace4ec7e3c1bb58",
        "decisions": "0f241fe0fbe5512e071d8f663155d25fc796754ec13ef1b044e1fca9b8ea8c63",
        "bytes": "48b596d313edc22451a4e26cd50647dd5298093c61927a9b149476c541e287d7",
    },
    "cache_sweep": {
        "metrics": "889375f0e8fc6308d120f4f04d85bd8f43f30d0ca982ca78463c44b42b950262",
        "decisions": "f74b313993a669bf6650836fd4f2ebe9f030a15f78a358f5fc379c987f98f87c",
        "bytes": "e3d538a799f7f8fc95a65a22cf7184094aad4c4a74a0641ec2c0bdc41a8f2f72",
    },
    "cpu_sweep": {
        "metrics": "c818dab9af42d06013a9d97e20afaea013cb9458319f2d68edbf2c46e7721a77",
        "decisions": "d17be3c9c6bd21563536cad0340b864eac937583af7463686f9e2e07113c2b9e",
        "bytes": "832b46c0e73d6dc41ea57f318ef140a907c4a134b3cef12887a85aec6171ac7e",
    },
    "forced_migration": {
        "metrics": "1b04e46eda4867587d8a6a0858cea1821c4c7a85053a2ef890b9a4a7ea6e5d93",
        "decisions": "0f241fe0fbe5512e071d8f663155d25fc796754ec13ef1b044e1fca9b8ea8c63",
        "bytes": "270529736ca2a2b941aba1502703719324bd3ad5af19bc90a369e52fd965b614",
    },
    "io_sweep": {
        "metrics": "8679515dea7b4baef5f46af35cac8aa2b50029f67c9ce9b4e20202e6c2978387",
        "decisions": "ae998b8873d5a1bc5305ce8ccf3e30105c7f2d74ba413bda07dd6d81558248cd",
        "bytes": "a6e4fbd576cc34f8fe5abe966d1ba18e161a6da5cb1a8ff5266ebefbc05d2970",
    },
    "query_sweep": {
        "metrics": "3b042fe2ef39e70638215a8c926f5c4a77fc4b933acef6610684a428a5567a78",
        "decisions": "0f241fe0fbe5512e071d8f663155d25fc796754ec13ef1b044e1fca9b8ea8c63",
        "bytes": "5834638c3285a8c296f9f4a87d772de4406b49fb44646bc6c749440a8ec8bf44",
    },
}


def run_preset(name: str, scale: float) -> tuple[dict[str, str], dict[str, float]]:
    """SHA-256 of each CSV that ``ced run --scenario name --scale scale`` writes,
    and the mean query time of each run in its ``metrics.csv``."""
    with tempfile.TemporaryDirectory(prefix="ced-digests-") as out:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["run", "--scenario", name, "--scale", str(scale), "--out", out])
        if status != 0:
            raise SystemExit(f"{name}: ced run exited with status {status}")
        digests = {
            kind: hashlib.sha256((Path(out) / f"{kind}.csv").read_bytes()).hexdigest()
            for kind in ("metrics", "decisions", "bytes")
        }
        durations = defaultdict(list)
        with open(Path(out) / "metrics.csv", newline="") as fp:
            for row in csv.DictReader(fp):
                durations[row["run"]].append(float(row["duration_s"]))
    return digests, {run: sum(d) / len(d) for run, d in durations.items()}


def claim_failures(name: str, means: dict[str, float]) -> list[str]:
    """The paper's orderings that a preset's mean query times break, each with both figures."""
    failures = []
    if name in ("io_sweep", "cpu_sweep"):
        # runs are labelled {preset}/{query}/{mode}
        for query in sorted({run.split("/")[1] for run in means}):
            collab, edge = means[f"{name}/{query}/collaborative"], means[f"{name}/{query}/edge_only"]
            if not collab < edge:
                failures.append(f"{name} {query}: collaborative {collab:.3f} s is not below "
                                f"edge_only {edge:.3f} s")
    elif name == "cache_sweep":
        # runs are labelled cache_sweep/hit_{warm}_of_{series}
        runs = sorted(means, key=lambda run: int(run.split("_")[2]))
        for fewer, more in pairwise(runs):
            if not means[more] < means[fewer]:
                failures.append(f"{name}: {more} {means[more]:.3f} s is not below "
                                f"{fewer} {means[fewer]:.3f} s")
    return failures


def main(argv: list[str]) -> int:
    names = argv or list_presets()
    failed, broken = [], []
    for name in names:
        found, means = run_preset(name, 1)
        broken += claim_failures(name, means)
        if found == FULL_SCALE_DIGESTS.get(name):
            print(f"{name}: full-scale CSVs match the pinned digests")
            continue
        failed.append(name)
        print(f"{name}: full-scale CSVs differ from the pinned digests; found:")
        for kind, digest in found.items():
            print(f'        "{kind}": "{digest}",')
    if failed:
        print(
            f"simulated figures changed for {', '.join(failed)}.  Re-recording "
            "FULL_SCALE_DIGESTS is a deliberate re-baseline: do it only with the "
            "reason in CHANGES.md"
        )
    for failure in broken:
        print(f"paper claim broken: {failure}")
    if not broken:
        print("the paper's orderings hold on every preset checked")
    return 1 if failed or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
