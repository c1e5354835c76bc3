"""Self-tests of the benchmark: work counts repeat, and it refuses to run bare.

Run explicitly (the file name keeps it out of the repository's tier-1
collection)::

    python3 -m pytest perfbench/check_counts.py -q

Each workload runs traced twice at a short length, under two different
``PYTHONHASHSEED`` values (set here, so the runner does not pin its own),
and every per-layer *count* — the metrics a later change may claim as
counts — must come out identical.  Timings, memory and the trace overhead
are measurements and are not compared.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
#: Per-layer metrics that are measurements rather than counts.
MEASURED_UNITS = {"ms", "us", "B/tok"}
MEASURED = {"obs.trace_overhead_frac"}


#: Calls the runner's ``main`` directly: run as a script, the runner would
#: restart itself under its own ``PYTHONHASHSEED``.
UNPINNED = "import sys; sys.path.insert(0, 'perfbench'); import run; sys.exit(run.main(sys.argv[1:]))"


def run(workload: str, hash_seed: str, cwd: Path = ROOT,
        entry: tuple = ("-c", UNPINNED)) -> subprocess.CompletedProcess:
    """Run ``workload`` traced at a short length under ``PYTHONHASHSEED=hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, *entry, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def counts(result: subprocess.CompletedProcess) -> dict:
    """The per-layer counts of a successful run's report."""
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    return {name: metric["value"] for name, metric in report["metrics"].items()
            if metric["unit"] not in MEASURED_UNITS and name not in MEASURED}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_across_hash_seeds(workload: str) -> None:
    """Every per-layer count repeats exactly under another hash seed."""
    first = counts(run(workload, "1"))
    second = counts(run(workload, "2"))
    assert first == second
    assert any(first.values()), "no per-layer count was measured"


def test_bare_benchmark_directory_exits_nonzero(tmp_path: Path) -> None:
    """Without the program's source the benchmark fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run(WORKLOADS[0], "0", cwd=tmp_path, entry=("perfbench/run.py",))
    assert result.returncode != 0
    assert result.stdout.strip() == ""
