"""Tests of the benchmark itself: its gates fail on a planted fault, its
traced counts repeat exactly and leave out the benchmark's own checks,
and it refuses to run without the source.

    python3 -m pytest bench/test_bench.py

The dense workloads run a full cycle per case, so this takes about two
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics of a traced run that are counts, not times.
EXACT = (
    ".calls",
    ".term_products",
    ".merge_ratio",
    ".coeff_bits_max",
    ".nodes",
    ".input_docs_built",
    ".input_docs_useful_ratio",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planted_fault_is_counted(name):
    result = run.run(name, seed=2, seconds=0, trace=False, fault=True)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fault_gives_nonzero_exit(monkeypatch, capsys):
    real = run.run
    monkeypatch.setattr(run, "run", lambda *a: real(*a, fault=True))
    status = run.main(["--workload", "verify", "--seed", "2", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert last["failed"] > 0 and last["correct"] is False


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    runs = []
    for _ in range(2):
        proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = (
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(EXACT)} for r in runs
    )
    assert first == second
    # only calls made by the ops are traced, not the benchmark's checks
    spans = (ROOT / ".bench_out" / f"{name}-spans.tsv").read_text().splitlines()[1:]
    rows = [line.split("\t") for line in spans]
    assert rows and all(row[4] != "-1" for row in rows if row[1] != run.OP_SPAN)
    assert set(runs[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["polyring.mul.calls"] > 0
    if name == "algebra-dense":
        assert first["polyring.compose.calls"] == 0
        assert first["forms.pullback.calls"] == 0
        pathspace = {k: v for k, v in first.items() if k.startswith("pathspace.")}
        assert pathspace and not any(pathspace.values())


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_nearest_rank_tail_ignores_cycle_count():
    # k repeats of a fixed cycle: the tail must pick the same op every time
    cycle = [0.001 * 2**i for i in range(48)]
    picks = {run.nearest_rank(sorted(cycle * k), 90.0) for k in range(1, 9)}
    assert picks == {cycle[43]}
