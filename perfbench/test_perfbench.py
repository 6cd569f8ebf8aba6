"""The benchmark's own tests: the smoke mode prints every metric of
BENCHMARK.json with its unit, the inputs are reproducible, and the
benchmark refuses to run without the program.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import write_export
from workloads import PREDICTIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(trace: int, workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace, workload):
    done = _run(trace, workload)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    summary = "\n".join(lines[:-1])
    for metric in declared:
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
            for line in summary.splitlines()
        ), metric["name"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_and_predictions_match_benchmark_json():
    benchmark = _benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    predicted = [name for p in PREDICTIONS for name in p.layer_metrics]
    assert sorted(predicted) == sorted(m["name"] for m in benchmark["per_layer"])
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    for prediction in PREDICTIONS:
        assert set(prediction.end_to_end) <= end_to_end
        assert set(prediction.moves_on + prediction.unchanged_on) <= set(WORKLOADS)


def test_same_seed_same_bytes(tmp_path):
    spec = WORKLOADS["abstracts-long"].smoke().corpora[1]
    write_export(tmp_path / "a.csv", spec, 11)
    write_export(tmp_path / "b.csv", spec, 11)
    write_export(tmp_path / "c.csv", spec, 12)
    first = (tmp_path / "a.csv").read_bytes()
    assert first == (tmp_path / "b.csv").read_bytes()
    assert first != (tmp_path / "c.csv").read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(0, "paper-650", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
