"""Smoke test of the benchmark itself: each workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the command from BENCHMARK.json for one second per workload, traced
and untraced, and checks that every declared metric is emitted with its
unit, that no operation failed and that the traced counts repeated.
"""

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    record, result = run(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"], record["errors"]
    assert result["attempted"] >= 1
    assert record["failed_frac"] == 0
    if trace:
        assert record["counts_differ"] == []
        assert result["metrics"]["quadrature.panels"]["value"] > 0
    else:
        assert result["metrics"]["items_per_s"]["value"] > 0
        # the raw figures behind the rescaled ones are kept
        assert set(record["raw"]) < set(result["metrics"])
        assert record["host_slowdown"] > 0
    for key in ("commit", "src_sha256", "python", "numpy", "click",
                "nproc"):
        assert key in record["provenance"]
    assert record["seed"] == 7
    assert record["batch"] > 0 and len(record["vertex_range"]) == 2


def test_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    cmd = [*SPEC["command"], "--workload", "corpus", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
