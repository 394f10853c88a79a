"""Smoke test of the benchmark at a tiny horizon.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no operation fails, and that the benchmark refuses to run without the
minpair sources.
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

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1"]
    argv += ["--trace", str(trace), "--horizon", str(workloads.SMOKE_HORIZON)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def printed(stdout: str) -> dict[str, tuple[float, str]]:
    """The '# name value unit' lines printed before the result."""
    rows = [line[2:].split() for line in stdout.splitlines() if line.startswith("# ")]
    return {row[0]: (float(row[1]), row[2]) for row in rows if len(row) == 3}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "workload,trace",
    [(w, 0) for w in workloads.WORKLOADS] + [("verify-sweep", 1)],
)
def test_every_metric_printed_and_no_failures(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    table = printed(done.stdout)
    for metric in wanted:
        assert table[metric["name"]][1] == metric["unit"]
    assert table["op_fail_ratio"] == (0.0, "ratio")
    if trace:
        cases = workloads.cases(workload, 0, workloads.SMOKE_HORIZON)
        stages = sum(case.config["horizon"] for case in cases)
        assert result["metrics"]["engine.stages"]["value"] == stages
        assert result["metrics"]["operators.evaluate_calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("work"))
    done = bench("verify-sweep", 0, tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
