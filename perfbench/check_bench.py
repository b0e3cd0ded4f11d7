"""The benchmark's own test (two to three minutes on two cores):

    python -m pytest perfbench/check_bench.py -q

The file name keeps it out of the repository's tier-1 ``pytest`` run.
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
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = run.WORKLOADS


def _child(workload: str, seed: int, traced: bool, workdir: Path, expected: Path = run.EXPECTED) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "run", workload, str(seed), "1" if traced else "0"]
    argv += [str(expected), str(workdir)]
    out = subprocess.run(argv, cwd=ROOT, env=run.child_env(), check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict:
    calls = {name: rec["calls"] for name, rec in tracing.per_name(result["spans"]).items()}
    return {"calls": calls, "caches": result["caches"], "max_dims": result["spans"]["max_dims"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _counts(_child(workload, 7, True, tmp_path))
    second = _counts(_child(workload, 7, True, tmp_path))
    assert first == second
    assert any(first["calls"].get(f"{m}.{q}") for m, q in tracing.LAYER_FUNCTIONS)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_recorded_answer_fails_the_run(workload, tmp_path):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(workloads.perturb(json.loads(run.EXPECTED.read_text()))))
    result = _child(workload, 3, False, tmp_path, expected)
    assert 0 < len(result["failures"]) <= result["attempted"]


def test_output_matches_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    proc = _run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_namespace_gets_the_wrapper():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import tracing; tracing.Tracer().install(); "
        "import padem; from padem import nilhecke, pdg, verify; "
        "f = nilhecke.divided_difference; "
        "assert hasattr(f, '__wrapped__'); "
        "assert verify.divided_difference is f and pdg.divided_difference is f and padem.divided_difference is f"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=run.child_env(), check=True)
