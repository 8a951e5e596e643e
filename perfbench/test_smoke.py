"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced.  The printed metric names
and units must match BENCHMARK.json exactly and the traced run's span tree
must be well nested.  Correctness of the program's outputs is what the full
runs check: at tiny sizes the models barely train (the 5-epoch MLP's
U(150) came out above its U(30) on seed 0), so it is not asserted here.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.01", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_the_end_to_end_metrics(workload):
    result = result_of(run_bench(ROOT, workload, 0))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_the_per_layer_metrics_and_nested_spans(workload):
    result = result_of(run_bench(ROOT, workload, 1))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer")
    trace = json.loads((HERE / "_traces" / f"{workload}-seed0.json").read_text())
    spans = trace["spans"]
    assert spans and tracing.check_nesting(spans)
    roots = [s for s in spans if s[4] == tracing.ROOT]
    assert roots and all(s[1] == "cli.main" for s in roots)


def test_fails_without_the_sources():
    (HERE / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("_work", "_traces",
                                                      "__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0, bare / HERE.name / "run.py")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
