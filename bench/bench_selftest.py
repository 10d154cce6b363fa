"""The benchmark's own tests: python3 -m pytest -q bench/bench_selftest.py

Each workload runs once at minimum length, traced, as a subprocess.  That
takes about four minutes on two cores, most of it the kernel-gap eigensolves.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def _result(workload: str, trace: int) -> tuple:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / workload / f"seed3-trace{trace}.json").read_text())
    return result, record


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_end_to_end_metrics():
    result, record = _result("assembly-algebra", 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.E2E)
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert len(record["setup_s"]) == run.SETUP_PROBES
    # CLI artifacts are compared even at minimum length: two passes run
    assert len(record["passes"]) == 2 and record["artifacts_compared"] == 3
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_traced_at_minimum_length(workload, tmp_path):
    result, record = _result(workload, 1)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 2 * len(record["jobs"])
    assert set(result["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}

    traced = [p for p in record["passes"] if p["traced"]]
    # untraced and traced passes alternate in ABBA blocks, one at least
    assert [p["traced"] for p in record["passes"][:4]] == [False, True, True, False]
    # every artifact-writing job was held against pass 0 in each later pass
    writers = sum(j.artifacts for j in workloads.build(workload, 3, tmp_path))
    assert record["artifacts_compared"] == writers * (len(record["passes"]) - 1)
    for p in traced:
        # every span's self time, the benchmark's own included, adds up to
        # the pass time measured outside the spans
        assert p["self_sum_s"] == pytest.approx(p["pass_s"], rel=1e-3, abs=1e-4)
    layer_self = sum(v for k, v in m.items()
                     if k.endswith(".self_s") and not k.startswith("suite."))
    assert layer_self <= max(p["pass_s"] for p in traced)

    spectral = (m["operator_lab.spectral_floor.dense.self_s"]
                + m["operator_lab.spectral_floor.sparse.self_s"])
    if workload == "kernel-gap":
        assert spectral > 0.5 * min(p["pass_s"] for p in traced)
        assert m["operator_lab.spectral_floor.dense_calls"] == 4
        assert m["operator_lab.spectral_floor.sparse_calls"] == 1
    else:
        assert m["operator_lab.spectral_floor.dense_calls"] == 0
        assert spectral == 0.0
    if workload == "rearrange":
        assert m["refuse_s"] > 0
        assert m["rearrange.build_plan.refusals"] == 3
        # the min_derivative scan (its derivative calls) and realize_diffeo
        # carry most of the successful jobs' time
        shaping = (m["rearrange.min_derivative.self_s"]
                   + m["rearrange.derivative.self_s"]
                   + m["rearrange.realize_diffeo.self_s"])
        assert shaping > 0.5 * min(p["solve"] for p in traced)
    else:
        assert m["refuse_s"] == 0.0


def test_tracer_rebinds_imported_names_and_restores_them():
    from akscal import grid, operator_lab
    from spans import Tracer
    original = grid.lift_axis
    tracer = Tracer()
    tracer.install()
    try:
        assert operator_lab.lift_axis is grid.lift_axis is not original
        operator_lab.route_difference(4)
    finally:
        tracer.uninstall()
    assert operator_lab.lift_axis is grid.lift_axis is original
    parents = {tracer.names[tracer.parent[i]] for i, n in enumerate(tracer.names)
               if n == "grid.lift_axis"}
    assert parents == {"operator_lab.hessian_ops_chart"}
    top = [i for i, p in enumerate(tracer.parent) if p == -1]
    assert sum(tracer.self_time) == pytest.approx(
        sum(tracer.end[i] - tracer.start[i] for i in top), rel=1e-9)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "rearrange", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
