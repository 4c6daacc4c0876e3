"""Tests of the benchmark itself, on its --smoke inputs.

    python3 -m pytest benchmarks

They stay out of the package's tier-1 run, whose testpaths name tests/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import tracing  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int) -> tuple:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_the_spec_metrics(workload):
    res, out = result(workload, 0)
    assert res["correct"], out
    assert res["attempted"] >= 1
    assert units(res["metrics"]) == {m["name"]: m["unit"]
                                     for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    for name in ("wall_s", "sim_time_per_s"):
        assert f"\n{name} = " in out
    # a flagged rls equilibrium is the only operation counted as failed
    assert (res["failed"] > 0) == ("is flagged" in out)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_fixed_seed(workload):
    first, out = result(workload, 1)
    second, _ = result(workload, 1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first["metrics"]) == spec
    assert first["correct"] and second["correct"], out
    assert (first["attempted"], first["failed"]) == (second["attempted"],
                                                     second["failed"])
    counts = [name for name, unit in spec.items() if unit == "count"]
    assert any(first["metrics"][name]["value"] for name in counts)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("balance", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_fixed_point_agrees_with_the_package():
    from migratesim.meanfield import solve_fixed_point_rlo

    z, y, xi = reference.rlo_fixed_point(0.8, 0.5, 60)
    fp = solve_fixed_point_rlo(0.8, 0.5, 60)
    assert abs((z - 0.8) / 0.5 - y) < 1e-12
    assert y == pytest.approx(fp.y, rel=1e-10)
    assert max(abs(a - b) for a, b in zip(xi, fp.xi)) < 1e-12


def test_cut_balance_residual_separates_rest_from_motion():
    from migratesim.meanfield import equilibrium_rls

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # two-start flag
        eq = equilibrium_rls(0.8, 0.5, 20)
    x = [float(v) for v in eq.state.x]
    assert reference.rls_cut_balance_residual(x, 0.8, 0.5) < 1e-9
    x[0] -= 1e-3
    x[1] += 1e-3
    assert reference.rls_cut_balance_residual(x, 0.8, 0.5) > 1e-4


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 5.0},
        {"id": "b", "parent": "p", "start": 3.0, "end": 7.0},  # other worker
        {"id": "c", "parent": "p", "start": 9.0, "end": 12.0},  # overruns p
    ]
    assert tracing.self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 1.0)
