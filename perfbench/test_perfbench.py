"""Fast self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from run import Grid, NormScan, Workload  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "grid_n64": Workload("grid_n64", Grid(6, (1, 2), (3, 11), 2, sure_m=11), 1, run.WORKLOADS["grid_n64"].warmup),
    "norm_scan_n256": Workload("norm_scan_n256", NormScan(8, 30), 1, run.WORKLOADS["norm_scan_n256"].warmup),
}

# Spans each kind of workload must enter; every other span reads as missing.
SOLVE = {
    "solver.solve", "solver.svt", "solver.success", "measurement.sample_ensemble",
    "measurement.measure", "hankel.lift", "hankel.lift_adjoint", "modal.random_instance",
    "modal.synthesize",
}
ENTERED = {
    "grid_n64": SOLVE | {"harness.run_phase_transition", "measurement.project_affine"},
    "norm_scan_n256": {"cli.main", "harness.run_norm_scan", "hankel.lift"},
}


@pytest.fixture(scope="module")
def api():
    return run.load_program()


def units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_every_workload_has_a_runner_and_a_reason():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)
    assert {type(w.spec) for w in run.WORKLOADS.values()} == set(run.RUNNERS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_emits_every_metric_with_its_unit(api, name, tmp_path):
    calls, metrics, _ = run.end_to_end(api, TINY[name], 1, 0.0, tmp_path, setup_repeats=1)
    assert sum(c.failed for c in calls) == 0
    assert {k: unit for k, (_, unit) in metrics.items()} == units("end_to_end")
    for value, _ in metrics.values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_span(api, name, tmp_path):
    calls, metrics, report = run.per_layer(api, TINY[name], 1, 0.0, tmp_path)
    assert sum(c.failed for c in calls) == 0
    assert {k: unit for k, (_, unit) in metrics.items()} == units("per_layer")
    for span in SPAN_NAMES:
        count = metrics[f"{span}.calls"][0]
        if span in ENTERED[name]:
            assert count > 0, span
            assert metrics[f"{span}.per_call_us"][0] > 0, span
        else:
            assert count == 0, span
            assert metrics[f"{span}.self_s"][0] == run.MISSING, span
    assert report["success_rate"][0] == report["success_rate"][1]
    assert report["iterations_total"][0] == report["iterations_total"][1]
    assert report["cap_hits"][0] == report["cap_hits"][1]


def test_pool_and_solver_counts_on_a_grid(api, tmp_path):
    _, metrics, _ = run.per_layer(api, TINY["grid_n64"], 2, 0.0, tmp_path)
    assert metrics["harness.pool_workers"][0] >= 1
    assert 0 < metrics["harness.parallel_efficiency"][0] <= 1.0 + 1e-9
    assert metrics["solver.iterations_per_solve.max"][0] >= metrics["solver.iterations_per_solve.mean"][0] >= 1
    assert 0 <= metrics["solver.cap_hit_fraction"][0] <= 1


def test_tracer_restores_the_wrapped_names(api):
    before = (api.solver.svt, api.harness.solve, api.hankel.HankelLift.lift, api.cli.main)
    with run.Tracer():
        assert api.solver.svt is not before[0]
    assert (api.solver.svt, api.harness.solve, api.hankel.HankelLift.lift, api.cli.main) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_n64", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
