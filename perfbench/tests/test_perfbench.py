"""Tests of the benchmark itself: seeded inputs, correctness gates, tracing.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rdmft  # noqa: E402
import rdmft.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, invert_problems, verify_problems  # noqa: E402

FERMION = rdmft.Statistics.FERMION
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_invert_inputs_repeat_for_a_seed_and_change_with_it():
    invert = WORKLOADS["invert_nb10"]
    first = invert.inputs(7)
    assert first == invert.inputs(7)
    other = invert.inputs(8)
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first)
    assert len(set(first.values())) == len(first)


def test_verify_inputs_are_the_pinned_suite_whatever_the_seed():
    verify = WORKLOADS["verify_default"]
    assert verify.inputs(1) == verify.inputs(2)
    grid = verify.grid()
    assert len(grid["checks"]) * len(grid["systems"]) * len(grid["betas"]) * len(grid["models"]) == 360
    assert grid["trials"] == 20 and grid["seed"] == 2026


@pytest.fixture(scope="module")
def inversion():
    system = rdmft.build_system(rdmft.ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=FERMION, u=4.0, t_hop=0.5))
    params = rdmft.EnsembleParams(1.0)
    target = rdmft.random_rdm(4, 2, FERMION, interior=True, seed=5)
    return system, params, target, rdmft.invert_potential(target, system, params)


def test_invert_gate_accepts_a_correct_inversion(inversion):
    system, params, target, report = inversion
    assert invert_problems(target, report, system, params) == []


def test_invert_gate_trips_on_a_wrong_verdict(inversion):
    system, params, target, report = inversion
    bad = dataclasses.replace(report, verdict=rdmft.InversionVerdict.MAX_ITERATIONS)
    assert invert_problems(target, bad, system, params)


def test_invert_gate_trips_on_a_wrong_potential(inversion):
    system, params, target, report = inversion
    v = report.v_star.matrix.copy()
    v[0, 1] += 1e-4
    v[1, 0] += 1e-4
    bad = dataclasses.replace(report, v_star=rdmft.TracelessPotential(v))
    assert invert_problems(target, bad, system, params)


SMALL_GRID = {
    "checks": ["entropy_concavity", "coleman"],
    "systems": [[3, 2, "fermion"], [2, 3, "boson"]],
    "betas": [1.0],
    "models": [{"kind": "zero"}],
    "trials": 2,
    "seed": 3,
}


@pytest.fixture(scope="module")
def small_verify(tmp_path_factory):
    work = tmp_path_factory.mktemp("verify")
    (work / "grid.json").write_text(json.dumps(SMALL_GRID))
    code = rdmft.cli.main(["verify", "--config", str(work / "grid.json"), "--out", str(work)])
    return code, json.loads((work / "theorem_reports.json").read_text())["reports"]


def test_verify_gate_accepts_a_clean_suite(small_verify):
    code, reports = small_verify
    assert verify_problems(code, reports, SMALL_GRID) == []


def _failing(reports):
    out = [dict(r) for r in reports]
    out[0]["failures"] = 1
    return out


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda code, reports: (1, reports),
        lambda code, reports: (code, _failing(reports)),
        lambda code, reports: (code, reports[1:]),
        lambda code, reports: (code, reports[:-1] + reports[:1]),
    ],
    ids=["exit_code", "trial_failure", "missing_report", "duplicate_report"],
)
def test_verify_gate_trips_on_a_corrupted_suite(small_verify, corrupt):
    assert verify_problems(*corrupt(*small_verify), SMALL_GRID)


def test_self_time_and_kernel_attribution():
    spans = [
        ["functional.invert_potential", 0.0, 10.0, -1, 0],
        ["numpy.einsum", 1.0, 4.0, 0, 0],
        ["linalg.eigh", 5.0, 6.0, 0, 0],
        ["functional.potential_basis", 7.0, 8.0, 0, 0],
        ["linalg.eigh", 11.0, 12.0, -1, 1],
    ]
    m = tracing.per_layer_metrics(spans, {"functional.newton_iterations": 2})
    assert m["functional.invert_potential.self_s"] == pytest.approx(5.0)
    assert m["functional.einsum.calls"] == 1 and m["functional.einsum.s"] == pytest.approx(3.0)
    assert m["functional.thermal_evals"] == 1
    assert m["functional.eigh_share"] == pytest.approx(0.1)
    assert m["functional.eval_ratio"] == pytest.approx(2.0)
    assert m["linalg.eigh.calls"] == 2


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    grid = {
        "checks": list(tracing.CHECKS),
        "systems": [[3, 2, "fermion"]],
        "betas": [1.0],
        "models": [{"kind": "hubbard_ring", "u": 4.0, "t_hop": 0.5}],
        "trials": 2,
        "seed": 3,
    }
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    original = rdmft.invert_potential
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = rdmft.cli.main(["verify", "--config", str(tmp_path / "grid.json"), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert rdmft.invert_potential is original and rdmft.functional.invert_potential is original
    m = tracing.per_layer_metrics(tracer.spans, tracer.counters)
    names = [name for name, _ in tracing.PER_LAYER]
    assert set(m) | {"trace_overhead_frac"} == set(names)
    assert [entry["name"] for entry in SPEC["per_layer"]] == names
    assert [entry["unit"] for entry in SPEC["per_layer"]] == [unit for _, unit in tracing.PER_LAYER]
    assert all(m[f"verify.check.{check}.s"] > 0 for check in tracing.CHECKS)
    assert m["verify.trials"] == 2 * len(tracing.CHECKS) and m["verify.trial_failures"] == 0
    assert m["cli.main.calls"] == 1 and m["models.build_system.calls"] >= len(tracing.CHECKS)
    assert m["functional.thermal_evals"] > 0 and m["functional.newton_iterations"] > 0
    assert m["fock.hop_terms_s"] > 0 and m["fock.density_operator.calls"] > 0
    assert m["serialize.bytes_written"] > 0 and m["linalg.computed_flops"] > 0
    assert m["functional.lifted_stack_bytes"] == (3**2 - 1) * 3**2 * 16


def test_end_to_end_metrics_match_the_spec():
    assert [(e["name"], e["unit"]) for e in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "invert_nb10", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
