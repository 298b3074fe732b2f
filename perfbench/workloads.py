"""The benchmark's workloads: seeded inputs, operations, correctness gates.

Each workload is closed-loop: one process issues one operation after the
previous one has returned.  A workload object has

- ``setup(work, seed)``: everything before the first timed operation
  (building the system, generating the inputs); returns the run state;
- ``ops(state)``: the fixed operation list of one pass, as callables;
- ``gate(state, outcome)``: the list of problems with one operation's
  outcome (empty when the outcome is correct);
- ``inputs(seed)``: the generated inputs as bytes, for the determinism test.

Functions are called as attributes of ``rdmft`` at call time, so that the
traced run sees the wrappers it installs there.

Gates are plain functions of the outcome so that tests can hand them
deliberately corrupted results.  The program is driven only through the
public API of ``rdmft`` and ``rdmft.cli.main``.
"""

from __future__ import annotations

import json
import shutil
from itertools import product
from pathlib import Path

import numpy as np

import rdmft
import rdmft.cli
from rdmft import EnsembleParams, InversionVerdict, ManyBodyOperator, ModelSpec, OneRdm, Statistics

HERE = Path(__file__).resolve().parent

# The nb=10/n=5 spinful Hubbard ring: dim 252, K=99 potential directions.
MODEL = ModelSpec(kind="hubbard_ring", nb=10, n=5, statistics=Statistics.FERMION, u=4.0, t_hop=0.5)
BETA = 1.0

# Targets are random_rdm draws mixed halfway toward the Gibbs 1RDM of H0.
# Raw draws may sit within 0.01 of a polytope face and then need 6-10
# Newton iterations, so the work of a run would depend on the seed; the
# mixed targets keep every occupation above ~0.2 and take 5-6 iterations.
INVERT_TARGETS = 4
TARGET_MIX = 0.5
# max |gamma_ij| deviation allowed between the target and the 1RDM that
# ensemble recomputes from the returned potential (solver tol is 1e-10)
CROSS_CHECK_TOL = 1e-8


def _sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class VerifyDefault:
    """The default ``verify`` suite as users and CI run it, pinned (grid,
    trials and seed) in verify_default.json so that a change to
    ``rdmft.verify.DEFAULT_*`` does not change the workload.  The run seed
    is not used: the suite's own seed is part of what is pinned."""

    name = "verify_default"
    grid_path = HERE / "verify_default.json"

    def grid(self) -> dict:
        return json.loads(self.grid_path.read_text())

    def inputs(self, seed: int) -> dict[str, bytes]:
        return {"verify.json": json.dumps(self.grid(), sort_keys=True).encode()}

    def setup(self, work: Path, seed: int) -> dict:
        config = work / "verify.json"
        config.write_bytes(self.inputs(seed)["verify.json"])
        return {"work": work, "config": config, "grid": self.grid()}

    def ops(self, state: dict) -> list:
        out = _fresh_dir(state["work"] / "verify_out")
        args = ["verify", "--config", str(state["config"]), "--out", str(out)]
        return [lambda: (rdmft.cli.main(args), out)]

    def gate(self, state: dict, outcome) -> list[str]:
        code, out = outcome
        try:
            reports = json.loads((out / "theorem_reports.json").read_text())["reports"]
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            return [f"no readable theorem_reports.json (exit code {code}): {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return verify_problems(code, reports, state["grid"])


def verify_problems(code: int, reports: list[dict], grid: dict) -> list[str]:
    """Exit code 0, no trial failures, exactly one report per grid point."""
    problems = [] if code == 0 else [f"exit code {code}"]
    failures = sum(int(r["failures"]) for r in reports)
    if failures:
        problems.append(f"{failures} trial failures")
    expected = {
        (check, nb, n, statistics, float(beta), model["kind"])
        for check, (nb, n, statistics), beta, model in product(
            grid["checks"], grid["systems"], grid["betas"], grid["models"]
        )
    }
    seen = [
        (
            r["theorem_id"],
            r["config"]["nb"],
            r["config"]["n"],
            r["config"]["statistics"],
            float(r["config"]["beta"]),
            r["config"]["model"]["kind"],
        )
        for r in reports
    ]
    if len(seen) != len(expected) or set(seen) != expected:
        problems.append(f"{len(seen)} reports for {len(expected)} grid points")
    return problems


class InvertNb10:
    """invert_potential on seeded interior targets at nb=10/n=5, beta=1."""

    name = "invert_nb10"

    def targets(self, system, seed: int) -> list[OneRdm]:
        basis = system.basis
        center = rdmft.one_rdm(rdmft.gibbs_state(system.h0, EnsembleParams(BETA)).rho, basis).matrix
        return [
            OneRdm(TARGET_MIX * draw.matrix + (1 - TARGET_MIX) * center)
            for draw in (
                rdmft.random_rdm(basis.nb, basis.n, basis.statistics, interior=True, seed=_sub_seed(seed, k))
                for k in range(INVERT_TARGETS)
            )
        ]

    def inputs(self, seed: int) -> dict[str, bytes]:
        system = rdmft.build_system(MODEL)
        return {f"target_{k}": t.matrix.tobytes() for k, t in enumerate(self.targets(system, seed))}

    def setup(self, work: Path, seed: int) -> dict:
        system = rdmft.build_system(MODEL)
        return {"system": system, "params": EnsembleParams(BETA), "targets": self.targets(system, seed)}

    def ops(self, state: dict) -> list:
        system, params = state["system"], state["params"]
        return [
            (lambda target=target: (target, rdmft.invert_potential(target, system, params)))
            for target in state["targets"]
        ]

    def gate(self, state: dict, outcome) -> list[str]:
        target, report = outcome
        return invert_problems(target, report, state["system"], state["params"])


def invert_problems(target: OneRdm, report, system, params: EnsembleParams) -> list[str]:
    """Verdict CONVERGED, and the Gibbs 1RDM of H0 + lift(v*), recomputed
    through ``ensemble``, equals the target within CROSS_CHECK_TOL."""
    if report.verdict is not InversionVerdict.CONVERGED:
        return [f"verdict {report.verdict.value} after {report.iterations} iterations"]
    basis = system.basis
    h = ManyBodyOperator(system.h0.matrix + rdmft.lift_one_body(report.v_star.matrix, basis).matrix, basis.tag)
    gamma = rdmft.one_rdm(rdmft.gibbs_state(h, params).rho, basis)
    deviation = float(np.max(np.abs(gamma.matrix - target.matrix)))
    if not deviation <= CROSS_CHECK_TOL:
        return [f"recomputed 1RDM deviates from the target by {deviation:.3e} > {CROSS_CHECK_TOL:g}"]
    return []


WORKLOADS = {w.name: w for w in (VerifyDefault(), InvertNb10())}
