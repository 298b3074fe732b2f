"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one verdict line; conftest echoes them all after the
run so the verdicts survive output capture.  Tolerances are asserted
exactly as stated in each line.
"""

import time
from types import SimpleNamespace

import numpy as np
import oracles as orc
import pytest

from rdmft.ensemble import (
    EnsembleParams,
    OneRdm,
    gibbs_state,
    helmholtz,
    one_rdm,
)
from rdmft.fock import ManyBodyOperator, Statistics, build_basis, lift_one_body, lift_two_body
from rdmft.functional import (
    InversionOptions,
    InversionVerdict,
    invert_potential,
    omega_of_v,
    potential_basis,
    response_jacobian,
    universal_functional,
)
from rdmft.models import ModelSpec, build_system
from rdmft.representability import random_rdm
from rdmft.verify import CheckConfig, _run_point

F = Statistics.FERMION
B = Statistics.BOSON

GRID_SHAPES = ((3, 2, F), (4, 2, F), (4, 3, F), (3, 2, B))
PANEL_SHAPES = ((3, 2, F), (4, 2, F), (4, 3, F), (3, 2, B), (2, 3, B))
GRID_BETAS = (0.5, 1.0, 5.0)
GRID_KINDS = ("zero", "random_full", "hubbard_ring")


def record(log, number, label, passed, detail):
    line = f"[criterion {number:02d}] {label}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    log.append(line)
    assert passed, line


def run_check(name, config):
    """One verify check alone: a one-check grid point, on a System of its own."""
    return _run_point(config, (name,))[0]


def model(kind, nb, n, statistics, seed):
    return ModelSpec(
        kind=kind,
        nb=nb,
        n=n,
        statistics=statistics,
        seed=seed,
        h_scale=1.0,
        w_norm=1.0,
        u=4.0,
        t_hop=0.5,
    )


def test_criterion_01_gradient_theorem(criterion_log):
    start = time.perf_counter()
    combos = [
        (shape, beta, kind)
        for shape in GRID_SHAPES
        for beta in GRID_BETAS
        for kind in GRID_KINDS
    ]
    picks = np.random.default_rng(2026).permutation(len(combos))[:20]
    eps = 1e-4
    worst = 0.0
    for k, index in enumerate(picks):
        (nb, n, statistics), beta, kind = combos[index]
        system = build_system(model(kind, nb, n, statistics, seed=100 + k))
        params = EnsembleParams(beta)
        pb = potential_basis(nb)
        rng = np.random.default_rng([777, k])
        gamma = random_rdm(nb, n, statistics, interior=True, seed=rng)
        report = invert_potential(gamma, system, params)
        assert report.verdict is InversionVerdict.CONVERGED
        cv = pb.coefficients(report.v_star)
        warm = InversionOptions(initial=cv)
        scale = max(1.0, float(np.linalg.norm(cv)))
        directions = np.linalg.qr(rng.normal(size=(pb.size, 3)))[0].T
        for d in directions:
            shift = eps * pb.assemble(d)
            f_plus, _ = universal_functional(OneRdm(gamma.matrix + shift), system, params, warm)
            f_minus, _ = universal_functional(OneRdm(gamma.matrix - shift), system, params, warm)
            fd = (f_plus - f_minus) / (2 * eps)
            worst = max(worst, abs(fd - (-float(cv @ d))) / scale)
    elapsed = time.perf_counter() - start
    record(
        criterion_log,
        1,
        "functional gradient equals minus the recovered potential",
        worst <= 1e-5 and elapsed < 120,
        f"20 systems, worst rel dev {worst:.2e} <= 1e-05, {elapsed:.1f}s < 120s",
    )


@pytest.fixture(scope="module")
def inversion_panel():
    """50 seeded potential/system pairs shared by criteria 2, 3, and 8."""
    runs = []
    for k in range(50):
        nb, n, statistics = PANEL_SHAPES[k % len(PANEL_SHAPES)]
        beta = (0.5, 1.0)[k % 2]
        kind = GRID_KINDS[k % 3]
        system = build_system(model(kind, nb, n, statistics, seed=300 + k))
        params = EnsembleParams(beta)
        pb = potential_basis(nb)
        rng = np.random.default_rng([4242, k])
        c = rng.normal(size=pb.size)
        c *= rng.uniform(0.2, 2.0) / np.linalg.norm(c)
        v = pb.potential(c)
        omega, gamma = omega_of_v(v, system, params)
        report = invert_potential(gamma, system, params)
        runs.append(
            SimpleNamespace(
                system=system, params=params, v=v, gamma=gamma, omega=omega, report=report
            )
        )
    return runs


def test_criterion_02_inversion_round_trip(criterion_log, inversion_panel):
    worst_err = 0.0
    worst_iters = 0
    for run in inversion_panel:
        assert run.report.verdict is InversionVerdict.CONVERGED
        err = float(np.linalg.norm(run.report.v_star.matrix - run.v.matrix))
        worst_err = max(worst_err, err)
        worst_iters = max(worst_iters, run.report.iterations)
    record(
        criterion_log,
        2,
        "inversion recovers the generating potential",
        worst_err <= 1e-8 and worst_iters <= 30,
        f"50 systems, worst error {worst_err:.2e} <= 1e-08, max {worst_iters} iterations <= 30",
    )


def test_criterion_03_primal_dual_agreement(criterion_log, inversion_panel):
    worst = 0.0
    for run in inversion_panel:
        basis = run.system.basis
        h_v = ManyBodyOperator(
            run.system.h0.matrix + lift_one_body(run.v.matrix, basis).matrix, basis.tag
        )
        solution = gibbs_state(h_v, run.params)
        gamma_v = one_rdm(solution.rho, basis)
        rhs = helmholtz(solution.rho, h_v, run.params) - float(
            np.real(np.trace(run.v.matrix @ gamma_v.matrix))
        )
        worst = max(worst, abs(run.report.f_value - rhs))
    record(
        criterion_log,
        3,
        "functional value matches the thermal free energy minus the coupling",
        worst <= 1e-8,
        f"50 systems, worst gap {worst:.2e} <= 1e-08",
    )


def test_criterion_04_strict_concavity(criterion_log):
    configs = [
        CheckConfig(model=model("zero", 3, 2, F, 1), beta=1.0, seed=41, trials=25, midpoint=True),
        CheckConfig(model=model("random_full", 4, 2, F, 2), beta=0.5, seed=42, trials=25, midpoint=True),
        CheckConfig(model=model("random_full", 3, 2, B, 3), beta=1.0, seed=43, trials=25, midpoint=True),
        CheckConfig(model=model("hubbard_ring", 4, 3, F, 4), beta=5.0, seed=44, trials=25, midpoint=True),
    ]
    omega_reports = [run_check("omega_concavity", c) for c in configs]
    entropy_reports = [run_check("entropy_concavity", c) for c in configs]
    omega_trials = sum(r.trials for r in omega_reports)
    entropy_trials = sum(r.trials for r in entropy_reports)
    failures = sum(r.failures for r in omega_reports + entropy_reports)
    worst_omega = min(r.worst_margin for r in omega_reports)
    worst_entropy = min(r.worst_margin for r in entropy_reports)
    record(
        criterion_log,
        4,
        "strict concavity of the thermal potential and the entropy",
        omega_trials == 100
        and entropy_trials == 100
        and failures == 0
        and worst_omega > 0
        and worst_entropy > 0,
        f"100 midpoint chords each, worst margins {worst_omega:.2e} and {worst_entropy:.2e} > 0",
    )


def test_criterion_05_functional_convexity(criterion_log):
    configs = [
        CheckConfig(model=model("random_full", 3, 2, F, 5), beta=1.0, seed=51, trials=25),
        CheckConfig(model=model("random_full", 2, 3, B, 6), beta=0.5, seed=52, trials=25),
    ]
    reports = [run_check("f_convexity", c) for c in configs]
    trials = sum(r.trials for r in reports)
    failures = sum(r.failures for r in reports)
    worst = min(r.worst_margin for r in reports)
    record(
        criterion_log,
        5,
        "convexity of the functional along interior segments",
        trials == 50 and failures == 0 and worst >= -1e-8,
        f"50 segments, worst margin {worst:.2e} >= -1e-08",
    )


def test_criterion_06_state_reconstruction(criterion_log):
    configs = [
        CheckConfig(model=model("zero", 3, 2, F, 7), seed=61, trials=50),
        CheckConfig(model=model("zero", 4, 3, F, 8), seed=62, trials=50),
        CheckConfig(model=model("zero", 3, 2, B, 9), seed=63, trials=50),
        CheckConfig(model=model("zero", 2, 3, B, 10), seed=64, trials=50),
    ]
    reports = [run_check("coleman", c) for c in configs]
    trials = sum(r.trials for r in reports)
    failures = sum(r.failures for r in reports)
    worst_err = 1e-10 - min(r.worst_margin for r in reports)
    record(
        criterion_log,
        6,
        "explicit states reconstruct interior and boundary targets",
        trials == 200 and failures == 0,
        f"200 targets, worst reconstruction error {worst_err:.2e} <= 1e-10, all states valid",
    )


def test_criterion_07_fractional_occupations(criterion_log):
    configs = [
        CheckConfig(
            model=model("zero", 3, 2, F, 11),
            seed=71,
            trials=300,
            fractional_v_scale=1.0,
        ),
        CheckConfig(
            model=model("zero", 2, 3, B, 12),
            seed=72,
            trials=300,
            fractional_v_scale=1.0,
        ),
    ]
    reports = [run_check("fractional_occupations", c) for c in configs]
    failures = sum(r.failures for r in reports)
    worst = min(r.worst_margin for r in reports)
    record(
        criterion_log,
        7,
        "thermal occupations stay strictly off the polytope faces",
        failures == 0 and worst > 0,
        "100 potentials per beta in {0.1, 1, 10} per statistics, "
        f"worst face distance margin {worst:.2e} > 0 beyond 1e-12",
    )


def test_criterion_08_pinned_targets_flagged(criterion_log, inversion_panel):
    fermion_shapes = ((3, 2), (4, 2), (4, 3))
    flagged = 0
    for j in range(10):
        nb, n = fermion_shapes[j % 3]
        system = build_system(model("zero", nb, n, F, seed=800 + j))
        rng = np.random.default_rng([808, j])
        occ = np.zeros(nb)
        occ[rng.permutation(nb)[:n]] = 1.0
        gamma = OneRdm(orc.haar_rotated(rng, occ))
        report = invert_potential(gamma, system, EnsembleParams(1.0))
        if report.verdict is InversionVerdict.NON_REPRESENTABLE:
            flagged += 1
    false_alarms = sum(
        run.report.verdict is InversionVerdict.NON_REPRESENTABLE for run in inversion_panel
    )
    record(
        criterion_log,
        8,
        "idempotent targets rejected, thermal targets never are",
        flagged == 10 and false_alarms == 0,
        f"{flagged}/10 flagged non-representable, {false_alarms}/50 false alarms",
    )


def test_criterion_09_response_jacobian(criterion_log):
    combos = [
        (shape, beta, kind)
        for shape in PANEL_SHAPES
        for beta in GRID_BETAS
        for kind in GRID_KINDS
    ]
    picks = np.random.default_rng(99).permutation(len(combos))[:20]
    step = 1e-5
    worst_rel = 0.0
    worst_eig = -np.inf
    for k, index in enumerate(picks):
        (nb, n, statistics), beta, kind = combos[index]
        system = build_system(model(kind, nb, n, statistics, seed=900 + k))
        params = EnsembleParams(beta)
        pb = potential_basis(nb)
        rng = np.random.default_rng([911, k])
        c0 = rng.normal(size=pb.size)
        c0 *= 0.8 / np.linalg.norm(c0)
        jac = response_jacobian(pb.potential(c0), system, params, pb)
        fd = np.zeros_like(jac)
        for b in range(pb.size):
            for sign in (+1, -1):
                cb = c0.copy()
                cb[b] += sign * step
                _, gamma = omega_of_v(pb.potential(cb), system, params)
                fd[:, b] += sign * pb.coefficients(gamma.matrix) / (2 * step)
        worst_rel = max(worst_rel, float(np.linalg.norm(fd - jac) / np.linalg.norm(jac)))
        worst_eig = max(worst_eig, float(np.max(np.linalg.eigvalsh(jac))))
    record(
        criterion_log,
        9,
        "linear response matches finite differences and is negative definite",
        worst_rel <= 1e-6 and worst_eig < 0,
        f"20 systems, worst rel dev {worst_rel:.2e} <= 1e-06, largest eigenvalue {worst_eig:.2e} < 0",
    )


def test_criterion_10_lifted_operators_match_oracle(criterion_log):
    shapes = [(nb, n, F) for nb in range(2, 5) for n in range(1, min(nb, 4))] + [
        (nb, n, B) for nb in range(1, 5) for n in range(1, 4)
    ]
    worst = 0.0
    for i, (nb, n, statistics) in enumerate(shapes):
        basis = build_basis(nb, n, statistics)
        fermion = statistics is F
        assert list(basis.states) == orc.enumerate_configs(nb, n, fermion)
        rng = np.random.default_rng([909, i])
        h = orc.random_hermitian(rng, nb)
        w = orc.random_two_body_tensor(rng, nb)
        dev_h = np.max(np.abs(lift_one_body(h, basis).matrix - orc.one_body_matrix(h, nb, n, fermion)))
        dev_w = np.max(np.abs(lift_two_body(w, basis).matrix - orc.two_body_matrix(w, nb, n, fermion)))
        worst = max(worst, float(dev_h), float(dev_w))
    record(
        criterion_log,
        10,
        "lifted operators equal the configuration-space oracle",
        worst <= 1e-12,
        f"{len(shapes)} bases with one- and two-body terms, worst deviation {worst:.2e} <= 1e-12",
    )
