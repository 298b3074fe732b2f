"""Certification suite plumbing: margins, determinism, config errors."""

import dataclasses

import numpy as np
import pytest

from rdmft import verify
from rdmft.ensemble import EnsembleParams, OneRdm
from rdmft.errors import ConfigError, ConvergenceFailure
from rdmft.fock import Statistics
from rdmft.functional import InversionOptions, invert_potential, require_converged
from rdmft.models import ModelSpec, build_system
from rdmft.representability import random_rdm
from rdmft.serialize import canonical_json, suite_report_json, theorem_report_to_json
from rdmft.verify import (
    ALL_CHECKS,
    CHECK_REGISTRY,
    CheckConfig,
    SuiteConfig,
    TheoremReport,
    run_suite,
    suite_failures,
)

F = Statistics.FERMION
B = Statistics.BOSON


def small_config(statistics, seed=9, trials=6, **overrides):
    nb, n = (3, 2) if statistics is F else (2, 3)
    model = ModelSpec(
        kind="random_full",
        nb=nb,
        n=n,
        statistics=statistics,
        seed=5,
        h_scale=0.8,
        w_norm=0.8,
    )
    return CheckConfig(model=model, beta=1.0, seed=seed, trials=trials, **overrides)


class TestIndividualChecks:
    @pytest.mark.parametrize("check", ALL_CHECKS)
    @pytest.mark.parametrize("statistics", [F, B])
    def test_passes_with_positive_margin(self, check, statistics):
        report = CHECK_REGISTRY[check](small_config(statistics))
        assert report.theorem_id == check
        assert report.trials == 6
        assert report.failures == 0
        assert report.passed
        assert report.worst_margin is not None
        assert report.worst_margin > 0
        assert len(report.details) == 6

    def test_config_echoed_into_report(self):
        report = CHECK_REGISTRY["omega_concavity"](small_config(F))
        assert report.config["nb"] == 3
        assert report.config["n"] == 2
        assert report.config["statistics"] == "fermion"
        assert report.config["beta"] == 1.0
        assert report.config["model"]["kind"] == "random_full"

    def test_midpoint_pins_mix_parameter(self):
        report = CHECK_REGISTRY["entropy_concavity"](small_config(F, midpoint=True))
        assert all(row["t"] == 0.5 for row in report.details)

    def test_coleman_cycles_boundary_variants(self):
        report = CHECK_REGISTRY["coleman"](small_config(F, trials=8))
        variants = {row["variant"] for row in report.details}
        assert variants == {"interior", "zero_pinned", "one_pinned", "idempotent"}
        assert report.failures == 0


    def test_trial_error_is_a_failed_trial(self, monkeypatch):
        def no_maximum(*args):
            raise ConvergenceFailure("no maximum")

        monkeypatch.setattr(verify, "omega_of_v", no_maximum)
        report = CHECK_REGISTRY["omega_concavity"](small_config(F, trials=2))
        assert report.failures == 2 and report.worst_margin is None
        assert [(row["margin"], row["error"]) for row in report.details] == [(None, "no maximum")] * 2

    @pytest.mark.parametrize("check,per_trial", [("f_convexity", 3), ("gradient", 10)])
    def test_target_that_stops_short_fails_only_its_trial(self, monkeypatch, check, per_trial):
        """One target of a check's batched inversions ends MAX_ITERATIONS: its
        trial fails with the text require_converged gives for that target
        alone, and every other trial is untouched.  The target is trial 1's
        second in the round that inverts per_trial targets for each trial:
        f_convexity's only round, gradient's round of neighbours."""
        config = small_config(F, trials=3)
        clean = CHECK_REGISTRY[check](config)
        failing = per_trial + 1
        expected = {}
        batched = verify.invert_potentials

        def one_stops_short(targets, system, params, opts):
            reports = batched(targets, system, params, opts)
            if len(targets) == per_trial * config.trials:
                short = InversionOptions(max_iter=1, initial=opts.initial[failing])
                reports[failing] = invert_potential(targets[failing], system, params, short)
                with pytest.raises(ConvergenceFailure) as alone:
                    require_converged(reports[failing], targets[failing], system)
                expected["error"] = str(alone.value)
            return reports

        monkeypatch.setattr(verify, "invert_potentials", one_stops_short)
        report = CHECK_REGISTRY[check](config)
        assert report.failures == 1
        assert (report.details[1]["margin"], report.details[1]["error"]) == (None, expected["error"])
        assert expected["error"].startswith("dual Newton stopped after 1 iterations")
        assert [report.details[k] for k in (0, 2)] == [clean.details[k] for k in (0, 2)]

    def test_gradient_base_that_stops_short_fails_only_its_trial(self, monkeypatch):
        """Trial 1's base ends MAX_ITERATIONS in round 1: that trial fails with
        the text require_converged gives for it, round 2 inverts only the
        other two trials' 20 neighbours, and their details are a clean run's."""
        config = small_config(F, trials=3)
        clean = CHECK_REGISTRY["gradient"](config)
        sizes, expected = [], {}
        batched = verify.invert_potentials

        def base_stops_short(targets, system, params, opts):
            sizes.append(len(targets))
            reports = batched(targets, system, params, opts)
            if len(sizes) == 1:
                short = InversionOptions(max_iter=1, initial=opts.initial[1])
                reports[1] = invert_potential(targets[1], system, params, short)
                with pytest.raises(ConvergenceFailure) as alone:
                    require_converged(reports[1], targets[1], system)
                expected["error"] = str(alone.value)
            return reports

        monkeypatch.setattr(verify, "invert_potentials", base_stops_short)
        report = CHECK_REGISTRY["gradient"](config)
        assert sizes == [3, 20]
        assert report.failures == 1
        assert report.details[1] == {"trial": 1, "margin": None, "error": expected["error"]}
        assert expected["error"].startswith("dual Newton stopped after 1 iterations")
        assert [report.details[k] for k in (0, 2)] == [clean.details[k] for k in (0, 2)]

    def test_gradient_deviation_is_stencil_error(self):
        """The trial that failed at the old step 1e-4: suite seed 12, (4,2,F)
        hubbard_ring at beta = 5, trial 13.  Its deviation is the O(eps^2)
        truncation error of the central difference, not solver error."""
        # the campaign seed run_suite derives for that grid point
        seed = 881046002
        model = ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=F, seed=seed, u=4.0, t_hop=0.5)
        config = CheckConfig(model=model, beta=5.0, seed=seed, trials=14)
        deviation = {
            eps: CHECK_REGISTRY["gradient"](dataclasses.replace(config, fd_step=eps)).details[13]["max_rel_dev"]
            for eps in (1e-4, 1e-5)
        }
        assert 80 < deviation[1e-4] / deviation[1e-5] < 120
        assert deviation[1e-5] < config.gradient_tol < deviation[1e-4]
        assert CHECK_REGISTRY["gradient"](config).failures == 0


def _one_at_a_time(check, config):
    """The details of a gradient or f_convexity campaign, rebuilt from the
    check's draws with every target inverted alone by invert_potential."""
    m = config.model
    system = build_system(m)
    params = EnsembleParams(config.beta)
    pbasis = system.pbasis
    rng = verify._rng(config, check)

    def inverted(gamma, start=None):
        return require_converged(invert_potential(gamma, system, params, InversionOptions(initial=start)), gamma, system)

    details = []
    for k in range(config.trials):
        if check == "f_convexity":
            gamma_0 = random_rdm(m.nb, m.n, m.statistics, interior=True, seed=rng)
            gamma_1 = random_rdm(m.nb, m.n, m.statistics, interior=True, seed=rng)
            t = verify._mix_parameter(rng, config)
            mixed = OneRdm(t * gamma_0.matrix + (1 - t) * gamma_1.matrix)
            f = [inverted(gamma).f_value for gamma in (gamma_0, gamma_1, mixed)]
            details.append({"trial": k, "t": t, "margin": float(t * f[0] + (1 - t) * f[1] - f[2])})
            continue
        gamma = random_rdm(m.nb, m.n, m.statistics, interior=True, seed=rng)
        directions = np.linalg.qr(rng.normal(size=(pbasis.size, 5)))[0].T
        cv = pbasis.coefficients(inverted(gamma).v_star)
        eps, worst = config.fd_step, 0.0
        for d in directions:
            neighbours = [OneRdm(gamma.matrix + sign * eps * pbasis.assemble(d)) for sign in (1, -1)]
            f_plus, f_minus = (inverted(neighbour, cv).f_value for neighbour in neighbours)
            deviation = abs((f_plus - f_minus) / (2 * eps) + float(np.dot(cv, d)))
            worst = max(worst, deviation / max(1.0, float(np.linalg.norm(cv))))
        details.append({"trial": k, "max_rel_dev": worst, "margin": config.gradient_tol - worst})
    return details


class TestRounds:
    @pytest.mark.parametrize("beta", [1.0, 50.0])
    @pytest.mark.parametrize(
        "model",
        [
            ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=F, u=4.0, t_hop=0.5),
            ModelSpec(kind="random_full", nb=3, n=2, statistics=B, seed=11, h_scale=1.0, w_norm=1.0),
        ],
        ids=["hubbard_4_2_F", "random_full_3_2_B"],
    )
    @pytest.mark.parametrize("check,rounds", [("gradient", [1, 10]), ("f_convexity", [3])], ids=["gradient", "f_convexity"])
    def test_rounds_change_only_the_batching(self, monkeypatch, check, rounds, model, beta):
        """Each trial's details are, bit for bit, those of inverting its targets
        one at a time, and each round is one invert_potentials call over every
        trial's targets."""
        config = CheckConfig(model=model, beta=beta, seed=2026, trials=4)
        sizes = []
        batched = verify.invert_potentials

        def spy(targets, *args):
            sizes.append(len(targets))
            return batched(targets, *args)

        monkeypatch.setattr(verify, "invert_potentials", spy)
        report = CHECK_REGISTRY[check](config)
        assert sizes == [per_trial * config.trials for per_trial in rounds]
        assert report.failures == 0
        assert list(report.details) == _one_at_a_time(check, config)


class TestDeterminism:
    def test_identical_config_identical_report(self):
        a = CHECK_REGISTRY["gradient"](small_config(F, trials=3))
        b = CHECK_REGISTRY["gradient"](small_config(F, trials=3))
        assert canonical_json(theorem_report_to_json(a)) == canonical_json(
            theorem_report_to_json(b)
        )

    def test_seed_changes_trials(self):
        a = CHECK_REGISTRY["omega_concavity"](small_config(F, seed=1))
        b = CHECK_REGISTRY["omega_concavity"](small_config(F, seed=2))
        assert [r["margin"] for r in a.details] != [r["margin"] for r in b.details]

    def test_suite_report_is_reproducible(self):
        config = SuiteConfig(
            checks=("omega_concavity", "coleman"),
            systems=((3, 2, F),),
            betas=(1.0,),
            models=(("zero", {}),),
            seed=3,
            trials=4,
        )
        described = {"checks": list(config.checks), "seed": config.seed}
        first = suite_report_json(run_suite(config), described)
        second = suite_report_json(run_suite(config), described)
        assert canonical_json(first) == canonical_json(second)
        assert first["config_hash"] == second["config_hash"]
        assert first["failures"] == 0


class TestRunSuite:
    def test_grid_size(self):
        config = SuiteConfig(
            checks=("injectivity", "fractional_occupations"),
            systems=((3, 2, F), (2, 3, B)),
            betas=(0.5, 2.0),
            models=(("zero", {}), ("hubbard_ring", {"u": 4.0, "t_hop": 0.5})),
            seed=12,
            trials=3,
        )
        reports = run_suite(config)
        assert len(reports) == 2 * 2 * 2 * 2
        assert suite_failures(reports) == 0
        betas = {r.config["beta"] for r in reports}
        assert betas == {0.5, 2.0}

    def test_model_seed_taken_from_params_when_given(self):
        config = SuiteConfig(
            checks=("injectivity",),
            systems=((3, 2, F),),
            betas=(1.0,),
            models=(("random_full", {"seed": 11}),),
            seed=8,
            trials=2,
        )
        (report,) = run_suite(config)
        assert report.config["model"]["seed"] == 11

    def test_overrides_reach_every_check(self):
        config = SuiteConfig(
            checks=("omega_concavity",),
            systems=((3, 2, F),),
            betas=(1.0,),
            models=(("zero", {}),),
            trials=3,
            overrides={"midpoint": True},
        )
        (report,) = run_suite(config)
        assert all(row["t"] == 0.5 for row in report.details)

    def test_empty_checks_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(checks=()))

    @pytest.mark.parametrize(
        "grid",
        [{"systems": ()}, {"betas": ()}, {"models": ()}, {"trials": 0}, {"overrides": {"fractional_betas": ()}}],
    )
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(**grid))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            run_suite(SuiteConfig(checks=("omega_concavity", "bogus")))


class TestReportSemantics:
    def test_passed_tracks_failures(self):
        report = CHECK_REGISTRY["injectivity"](small_config(F, trials=2))
        assert report.passed
        broken = dataclasses.replace(report, failures=1)
        assert not broken.passed

    def test_suite_failures_sums(self):
        report = CHECK_REGISTRY["injectivity"](small_config(F, trials=2))
        reports = [
            dataclasses.replace(report, failures=2),
            dataclasses.replace(report, failures=3),
            report,
        ]
        assert suite_failures(reports) == 5

    def test_worst_margin_is_the_minimum(self):
        report = CHECK_REGISTRY["omega_concavity"](small_config(F))
        margins = [row["margin"] for row in report.details]
        assert report.worst_margin == pytest.approx(min(margins))
