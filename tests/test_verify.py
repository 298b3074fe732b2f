"""Certification suite plumbing: margins, determinism, config errors."""

import dataclasses

import numpy as np
import pytest

from rdmft import verify
from rdmft.errors import ConfigError, ConvergenceFailure
from rdmft.fock import Statistics
from rdmft.functional import InversionOptions, converged_inversion, invert_potential
from rdmft.models import ModelSpec
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
        trial fails with the text converged_inversion gives for that target
        alone, and every other trial is untouched."""
        config = small_config(F, trials=3)
        clean = CHECK_REGISTRY[check](config)
        failing = per_trial + 1
        expected = {}
        batched = verify.invert_potentials

        def one_stops_short(targets, system, params, opts):
            reports = batched(targets, system, params, opts)
            short = InversionOptions(max_iter=1, initial=opts.initial[failing])
            reports[failing] = invert_potential(targets[failing], system, params, short)
            with pytest.raises(ConvergenceFailure) as alone:
                converged_inversion(targets[failing], system, params, short)
            expected["error"] = str(alone.value)
            return reports

        monkeypatch.setattr(verify, "invert_potentials", one_stops_short)
        report = CHECK_REGISTRY[check](config)
        assert report.failures == 1
        assert (report.details[1]["margin"], report.details[1]["error"]) == (None, expected["error"])
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
