"""Certification suite plumbing: margins, determinism, config errors."""

import dataclasses
import itertools
import multiprocessing
import tracemalloc

import numpy as np
import oracles as orc
import pytest

from rdmft import functional, verify
from rdmft.ensemble import EnsembleParams, OneRdm, entropy, gibbs_state, helmholtz, natural_spectrum, one_rdm
from rdmft.errors import (
    ConfigError,
    ConvergenceFailure,
    InvalidArguments,
    InvalidDensityOperator,
    NonHermitianInput,
    RdmftError,
)
from rdmft.fock import DensityOperator, ManyBodyOperator, Statistics, lift_one_body
from rdmft.functional import (
    InversionOptions,
    PotentialBasis,
    invert_potential,
    omega_of_v,
    potential_basis,
    require_converged,
)
from rdmft.models import ModelSpec, build_system
from rdmft.representability import coleman_bosonic, coleman_fermionic
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


def run_check(name, config):
    """One check alone: a one-check grid point, on a System of its own."""
    return verify._run_point(config, (name,))[0]


def run_check_keeping_rng(monkeypatch, name, config):
    """run_check, and the state its campaign left its generator in."""
    made, rng = [], verify._rng
    monkeypatch.setattr(verify, "_rng", lambda config, check: made.append(rng(config, check)) or made[-1])
    report = run_check(name, config)
    monkeypatch.setattr(verify, "_rng", rng)
    (generator,) = made
    return report, generator.bit_generator.state


class TestIndividualChecks:
    def test_registry_order_keys_the_substreams(self):
        """Each check's random substream is keyed by its place in ALL_CHECKS,
        so the order is part of every report; each registered check is its
        plan, bound in the module as check_<name>."""
        assert ALL_CHECKS == (
            "omega_concavity",
            "injectivity",
            "entropy_concavity",
            "f_convexity",
            "gradient",
            "coleman",
            "fractional_occupations",
            "gibbs_minimality",
        )
        assert verify._STREAM == {name: k for k, name in enumerate(ALL_CHECKS, start=1)}
        assert tuple(CHECK_REGISTRY) == tuple(verify._PLANS) == ALL_CHECKS
        for name, plan in CHECK_REGISTRY.items():
            assert plan is getattr(verify, f"check_{name}") is verify._PLANS[name][0]

    @pytest.mark.parametrize("check", ALL_CHECKS)
    @pytest.mark.parametrize("statistics", [F, B])
    def test_passes_with_positive_margin(self, check, statistics):
        report = run_check(check, small_config(statistics))
        assert report.theorem_id == check
        assert report.trials == 6
        assert report.failures == 0
        assert report.passed
        assert report.worst_margin is not None
        assert report.worst_margin > 0
        assert len(report.details) == 6

    def test_config_echoed_into_report(self):
        report = run_check("omega_concavity", small_config(F))
        assert report.config["nb"] == 3
        assert report.config["n"] == 2
        assert report.config["statistics"] == "fermion"
        assert report.config["beta"] == 1.0
        assert report.config["model"]["kind"] == "random_full"

    def test_midpoint_pins_mix_parameter(self):
        report = run_check("entropy_concavity", small_config(F, midpoint=True))
        assert all(row["t"] == 0.5 for row in report.details)

    def test_coleman_cycles_boundary_variants(self):
        report = run_check("coleman", small_config(F, trials=8))
        variants = {row["variant"] for row in report.details}
        assert variants == {"interior", "zero_pinned", "one_pinned", "idempotent"}
        assert report.failures == 0

    @pytest.mark.parametrize(
        "check,what",
        [("omega_concavity", "potentials"), ("injectivity", "potentials"), ("entropy_concavity", "density operators")],
    )
    def test_unreachable_separation_fails_every_trial(self, check, what):
        """No pair of draws is 2.0 apart: coefficient vectors have norm
        v_scale = 1, and density operators are at most sqrt(2) apart."""
        report = run_check(check, small_config(F, trials=3, separation=2.0))
        assert report.failures == report.trials == 3 and report.worst_margin is None
        error = f"could not draw {what} separated by 2.0"
        assert [(row["margin"], row["error"]) for row in report.details] == [(None, error)] * 3

    def test_trial_error_is_a_failed_trial(self, monkeypatch):
        def no_maximum(*args):
            raise ConvergenceFailure("no maximum")

        monkeypatch.setattr(verify, "_thermal", no_maximum)
        report = run_check("omega_concavity", small_config(F, trials=2))
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
        clean = run_check(check, config)
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
        report = run_check(check, config)
        assert report.failures == 1
        assert (report.details[1]["margin"], report.details[1]["error"]) == (None, expected["error"])
        assert expected["error"].startswith("dual Newton stopped after 1 iterations")
        assert [report.details[k] for k in (0, 2)] == [clean.details[k] for k in (0, 2)]

    def test_kernel_that_raises_fails_only_the_trial_of_the_row(self, monkeypatch):
        """invert_potentials raises for any batch holding trial 1's second
        target: the round's kernel call raises, its rows are inverted one by
        one, and only trial 1 fails, with that error's text."""
        config = small_config(F, trials=3)
        clean = run_check("f_convexity", config)
        batched, poisoned, calls = verify.invert_potentials, [], []

        def raises_on_one(targets, system, params, opts):
            poisoned[:] = poisoned or [targets[4].matrix.tobytes()]
            calls.append(len(targets))
            if poisoned[0] in [target.matrix.tobytes() for target in targets]:
                raise InvalidArguments("one bad target")
            return batched(targets, system, params, opts)

        monkeypatch.setattr(verify, "invert_potentials", raises_on_one)
        report = run_check("f_convexity", config)
        assert calls == [9] + [1] * 9
        assert report.failures == 1
        assert (report.details[1]["margin"], report.details[1]["error"]) == (None, "one bad target")
        assert [report.details[k] for k in (0, 2)] == [clean.details[k] for k in (0, 2)]

    def test_gradient_base_that_stops_short_fails_only_its_trial(self, monkeypatch):
        """Trial 1's base ends MAX_ITERATIONS in round 1: that trial fails with
        the text require_converged gives for it, round 2 inverts only the
        other two trials' 20 neighbours, and their details are a clean run's."""
        config = small_config(F, trials=3)
        clean = run_check("gradient", config)
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
        report = run_check("gradient", config)
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
            eps: run_check("gradient", dataclasses.replace(config, fd_step=eps)).details[13]["max_rel_dev"]
            for eps in (1e-4, 1e-5)
        }
        assert 80 < deviation[1e-4] / deviation[1e-5] < 120
        assert deviation[1e-5] < config.gradient_tol < deviation[1e-4]
        assert run_check("gradient", config).failures == 0


def _one_at_a_time(check, config):
    """The details of a gradient or f_convexity campaign, rebuilt from the
    check's draws with every 1RDM built and every target inverted alone,
    and the state the draws leave the check's generator in."""
    m = config.model
    system = build_system(m)
    params = EnsembleParams(config.beta)
    pbasis = system.pbasis
    rng = verify._rng(config, check)

    def inverted(gamma, start=None):
        return require_converged(invert_potential(gamma, system, params, InversionOptions(initial=start)), gamma, system)

    def drawn():
        return OneRdm(orc.random_rdm_one_draw_at_a_time(m.nb, m.n, m.statistics is F, True, rng))

    details = []
    for k in range(config.trials):
        if check == "f_convexity":
            gamma_0, gamma_1 = drawn(), drawn()
            t = verify._mix_parameter(rng, config)
            mixed = OneRdm(t * gamma_0.matrix + (1 - t) * gamma_1.matrix)
            f = [inverted(gamma).f_value for gamma in (gamma_0, gamma_1, mixed)]
            details.append({"trial": k, "t": t, "margin": float(t * f[0] + (1 - t) * f[1] - f[2])})
            continue
        gamma = drawn()
        directions = np.linalg.qr(rng.normal(size=(pbasis.size, 5)))[0].T
        cv = pbasis.coefficients(inverted(gamma).v_star)
        eps, worst = config.fd_step, 0.0
        for d in directions:
            neighbours = [OneRdm(gamma.matrix + sign * eps * pbasis.assemble(d)) for sign in (1, -1)]
            f_plus, f_minus = (inverted(neighbour, cv).f_value for neighbour in neighbours)
            deviation = abs((f_plus - f_minus) / (2 * eps) + float(np.dot(cv, d)))
            worst = max(worst, deviation / max(1.0, float(np.linalg.norm(cv))))
        details.append({"trial": k, "max_rel_dev": worst, "margin": config.gradient_tol - worst})
    return details, rng.bit_generator.state


def _coleman_one_at_a_time(config):
    """The details of a coleman campaign, rebuilt from the check's draws with
    every 1RDM built alone, and the state the draws leave its generator in."""
    m, basis = config.model, build_system(config.model).basis
    rng = verify._rng(config, "coleman")
    construct = coleman_fermionic if m.statistics is F else coleman_bosonic
    if m.statistics is F:
        variants = ("interior", "zero_pinned", "one_pinned", "idempotent")
    else:
        variants = ("interior", "zero_pinned", "condensate")
    details = []
    for k in range(config.trials):
        variant = variants[k % len(variants)]
        if variant == "interior":
            gamma = OneRdm(orc.random_rdm_one_draw_at_a_time(m.nb, m.n, m.statistics is F, True, rng))
        else:
            gamma = OneRdm(orc.haar_rotated(rng, verify._boundary_occupations(rng, m.nb, m.n, m.statistics, variant)))
        error = float(np.linalg.norm(one_rdm(construct(gamma, basis), basis).matrix - gamma.matrix))
        details.append({"trial": k, "variant": variant, "error_norm": error, "margin": config.coleman_tol - error})
    return details, rng.bit_generator.state


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
        trial's targets; the campaign leaves its generator where those draws do."""
        config = CheckConfig(model=model, beta=beta, seed=2026, trials=4)
        sizes = []
        batched = verify.invert_potentials

        def spy(targets, *args):
            sizes.append(len(targets))
            return batched(targets, *args)

        monkeypatch.setattr(verify, "invert_potentials", spy)
        report, state = run_check_keeping_rng(monkeypatch, check, config)
        assert sizes == [per_trial * config.trials for per_trial in rounds]
        assert report.failures == 0
        assert (list(report.details), state) == _one_at_a_time(check, config)


def random_density(rng, dim):
    """A random full-rank density matrix built alone: Dirichlet weights in a Haar basis."""
    return orc.haar_rotated(rng, rng.dirichlet(np.ones(dim)))


def _single_objects(check, config):
    """The details of a check that stacks its Gibbs states or entropies,
    rebuilt trial by trial from the check's draws through the single-object
    API, whether an entropy met an eigenvalue clipped to zero, and the state
    the draws leave the check's generator in."""
    system = build_system(config.model)
    params = EnsembleParams(config.beta)
    pbasis, basis = system.pbasis, system.basis
    rng = verify._rng(config, check)
    details, clipped = [], False

    def omega(c, beta=config.beta):
        return omega_of_v(pbasis.potential(c), system, EnsembleParams(beta))

    def free_energy(rho, h_v):
        nonlocal clipped
        clipped |= bool((np.linalg.eigvalsh(rho.matrix) <= 0.0).any())
        return helmholtz(rho, h_v, params)

    for k in range(config.trials):
        record = {"trial": k}
        if check in ("omega_concavity", "injectivity"):
            pair = verify._separated_pair(lambda: verify._coeff_draw(rng, pbasis, config.v_scale), config.separation, "")
            if check == "omega_concavity":
                t = record["t"] = verify._mix_parameter(rng, config)
                omega_1, omega_2, omega_mix = (omega(c)[0] for c in (*pair, t * pair[0] + (1 - t) * pair[1]))
                margin = omega_mix - t * omega_1 - (1 - t) * omega_2
            else:
                gamma_1, gamma_2 = (omega(c)[1] for c in pair)
                record["rdm_distance"] = float(np.linalg.norm(gamma_1.matrix - gamma_2.matrix))
                margin = record["rdm_distance"] - config.injectivity_floor
        elif check == "fractional_occupations":
            beta = record["beta"] = config.fractional_betas[k % len(config.fractional_betas)]
            occ = natural_spectrum(omega(verify._coeff_draw(rng, pbasis, config.fractional_v_scale), beta)[1]).occupations
            lowest = record["min_occupation"] = float(occ.min())
            margin = min(lowest, float(1 - occ.max()) if basis.statistics is F else np.inf) - config.fractional_floor
        elif check == "entropy_concavity":
            pair = verify._separated_pair(lambda: random_density(rng, basis.dim), config.separation, "")
            rho_1, rho_2 = (DensityOperator(m, basis.tag) for m in pair)
            t = record["t"] = verify._mix_parameter(rng, config)
            mixed = DensityOperator(t * rho_1.matrix + (1 - t) * rho_2.matrix, basis.tag)
            margin = entropy(mixed) - t * entropy(rho_1) - (1 - t) * entropy(rho_2)
        else:
            v = pbasis.potential(verify._coeff_draw(rng, pbasis, config.v_scale))
            h_v = ManyBodyOperator(system.h0.matrix + lift_one_body(v.matrix, basis).matrix, basis.tag)
            gibbs = gibbs_state(h_v, params)
            base = free_energy(gibbs.rho, h_v)
            psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            psi /= np.linalg.norm(psi)
            competitors = {
                "mixed_1pct": 0.99 * gibbs.rho.matrix + 0.01 * np.outer(psi, psi.conj()),
                "maximally_mixed": np.eye(basis.dim) / basis.dim,
                "random_state": random_density(rng, basis.dim),
            }
            gaps = {name: free_energy(DensityOperator(m, basis.tag), h_v) - base for name, m in competitors.items()}
            record.update((f"gap_{name}", float(gap)) for name, gap in gaps.items())
            margin = min(gaps.values())
        details.append({**record, "margin": float(margin)})
    return details, clipped, rng.bit_generator.state


STACKED_CHECKS = ("omega_concavity", "injectivity", "fractional_occupations", "entropy_concavity", "gibbs_minimality")


class TestTrialGenerators:
    def test_campaign_drives_generator_trials(self, monkeypatch):
        """Every trial draws before the first kernel call, in trial order; each
        round calls each kernel once, on its pending trials' rows in trial
        order; a failing row or a raise before the first yield fails only its
        own trial, with its own text; a trial may return without yielding."""
        config = small_config(F, trials=4)
        log = []

        def kernel(name):
            def call(rows):
                log.append((name, list(rows)))
                return [RdmftError(f"row {row} failed") if row == "bad" else f"{name}({row})" for row in rows]

            return call

        first, second = kernel("first"), kernel("second")

        def draw(rng, k, record):
            record["draw"] = float(rng.uniform())
            log.append(("draw", k))

        def two_kernels(rng, k, record):
            draw(rng, k, record)
            (out,) = yield first, ["r0"]
            record["seen"] = yield second, [out, "s0"]
            return 1.0

        def failing_row(rng, k, record):
            draw(rng, k, record)
            yield second, ["r1"]
            yield second, ["s1", "bad"]
            return 2.0

        def raising(rng, k, record):
            draw(rng, k, record)
            raise RdmftError("trial 2 draws nothing")
            yield first, ["never"]

        def no_kernel(rng, k, record):
            draw(rng, k, record)
            return 0.5
            yield

        trials = (two_kernels, failing_row, raising, no_kernel)
        plan = (lambda config, system, kernel: lambda rng, k, record: trials[k](rng, k, record))
        monkeypatch.setitem(verify._PLANS, "gradient", (plan, lambda margin, config: margin <= 0, ""))
        (report,) = verify._campaign(config, build_system(config.model), ("gradient",))
        assert log == [
            *(("draw", k) for k in range(4)),
            ("first", ["r0"]),
            ("second", ["r1"]),
            ("second", ["first(r0)", "s0", "s1", "bad"]),
        ]
        rng = verify._rng(config, "gradient")
        draws = [float(rng.uniform()) for _ in range(4)]
        assert list(report.details) == [
            {"trial": 0, "draw": draws[0], "seen": ["second(first(r0))", "second(s0)"], "margin": 1.0},
            {"trial": 1, "draw": draws[1], "margin": None, "error": "row bad failed"},
            {"trial": 2, "draw": draws[2], "margin": None, "error": "trial 2 draws nothing"},
            {"trial": 3, "draw": draws[3], "margin": 0.5},
        ]
        assert (report.trials, report.failures, report.worst_margin) == (4, 2, 0.5)

    def test_checks_share_rounds_and_kernels(self, monkeypatch):
        """Two checks in one campaign: every trial of the first draws, then every
        trial of the second, each check from its own substream; a kernel both
        ask for is built once, and each round calls it once, on the rows of
        both in check and trial order; each report keeps its check's fails
        rule and notes."""
        config = small_config(F, trials=2)
        system = build_system(config.model)
        log = []

        def make(system_, tag):
            log.append(("build", tag, system_ is system))
            return lambda rows: log.append(("call", tag, list(rows))) or [f"{tag}({row})" for row in rows]

        def plan(name, rounds):
            def trial_plan(config, system, kernel):
                shared = kernel(make, "shared")

                def trial(rng, k, record):
                    record["draw"] = float(rng.uniform())
                    log.append(("draw", name, k))
                    for r in range(rounds):
                        (out,) = yield shared, [f"{name}{k}.{r}"]
                        record[f"out{r}"] = out
                    return k - 0.5

                return trial

            return trial_plan

        monkeypatch.setitem(verify._PLANS, "omega_concavity", (plan("a", 2), lambda margin, config: margin < -1, "A"))
        monkeypatch.setitem(verify._PLANS, "injectivity", (plan("b", 1), lambda margin, config: margin <= 0, ""))
        a, b = verify._campaign(config, system, ("omega_concavity", "injectivity"))
        assert log == [
            ("build", "shared", True),
            ("draw", "a", 0),
            ("draw", "a", 1),
            ("draw", "b", 0),
            ("draw", "b", 1),
            ("call", "shared", ["a0.0", "a1.0", "b0.0", "b1.0"]),
            ("call", "shared", ["a0.1", "a1.1"]),
        ]
        for report, name, letter in ((a, "omega_concavity", "a"), (b, "injectivity", "b")):
            rng = verify._rng(config, name)
            assert report.theorem_id == name and report.trials == 2
            assert [row["draw"] for row in report.details] == [float(rng.uniform()) for _ in range(2)]
            assert [row["out0"] for row in report.details] == [f"shared({letter}{k}.0)" for k in range(2)]
        assert (a.failures, a.notes, b.failures, b.notes) == (0, "A", 1, "")


class TestSharedRounds:
    """A grid point runs its checks as one campaign, whose shared rounds
    change only the batching."""

    @pytest.mark.parametrize("beta", [1.0, 50.0])
    def test_point_matches_each_check_run_alone(self, beta):
        """On the five default systems and three default models, a grid
        point's reports are, as JSON bytes, those of each check run alone on a
        System of its own; at beta = 50 some inversions climb the beta ladder."""
        for (nb, n, statistics), (kind, params) in itertools.product(verify.DEFAULT_SYSTEMS, verify.DEFAULT_MODELS):
            model = ModelSpec(kind=kind, nb=nb, n=n, statistics=statistics, **{"seed": 5, **params})
            config = CheckConfig(model=model, beta=beta, seed=2026, trials=4)
            point = verify._run_point(config, ALL_CHECKS)
            alone = [run_check(name, config) for name in ALL_CHECKS]
            assert [canonical_json(theorem_report_to_json(r)) for r in point] == [
                canonical_json(theorem_report_to_json(r)) for r in alone
            ]

    def test_two_inversion_calls_per_grid_point(self, monkeypatch):
        """The pinned benchmark grid (perfbench/verify_default.json) in one
        process: each of its 45 points makes one invert_potentials call for
        f_convexity's 60 cold targets and gradient's 20 cold bases, and one
        for gradient's warm-started neighbours: two for each of its at most 5
        directions, of which nb = 2 has 3."""
        sizes, batched = [], verify.invert_potentials

        def spy(targets, *args):
            sizes.append(len(targets))
            return batched(targets, *args)

        monkeypatch.setattr(verify, "invert_potentials", spy)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        reports = run_suite(SuiteConfig(betas=(0.5, 1.0, 5.0), seed=2026, trials=20))
        assert len(reports) == 360 and suite_failures(reports) == 0
        per_point = [[80, 20 * 2 * min(5, nb * nb - 1)] for nb, _, _ in verify.DEFAULT_SYSTEMS for _ in range(9)]
        assert sizes == [size for point in per_point for size in point] and len(sizes) == 90

    def test_failing_row_in_a_merged_kernel_fails_only_its_trial(self, monkeypatch):
        """invert_potentials raises for any batch holding gradient trial 1's
        base, which shares its call with f_convexity's cold targets: the merged
        call's rows are inverted one by one, only that trial fails, with that
        error's text, and every other trial of both checks is a clean run's."""
        config = small_config(F, trials=3)
        system = build_system(config.model)
        clean = verify._campaign(config, system, ("f_convexity", "gradient"))
        batched, poisoned, calls = verify.invert_potentials, [], []

        def raises_on_one(targets, system, params, opts):
            poisoned[:] = poisoned or [targets[3 * config.trials + 1].matrix.tobytes()]
            calls.append(len(targets))
            if poisoned[0] in [target.matrix.tobytes() for target in targets]:
                raise InvalidArguments("one bad target")
            return batched(targets, system, params, opts)

        monkeypatch.setattr(verify, "invert_potentials", raises_on_one)
        convexity, gradient = verify._campaign(config, build_system(config.model), ("f_convexity", "gradient"))
        assert calls == [12] + [1] * 12 + [20]
        assert convexity.details == clean[0].details and convexity.failures == 0
        assert gradient.failures == 1
        assert gradient.details[1] == {"trial": 1, "margin": None, "error": "one bad target"}
        assert [gradient.details[k] for k in (0, 2)] == [clean[1].details[k] for k in (0, 2)]

    def test_nan_row_in_a_shared_kernel_fails_only_its_trial(self, monkeypatch):
        """coleman's trial 0 draws NaN occupations: the stack of 1RDMs that the
        rotation kernel builds for coleman, f_convexity and gradient fails its
        finiteness check, the stack is built again row by row, and only that
        trial fails, with the text OneRdm raises for its matrix alone."""
        config = small_config(F, trials=3)
        checks = ("f_convexity", "gradient", "coleman")
        clean = verify._campaign(config, build_system(config.model), checks)
        draw, calls = verify._rdm_draw, []

        def nan_for_coleman(rng, *args):
            occ, z = draw(rng, *args)
            calls.append(len(calls))
            # f_convexity draws 6, gradient 3, then coleman's interior trial 0
            return (np.full_like(occ, np.nan) if len(calls) == 10 else occ), z

        monkeypatch.setattr(verify, "_rdm_draw", nan_for_coleman)
        reports = verify._campaign(config, build_system(config.model), checks)
        with pytest.raises(InvalidArguments) as alone:
            OneRdm(np.full((3, 3), np.nan))
        assert str(alone.value) == "1RDM entries must be finite"
        assert [r.details for r in reports[:2]] == [r.details for r in clean[:2]]
        assert reports[2].failures == 1
        assert reports[2].details[0] == {"trial": 0, "variant": "interior", "margin": None, "error": str(alone.value)}
        assert reports[2].details[1:] == clean[2].details[1:]


class TestStackedChecks:
    @pytest.mark.parametrize("beta", [1.0, 50.0, 1000.0])
    @pytest.mark.parametrize(
        "model",
        [
            ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=F, u=4.0, t_hop=0.5),
            ModelSpec(kind="random_full", nb=3, n=2, statistics=B, seed=11, h_scale=1.0, w_norm=1.0),
        ],
        ids=["hubbard_4_2_F", "random_full_3_2_B"],
    )
    @pytest.mark.parametrize("check", STACKED_CHECKS)
    def test_stacks_change_only_the_batching(self, monkeypatch, check, model, beta):
        """Each trial's details are, bit for bit, those of building its
        potentials and density operators and computing its Gibbs states and
        entropies one at a time, and the campaign leaves its generator where
        those draws do.  At beta = 1000 the Gibbs states have populations
        that are exactly zero, so their entropy sums run over fewer terms
        than dim."""
        config = CheckConfig(model=model, beta=beta, seed=2026, trials=6)
        details, clipped, state = _single_objects(check, config)
        report, end = run_check_keeping_rng(monkeypatch, check, config)
        assert (list(report.details), end) == (details, state)
        if check == "gibbs_minimality" and beta == 1000.0:
            assert clipped

    @pytest.mark.parametrize("check, call", [("entropy_concavity", 2), ("gibbs_minimality", 1)])
    def test_invalid_row_fails_only_its_trial(self, monkeypatch, check, call):
        """Trial 1 draws a density matrix with a negative eigenvalue: that
        trial fails with the text DensityOperator raises for it alone, and the
        other trials, which draw from the same stream, are a clean run's."""
        config = CheckConfig(model=ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=F, u=4.0, t_hop=0.5), trials=3)
        clean = run_check(check, config)
        draw, calls, expected = verify._density_draw, [], {}

        def negative(rng, dim):
            w, z = draw(rng, dim)
            if len(calls) == call:
                w = w + np.array([0.5, -0.5] + [0.0] * (dim - 2))
                with pytest.raises(InvalidDensityOperator) as alone:
                    DensityOperator(verify._haar_rotations(w[None], z[None])[0], build_system(config.model).basis.tag)
                expected["error"] = str(alone.value)
            calls.append(dim)
            return w, z

        monkeypatch.setattr(verify, "_density_draw", negative)
        report = run_check(check, config)
        assert len(calls) == {"entropy_concavity": 6, "gibbs_minimality": 3}[check]
        assert report.failures == 1
        assert (report.details[1]["margin"], report.details[1]["error"]) == (None, expected["error"])
        assert expected["error"] == "density matrix has an eigenvalue below -1e-12"
        assert [report.details[k] for k in (0, 2)] == [clean.details[k] for k in (0, 2)]

    def test_nan_density_fails_only_its_trial(self, monkeypatch):
        """Trial 1 of gibbs_minimality draws NaN weights for its random
        competitor: the stack of free energies fails its finiteness check, the
        stack is run again row by row, and only trial 1 fails, with the text
        DensityOperator raises for that matrix alone."""
        config = CheckConfig(model=ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=F, u=4.0, t_hop=0.5), trials=3)
        clean = run_check("gibbs_minimality", config)
        draw, calls = verify._density_draw, []

        def nan_for_trial_1(rng, dim):
            w, z = draw(rng, dim)
            calls.append(dim)
            return (np.full_like(w, np.nan) if len(calls) == 2 else w), z

        monkeypatch.setattr(verify, "_density_draw", nan_for_trial_1)
        report = run_check("gibbs_minimality", config)
        with pytest.raises(InvalidDensityOperator) as alone:
            DensityOperator(np.full((6, 6), np.nan), build_system(config.model).basis.tag)
        assert str(alone.value) == "density matrix entries must be finite"
        assert report.failures == 1
        assert (report.details[1]["margin"], report.details[1]["error"]) == (None, str(alone.value))
        assert [report.details[k] for k in (0, 2)] == [clean.details[k] for k in (0, 2)]

    @pytest.mark.parametrize("check", STACKED_CHECKS)
    def test_one_row_chunks_change_nothing(self, monkeypatch, check):
        """A budget below one row's workspace stacks each row alone, the
        maximally mixed competitor, a real matrix, included."""
        config = CheckConfig(model=ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=F, u=4.0, t_hop=0.5), trials=4)
        whole = run_check(check, config)
        monkeypatch.setattr(functional, "WORKSPACE_BYTES", 1)
        assert functional._stack_rows(build_system(config.model).basis) == 1
        assert run_check(check, config).details == whole.details

    def test_stacks_are_chunked_within_the_budget(self, monkeypatch):
        """At nb=6/n=3 (dim 20), 40 Gibbs states, 40 entropies or 40 Haar
        rotations under a budget of 4 rows' workspace peak near that budget,
        where one stack of all 40 peaks far above it, and give the same bits.
        The rotations' peak counts their 40 output matrices besides."""
        system = build_system(ModelSpec(kind="hubbard_ring", nb=6, n=3, statistics=F, u=4.0, t_hop=0.5))
        rng, pbasis = np.random.default_rng(0), system.pbasis
        potentials = [verify._coeff_draw(rng, pbasis, 1.0) for _ in range(40)]
        draws = [verify._density_draw(rng, system.basis.dim) for _ in range(40)]
        densities = verify._haar_rotations(*map(np.array, zip(*draws)))
        budget = 4 * 128 * system.basis.dim**2

        def traced(kernel, rows, workspace):
            monkeypatch.setattr(functional, "WORKSPACE_BYTES", workspace)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                out = kernel(rows)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            bits = [(row[0], row[1].matrix.tobytes()) if isinstance(row, tuple) else np.array(row).tobytes() for row in out]
            return bits, peak

        kernels = (verify._omega_kernel(system, 1.0), verify._entropy_kernel(system), verify._rotations(system))
        outputs = (0, 0, densities.nbytes)
        for kernel, rows, output in zip(kernels, (potentials, list(densities), draws), outputs):
            chunked, peak = traced(kernel, rows, budget)
            assert functional._stack_rows(system.basis) == 4
            whole, whole_peak = traced(kernel, rows, 1 << 40)
            assert chunked == whole
            assert peak - output <= 2 * budget < whole_peak - output

    @pytest.mark.parametrize("statistics", [F, B])
    def test_coleman_builds_change_only_the_batching(self, monkeypatch, statistics):
        """Each coleman trial's details are, bit for bit, those of building its
        1RDM alone, and the campaign leaves its generator where those draws do."""
        config = small_config(statistics, trials=8)
        report, state = run_check_keeping_rng(monkeypatch, "coleman", config)
        assert (list(report.details), state) == _coleman_one_at_a_time(config)

    def test_nan_coefficient_fails_only_its_trial(self, monkeypatch):
        """Trial 3 of omega_concavity mixes its chord at t = NaN: its third
        coefficient row fails the stack's potential check, the stack is run
        again row by row, and only trial 3 fails, with the text
        PotentialBasis.potential raises for that row alone."""
        config = small_config(F, trials=5)
        clean = run_check("omega_concavity", config)
        mix, calls = verify._mix_parameter, []

        def nan_for_trial_3(rng, config):
            calls.append(mix(rng, config))  # trial 3 still takes its draw
            return float("nan") if len(calls) == 4 else calls[-1]

        monkeypatch.setattr(verify, "_mix_parameter", nan_for_trial_3)
        report = run_check("omega_concavity", config)
        pbasis = build_system(config.model).pbasis
        with pytest.raises(InvalidArguments) as alone:
            pbasis.potential(np.full(pbasis.size, np.nan))
        assert str(alone.value) == "potential entries must be finite"
        assert report.failures == 1
        assert (report.details[3]["margin"], report.details[3]["error"]) == (None, str(alone.value))
        assert [report.details[k] for k in (0, 1, 2, 4)] == [clean.details[k] for k in (0, 1, 2, 4)]

    def test_non_hermitian_neighbour_fails_only_its_trial(self, monkeypatch):
        """One direction of trial 3 of gradient assembles to a non-Hermitian
        matrix: the stack of that trial's neighbours fails its 1RDM check, so
        trial 3 fails after its base's inversion and before its neighbours'
        with the text OneRdm raises for such a neighbour alone, and the other
        trials are a clean run's."""
        config = small_config(F, trials=5)
        clean = run_check("gradient", config)
        assemble, stacks, expected = PotentialBasis.assemble, [], {}

        def skewed(self, coeffs):
            m = assemble(self, coeffs)
            if np.shape(coeffs) == (5, self.size) and not inverting:  # a trial's directions
                stacks.append(m)
                if len(stacks) == 4:
                    m[2, 0, 1] += 1e-3
                    with pytest.raises(NonHermitianInput) as alone:
                        OneRdm(np.eye(self.nb) + config.fd_step * m[2])
                    expected["error"] = str(alone.value)
            return m

        sizes, batched, inverting = [], verify.invert_potentials, []

        def spy(targets, *args):
            sizes.append(len(targets))
            inverting.append(True)
            try:
                return batched(targets, *args)
            finally:
                inverting.pop()

        monkeypatch.setattr(PotentialBasis, "assemble", skewed)
        monkeypatch.setattr(verify, "invert_potentials", spy)
        report = run_check("gradient", config)
        assert sizes == [5, 40]
        assert report.failures == 1
        assert report.details[3] == {"trial": 3, "margin": None, "error": expected["error"]}
        assert expected["error"] == "1RDM is not Hermitian within 1e-12"
        assert [report.details[k] for k in (0, 1, 2, 4)] == [clean.details[k] for k in (0, 1, 2, 4)]

    def test_rotation_that_fails_its_check_fails_only_its_trial(self, monkeypatch):
        """The 1RDM built for trial 3 of coleman is made non-Hermitian: the
        stack's OneRdm check fails, its rows are built again one by one, and
        only trial 3 fails, with the text OneRdm raises for that matrix alone."""
        config = small_config(F, trials=5)
        clean = run_check("coleman", config)
        build, bad, expected, calls = verify._haar_rotations, {}, {}, []

        def skewed(w, z):
            m = build(w, z)
            calls.append(len(z))
            bad["z"] = bad.get("z") or z[3].tobytes()  # trial 3's row of the first, whole stack
            for j in [j for j, row in enumerate(z) if row.tobytes() == bad["z"]]:
                m[j, 0, 1] += 1e-3
                with pytest.raises(NonHermitianInput) as alone:
                    OneRdm(m[j])
                expected["error"] = str(alone.value)
            return m

        monkeypatch.setattr(verify, "_haar_rotations", skewed)
        report = run_check("coleman", config)
        assert calls == [5] + [1] * 5
        assert report.failures == 1
        assert report.details[3] == {"trial": 3, "variant": "idempotent", "margin": None, "error": expected["error"]}
        assert expected["error"] == "1RDM is not Hermitian within 1e-12"
        assert [report.details[k] for k in (0, 1, 2, 4)] == [clean.details[k] for k in (0, 1, 2, 4)]


class TestStackedBuilds:
    """The stacked builds give each row the bits of building it alone."""

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_rotation_rows_match_per_object(self, dim):
        """Rows of the rotation kernel are the matrices the Mezzadri recipe
        builds one at a time from the same draws, which leave the generator
        in the same state."""
        system = build_system(ModelSpec(kind="zero", nb=3, n=2, statistics=F))
        alone, stacked = np.random.default_rng(dim), np.random.default_rng(dim)
        expected = [orc.haar_rotated(alone, alone.dirichlet(np.ones(dim))) for _ in range(7)]
        rows = verify._rotations(system)([verify._density_draw(stacked, dim) for _ in range(7)])
        assert [row.tobytes() for row in rows] == [m.tobytes() for m in expected]
        assert stacked.bit_generator.state == alone.bit_generator.state

    @pytest.mark.parametrize("nb", range(2, 11))
    def test_traceless_rows_match_potential(self, nb):
        pbasis = potential_basis(nb)
        c = np.random.default_rng(nb).normal(size=(7, pbasis.size))
        assert [row.tobytes() for row in pbasis.traceless(c)] == [pbasis.potential(x).matrix.tobytes() for x in c]

    @pytest.mark.parametrize("nb", range(2, 11))
    def test_direction_rows_match_per_object_qr(self, nb):
        """gradient orthonormalizes every trial's directions in one QR call."""
        x = np.random.default_rng(nb).normal(size=(7, nb * nb - 1, 5))
        assert [q.tobytes() for q in np.linalg.qr(x)[0]] == [np.linalg.qr(m)[0].tobytes() for m in x]


class TestSharedSystem:
    def test_one_build_per_grid_point(self, monkeypatch):
        built = []
        build = verify.build_system

        def counted(model):
            built.append((model.nb, model.n))
            return build(model)

        monkeypatch.setattr(verify, "build_system", counted)
        # in this process, where the spy sees the builds; TestPool covers the workers
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        config = SuiteConfig(systems=((3, 2, F), (2, 3, B)), betas=(1.0,), models=(("zero", {}),), seed=4, trials=2)
        reports = run_suite(config)
        assert [r.theorem_id for r in reports] == list(ALL_CHECKS) * 2
        assert built == [(3, 2), (2, 3)]

    @pytest.mark.parametrize("beta", [1.0, 50.0])
    def test_shared_system_matches_fresh_ones(self, beta):
        """All eight checks in suite order on one System give the same bits
        as each on a fresh System; at beta = 50 the inversions climb the
        beta ladder and start from the System's kept cold-start state."""
        model = ModelSpec(kind="hubbard_ring", nb=4, n=2, statistics=F, u=4.0, t_hop=0.5)
        config = CheckConfig(model=model, beta=beta, seed=2026, trials=3)
        system = build_system(model)
        shared = [verify._campaign(config, system, (name,))[0] for name in ALL_CHECKS]
        fresh = [run_check(name, config) for name in ALL_CHECKS]
        assert suite_failures(shared) == 0 and beta in system._cold_starts
        assert [canonical_json(theorem_report_to_json(r)) for r in shared] == [
            canonical_json(theorem_report_to_json(r)) for r in fresh
        ]


class TestPool:
    # both statistics, all eight checks, and at beta = 50 the (3, 2) fermion
    # inversions go down the beta ladder to 12.5 and climb back
    GRID = SuiteConfig(
        systems=((3, 2, F), (2, 3, B)),
        betas=(1.0, 50.0),
        models=(("zero", {}), ("hubbard_ring", {"u": 4.0, "t_hop": 0.5})),
        seed=7,
        trials=2,
    )

    def test_workers_match_one_process(self, monkeypatch):
        built = []
        build = verify.build_system

        def counted(model):
            built.append(model)
            return build(model)

        monkeypatch.setattr(verify, "build_system", counted)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        pooled = run_suite(self.GRID)
        assert multiprocessing.active_children() == []
        assert built == []  # every point was built in a worker
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        alone = run_suite(self.GRID)
        assert len(built) == 8
        described = {"checks": list(self.GRID.checks), "seed": self.GRID.seed}
        assert suite_failures(pooled) == 0
        assert canonical_json(suite_report_json(pooled, described)) == canonical_json(
            suite_report_json(alone, described)
        )

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="workers inherit the patch")
    def test_worker_error_reaches_caller(self, monkeypatch):
        def broken(config, system, kernel):
            raise ValueError(f"broken at nb={config.model.nb}")

        monkeypatch.setitem(verify._PLANS, "coleman", (broken, lambda margin, config: margin < 0, ""))
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        config = SuiteConfig(checks=("injectivity", "coleman"), betas=(1.0,), models=(("zero", {}),), trials=1)
        with pytest.raises(ValueError) as exc:
            run_suite(config)
        # the first failing point in grid order, (3, 2, F), with its own type and message
        assert type(exc.value) is ValueError and str(exc.value) == "broken at nb=3"
        assert multiprocessing.active_children() == []


class TestDeterminism:
    def test_identical_config_identical_report(self):
        a = run_check("gradient", small_config(F, trials=3))
        b = run_check("gradient", small_config(F, trials=3))
        assert canonical_json(theorem_report_to_json(a)) == canonical_json(
            theorem_report_to_json(b)
        )

    def test_seed_changes_trials(self):
        a = run_check("omega_concavity", small_config(F, seed=1))
        b = run_check("omega_concavity", small_config(F, seed=2))
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

    @pytest.mark.parametrize(
        "grid, reason",
        [
            ({"betas": (-1.0,)}, "beta must be positive and finite, got -1.0"),
            ({"betas": (0.0,)}, "beta must be positive and finite, got 0.0"),
            ({"betas": (float("inf"),)}, "beta must be positive and finite, got inf"),
            ({"betas": (float("nan"),)}, "beta must be positive and finite, got nan"),
            ({"overrides": {"separation": -0.1}}, "separation must be nonnegative, got -0.1"),
            ({"overrides": {"separation": float("nan")}}, "separation must be nonnegative, got nan"),
            ({"overrides": {"gradient_tol": float("nan")}}, "gradient_tol must be finite, got nan"),
            ({"overrides": {"convexity_slack": float("nan")}}, "convexity_slack must be finite, got nan"),
            ({"overrides": {"coleman_tol": float("inf")}}, "coleman_tol must be finite, got inf"),
            ({"overrides": {"injectivity_floor": float("nan")}}, "injectivity_floor must be finite, got nan"),
            ({"overrides": {"fractional_floor": -float("inf")}}, "fractional_floor must be finite, got -inf"),
        ],
    )
    def test_bad_beta_or_separation_rejected_before_any_check(self, monkeypatch, grid, reason):
        """The grid's betas and its separation and tolerance overrides are
        checked with the rest of the grid, so no check runs on a point that
        has no ensemble or whose margins could not fail."""
        ran = []
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(verify, "_run_point", lambda *args: ran.append(args))
        config = SuiteConfig(systems=((3, 2, F),), models=(("zero", {}),), trials=2)
        with pytest.raises(ConfigError) as error:
            run_suite(dataclasses.replace(config, **grid))
        assert str(error.value) == f"bad suite grid: {reason}"
        assert ran == []

    @pytest.mark.parametrize(
        "name", ["gradient_tol", "convexity_slack", "coleman_tol", "injectivity_floor", "fractional_floor"]
    )
    def test_non_finite_tolerances_rejected(self, name):
        """A NaN tolerance makes every margin of its check NaN, and a NaN
        margin fails no claim; a finite one may take either sign."""
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidArguments, match=f"^{name} must be finite, got {value}$"):
                small_config(F, **{name: value})
        assert getattr(small_config(F, **{name: -1.0}), name) == -1.0

    @pytest.mark.parametrize("separation", [0.0, float("inf")])
    def test_zero_and_unreachable_separations_accepted(self, separation):
        assert small_config(F, separation=separation).separation == separation

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
        report = run_check("injectivity", small_config(F, trials=2))
        assert report.passed
        broken = dataclasses.replace(report, failures=1)
        assert not broken.passed

    def test_suite_failures_sums(self):
        report = run_check("injectivity", small_config(F, trials=2))
        reports = [
            dataclasses.replace(report, failures=2),
            dataclasses.replace(report, failures=3),
            report,
        ]
        assert suite_failures(reports) == 5

    def test_json_keys_are_the_fields(self):
        report = run_check("injectivity", small_config(F, trials=2))
        obj = theorem_report_to_json(report)
        assert set(obj) == {f.name for f in dataclasses.fields(TheoremReport)} | {"passed"}
        assert obj["passed"] is True

    def test_worst_margin_is_the_minimum(self):
        report = run_check("omega_concavity", small_config(F))
        margins = [row["margin"] for row in report.details]
        assert report.worst_margin == pytest.approx(min(margins))
