"""Command-line driver.

One JSON config per run; numeric tables land as CSV with a JSON
metadata sidecar, structured results as JSON.  Exit codes: 0 success,
1 verification or convergence failure, 2 config error, 3 target not
representable.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .ensemble import (
    EnsembleParams,
    OneRdm,
    entropy,
    gibbs_state,
    natural_spectrum,
    one_rdm,
)
from .errors import (
    ConfigError,
    InfeasibleOccupations,
    NotRepresentableError,
    RdmftError,
)
from .fock import ManyBodyOperator, Statistics, lift_one_body
from .functional import (
    InversionOptions,
    InversionVerdict,
    TracelessPotential,
    invert_potential,
    potential_basis,
    universal_functional,
)
from .models import MODEL_KINDS, ModelSpec, build_system
from .representability import polytope_decompose, random_rdm, simplex_decompose
from .serialize import (
    config_hash,
    dump_json,
    inversion_report_to_json,
    load_json,
    matrix_from_json,
    potential_to_json,
    rdm_to_json,
    suite_report_json,
    write_csv,
)
from .verify import ALL_CHECKS, DEFAULT_BETAS, DEFAULT_MODELS, DEFAULT_SYSTEMS, SuiteConfig, run_suite, suite_failures

_STATISTICS = {"fermion": Statistics.FERMION, "boson": Statistics.BOSON}


def _statistics(name) -> Statistics:
    try:
        return _STATISTICS[name]
    except (KeyError, TypeError):
        raise ConfigError(f"statistics must be 'fermion' or 'boson', got {name!r}") from None


def _model_from(obj, fallback_seed=None) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError("model must be a JSON object")
    seed = obj.get("seed", fallback_seed)
    try:
        return ModelSpec(
            kind=obj["kind"],
            nb=int(obj["nb"]),
            n=int(obj["n"]),
            statistics=_statistics(obj["statistics"]),
            h_scale=float(obj.get("h_scale", 1.0)),
            w_norm=float(obj.get("w_norm", 1.0)),
            u=float(obj.get("u", 4.0)),
            t_hop=float(obj.get("t_hop", 1.0)),
            seed=None if seed is None else int(seed),
        )
    except KeyError as exc:
        raise ConfigError(f"model config missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model value: {exc}") from None
    except RdmftError as exc:
        raise ConfigError(str(exc)) from exc


def _build_system_checked(model: ModelSpec):
    try:
        return build_system(model)
    except RdmftError as exc:
        raise ConfigError(str(exc)) from exc


def _betas_from(cfg) -> list[float]:
    if "betas" in cfg:
        raw = cfg["betas"]
    elif "beta" in cfg:
        raw = [cfg["beta"]]
    else:
        raise ConfigError("config needs 'beta' or 'betas'")
    try:
        betas = [float(b) for b in raw]
        for b in betas:
            EnsembleParams(b)
    except (TypeError, ValueError, RdmftError) as exc:
        raise ConfigError(f"bad beta grid: {exc}") from exc
    return betas


def _potentials_from(cfg, nb: int, seed) -> list[TracelessPotential]:
    spec_obj = cfg.get("potentials")
    pbasis = potential_basis(nb) if nb >= 2 else None
    zero = TracelessPotential(np.zeros((nb, nb), dtype=complex))
    if spec_obj is None:
        return [zero]
    if isinstance(spec_obj, dict):
        count = int(spec_obj.get("count", 1))
        norm = float(spec_obj.get("norm", 1.0))
        if pbasis is None:
            raise ConfigError("random potentials need nb >= 2")
        rng = np.random.default_rng(spec_obj.get("seed", seed))
        out = []
        for _ in range(count):
            c = rng.normal(size=pbasis.size)
            c *= norm / np.linalg.norm(c)
            out.append(pbasis.potential(c))
        return out
    if isinstance(spec_obj, list):
        try:
            return [TracelessPotential(matrix_from_json(x)) for x in spec_obj]
        except RdmftError as exc:
            raise ConfigError(f"bad potential entry: {exc}") from exc
    raise ConfigError("'potentials' must be an object or a list of matrices")


def _target_rdm(obj, model: ModelSpec, seed) -> OneRdm:
    if not isinstance(obj, dict):
        raise ConfigError("target must be a JSON object")
    try:
        if "matrix" in obj:
            gamma = OneRdm(matrix_from_json(obj["matrix"]))
        elif "occupations" in obj:
            occ = np.asarray(obj["occupations"], dtype=float)
            if occ.ndim != 1 or occ.size != model.nb:
                raise ConfigError(f"occupations must have length nb={model.nb}")
            gamma = OneRdm(np.diag(occ).astype(complex))
        elif "sample" in obj:
            sample = obj["sample"] or {}
            gamma = random_rdm(
                model.nb,
                model.n,
                model.statistics,
                interior=bool(sample.get("interior", True)),
                seed=sample.get("seed", seed),
            )
        else:
            raise ConfigError("target needs 'matrix', 'occupations', or 'sample'")
    except RdmftError as exc:
        raise ConfigError(f"bad target: {exc}") from exc
    if gamma.nb != model.nb:
        raise ConfigError(f"target is {gamma.nb}x{gamma.nb}, model has nb={model.nb}")
    if abs(gamma.trace - model.n) > 1e-10:
        raise ConfigError(f"target trace {gamma.trace} does not match n={model.n}")
    return gamma


def _options_from(cfg) -> InversionOptions:
    raw = cfg.get("options", {})
    if not isinstance(raw, dict):
        raise ConfigError("'options' must be a JSON object")
    allowed = {"tol", "max_iter", "norm_cap", "stagnation_window", "stagnation_rtol", "classify_tol"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown inversion options: {sorted(unknown)}")
    for key, value in raw.items():
        integer = key in ("max_iter", "stagnation_window")
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            if not (key == "norm_cap" and value is None):
                kind = "an integer" if integer else "a number"
                raise ConfigError(f"inversion option {key!r} must be {kind}, got {value!r}")
    return InversionOptions(**raw)


def cmd_gibbs(cfg, out: Path, seed) -> int:
    model = _model_from(cfg.get("model"), fallback_seed=seed)
    system = _build_system_checked(model)
    basis = system.basis
    betas = _betas_from(cfg)
    potentials = _potentials_from(cfg, model.nb, seed)
    meta = {"command": "gibbs", "config_hash": config_hash(cfg)}
    fermion = basis.statistics is Statistics.FERMION
    summary_rows, occupation_rows = [], []
    for run_id, (beta, (v_id, v)) in enumerate(product(betas, enumerate(potentials))):
        params = EnsembleParams(beta)
        h_v = ManyBodyOperator(system.h0.matrix + lift_one_body(v.matrix, basis).matrix, basis.tag)
        solution = gibbs_state(h_v, params)
        s = entropy(solution.rho)
        energy = float(np.real(np.trace(solution.rho.matrix @ h_v.matrix)))
        gamma = one_rdm(solution.rho, basis)
        occupations = natural_spectrum(gamma).occupations
        summary_rows.append((run_id, beta, v_id, v.norm, solution.omega, s, energy, solution.log_z))
        occupation_rows.extend(
            (run_id, beta, orbital, float(x), float(min(x, 1 - x) if fermion else x))
            for orbital, x in enumerate(occupations)
        )
        dump_json(out / f"rdm_{run_id:03d}.json", {**rdm_to_json(gamma), "beta": beta, "run_id": run_id})
    write_csv(
        out / "gibbs_summary.csv",
        ["run_id", "beta", "potential_id", "potential_norm", "omega", "entropy", "energy", "log_z"],
        summary_rows,
        meta,
    )
    write_csv(
        out / "occupations.csv",
        ["run_id", "beta", "orbital", "occupation", "face_distance"],
        occupation_rows,
        meta,
    )
    print(f"gibbs: {len(summary_rows)} runs written to {out}")
    return 0


def cmd_invert(cfg, out: Path, seed) -> int:
    model = _model_from(cfg.get("model"), fallback_seed=seed)
    system = _build_system_checked(model)
    params = EnsembleParams(_betas_from(cfg)[0])
    target = _target_rdm(cfg.get("target"), model, seed)
    opts = _options_from(cfg)
    report = invert_potential(target, system, params, opts)
    dump_json(out / "inversion_report.json", inversion_report_to_json(report))
    write_csv(
        out / "newton_trace.csv",
        ["iteration", "g_value", "residual", "step_norm"],
        [(r.iteration, r.g_value, r.residual, r.step_norm) for r in report.trace],
        {"command": "invert", "config_hash": config_hash(cfg), "verdict": report.verdict.value},
    )
    print(
        f"invert: {report.verdict.value} after {report.iterations} iterations, "
        f"residual {report.residual:.3e}"
    )
    if report.verdict is InversionVerdict.CONVERGED:
        return 0
    if report.verdict is InversionVerdict.NON_REPRESENTABLE:
        return 3
    return 1


def cmd_functional(cfg, out: Path, seed) -> int:
    model = _model_from(cfg.get("model"), fallback_seed=seed)
    system = _build_system_checked(model)
    params = EnsembleParams(_betas_from(cfg)[0])
    meta = {"command": "functional", "config_hash": config_hash(cfg)}
    if "segment" in cfg:
        seg = cfg["segment"]
        if not isinstance(seg, dict):
            raise ConfigError("'segment' must be a JSON object")
        points = int(seg.get("points", 11))
        if points < 2:
            raise ConfigError("segment needs at least 2 points")
        start = _target_rdm(seg.get("from"), model, seed)
        stop = _target_rdm(seg.get("to"), model, None if seed is None else seed + 1)
        rows = []
        for lam in np.linspace(0.0, 1.0, points):
            gamma = OneRdm((1 - lam) * start.matrix + lam * stop.matrix)
            f_value, gradient = universal_functional(gamma, system, params)
            rows.append((float(lam), f_value, float(np.linalg.norm(gradient.matrix))))
        write_csv(out / "segment.csv", ["lambda", "f_value", "gradient_norm"], rows, meta)
        print(f"functional: segment scan of {points} points written to {out}")
        return 0
    if "targets" in cfg:
        targets = [_target_rdm(t, model, seed) for t in cfg["targets"]]
    elif "samples" in cfg:
        sample = cfg["samples"]
        count = int(sample.get("count", 10))
        rng = np.random.default_rng(sample.get("seed", seed))
        targets = [
            random_rdm(model.nb, model.n, model.statistics, interior=True, seed=rng)
            for _ in range(count)
        ]
    else:
        raise ConfigError("functional config needs 'segment', 'targets', or 'samples'")
    rows, gradients = [], []
    for index, gamma in enumerate(targets):
        report = invert_potential(gamma, system, params)
        if report.verdict is InversionVerdict.NON_REPRESENTABLE:
            raise NotRepresentableError(f"target {index} is not an interior 1RDM")
        if report.verdict is not InversionVerdict.CONVERGED:
            raise RdmftError(f"inversion of target {index} stopped at residual {report.residual:.3e}")
        rows.append((index, report.f_value, report.v_star.norm, report.iterations, report.residual))
        gradients.append(potential_to_json(report.gradient))
    write_csv(
        out / "functional_values.csv",
        ["index", "f_value", "v_star_norm", "iterations", "residual"],
        rows,
        meta,
    )
    dump_json(out / "gradients.json", {"format_version": 1, "gradients": gradients})
    print(f"functional: {len(rows)} evaluations written to {out}")
    return 0


def cmd_verify(cfg, out: Path, seed) -> int:
    checks = tuple(cfg.get("checks", ALL_CHECKS))
    systems_raw = cfg.get("systems")
    if systems_raw is None:
        systems = DEFAULT_SYSTEMS
    else:
        try:
            systems = tuple((int(nb), int(n), _statistics(s)) for nb, n, s in systems_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad systems grid: {exc}") from exc
    betas = tuple(_betas_from(cfg)) if ("beta" in cfg or "betas" in cfg) else DEFAULT_BETAS
    models_raw = cfg.get("models")
    if models_raw is None:
        models = DEFAULT_MODELS
    else:
        models = []
        for entry in models_raw:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ConfigError("each model needs a 'kind'")
            kind = entry["kind"]
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}")
            models.append((kind, {k: v for k, v in entry.items() if k != "kind"}))
        models = tuple(models)
    overrides = cfg.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'tolerances' must be a JSON object")
    allowed = {
        "v_scale", "separation", "midpoint", "fd_step", "gradient_tol", "convexity_slack",
        "coleman_tol", "injectivity_floor", "fractional_floor", "fractional_betas",
        "fractional_v_scale",
    }
    unknown = set(overrides) - allowed
    if unknown:
        raise ConfigError(f"unknown tolerance overrides: {sorted(unknown)}")
    if "fractional_betas" in overrides:
        overrides = {**overrides, "fractional_betas": tuple(overrides["fractional_betas"])}
    suite = SuiteConfig(
        checks=checks,
        systems=systems,
        betas=betas,
        models=models,
        seed=int(seed if seed is not None else cfg.get("seed", 2026)),
        trials=int(cfg.get("trials", 20)),
        overrides=overrides,
    )
    reports = run_suite(suite)
    resolved = {
        "checks": list(suite.checks),
        "systems": [[nb, n, s.value] for nb, n, s in suite.systems],
        "betas": list(suite.betas),
        "models": [{"kind": kind, **params} for kind, params in suite.models],
        "seed": suite.seed,
        "trials": suite.trials,
        "tolerances": {k: list(v) if isinstance(v, tuple) else v for k, v in suite.overrides.items()},
    }
    dump_json(out / "theorem_reports.json", suite_report_json(reports, resolved))
    write_csv(
        out / "verify_summary.csv",
        ["theorem_id", "nb", "n", "statistics", "beta", "model", "trials", "failures", "worst_margin"],
        [
            (
                r.theorem_id,
                r.config["nb"],
                r.config["n"],
                r.config["statistics"],
                r.config["beta"],
                r.config["model"]["kind"],
                r.trials,
                r.failures,
                "" if r.worst_margin is None else r.worst_margin,
            )
            for r in reports
        ],
        {"command": "verify", "config_hash": config_hash(resolved)},
    )
    print(f"{'check':24} {'system':10} {'beta':>6} {'model':16} {'fail':>5} {'worst margin':>14}")
    for r in reports:
        tag = f"({r.config['nb']},{r.config['n']},{r.config['statistics'][0].upper()})"
        worst = "n/a" if r.worst_margin is None else f"{r.worst_margin:+.3e}"
        print(
            f"{r.theorem_id:24} {tag:10} {r.config['beta']:>6g} "
            f"{r.config['model']['kind']:16} {r.failures:>5d} {worst:>14}"
        )
    failures = suite_failures(reports)
    print(f"verify: {len(reports)} checks, {failures} trial failures")
    return 1 if failures else 0


def cmd_polytope(cfg, out: Path, seed) -> int:
    statistics = _statistics(cfg.get("statistics", "fermion"))
    try:
        n_particles = int(cfg["n"])
    except KeyError:
        raise ConfigError("polytope config needs 'n'") from None
    if "occupations" in cfg:
        occupations = np.asarray(cfg["occupations"], dtype=float)
    elif "gamma" in cfg:
        try:
            gamma = OneRdm(matrix_from_json(cfg["gamma"]))
        except RdmftError as exc:
            raise ConfigError(f"bad gamma: {exc}") from exc
        occupations = natural_spectrum(gamma).occupations
    else:
        raise ConfigError("polytope config needs 'occupations' or 'gamma'")
    if statistics is Statistics.FERMION:
        decomposition = polytope_decompose(occupations, n_particles)
    else:
        decomposition = simplex_decompose(occupations, n_particles)
    meta = {"command": "polytope", "config_hash": config_hash(cfg)}
    write_csv(
        out / "decomposition.csv",
        ["term", "weight", "vertex"],
        [
            (i, mu, " ".join(str(x) for x in vertex))
            for i, (mu, vertex) in enumerate(decomposition.terms)
        ],
        meta,
    )
    nb = occupations.size
    if nb == 3:
        rows = [("input", *(float(x) / n_particles for x in occupations))]
        for i, (_, vertex) in enumerate(decomposition.terms):
            corner = np.zeros(3)
            for index in vertex:
                corner[index] += 1 / n_particles
            rows.append((f"vertex_{i}", *(float(x) for x in corner)))
        write_csv(out / "barycentric.csv", ["point", "b0", "b1", "b2"], rows, meta)
    print(
        f"polytope: {len(decomposition.terms)} terms, "
        f"reconstruction residual {decomposition.residual:.2e}"
    )
    return 0


_COMMANDS = {
    "gibbs": cmd_gibbs,
    "invert": cmd_invert,
    "functional": cmd_functional,
    "verify": cmd_verify,
    "polytope": cmd_polytope,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdmft",
        description="Finite-basis thermal 1RDM functional toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "gibbs": "thermal states, free energies, and occupation tables over a (beta, v) grid",
        "invert": "recover the potential generating a target 1RDM",
        "functional": "evaluate the universal functional and its gradient",
        "verify": "run seeded theorem-check campaigns",
        "polytope": "decompose occupations into polytope vertices",
    }
    for name, text in descriptions.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_json(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be a JSON object")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.get("seed")
        return _COMMANDS[args.command](cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotRepresentableError, InfeasibleOccupations) as exc:
        print(f"not representable: {exc}", file=sys.stderr)
        return 3
    except RdmftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
