"""Command-line driver.

One JSON config per run; numeric tables land as CSV with a JSON
metadata sidecar, structured results as JSON.  Exit codes: 0 success,
1 verification or convergence failure, 2 config error, 3 target not
representable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .ensemble import (
    EnsembleParams,
    OneRdm,
    entropy,
    face_distances,
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
    converged_inversion,
    invert_potential,
    universal_functional,
)
from .models import ModelSpec, build_system
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
from .verify import CheckConfig, SuiteConfig, run_suite, suite_failures


def _convert(hint, value, where: str):
    """A JSON value as the annotated type hint, or a ConfigError.

    Reads int, float, bool, str, dict, Statistics, X | None and tuples
    (tuple[X, ...] or fixed length) from JSON lists.  Integer fields take
    JSON integers only; float fields also take integers.
    """
    if get_origin(hint) is UnionType:
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        return None if value is None else _convert(inner, value, where)
    if get_origin(hint) is tuple and isinstance(value, list):
        args = get_args(hint)
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(_convert(item, x, where) for item, x in zip(items, value))
    elif hint is Statistics and value in ("fermion", "boson"):
        return Statistics(value)
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif hint in (int, bool, str, dict) and type(value) is hint:
        return value
    if hint is Statistics:
        expected = "'fermion' or 'boson'"
    else:
        expected = hint.__name__ if get_origin(hint) is None else str(hint)
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def _fields_from(cls, obj, what: str) -> dict:
    """Keyword arguments of dataclass cls from a JSON object, each value
    read as its field's annotation; unknown keys are a ConfigError, and a
    null reads as an absent key."""
    obj = _convert(dict, obj, what)
    hints = get_type_hints(cls)
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    return {key: _convert(hints[key], value, f"{what} {key}") for key, value in obj.items() if value is not None}


def _get(obj: dict, key: str, hint, default):
    """obj[key] read as hint; an absent key or a null gives default."""
    return default if obj.get(key) is None else _convert(hint, obj[key], key)


def _model_from(obj, fallback_seed=None) -> ModelSpec:
    spec = {"seed": fallback_seed, **_fields_from(ModelSpec, obj, "model")}
    try:
        return ModelSpec(**spec)
    except TypeError as exc:  # a required field is missing
        raise ConfigError(f"model config: {exc}") from None
    except RdmftError as exc:
        raise ConfigError(str(exc)) from exc


def _model_entry(entry) -> tuple[str, dict]:
    """A verify 'models' entry as its kind and the parameters it sets."""
    params = _fields_from(ModelSpec, entry, "model")
    if "kind" not in params:
        raise ConfigError("each model needs a 'kind'")
    return params.pop("kind"), params


def _build_system_checked(model: ModelSpec):
    try:
        return build_system(model)
    except RdmftError as exc:
        raise ConfigError(str(exc)) from exc


def _betas_from(cfg) -> list[float]:
    if "betas" in cfg:
        betas = _convert(tuple[float, ...], cfg["betas"], "betas")
    elif "beta" in cfg:
        betas = (_convert(float, cfg["beta"], "beta"),)
    else:
        raise ConfigError("config needs 'beta' or 'betas'")
    try:
        for b in betas:
            EnsembleParams(b)
    except RdmftError as exc:
        raise ConfigError(f"bad beta grid: {exc}") from exc
    return list(betas)


def _params_from(cfg) -> EnsembleParams:
    """The one temperature of a command that runs at a single beta."""
    betas = _betas_from(cfg)
    if len(betas) != 1:
        raise ConfigError(f"this command runs at one beta, got betas {betas}")
    return EnsembleParams(betas[0])


def _potentials_from(cfg, system, seed) -> list[TracelessPotential]:
    spec_obj = cfg.get("potentials")
    nb = system.basis.nb
    if spec_obj is None:
        return [TracelessPotential(np.zeros((nb, nb), dtype=complex))]
    if isinstance(spec_obj, dict):
        count = _get(spec_obj, "count", int, 1)
        norm = _get(spec_obj, "norm", float, 1.0)
        if nb < 2:
            raise ConfigError("random potentials need nb >= 2")
        pbasis = system.pbasis
        rng = np.random.default_rng(_get(spec_obj, "seed", int | None, seed))
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
            occ = np.array(_convert(tuple[float, ...], obj["occupations"], "occupations"))
            if occ.size != model.nb:
                raise ConfigError(f"occupations must have length nb={model.nb}")
            gamma = OneRdm(np.diag(occ).astype(complex))
        elif "sample" in obj:
            sample = _convert(dict | None, obj["sample"], "sample") or {}
            gamma = random_rdm(
                model.nb,
                model.n,
                model.statistics,
                interior=_get(sample, "interior", bool, True),
                seed=_get(sample, "seed", int | None, seed),
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
    try:
        return InversionOptions(**_fields_from(InversionOptions, cfg.get("options", {}), "inversion option"))
    except RdmftError as exc:
        raise ConfigError(f"bad inversion options: {exc}") from exc


def cmd_gibbs(cfg, out: Path, seed) -> int:
    model = _model_from(cfg.get("model"), fallback_seed=seed)
    system = _build_system_checked(model)
    basis = system.basis
    betas = _betas_from(cfg)
    potentials = _potentials_from(cfg, system, seed)
    meta = {"command": "gibbs", "config_hash": config_hash(cfg)}
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
        distances = face_distances(occupations, basis.statistics)
        occupation_rows.extend(
            (run_id, beta, orbital, float(x), float(d)) for orbital, (x, d) in enumerate(zip(occupations, distances))
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
    params = _params_from(cfg)
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
    params = _params_from(cfg)
    meta = {"command": "functional", "config_hash": config_hash(cfg)}
    if "segment" in cfg:
        seg = _convert(dict, cfg["segment"], "segment")
        points = _get(seg, "points", int, 11)
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
        entries = _convert(tuple[dict, ...], cfg["targets"], "targets")
        targets = [_target_rdm(t, model, seed) for t in entries]
    elif "samples" in cfg:
        sample = _convert(dict, cfg["samples"], "samples")
        count = _get(sample, "count", int, 10)
        rng = np.random.default_rng(_get(sample, "seed", int | None, seed))
        targets = [
            random_rdm(model.nb, model.n, model.statistics, interior=True, seed=rng)
            for _ in range(count)
        ]
    else:
        raise ConfigError("functional config needs 'segment', 'targets', or 'samples'")
    rows, gradients = [], []
    for index, gamma in enumerate(targets):
        try:
            report = converged_inversion(gamma, system, params)
        except RdmftError as exc:
            raise type(exc)(f"target {index}: {exc}") from exc
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
    hints = get_type_hints(SuiteConfig)
    grid = {key: _convert(hints[key], cfg[key], key) for key in ("checks", "systems", "trials") if key in cfg}
    if "beta" in cfg or "betas" in cfg:
        grid["betas"] = tuple(_betas_from(cfg))
    if "models" in cfg:
        entries = _convert(tuple[dict, ...], cfg["models"], "models")
        grid["models"] = tuple(_model_entry(entry) for entry in entries)
    if "tolerances" in cfg:
        grid["overrides"] = _fields_from(CheckConfig, cfg["tolerances"], "tolerance")
    if seed is not None:
        grid["seed"] = seed
    suite = SuiteConfig(**grid)
    reports = run_suite(suite)
    resolved = {
        "checks": list(suite.checks),
        "systems": [[nb, n, s.value] for nb, n, s in suite.systems],
        "betas": list(suite.betas),
        "models": [{"kind": kind, **params} for kind, params in suite.models],
        "seed": suite.seed,
        "trials": suite.trials,
        "tolerances": suite.overrides,
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
    statistics = _convert(Statistics, cfg.get("statistics", "fermion"), "statistics")
    if "n" not in cfg:
        raise ConfigError("polytope config needs 'n'")
    n_particles = _convert(int, cfg["n"], "n")
    if "occupations" in cfg:
        occupations = np.array(_convert(tuple[float, ...], cfg["occupations"], "occupations"))
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


# each command with the top-level config keys it reads besides "seed"
_COMMANDS = {
    "gibbs": (cmd_gibbs, {"model", "beta", "betas", "potentials"}),
    "invert": (cmd_invert, {"model", "beta", "betas", "target", "options"}),
    "functional": (cmd_functional, {"model", "beta", "betas", "segment", "targets", "samples"}),
    "verify": (cmd_verify, {"checks", "systems", "trials", "beta", "betas", "models", "tolerances"}),
    "polytope": (cmd_polytope, {"statistics", "n", "occupations", "gamma"}),
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
        command, keys = _COMMANDS[args.command]
        unknown = sorted(set(cfg) - keys - {"seed"})
        if unknown:
            raise ConfigError(f"unknown {args.command} config keys: {unknown}")
        # a null reads as an absent key
        cfg = {key: value for key, value in cfg.items() if value is not None}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else _convert(int | None, cfg.get("seed"), "seed")
        return command(cfg, out, seed)
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
