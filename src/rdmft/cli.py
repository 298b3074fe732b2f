"""Command-line driver.

One JSON config per run; numeric tables land as CSV with a JSON
metadata sidecar, structured results as JSON.  Exit codes: 0 success,
1 verification or convergence failure, or a result that JSON cannot hold,
2 config error, 3 target not representable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from itertools import product
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .ensemble import (
    RDM_TRACE_TOL,
    EnsembleParams,
    OneRdm,
    entropy,
    face_distances,
    gibbs_occupations,
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
from .fock import ConfigurationBasis, ManyBodyOperator, Statistics, _as_square, lift_one_body
from .functional import (
    InversionOptions,
    InversionVerdict,
    IterationRecord,
    System,
    TracelessPotential,
    invert_potential,
    invert_potentials,
    require_converged,
)
from .models import ModelSpec, build_system
from .representability import polytope_decompose, random_rdm, simplex_decompose
from .serialize import (
    config_hash,
    dump_json,
    inversion_report_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    one_body_to_json,
    suite_report_json,
    write_csv,
)
from .verify import CheckConfig, SuiteConfig, _coeff_draw, run_suite, suite_failures


def _convert(hint, value, where: str):
    """A JSON value as the annotated type hint, or a ConfigError.

    Reads int, float, bool, str, dict, Statistics, X | None, tuples
    (tuple[X, ...] or fixed length) from JSON lists, and a float ndarray
    from a JSON list of numbers.  Integer fields take JSON integers only;
    float fields also take integers, and reject NaN and +-inf.
    """
    if get_origin(hint) is UnionType:
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        return None if value is None else _convert(inner, value, where)
    if get_origin(hint) is tuple and isinstance(value, list):
        args = get_args(hint)
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(_convert(item, x, where) for item, x in zip(items, value))
    elif hint is np.ndarray and isinstance(value, list) and all(type(x) in (int, float) for x in value):
        return np.array(value, dtype=float)
    elif hint is Statistics and value in ("fermion", "boson"):
        return Statistics(value)
    elif hint is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:  # false for NaN, +-inf and ints past the float range
            return float(value)
        raise ConfigError(f"{where} must be finite, got {value!r}")
    elif hint in (int, bool, str, dict) and type(value) is hint:
        return value
    if hint is Statistics:
        expected = "'fermion' or 'boson'"
    elif hint is np.ndarray:
        expected = "a list of numbers"
    else:
        expected = hint.__name__ if get_origin(hint) is None else str(hint)
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def _known(obj: dict, keys, what: str) -> None:
    """A ConfigError naming the keys of obj outside keys, if there are any."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")


def _fields_from(cls, obj, what: str) -> dict:
    """Keyword arguments of dataclass cls from a JSON object, each value
    read as its field's annotation; unknown keys are a ConfigError, and a
    null reads as an absent key."""
    obj = _convert(dict, obj, what)
    hints = get_type_hints(cls)
    _known(obj, {f.name for f in fields(cls)}, what)
    return {key: _convert(hints[key], value, f"{what} {key}") for key, value in obj.items() if value is not None}


def _get(obj: dict, key: str, hint, default):
    """obj[key] read as hint; an absent key or a null gives default."""
    return default if obj.get(key) is None else _convert(hint, obj[key], key)


def _system_from(cfg, seed) -> System:
    """The System of the config's model, whose seed defaults to the command's;
    a missing field or a model the library refuses is a ConfigError."""
    spec = {"seed": seed, **_fields_from(ModelSpec, cfg.get("model"), "model")}
    try:
        return build_system(ModelSpec(**spec))
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


def _betas_from(cfg) -> list[float]:
    if "betas" in cfg:
        betas = _convert(tuple[float, ...], cfg["betas"], "betas")
    elif "beta" in cfg:
        betas = (_convert(float, cfg["beta"], "beta"),)
    else:
        raise ConfigError("config needs 'beta' or 'betas'")
    if not betas:
        raise ConfigError("betas needs at least one beta")
    try:
        for b in betas:
            EnsembleParams(b)
    except RdmftError as exc:
        raise ConfigError(f"bad beta grid: {exc}") from exc
    return list(betas)


def _inversion_setup(cfg, seed):
    """The System and the one beta of a command that inverts targets."""
    system = _system_from(cfg, seed)
    if system.basis.nb < 2:
        raise ConfigError(f"inverting a target needs a potential space, nb >= 2; got nb={system.basis.nb}")
    betas = _betas_from(cfg)
    if len(betas) != 1:
        raise ConfigError(f"this command runs at one beta, got betas {betas}")
    params = EnsembleParams(betas[0])
    # a finite beta can still overflow beta times the spectrum of H0, where every inversion starts
    with np.errstate(over="ignore"):
        solution = gibbs_state(system.h0, params)
    if not (np.isfinite(solution.log_z) and np.isfinite(solution.omega)):
        raise ConfigError(f"beta {params.beta!r} overflows the Gibbs state of H0")
    return system, params


def _potentials_from(cfg, system, seed) -> list[TracelessPotential]:
    spec_obj = cfg.get("potentials")
    nb = system.basis.nb
    if spec_obj is None:
        return [TracelessPotential(np.zeros((nb, nb), dtype=complex))]
    if isinstance(spec_obj, dict):
        _known(spec_obj, ("count", "norm", "seed"), "potentials")
        count = _get(spec_obj, "count", int, 1)
        norm = _get(spec_obj, "norm", float, 1.0)
        if count < 1:
            raise ConfigError(f"potentials count must be at least 1, got {count}")
        if norm < 0:
            raise ConfigError(f"potentials norm must be non-negative, got {norm}")
        if nb < 2:
            raise ConfigError("random potentials need nb >= 2")
        rng = np.random.default_rng(_get(spec_obj, "seed", int, seed))
        return [system.pbasis.potential(_coeff_draw(rng, system.pbasis, norm)) for _ in range(count)]
    if isinstance(spec_obj, list):
        if not spec_obj:
            raise ConfigError("'potentials' list is empty")
        potentials = []
        for v_id, x in enumerate(spec_obj):
            try:
                potentials.append(TracelessPotential(_as_square(matrix_from_json(x), nb)))
            except RdmftError as exc:
                raise ConfigError(f"bad potential entry {v_id}: {exc}") from exc
        return potentials
    raise ConfigError("'potentials' must be an object or a list of matrices")


def _target_rdm(obj, basis: ConfigurationBasis, seed, label="target") -> OneRdm:
    """The 1RDM that obj describes; every error names it by label."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{label} must be a JSON object")
    _known(obj, ("matrix", "occupations", "sample"), label)
    if len(obj) > 1:
        raise ConfigError(f"{label} takes one of 'matrix', 'occupations' and 'sample', got {sorted(obj)}")
    try:
        if "matrix" in obj:
            gamma = OneRdm(matrix_from_json(obj["matrix"]))
        elif "occupations" in obj:
            occ = np.array(_convert(tuple[float, ...], obj["occupations"], "occupations"))
            if occ.size != basis.nb:
                raise ConfigError(f"occupations must have length nb={basis.nb}")
            gamma = OneRdm(np.diag(occ).astype(complex))
        elif "sample" in obj:
            sample = _convert(dict | None, obj["sample"], "sample") or {}
            _known(sample, ("interior", "seed"), "sample")
            interior, sample_seed = _get(sample, "interior", bool, True), _get(sample, "seed", int, seed)
            gamma = random_rdm(basis.nb, basis.n, basis.statistics, interior=interior, seed=sample_seed)
        else:
            raise ConfigError(f"{label} needs 'matrix', 'occupations', or 'sample'")
    except RdmftError as exc:
        raise ConfigError(f"bad {label}: {exc}") from exc
    if gamma.nb != basis.nb:
        raise ConfigError(f"{label} is {gamma.nb}x{gamma.nb}, model has nb={basis.nb}")
    if abs(gamma.trace - basis.n) > RDM_TRACE_TOL:
        raise ConfigError(f"{label} trace {gamma.trace} does not match n={basis.n}")
    return gamma


def _options_from(cfg, system) -> InversionOptions:
    try:
        opts = InversionOptions(**_fields_from(InversionOptions, cfg.get("options", {}), "inversion option"))
    except RdmftError as exc:
        raise ConfigError(f"bad inversion options: {exc}") from exc
    size = system.pbasis.size
    if opts.initial is not None and opts.initial.shape != (size,):
        raise ConfigError(
            f"inversion option initial must hold K = nb^2 - 1 = {size} coefficients, got {opts.initial.size}"
        )
    return opts


def cmd_gibbs(cfg, out: Path, seed) -> int:
    """thermal states, free energies, and occupation tables over a (beta, v) grid"""
    system = _system_from(cfg, seed)
    basis = system.basis
    betas = _betas_from(cfg)
    potentials = _potentials_from(cfg, system, seed)
    hamiltonians = []
    for v_id, v in enumerate(potentials):
        # a finite potential can still overflow in its lift, as a model's H0 can in build_system
        with np.errstate(over="ignore", invalid="ignore"):
            h_v = system.h0.matrix + lift_one_body(v.matrix, basis).matrix
        if not np.isfinite(h_v).all():
            raise ConfigError(f"potential {v_id} overflows the floats once lifted and added to H0")
        hamiltonians.append(ManyBodyOperator(h_v, basis.tag))
    meta = {"command": "gibbs", "config_hash": config_hash(cfg)}
    summary_rows, occupation_rows, rdms = [], [], []
    for run_id, (beta, (v_id, h_v)) in enumerate(product(betas, enumerate(hamiltonians))):
        # a finite beta can still overflow beta times the spectrum of H_v
        with np.errstate(over="ignore"):
            solution = gibbs_state(h_v, EnsembleParams(beta))
        if not (np.isfinite(solution.log_z) and np.isfinite(solution.omega)):
            raise ConfigError(f"beta {beta!r} overflows the Gibbs state of potential {v_id}")
        s = entropy(solution.rho)
        energy = float(np.real(np.trace(solution.rho.matrix @ h_v.matrix)))
        gamma = one_rdm(solution.rho, basis)
        occupations = gibbs_occupations(gamma, basis)
        summary_rows.append((run_id, beta, v_id, potentials[v_id].norm, solution.omega, s, energy, solution.log_z))
        distances = face_distances(occupations, basis.statistics)
        occupation_rows.extend(
            (run_id, beta, orbital, float(x), float(d)) for orbital, (x, d) in enumerate(zip(occupations, distances))
        )
        rdms.append({**one_body_to_json(gamma), "beta": beta, "run_id": run_id})
    # written once every run is checked, so that a refused grid leaves no file
    for rdm in rdms:
        dump_json(out / f"rdm_{rdm['run_id']:03d}.json", rdm)
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
    """recover the potential generating a target 1RDM"""
    system, params = _inversion_setup(cfg, seed)
    target = _target_rdm(cfg.get("target"), system.basis, seed)
    opts = _options_from(cfg, system)
    report = invert_potential(target, system, params, opts)
    dump_json(out / "inversion_report.json", inversion_report_to_json(report))
    write_csv(
        out / "newton_trace.csv",
        [f.name for f in fields(IterationRecord)],
        [astuple(r) for r in report.trace],
        {"command": "invert", "config_hash": config_hash(cfg), "verdict": report.verdict.value},
    )
    print(
        f"invert: {report.verdict.value} after {report.iterations} iterations ({report.jacobians} Jacobians), "
        f"residual {report.residual:.3e}"
    )
    return {InversionVerdict.CONVERGED: 0, InversionVerdict.NON_REPRESENTABLE: 3}.get(report.verdict, 1)


def cmd_functional(cfg, out: Path, seed) -> int:
    """evaluate the universal functional and its gradient"""
    system, params = _inversion_setup(cfg, seed)
    basis = system.basis
    if "segment" in cfg:
        seg = _convert(dict, cfg["segment"], "segment")
        _known(seg, ("from", "to", "points"), "segment")
        points = _get(seg, "points", int, 11)
        if points < 2:
            raise ConfigError("segment needs at least 2 points")
        start = _target_rdm(seg.get("from"), basis, seed)
        stop = _target_rdm(seg.get("to"), basis, seed + 1)
        lambdas = np.linspace(0.0, 1.0, points)
        targets = [OneRdm((1 - lam) * start.matrix + lam * stop.matrix) for lam in lambdas]
    elif "targets" in cfg:
        entries = _convert(tuple[dict, ...], cfg["targets"], "targets")
        if not entries:
            raise ConfigError("'targets' list is empty")
        targets = [_target_rdm(t, basis, seed, f"target entry {k}") for k, t in enumerate(entries)]
    elif "samples" in cfg:
        sample = _convert(dict, cfg["samples"], "samples")
        _known(sample, ("count", "seed"), "samples")
        count = _get(sample, "count", int, 10)
        if count < 1:
            raise ConfigError(f"samples count must be at least 1, got {count}")
        rng = np.random.default_rng(_get(sample, "seed", int, seed))
        targets = [random_rdm(basis.nb, basis.n, basis.statistics, interior=True, seed=rng) for _ in range(count)]
    else:
        raise ConfigError("functional config needs 'segment', 'targets', or 'samples'")
    reports = invert_potentials(targets, system, params)
    for index, (gamma, report) in enumerate(zip(targets, reports)):
        try:
            require_converged(report, gamma, system)
        except RdmftError as exc:
            raise type(exc)(f"target {index}: {exc}") from exc
    meta = {"command": "functional", "config_hash": config_hash(cfg)}
    if "segment" in cfg:
        rows = [(float(lam), r.f_value, r.gradient.norm) for lam, r in zip(lambdas, reports)]
        write_csv(out / "segment.csv", ["lambda", "f_value", "gradient_norm"], rows, meta)
        print(f"functional: segment scan of {points} points written to {out}")
        return 0
    write_csv(
        out / "functional_values.csv",
        ["index", "f_value", "v_star_norm", "iterations", "residual"],
        [(index, r.f_value, r.v_star.norm, r.iterations, r.residual) for index, r in enumerate(reports)],
        meta,
    )
    gradients = [one_body_to_json(r.gradient) for r in reports]
    dump_json(out / "gradients.json", {"format_version": 1, "gradients": gradients})
    print(f"functional: {len(reports)} evaluations written to {out}")
    return 0


def cmd_verify(cfg, out: Path, seed) -> int:
    """run seeded theorem-check campaigns"""
    hints = get_type_hints(SuiteConfig)
    grid = {key: _convert(hints[key], cfg[key], key) for key in ("checks", "systems", "trials") if key in cfg}
    if "beta" in cfg or "betas" in cfg:
        grid["betas"] = tuple(_betas_from(cfg))
    if "models" in cfg:
        entries = _convert(tuple[dict, ...], cfg["models"], "models")
        grid["models"] = tuple(_model_entry(entry) for entry in entries)
    if "tolerances" in cfg:
        grid["overrides"] = _fields_from(CheckConfig, cfg["tolerances"], "tolerance")
    suite = SuiteConfig(**grid, seed=seed)
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
    rows = [
        (
            r.theorem_id,
            r.config["nb"],
            r.config["n"],
            r.config["statistics"],
            r.config["beta"],
            r.config["model"]["kind"],
            r.trials,
            r.failures,
            r.worst_margin,
        )
        for r in reports
    ]
    write_csv(
        out / "verify_summary.csv",
        ["theorem_id", "nb", "n", "statistics", "beta", "model", "trials", "failures", "worst_margin"],
        rows,  # a worst margin of None writes as an empty cell
        {"command": "verify", "config_hash": config_hash(resolved)},
    )
    print(f"{'check':24} {'system':10} {'beta':>6} {'model':16} {'fail':>5} {'worst margin':>14}")
    for theorem_id, nb, n, statistics, beta, kind, _, failures, worst in rows:
        tag = f"({nb},{n},{statistics[0].upper()})"
        worst = "n/a" if worst is None else f"{worst:+.3e}"
        print(f"{theorem_id:24} {tag:10} {beta:>6g} {kind:16} {failures:>5d} {worst:>14}")
    failures = suite_failures(reports)
    print(f"verify: {len(reports)} checks, {failures} trial failures")
    return 1 if failures else 0


def cmd_polytope(cfg, out: Path, seed) -> int:
    """decompose occupations into polytope vertices"""
    statistics = _convert(Statistics, cfg.get("statistics", "fermion"), "statistics")
    if "n" not in cfg:
        raise ConfigError("polytope config needs 'n'")
    n_particles = _convert(int, cfg["n"], "n")
    if n_particles < 1:
        raise ConfigError(f"n must be at least 1, got {n_particles}")
    spectrum = None
    if "occupations" in cfg:
        occupations = np.array(_convert(tuple[float, ...], cfg["occupations"], "occupations"))
        if not occupations.size:
            raise ConfigError("occupations is empty")
    elif "gamma" in cfg:
        try:
            gamma = OneRdm(matrix_from_json(cfg["gamma"]))
        except RdmftError as exc:
            raise ConfigError(f"bad gamma: {exc}") from exc
        spectrum = natural_spectrum(gamma)
        occupations = spectrum.occupations
    else:
        raise ConfigError("polytope config needs 'occupations' or 'gamma'")
    if statistics is Statistics.FERMION:
        if n_particles > occupations.size:
            raise ConfigError(f"{n_particles} fermions need at least as many orbitals, got {occupations.size}")
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
    if spectrum is not None:
        # column k of the orbitals is the natural orbital that vertex index k counts
        orbitals = {"occupations": occupations, "orbitals": matrix_to_json(spectrum.orbitals)}
        dump_json(out / "natural_orbitals.json", orbitals)
    if occupations.size == 3:
        rows = [("input", *(float(x) / n_particles for x in occupations))]
        for i, (_, vertex) in enumerate(decomposition.terms):
            corner = np.zeros(3)
            for index in vertex:
                corner[index] += 1 / n_particles
            rows.append((f"vertex_{i}", *(float(x) for x in corner)))
        write_csv(out / "barycentric.csv", ["point", "b0", "b1", "b2"], rows, meta)
    print(f"polytope: {len(decomposition.terms)} terms, reconstruction residual {decomposition.residual:.2e}")
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
    for name, (command, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
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
        _known(cfg, keys | {"seed"}, f"{args.command} config")
        # a null reads as an absent key
        cfg = {key: value for key, value in cfg.items() if value is not None}
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # --out names a file, or a directory it cannot create
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        seed = args.seed if args.seed is not None else _get(cfg, "seed", int, SuiteConfig.seed)
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
