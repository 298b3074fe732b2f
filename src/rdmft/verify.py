"""Seeded numerical certification of the structural theorems.

Each check runs randomized trials against one model system and reports
signed margins: positive means the claimed inequality held with room to
spare.  Strict claims fail at margin <= 0; claims carrying an explicit
tolerance fail below it.  Identical config plus seed reproduces the
identical report.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .ensemble import (
    DensityOperator,
    EnsembleParams,
    OneRdm,
    entropy,
    gibbs_state,
    helmholtz,
    natural_spectrum,
    one_rdm,
)
from .errors import ConfigError, InvalidArguments, RdmftError
from .fock import ManyBodyOperator, Statistics, build_basis, lift_one_body
from .functional import (
    InversionOptions,
    InversionReport,
    PotentialBasis,
    System,
    invert_potentials,
    omega_of_v,
    require_converged,
)
from .models import ModelSpec, build_system
from .representability import (
    _haar_unitary,
    coleman_bosonic,
    coleman_fermionic,
    random_rdm,
)

ALL_CHECKS = (
    "omega_concavity",
    "injectivity",
    "entropy_concavity",
    "f_convexity",
    "gradient",
    "coleman",
    "fractional_occupations",
    "gibbs_minimality",
)

# fixed stream tags so each check owns an independent substream per seed
_STREAM = {name: i + 1 for i, name in enumerate(ALL_CHECKS)}


@dataclass(frozen=True)
class CheckConfig:
    """One check campaign: a model system, a temperature, and knobs."""

    model: ModelSpec
    beta: float = 1.0
    seed: int = 0
    trials: int = 20
    v_scale: float = 1.0
    separation: float = 0.1
    midpoint: bool = False
    fd_step: float = 1e-5
    gradient_tol: float = 1e-5
    convexity_slack: float = 1e-8
    coleman_tol: float = 1e-10
    injectivity_floor: float = 1e-10
    fractional_floor: float = 1e-12
    fractional_betas: tuple[float, ...] = (0.1, 1.0, 10.0)
    fractional_v_scale: float = 0.3

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidArguments(f"trials must be at least 1, got {self.trials}")
        for name in ("fd_step", "v_scale"):
            value = getattr(self, name)
            if not 0.0 < value < float("inf"):
                raise InvalidArguments(f"{name} must be positive and finite, got {value}")
        if not self.fractional_betas:
            raise InvalidArguments("fractional_betas needs at least one beta")
        try:
            for beta in self.fractional_betas:
                EnsembleParams(beta)
        except InvalidArguments as exc:
            raise InvalidArguments(f"fractional_betas: {exc}") from None

    def describe(self) -> dict:
        m = self.model
        return {
            "nb": m.nb,
            "n": m.n,
            "statistics": m.statistics.value,
            "beta": self.beta,
            "seed": self.seed,
            "model": {
                "kind": m.kind,
                "h_scale": m.h_scale,
                "w_norm": m.w_norm,
                "u": m.u,
                "t_hop": m.t_hop,
                "seed": m.seed,
            },
        }


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one check: trial count, failures, worst signed margin."""

    theorem_id: str
    trials: int
    failures: int
    worst_margin: float | None
    config: dict
    details: tuple[dict, ...]
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _rng(config: CheckConfig, check: str) -> np.random.Generator:
    return np.random.default_rng([_STREAM[check], config.seed])


def _coeff_draw(rng: np.random.Generator, pbasis: PotentialBasis, norm: float) -> np.ndarray:
    c = rng.normal(size=pbasis.size)
    length = np.linalg.norm(c)
    return c * (norm / length) if length > 0 else c


def _separated_coeff_pair(rng, pbasis, norm, separation):
    for _ in range(1000):
        c1 = _coeff_draw(rng, pbasis, norm)
        c2 = _coeff_draw(rng, pbasis, norm)
        if np.linalg.norm(c1 - c2) >= separation:
            return c1, c2
    raise RdmftError(f"could not draw potentials separated by {separation}")


def _mix_parameter(rng: np.random.Generator, config: CheckConfig) -> float:
    return 0.5 if config.midpoint else float(rng.uniform(0.1, 0.9))


@dataclass(frozen=True)
class _Inversions:
    """What a trial hands back when its margin needs the functional at some
    targets: each target is inverted from the matching row of starts, and
    finish maps their converged reports, in target order, to the margin or
    to a further _Inversions for the next round."""

    targets: list[OneRdm]
    starts: np.ndarray
    finish: Callable[[list[InversionReport]], float | _Inversions]


def _campaign(
    check: str, config: CheckConfig, trial, fails=lambda m: m <= 0, notes="", system: System | None = None
) -> TheoremReport:
    """Run config.trials trials of one check on its own substream.

    trial(rng, k, record) fills in the fields of record, which starts as
    {"trial": k}, and returns the signed margin, or _Inversions for it.
    Once all trials have drawn their inputs in trial order, the campaign
    runs in rounds: each inverts the targets of every pending _Inversions
    on system at config.beta in one invert_potentials call, and hands each
    trial its reports.  A report is the same bits alone and in any batch,
    so the rounds change only the batching.  fails(margin) says whether
    the claim broke.  A trial whose computation raises RdmftError, or one
    of whose targets does not converge, fails with no margin and the
    error's text.
    """
    rng = _rng(config, check)
    records = [{"trial": k} for k in range(config.trials)]
    outcomes = []
    for k, record in enumerate(records):
        try:
            outcomes.append(trial(rng, k, record))
        except RdmftError as exc:
            outcomes.append(exc)
    while pending := [k for k, outcome in enumerate(outcomes) if isinstance(outcome, _Inversions)]:
        requests = [outcomes[k] for k in pending]
        reports = invert_potentials(
            [target for request in requests for target in request.targets],
            system,
            EnsembleParams(config.beta),
            InversionOptions(initial=np.concatenate([request.starts for request in requests])),
        )
        for k, request in zip(pending, requests):
            mine, reports = reports[: len(request.targets)], reports[len(request.targets) :]
            try:
                outcomes[k] = request.finish(
                    [require_converged(report, target, system) for report, target in zip(mine, request.targets)]
                )
            except RdmftError as exc:
                outcomes[k] = exc
    margins, failures = [], 0
    for record, outcome in zip(records, outcomes):
        if isinstance(outcome, RdmftError):
            record.update(margin=None, error=str(outcome))
            failures += 1
            continue
        record["margin"] = float(outcome)
        margins.append(outcome)
        if fails(outcome):
            failures += 1
    return TheoremReport(
        theorem_id=check,
        trials=len(records),
        failures=failures,
        worst_margin=float(min(margins)) if margins else None,
        config=config.describe(),
        details=tuple(records),
        notes=notes,
    )


def check_omega_concavity(config: CheckConfig) -> TheoremReport:
    """Strict concavity of the potential-to-free-energy map on chords with
    a minimum endpoint separation."""
    system = build_system(config.model)
    params = EnsembleParams(config.beta)
    pbasis = system.pbasis

    def trial(rng, k, record):
        c1, c2 = _separated_coeff_pair(rng, pbasis, config.v_scale, config.separation)
        t = record["t"] = _mix_parameter(rng, config)
        omega_1, _ = omega_of_v(pbasis.potential(c1), system, params)
        omega_2, _ = omega_of_v(pbasis.potential(c2), system, params)
        omega_mix, _ = omega_of_v(pbasis.potential(t * c1 + (1 - t) * c2), system, params)
        return omega_mix - t * omega_1 - (1 - t) * omega_2

    return _campaign("omega_concavity", config, trial)


def check_injectivity(config: CheckConfig) -> TheoremReport:
    """Distinct potentials produce distinct Gibbs 1RDMs."""
    system = build_system(config.model)
    params = EnsembleParams(config.beta)
    pbasis = system.pbasis

    def trial(rng, k, record):
        c1, c2 = _separated_coeff_pair(rng, pbasis, config.v_scale, config.separation)
        _, gamma_1 = omega_of_v(pbasis.potential(c1), system, params)
        _, gamma_2 = omega_of_v(pbasis.potential(c2), system, params)
        distance = record["rdm_distance"] = float(np.linalg.norm(gamma_1.matrix - gamma_2.matrix))
        return distance - config.injectivity_floor

    return _campaign("injectivity", config, trial)


def _random_density(rng: np.random.Generator, dim: int, tag: str) -> DensityOperator:
    w = rng.dirichlet(np.ones(dim))
    q = _haar_unitary(rng, dim)
    m = (q * w) @ q.conj().T
    return DensityOperator((m + m.conj().T) / 2, tag)


def check_entropy_concavity(config: CheckConfig) -> TheoremReport:
    """Strict concavity of the von Neumann entropy on separated pairs of
    random full-rank density operators."""
    basis = build_system(config.model).basis
    dim = len(basis.states)

    def trial(rng, k, record):
        rho_1 = rho_2 = None
        for _ in range(1000):
            rho_1 = _random_density(rng, dim, basis.tag)
            rho_2 = _random_density(rng, dim, basis.tag)
            if np.linalg.norm(rho_1.matrix - rho_2.matrix) >= config.separation:
                break
        t = record["t"] = _mix_parameter(rng, config)
        mixed = DensityOperator(t * rho_1.matrix + (1 - t) * rho_2.matrix, basis.tag)
        return entropy(mixed) - t * entropy(rho_1) - (1 - t) * entropy(rho_2)

    return _campaign("entropy_concavity", config, trial)


def check_f_convexity(config: CheckConfig) -> TheoremReport:
    """Convexity of the universal functional along random interior
    segments, with slack for the two inversion tolerances."""
    m = config.model
    system = build_system(m)
    cold = np.zeros((3, system.pbasis.size))

    def trial(rng, k, record):
        gamma_0 = random_rdm(m.nb, m.n, m.statistics, interior=True, seed=rng)
        gamma_1 = random_rdm(m.nb, m.n, m.statistics, interior=True, seed=rng)
        t = record["t"] = _mix_parameter(rng, config)
        mixed = OneRdm(t * gamma_0.matrix + (1 - t) * gamma_1.matrix)
        return _Inversions([gamma_0, gamma_1, mixed], cold, lambda r: t * r[0].f_value + (1 - t) * r[1].f_value - r[2].f_value)

    return _campaign(
        "f_convexity", config, trial, fails=lambda margin: margin < -config.convexity_slack, system=system
    )


def check_gradient(config: CheckConfig) -> TheoremReport:
    """Central differences of the functional along orthonormal traceless
    directions against the recovered potential: round 1 inverts gamma from
    v = 0, round 2 its +eps and -eps neighbours warm-started at its v*.  A
    base that fails has drawn its directions all the same (neither the
    default grid nor perfbench's pinned one has such a failure)."""
    m = config.model
    system = build_system(m)
    pbasis = system.pbasis
    eps = config.fd_step
    cold = np.zeros((1, pbasis.size))

    def trial(rng, k, record):
        gamma = random_rdm(m.nb, m.n, m.statistics, interior=True, seed=rng)
        directions = np.linalg.qr(rng.normal(size=(pbasis.size, 5)))[0].T
        neighbours = [OneRdm(gamma.matrix + sign * eps * pbasis.assemble(d)) for d in directions for sign in (1, -1)]

        def differentiate(base):
            cv = pbasis.coefficients(base[0].v_star)

            def finish(reports):
                worst_dev = 0.0
                for d, plus, minus in zip(directions, reports[0::2], reports[1::2]):
                    fd = (plus.f_value - minus.f_value) / (2 * eps)
                    exact = -float(np.dot(cv, d))
                    worst_dev = max(worst_dev, abs(fd - exact) / max(1.0, float(np.linalg.norm(cv))))
                record["max_rel_dev"] = float(worst_dev)
                return config.gradient_tol - worst_dev

            return _Inversions(neighbours, np.tile(cv, (len(neighbours), 1)), finish)

        return _Inversions([gamma], cold, differentiate)

    notes = "a well-defined derivative also certifies that the subgradient set is a single element"
    return _campaign("gradient", config, trial, fails=lambda margin: margin < 0, notes=notes, system=system)


def _boundary_occupations(rng, nb, n, statistics, variant):
    if variant == "zero_pinned":
        if statistics is Statistics.FERMION and nb - 1 == n:
            rest = np.ones(nb - 1)
        else:
            for _ in range(1000):
                rest = rng.dirichlet(np.ones(nb - 1)) * n
                if statistics is Statistics.BOSON or rest.max() < 1:
                    break
            else:
                rest = np.ones(nb - 1) * (n / (nb - 1))
        occ = np.concatenate([[0.0], rest])
    elif variant == "one_pinned":
        if n == 1:
            rest = np.zeros(nb - 1)
        else:
            for _ in range(1000):
                rest = rng.dirichlet(np.ones(nb - 1)) * (n - 1)
                if rest.max() < 1:
                    break
            else:
                rest = np.ones(nb - 1) * ((n - 1) / (nb - 1))
        occ = np.concatenate([[1.0], rest])
    elif variant == "idempotent":
        occ = np.zeros(nb)
        occ[rng.permutation(nb)[:n]] = 1.0
    else:  # condensate
        occ = np.zeros(nb)
        occ[rng.integers(nb)] = float(n)
    return occ[rng.permutation(nb)]


def check_coleman(config: CheckConfig) -> TheoremReport:
    """Reconstruction of interior and boundary 1RDMs by explicit density
    operators; every output must be a valid state with the right 1RDM."""
    m = config.model
    basis = build_system(m).basis
    construct = coleman_fermionic if m.statistics is Statistics.FERMION else coleman_bosonic
    if m.statistics is Statistics.FERMION:
        variants = ("interior", "zero_pinned", "one_pinned", "idempotent")
    else:
        variants = ("interior", "zero_pinned", "condensate")

    def trial(rng, k, record):
        variant = record["variant"] = variants[k % len(variants)]
        if variant == "interior":
            gamma = random_rdm(m.nb, m.n, m.statistics, interior=True, seed=rng)
        else:
            occ = _boundary_occupations(rng, m.nb, m.n, m.statistics, variant)
            q = _haar_unitary(rng, m.nb)
            g = (q * occ) @ q.conj().T
            gamma = OneRdm((g + g.conj().T) / 2)
        rho = construct(gamma, basis)
        err = record["error_norm"] = float(np.linalg.norm(one_rdm(rho, basis).matrix - gamma.matrix))
        return config.coleman_tol - err

    return _campaign("coleman", config, trial, fails=lambda margin: margin < 0)


def check_fractional_occupations(config: CheckConfig) -> TheoremReport:
    """Gibbs 1RDMs keep every natural occupation strictly off the polytope
    faces across a temperature sweep."""
    m = config.model
    system = build_system(m)
    pbasis = system.pbasis

    def trial(rng, k, record):
        beta = record["beta"] = config.fractional_betas[k % len(config.fractional_betas)]
        v = pbasis.potential(_coeff_draw(rng, pbasis, config.fractional_v_scale))
        _, gamma = omega_of_v(v, system, EnsembleParams(beta))
        occ = natural_spectrum(gamma).occupations
        lowest = record["min_occupation"] = float(occ.min())
        head = float(1 - occ.max()) if m.statistics is Statistics.FERMION else np.inf
        return min(lowest, head) - config.fractional_floor

    return _campaign("fractional_occupations", config, trial)


def check_gibbs_minimality(config: CheckConfig) -> TheoremReport:
    """The Gibbs state strictly beats every competitor density operator in
    the free-energy objective of its own Hamiltonian."""
    system = build_system(config.model)
    params = EnsembleParams(config.beta)
    pbasis = system.pbasis
    basis = system.basis
    dim = len(basis.states)

    def trial(rng, k, record):
        v = pbasis.potential(_coeff_draw(rng, pbasis, config.v_scale))
        h_v = ManyBodyOperator(system.h0.matrix + lift_one_body(v.matrix, basis).matrix, basis.tag)
        gibbs = gibbs_state(h_v, params)
        base = helmholtz(gibbs.rho, h_v, params)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        competitors = {
            "mixed_1pct": DensityOperator(
                0.99 * gibbs.rho.matrix + 0.01 * np.outer(psi, psi.conj()), basis.tag
            ),
            "maximally_mixed": DensityOperator(np.eye(dim) / dim, basis.tag),
            "random_state": _random_density(rng, dim, basis.tag),
        }
        gaps = {name: helmholtz(rho, h_v, params) - base for name, rho in competitors.items()}
        record.update((f"gap_{name}", float(gap)) for name, gap in gaps.items())
        return min(gaps.values())

    return _campaign("gibbs_minimality", config, trial)


CHECK_REGISTRY = {
    "omega_concavity": check_omega_concavity,
    "injectivity": check_injectivity,
    "entropy_concavity": check_entropy_concavity,
    "f_convexity": check_f_convexity,
    "gradient": check_gradient,
    "coleman": check_coleman,
    "fractional_occupations": check_fractional_occupations,
    "gibbs_minimality": check_gibbs_minimality,
}

DEFAULT_SYSTEMS = (
    (3, 2, Statistics.FERMION),
    (4, 2, Statistics.FERMION),
    (4, 3, Statistics.FERMION),
    (3, 2, Statistics.BOSON),
    (2, 3, Statistics.BOSON),
)
DEFAULT_BETAS = (0.5, 1.0, 5.0, 50.0)
DEFAULT_MODELS = (
    ("zero", {}),
    ("random_full", {"seed": 11, "h_scale": 1.0, "w_norm": 1.0}),
    # t/U = 1/8: keeps the one-body gap under ~2.7 so occupations at
    # beta = 10 stay clear of the 1e-12 fractional floor
    ("hubbard_ring", {"u": 4.0, "t_hop": 0.5}),
)


@dataclass(frozen=True)
class SuiteConfig:
    """A grid of systems, temperatures, and models crossed with checks."""

    checks: tuple[str, ...] = ALL_CHECKS
    systems: tuple[tuple[int, int, Statistics], ...] = DEFAULT_SYSTEMS
    betas: tuple[float, ...] = DEFAULT_BETAS
    models: tuple[tuple[str, dict], ...] = DEFAULT_MODELS
    seed: int = 2026
    trials: int = 20
    overrides: dict = field(default_factory=dict)


def run_suite(config: SuiteConfig) -> list[TheoremReport]:
    """All selected checks over the whole grid, in deterministic order.

    Every grid point is built, and so validated, before the first check
    runs: each system needs a configuration basis and nb >= 2, so that it
    has a potential space.
    """
    for axis in ("checks", "systems", "betas", "models"):
        if not getattr(config, axis):
            raise ConfigError(f"no {axis} selected")
    unknown = [c for c in config.checks if c not in CHECK_REGISTRY]
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}; available: {sorted(CHECK_REGISTRY)}")
    grid = []
    try:
        for nb, n, statistics in config.systems:
            if nb < 2:
                raise ConfigError(f"system ({nb}, {n}) has no potential space; it needs nb >= 2")
            build_basis(nb, n, statistics)
        points = product(config.systems, config.betas, config.models)
        for combo, ((nb, n, statistics), beta, (kind, raw_params)) in enumerate(points, start=1):
            combo_seed = int(np.random.SeedSequence((config.seed, combo)).generate_state(1)[0])
            mparams = dict(raw_params)
            model_seed = mparams.pop("seed", combo_seed)
            model = ModelSpec(kind=kind, nb=nb, n=n, statistics=statistics, seed=model_seed, **mparams)
            grid.append(
                CheckConfig(model=model, beta=beta, seed=combo_seed, trials=config.trials, **config.overrides)
            )
    except (TypeError, RdmftError) as exc:
        # TypeError: a model parameter or an override names a field the grid sets
        raise ConfigError(f"bad suite grid: {exc}") from exc
    return [CHECK_REGISTRY[name](check_config) for check_config in grid for name in config.checks]


def suite_failures(reports: list[TheoremReport]) -> int:
    return sum(report.failures for report in reports)
