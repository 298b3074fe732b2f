"""Seeded numerical certification of the structural theorems.

Each check runs randomized trials against one model system and reports
signed margins: positive means the claimed inequality held with room to
spare.  Strict claims fail at margin <= 0; claims carrying an explicit
tolerance fail below it.  Identical config plus seed reproduces the
identical report.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Generator
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import product, repeat

import numpy as np

from .ensemble import EnsembleParams, OneRdm, _entropies, _free_energies, _gibbs, _one_rdms, gibbs_occupations, one_rdm
from .errors import ConfigError, InvalidArguments, RdmftError
from .fock import Statistics, _check_densities, _lift, _rdm_matrix, build_basis
from .functional import InversionOptions, PotentialBasis, System, _stack_rows, _thermal
from .functional import invert_potentials, require_converged
from .models import ModelSpec, build_system
from .representability import _haar_normals, _haar_rotations, _rdm_draw, coleman_bosonic, coleman_fermionic

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
        EnsembleParams(self.beta)
        if not self.separation >= 0.0:
            raise InvalidArguments(f"separation must be nonnegative, got {self.separation}")
        for name in ("fd_step", "v_scale", "fractional_v_scale"):
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
            "model": {f.name: getattr(m, f.name) for f in fields(m) if f.name not in ("nb", "n", "statistics")},
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


def _separated_pair(draw, separation: float, what: str, build=list) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays build([draw(), draw()]) at least separation apart in norm, by rejection."""
    for _ in range(1000):
        a, b = build([draw(), draw()])
        if np.linalg.norm(a - b) >= separation:
            return a, b
    raise RdmftError(f"could not draw {what} separated by {separation}")


def _mix_parameter(rng: np.random.Generator, config: CheckConfig) -> float:
    return 0.5 if config.midpoint else float(rng.uniform(0.1, 0.9))


def _caught(fn, *args):
    """fn(*args), or the RdmftError it raises."""
    try:
        return fn(*args)
    except RdmftError as exc:
        return exc


def _step(run, outputs: list | None = None):
    """A plain trial's outcome as it is; a generator trial sent outputs: (run, kernel,
    rows) at its next yield, its margin once it returns, or the RdmftError it raises."""
    try:
        return (run, *run.send(outputs)) if isinstance(run, Generator) else run
    except StopIteration as stop:
        return stop.value
    except RdmftError as exc:
        return exc


def _stacked(compute: Callable[..., list], system: System, dtype=complex) -> Callable[[list], list]:
    """The kernel that calls compute on its rows stacked in dtype, _stack_rows
    at a time: by default as complex matrices, as the single-object
    constructors take them.  A row that is a tuple stacks each of its parts,
    and compute takes the stacks in that order."""

    def kernel(rows):
        step = _stack_rows(system.basis)
        chunks = (rows[a : a + step] for a in range(0, len(rows), step))
        stacks = (zip(*chunk) if isinstance(chunk[0], tuple) else [chunk] for chunk in chunks)
        return [out for parts in stacks for out in compute(*(np.stack(part, dtype=dtype) for part in parts))]

    return kernel


def _rotations(system: System, wrap=list) -> Callable[[list], list]:
    """The kernel that builds rows of (spectrum, Haar normals) as random_rdm does, each stack through wrap."""
    return _stacked(lambda w, z: wrap(_haar_rotations(w, z)), system)


def _inversions(system: System, beta: float) -> Callable[[list], list]:
    """The kernel that inverts rows of (target, start), in one invert_potentials call, into converged reports."""

    def kernel(rows):
        targets, starts = [target for target, _ in rows], np.array([start for _, start in rows])
        reports = invert_potentials(targets, system, EnsembleParams(beta), InversionOptions(initial=starts))
        return [_caught(require_converged, report, target, system) for report, target in zip(reports, targets)]

    return kernel


def _omega_kernel(system: System, beta: float) -> Callable[[list], list]:
    """omega_of_v stacked over rows of potential coefficients: Omega and the 1RDM."""

    def compute(c):
        state = _thermal(system.pbasis.traceless(c).reshape(len(c), -1), system, EnsembleParams(beta))
        return list(zip(state.omega.tolist(), _one_rdms(_rdm_matrix(state.density, system.basis))))

    return _stacked(compute, system, float)


def _entropy_kernel(system: System) -> Callable[[list], list]:
    """DensityOperator's checks, then entropy, stacked over matrices."""

    def compute(m):
        _check_densities(m)
        return _entropies(m).tolist()

    return _stacked(compute, system)


CHECK_REGISTRY, _PLANS = {}, {}


def _check(fails=lambda margin, config: margin <= 0, notes=""):
    """Register a check under the name of its plan(config, system, kernel) -> trial, less "check_":
    in _PLANS the plan, the rule fails(margin, config) of when its claim broke, and its notes; in
    CHECK_REGISTRY, in the order of definition, the check, which runs the plan as a one-check campaign."""

    def register(plan):
        name = plan.__name__.removeprefix("check_")
        _PLANS[name] = plan, fails, notes

        def check(config: CheckConfig, system: System) -> TheoremReport:
            return _campaign(config, system, (name,))[0]

        # the plan's names, so that the check pickles by them; functools.wraps would also give it the plan's signature
        check.__name__, check.__qualname__, check.__doc__ = plan.__name__, plan.__qualname__, plan.__doc__
        CHECK_REGISTRY[name] = check
        return check

    return register


def _campaign(config: CheckConfig, system: System, checks) -> list[TheoremReport]:
    """Run config.trials trials of each of checks, each on its own substream,
    in shared rounds, into one report per check.

    Each check's plan gives its trial, and kernel(make, *args) gives it
    make(system, *args), built once per campaign, so that checks share
    their kernels of one kind and beta.  trial(rng, k, record) fills in the
    fields of record, which starts as {"trial": k}, and returns the signed
    margin; a trial whose margin needs a kernel is a generator that yields
    (kernel, rows), is sent the rows' outputs in row order, and may yield
    again before it returns the margin.  kernel(rows) gives each row its
    output, or the RdmftError that row fails with, or raises an RdmftError
    if some row fails.  Each trial runs to its first yield, check by check
    in trial order, so all make their draws before any kernel runs; then
    each round calls every kernel that pending trials of any check yielded
    once, on all of their rows in that order, and sends each trial its
    outputs: it builds every pending Haar rotation, potential and Gibbs
    state of the point in stacks, checks them once per stack, and inverts
    every pending target in one invert_potentials call.  Each output is the
    same bits alone and in any stack, so the rounds change only the
    batching; a kernel that raises is called again on each row alone, so
    that a row that fails fails only its own trial.  A trial that raises
    RdmftError, or one of whose rows fails, fails with no margin and the
    error of its first failing row, each row checked in full, in row order.
    """
    shared = cache(lambda make, *args: make(system, *args))
    plans = [(plan(config, system, shared), fails, notes) for plan, fails, notes in (_PLANS[c] for c in checks)]
    records = [[{"trial": k} for k in range(config.trials)] for _ in checks]
    starts = zip(plans, [_rng(config, check) for check in checks], records)
    outcomes = [_step(_caught(trial, rng, k, own[k])) for (trial, *_), rng, own in starts for k in range(config.trials)]
    while pending := [k for k, outcome in enumerate(outcomes) if isinstance(outcome, tuple)]:
        by_kernel = {}
        for k in pending:
            by_kernel.setdefault(outcomes[k][1], []).append(k)
        for kernel, trials in by_kernel.items():
            rows = [row for k in trials for row in outcomes[k][2]]
            try:
                outputs = iter(kernel(rows))
            except RdmftError:
                outputs = iter([_caught(lambda row: kernel([row])[0], row) for row in rows])
            for k in trials:
                run, _, own = outcomes[k]
                mine = [next(outputs) for _ in own]
                failed = [output for output in mine if isinstance(output, RdmftError)]
                outcomes[k] = failed[0] if failed else _step(run, mine)
    reports = []
    for check, (_, fails, notes), own, start in zip(checks, plans, records, range(0, len(outcomes), config.trials)):
        margins, failures = [], 0
        for record, outcome in zip(own, outcomes[start:]):
            if isinstance(outcome, RdmftError):
                record.update(margin=None, error=str(outcome))
                failures += 1
                continue
            record["margin"] = float(outcome)
            margins.append(outcome)
            if fails(outcome, config):
                failures += 1
        worst = float(min(margins)) if margins else None
        reports.append(TheoremReport(check, len(own), failures, worst, config.describe(), tuple(own), notes))
    return reports


@_check()
def check_omega_concavity(config: CheckConfig, system: System, kernel) -> Callable:
    """Strict concavity of the potential-to-free-energy map on chords with
    a minimum endpoint separation."""
    pbasis, omegas = system.pbasis, kernel(_omega_kernel, config.beta)

    def trial(rng, k, record):
        c1, c2 = _separated_pair(lambda: _coeff_draw(rng, pbasis, config.v_scale), config.separation, "potentials")
        t = record["t"] = _mix_parameter(rng, config)
        out = yield omegas, [c1, c2, t * c1 + (1 - t) * c2]
        return out[2][0] - t * out[0][0] - (1 - t) * out[1][0]

    return trial


@_check()
def check_injectivity(config: CheckConfig, system: System, kernel) -> Callable:
    """Distinct potentials produce distinct Gibbs 1RDMs."""
    pbasis, omegas = system.pbasis, kernel(_omega_kernel, config.beta)

    def trial(rng, k, record):
        c1, c2 = _separated_pair(lambda: _coeff_draw(rng, pbasis, config.v_scale), config.separation, "potentials")
        out = yield omegas, [c1, c2]
        distance = record["rdm_distance"] = float(np.linalg.norm(out[0][1].matrix - out[1][1].matrix))
        return distance - config.injectivity_floor

    return trial


def _density_draw(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A random full-rank density matrix's draws: Dirichlet weights, and its Haar basis's normals."""
    return rng.dirichlet(np.ones(dim)), _haar_normals(rng, dim)


@_check()
def check_entropy_concavity(config: CheckConfig, system: System, kernel) -> Callable:
    """Strict concavity of the von Neumann entropy on separated pairs of
    random full-rank density operators."""
    dim, entropies, rotations = system.basis.dim, kernel(_entropy_kernel), kernel(_rotations)

    def trial(rng, k, record):
        # a pair too close together is drawn again, so each pair is built as it is drawn
        pair = _separated_pair(lambda: _density_draw(rng, dim), config.separation, "density operators", rotations)
        rho_1, rho_2 = pair
        t = record["t"] = _mix_parameter(rng, config)
        s = yield entropies, [rho_1, rho_2, t * rho_1 + (1 - t) * rho_2]
        return s[2] - t * s[0] - (1 - t) * s[1]

    return trial


@_check(lambda margin, config: margin < -config.convexity_slack)
def check_f_convexity(config: CheckConfig, system: System, kernel) -> Callable:
    """Convexity of the universal functional along random interior
    segments, with slack for the two inversion tolerances."""
    m = config.model
    cold = np.zeros(system.pbasis.size)
    inversions, rdms = kernel(_inversions, config.beta), kernel(_rotations, _one_rdms)

    def trial(rng, k, record):
        draws = [_rdm_draw(rng, m.nb, m.n, m.statistics, True) for _ in range(2)]
        t = record["t"] = _mix_parameter(rng, config)
        gamma_0, gamma_1 = yield rdms, draws
        mixed = OneRdm(t * gamma_0.matrix + (1 - t) * gamma_1.matrix)
        r = yield inversions, [(gamma, cold) for gamma in (gamma_0, gamma_1, mixed)]
        return t * r[0].f_value + (1 - t) * r[1].f_value - r[2].f_value

    return trial


@_check(
    lambda margin, config: margin < 0,
    "a well-defined derivative also certifies that the subgradient set is a single element",
)
def check_gradient(config: CheckConfig, system: System, kernel) -> Callable:
    """Central differences of the functional along orthonormal traceless
    directions against the recovered potential: gamma is inverted from v = 0
    in the round that inverts f_convexity's targets, where both checks run,
    then its +eps and -eps neighbours warm-started at its v*.  A base that
    fails has drawn its directions all the same (neither the default grid
    nor perfbench's pinned one has such a failure)."""
    m, pbasis, eps = config.model, system.pbasis, config.fd_step
    cold = np.zeros(pbasis.size)
    inversions, rdms = kernel(_inversions, config.beta), kernel(_rotations, _one_rdms)
    orthonormal = _stacked(lambda x: list(np.linalg.qr(x)[0].swapaxes(-1, -2)), system, float)

    def trial(rng, k, record):
        draw = _rdm_draw(rng, m.nb, m.n, m.statistics, True)
        normals = rng.normal(size=(pbasis.size, 5))
        (gamma,) = yield rdms, [draw]
        (base,) = yield inversions, [(gamma, cold)]
        (directions,) = yield orthonormal, [normals]
        shifts = np.array([eps, -eps])[:, None, None] * pbasis.assemble(directions)[:, None]
        neighbours = _one_rdms(gamma.matrix + shifts.reshape(-1, m.nb, m.nb))
        cv = pbasis.coefficients(base.v_star)
        reports = yield inversions, [(neighbour, cv) for neighbour in neighbours]
        worst_dev = 0.0
        for d, plus, minus in zip(directions, reports[0::2], reports[1::2]):
            fd = (plus.f_value - minus.f_value) / (2 * eps)
            exact = -float(np.dot(cv, d))
            worst_dev = max(worst_dev, abs(fd - exact) / max(1.0, float(np.linalg.norm(cv))))
        record["max_rel_dev"] = float(worst_dev)
        return config.gradient_tol - worst_dev

    return trial


def _capped_dirichlet(rng, size: int, total: int, cap: float) -> np.ndarray:
    """total split over size entries by a Dirichlet draw, redrawn until every
    entry is below cap (at most 1000 draws), else evenly; not drawn at all
    where no draw could pass or every draw is the same: size * cap <= total,
    or total = 0."""
    if total > 0 and size * cap > total:
        for _ in range(1000):
            split = rng.dirichlet(np.ones(size)) * total
            if split.max() < cap:
                return split
    return np.full(size, total / size)


def _boundary_occupations(rng, nb, n, statistics, variant):
    if variant == "zero_pinned":
        cap = 1.0 if statistics is Statistics.FERMION else np.inf
        occ = np.concatenate([[0.0], _capped_dirichlet(rng, nb - 1, n, cap)])
    elif variant == "one_pinned":
        occ = np.concatenate([[1.0], _capped_dirichlet(rng, nb - 1, n - 1, 1.0)])
    elif variant == "idempotent":
        occ = np.zeros(nb)
        occ[rng.permutation(nb)[:n]] = 1.0
    else:  # condensate
        occ = np.zeros(nb)
        occ[rng.integers(nb)] = float(n)
    return occ[rng.permutation(nb)]


@_check(lambda margin, config: margin < 0)
def check_coleman(config: CheckConfig, system: System, kernel) -> Callable:
    """Reconstruction of interior and boundary 1RDMs by explicit density
    operators; every output must be a valid state with the right 1RDM."""
    m = config.model
    basis = system.basis
    construct = coleman_fermionic if m.statistics is Statistics.FERMION else coleman_bosonic
    if m.statistics is Statistics.FERMION:
        variants = ("interior", "zero_pinned", "one_pinned", "idempotent")
    else:
        variants = ("interior", "zero_pinned", "condensate")
    rdms = kernel(_rotations, _one_rdms)

    def trial(rng, k, record):
        variant = record["variant"] = variants[k % len(variants)]
        if variant == "interior":
            draw = _rdm_draw(rng, m.nb, m.n, m.statistics, True)
        else:
            draw = _boundary_occupations(rng, m.nb, m.n, m.statistics, variant), _haar_normals(rng, m.nb)
        (gamma,) = yield rdms, [draw]
        rho = construct(gamma, basis)
        err = record["error_norm"] = float(np.linalg.norm(one_rdm(rho, basis).matrix - gamma.matrix))
        return config.coleman_tol - err

    return trial


@_check()
def check_fractional_occupations(config: CheckConfig, system: System, kernel) -> Callable:
    """Gibbs 1RDMs keep every natural occupation strictly off the polytope
    faces across a temperature sweep."""
    m, pbasis = config.model, system.pbasis
    omegas = {beta: kernel(_omega_kernel, beta) for beta in config.fractional_betas}

    def trial(rng, k, record):
        beta = record["beta"] = config.fractional_betas[k % len(config.fractional_betas)]
        ((_, gamma),) = yield omegas[beta], [_coeff_draw(rng, pbasis, config.fractional_v_scale)]
        occ = gibbs_occupations(gamma, system.basis)
        lowest = record["min_occupation"] = float(occ.min())
        head = float(1 - occ.max()) if m.statistics is Statistics.FERMION else np.inf
        return min(lowest, head) - config.fractional_floor

    return trial


@_check()
def check_gibbs_minimality(config: CheckConfig, system: System, kernel) -> Callable:
    """The Gibbs state strictly beats every competitor density operator in
    the free-energy objective of its own Hamiltonian."""
    pbasis, basis, dim = system.pbasis, system.basis, system.basis.dim
    maximally_mixed = np.eye(dim) / dim

    def gibbs_states(c):
        """H_v = H0 + lift(v) and its Gibbs density for the potential v of each
        coefficient row, as _thermal gives them."""
        h = system.h0.matrix + _lift(pbasis.traceless(c).reshape(len(c), -1), basis)
        return list(zip(h, _gibbs(h, config.beta, basis.tag).density))

    def free_energies(states, h):
        """DensityOperator's checks, then helmholtz, over rows of (state, H_v)."""
        _check_densities(states)
        return _free_energies(states, h, config.beta).tolist()

    gibbs, free, densities = _stacked(gibbs_states, system, float), _stacked(free_energies, system), kernel(_rotations)

    def trial(rng, k, record):
        c = _coeff_draw(rng, pbasis, config.v_scale)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        (random_state,) = yield densities, [_density_draw(rng, dim)]
        ((h_v, rho),) = yield gibbs, [c]
        # the Gibbs state, then mixed_1pct, maximally_mixed and random_state
        states = [rho, 0.99 * rho + 0.01 * np.outer(psi, psi.conj()), maximally_mixed, random_state]
        base, *others = yield free, [(state, h_v) for state in states]
        gaps = dict(zip(("mixed_1pct", "maximally_mixed", "random_state"), (f - base for f in others)))
        record.update((f"gap_{name}", float(gap)) for name, gap in gaps.items())
        return min(gaps.values())

    return trial


ALL_CHECKS = tuple(CHECK_REGISTRY)

# fixed stream tags so each check owns an independent substream per seed
_STREAM = {name: i + 1 for i, name in enumerate(ALL_CHECKS)}

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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where it has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_point(check_config: CheckConfig, checks: tuple[str, ...]) -> list[TheoremReport]:
    """One grid point's checks on one System, as one campaign; a model that cannot be built is a config error."""
    try:
        system = build_system(check_config.model)
    except RdmftError as exc:
        raise ConfigError(f"bad suite grid: {exc}") from exc
    return _campaign(check_config, system, checks)


def run_suite(config: SuiteConfig) -> list[TheoremReport]:
    """All selected checks over the whole grid, in deterministic order.

    Every grid point is built, and so validated, before the first check
    runs: each system needs a configuration basis and nb >= 2, so that it
    has a potential space.  The points run in min(points, usable CPUs)
    forked worker processes, or in this one when that is 1, each on a System
    of its own and as one campaign of its checks; reports come back in grid
    order, the same bits either way and as each check run alone.  A point
    that raises cancels those not yet started, and its exception reaches the
    caller once every worker has exited.
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
            grid.append(CheckConfig(model=model, beta=beta, seed=combo_seed, trials=config.trials, **config.overrides))
    except (TypeError, RdmftError) as exc:
        # TypeError: a model parameter or an override names a field the grid sets
        raise ConfigError(f"bad suite grid: {exc}") from exc
    # imported here, so that importing rdmft does not load the process pool (about 2 MB)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    workers = min(len(grid), _usable_cpus())
    context = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(workers, mp_context=context) if workers > 1 else nullcontext() as pool:
        per_point = list((pool.map if pool else map)(_run_point, grid, repeat(config.checks)))
    return [report for reports in per_point for report in reports]


def suite_failures(reports: list[TheoremReport]) -> int:
    return sum(report.failures for report in reports)
