"""Dual evaluation of the universal 1RDM functional at fixed temperature.

The functional is evaluated through its concave dual: F[gamma] =
max_v (Omega[v] - tr{v gamma}) over traceless Hermitian one-body
potentials v.  The maximizer, when it exists, satisfies gamma_v = gamma
and -v* is the derivative of F at gamma.  Potentials are parametrized by
an orthonormal traceless Hermitian basis, so the maximization runs in
R^(nb^2 - 1) where the objective's Hessian is the (negative definite)
linear-response matrix J: damped Newton steps converge quadratically, and
BFGS updates of J, used where it is costly, superlinearly.

A maximizer exists exactly for interior targets: every 1RDM with purely
fractional occupations is uniquely v-representable, and a Gibbs 1RDM never
has an occupation on a face.  So the target's classification decides
NonRepresentable before the first Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import sqrt
from typing import NamedTuple

import numpy as np

from .ensemble import (
    CLASSIFY_DEFAULT_TOL,
    EnsembleParams,
    GibbsSolution,
    OneRdm,
    RdmClass,
    _gibbs,
    _rdm_class,
    face_distances,
)
from .errors import (
    BasisMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidArguments,
    NonHermitianInput,
    NotRepresentableError,
)
from .fock import (
    ONE_BODY_HERMITICITY_TOL,
    ConfigurationBasis,
    ManyBodyOperator,
    _as_square,
    _hermiticity_defect,
    _lift,
    _rdm_matrix,
    triangle_indices,
)

TRACE_TOL = 1e-12
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
BETA_RUNG = 4.0
MIN_STEP = 1e-14
# bytes of workspace a stacked call may hold: a batch's Jacobians, one block
# of one target's, or a chunk of the Gibbs states and entropies verify stacks
WORKSPACE_BYTES = 1 << 24
# Jacobians are reused where one costs this many Gibbs evaluations, and
# taken fresh after a step that keeps more than REFRESH_RATIO of its residual
REUSE_COST_RATIO = 5.0
REFRESH_RATIO = 0.5
# betas a System keeps the state at v = 0 for: a full ladder at beta = 1e6
COLD_STARTS = 12


@dataclass(frozen=True, eq=False)
class TracelessPotential:
    """Hermitian one-body potential with vanishing trace.

    The gauge freedom v -> v + c*1 is fixed by rejecting any nonzero
    trace at construction instead of silently projecting it away.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        _check_traceless(m)
        object.__setattr__(self, "matrix", m)

    @property
    def nb(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm(self) -> float:
        return float(_norm(self.matrix))


def _norm(a: np.ndarray, axis=None):
    """np.linalg.norm(a, axis=axis), the same bits where that is finite; where only its
    sum of squares overflows, the largest entry's magnitude times the norm of a over it."""
    with np.errstate(all="ignore"):
        norm = np.linalg.norm(a, axis=axis)
        if np.isinf(norm).any():
            peak = np.max(np.abs(a), axis=axis, keepdims=True)
            rescaled = np.squeeze(peak, axis) * np.linalg.norm(a / peak, axis=axis)
            norm = np.where(np.isinf(norm) & np.isfinite(rescaled), rescaled, norm)
    return norm


def _check_traceless(m: np.ndarray) -> None:
    """The rule of TracelessPotential for a complex matrix or a (..., nb, nb)
    stack of them: each one finite, Hermitian within 1e-13 and traceless
    within 1e-12 relative to its norm."""
    if not np.isfinite(m).all():
        raise InvalidArguments("potential entries must be finite")
    if _hermiticity_defect(m) > ONE_BODY_HERMITICITY_TOL:
        raise NonHermitianInput("potential is not Hermitian within 1e-13")
    trace = np.trace(m, axis1=-2, axis2=-1)
    # relative to scale: a large potential cannot express an exactly zero trace
    # below the ulp of its own diagonal entries; one within 1e-12 passes at any scale
    if (np.abs(trace) > TRACE_TOL).any():
        traced = np.abs(trace) > TRACE_TOL * np.maximum(1.0, _norm(m, axis=(-2, -1)))
        if traced.any():
            first = np.ravel(trace)[np.ravel(traced)][0]
            raise InvalidArguments(f"potential trace {first!r} exceeds 1e-12; remove the gauge part")


def _checked(matrix: np.ndarray) -> TracelessPotential:
    """A TracelessPotential around a complex matrix that has already passed
    _check_traceless, as a slice of a checked stack, say."""
    potential = object.__new__(TracelessPotential)
    object.__setattr__(potential, "matrix", matrix)
    return potential


@dataclass(frozen=True, eq=False)
class PotentialBasis:
    """Orthonormal Hermitian traceless basis of the potential space.

    elements has shape (nb*nb - 1, nb, nb) with tr{G_a G_b} = delta_ab,
    so coefficient vectors carry the Frobenius geometry exactly.
    """

    nb: int
    elements: np.ndarray

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @property
    def element_matrix(self) -> np.ndarray:
        """(K, nb*nb) view whose row a is G_a flattened, so that
        sum_a c_a G_a = c @ element_matrix and tr{G_a m} = element_matrix @ m.T.ravel()."""
        return self.elements.reshape(self.size, -1)

    def coefficients(self, matrix) -> np.ndarray:
        """Coordinates of a traceless Hermitian matrix, or of each one of a
        (..., nb, nb) stack by its own vector-matrix product."""
        m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
        return (m.swapaxes(-1, -2).reshape(*m.shape[:-2], 1, self.nb * self.nb) @ self.element_matrix.T)[..., 0, :].real

    @cached_property
    def generator_map(self) -> np.ndarray:
        """(K, nb*nb) matrix T with G_a = sum_r T_ar h_r over the Hermitian
        generators h_r: E_ii, then E_ij + E_ji and -i(E_ij - E_ji) for the
        pairs i < j in np.triu_indices order, so that
        T = [Re G_a,ii | Re G_a,ij | -Im G_a,ij]."""
        i, j = np.triu_indices(self.nb, 1)
        d = np.arange(self.nb)
        g = self.elements
        return np.concatenate([g[:, d, d].real, g[:, i, j].real, -g[:, i, j].imag], axis=1)

    def assemble(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_a c_a G_a for a coefficient vector, or for each row of a
        (..., K) stack.  Every row takes its own vector-matrix product, so
        its matrix is the same bits in any stack."""
        c = np.asarray(coeffs, dtype=float)
        return (c[..., None, :] @ self.element_matrix).reshape(*c.shape[:-1], self.nb, self.nb)

    def traceless(self, coeffs: np.ndarray) -> np.ndarray:
        """assemble, with the summation round-off of each trace scrubbed so
        that the check of TracelessPotential, run once on the whole stack,
        never trips on it."""
        m = self.assemble(coeffs)
        m -= (np.trace(m, axis1=-2, axis2=-1) / self.nb)[..., None, None] * np.eye(self.nb)
        _check_traceless(m)
        return m

    def potential(self, coeffs: np.ndarray) -> TracelessPotential:
        return _checked(self.traceless(coeffs))


def potential_basis(nb: int) -> PotentialBasis:
    """Generalized Gell-Mann construction: symmetric and antisymmetric pair
    matrices plus the diagonal ladder, all orthonormal and traceless."""
    if nb < 2:
        raise InvalidArguments(f"potential space needs nb >= 2, got nb={nb}")
    mats = []
    for i in range(nb):
        for j in range(i + 1, nb):
            g = np.zeros((nb, nb), dtype=complex)
            g[i, j] = g[j, i] = 1 / sqrt(2)
            mats.append(g)
            g = np.zeros((nb, nb), dtype=complex)
            g[i, j] = -1j / sqrt(2)
            g[j, i] = 1j / sqrt(2)
            mats.append(g)
    for l in range(1, nb):
        g = np.zeros((nb, nb), dtype=complex)
        g[np.arange(l), np.arange(l)] = 1.0
        g[l, l] = -l
        mats.append(g / sqrt(l * (l + 1)))
    return PotentialBasis(nb=nb, elements=np.array(mats))


@dataclass(frozen=True, eq=False)
class System:
    """A configuration basis together with the lifted interaction part H0."""

    basis: ConfigurationBasis
    h0: ManyBodyOperator
    # _ColdStart by beta, least recently used first; see _cold_start
    _cold_starts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.h0.basis_tag != self.basis.tag:
            raise BasisMismatch(f"H0 on {self.h0.basis_tag!r}, basis is {self.basis.tag!r}")

    @cached_property
    def pbasis(self) -> PotentialBasis:
        """The Gell-Mann potential basis of the system's orbitals, built once."""
        return potential_basis(self.basis.nb)


class InversionVerdict(Enum):
    CONVERGED = "converged"
    NON_REPRESENTABLE = "non_representable"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class InversionOptions:
    """Knobs of the dual Newton solver.

    tol bounds the residual of a converged inversion, classify_tol the face
    distance below which a target is not interior, and initial optionally
    seeds the potential coefficients (zeros by default) with finite values:
    shape (K,), or (B, K) with one row per target of an invert_potentials
    batch.
    """

    tol: float = 1e-10
    max_iter: int = 200
    classify_tol: float = CLASSIFY_DEFAULT_TOL
    initial: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < float("inf"):
            raise InvalidArguments(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidArguments(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0.0 <= self.classify_tol < float("inf"):
            raise InvalidArguments(f"classify_tol must be nonnegative and finite, got {self.classify_tol}")
        if self.initial is not None and not np.all(np.isfinite(self.initial)):
            raise InvalidArguments("initial coefficients must be finite")


@dataclass(frozen=True)
class IterationRecord:
    """The state at the start of one iteration; fresh_jacobian tells whether
    the step taken from it used a fresh response Jacobian."""

    iteration: int
    g_value: float
    residual: float
    step_norm: float
    fresh_jacobian: bool


@dataclass(frozen=True, eq=False)
class InversionReport:
    """Outcome of one dual maximization; jacobians counts the fresh response
    Jacobians its solve took, and face_distance is the target's smallest
    signed face distance, which its classification reads.  gradient, the
    derivative -v* of F, is derived from v_star."""

    verdict: InversionVerdict
    v_star: TracelessPotential
    f_value: float
    residual: float
    iterations: int
    jacobians: int
    classification: RdmClass
    face_distance: float
    trace: tuple[IterationRecord, ...]

    @cached_property
    def gradient(self) -> TracelessPotential:
        # 0.0 - m, not -m: -m turns the exact zeros of v* into -0.0, which
        # the JSON reports would then print
        return _checked(0.0 - self.v_star.matrix)


def _thermal(v: np.ndarray, system: System, params: EnsembleParams) -> GibbsSolution:
    """Gibbs state of H0 + lift(v) for a potential flattened to (nb*nb,), or
    the batch of them for a (B, nb*nb) stack."""
    return _gibbs(system.h0.matrix + _lift(v, system.basis), params.beta, system.basis.tag)


def _start(c: np.ndarray, system: System, params: EnsembleParams) -> tuple[np.ndarray, ...]:
    """The energies, eigenvectors, populations, Omega and 1RDM coefficients
    of the Gibbs state at each row of a (B, K) stack of potential coefficients;
    the densities are dropped, since at large dim they would sit beside the
    Jacobian's workspace."""
    state = _thermal((c[:, None, :] @ system.pbasis.element_matrix)[:, 0], system, params)
    gamma = system.pbasis.coefficients(_rdm_matrix(state.density, system.basis))
    return state.energies, state.eigenvectors, state.weights, state.omega, gamma


@dataclass(eq=False)
class _ColdStart:
    """_start at v = 0 as a batch of one, and its response Jacobian once one
    is asked for; every array is read-only."""

    start: tuple[np.ndarray, ...]
    jacobian: np.ndarray | None = None


def _cold_start(system: System, params: EnsembleParams) -> _ColdStart:
    """The state at v = 0 of H0 alone, which every cold solve starts from:
    kept on the system for the COLD_STARTS betas last asked for."""
    memo = system._cold_starts
    entry = memo.pop(params.beta, None)
    if entry is None:
        entry = _ColdStart(_start(np.zeros((1, system.pbasis.size)), system, params))
        for a in entry.start:
            a.flags.writeable = False
    memo[params.beta] = entry
    if len(memo) > COLD_STARTS:
        del memo[next(iter(memo))]
    return entry


def omega_of_v(v: TracelessPotential, system: System, params: EnsembleParams) -> tuple[float, OneRdm]:
    """Grand potential and Gibbs 1RDM of H0 + lift(v)."""
    if v.nb != system.basis.nb:
        raise DimensionMismatch(f"potential on {v.nb} orbitals, basis has {system.basis.nb}")
    state = _thermal(v.matrix.ravel(), system, params)
    return float(state.omega), OneRdm(_rdm_matrix(state.density, system.basis))


def _divided_differences(energies: np.ndarray, weights: np.ndarray, beta: float) -> np.ndarray:
    """Matrix of (w_m - w_n)/(E_m - E_n) for the populations w = exp(-beta*E)/Z
    at fixed Z, and its confluent limit -beta*w_m on equal energies; leading
    axes index a batch.

    With d = |E_m - E_n| the lower level's population is max(w_m, w_n) and
    the other one is that times exp(-beta*d), so the quotient is
    max(w_m, w_n)*expm1(-beta*d)/d: no difference of populations is taken,
    and the entries are <= 0 exactly.
    """
    d = np.abs(energies[..., :, None] - energies[..., None, :])
    quotient = np.divide(np.expm1(-beta * d), d, out=np.full_like(d, -beta), where=d > 0)
    return np.maximum(weights[..., :, None], weights[..., None, :]) * quotient


def _hermitian_parts(x: np.ndarray, nd: int, q: np.ndarray, adjoint: np.ndarray) -> None:
    """Q_ij + Q_ij+ into rows nd:nd+nu of x, -i(Q_ij - Q_ij+) after them; q may be those rows."""
    nu = q.shape[-2]
    antisymmetric = np.subtract(q, adjoint, out=x[..., nd + nu :, :])
    antisymmetric *= -1j
    np.add(q, adjoint, out=x[..., nd : nd + nu, :])


def _jacobian(
    energies: np.ndarray,
    vectors: np.ndarray,
    weights: np.ndarray,
    basis: ConfigurationBasis,
    params: EnsembleParams,
    pbasis: PotentialBasis,
) -> np.ndarray:
    """Response matrix J_ab = d tr{gamma_v G_a} / d c_b in the coordinates of
    pbasis, from the energies, eigenvectors and populations of the Gibbs
    state; symmetric and negative definite on the traceless space.  Leading
    axes of the state's arrays give a (..., K, K) stack.

    Daleckii-Krein form (Higham, Functions of Matrices, ch. 3) in the
    eigenbasis V of H_v, on the Hermitian generators h_r of the orbital
    pairs: Q_ii, Q_ij + Q_ij+ and -i(Q_ij - Q_ij+) for i < j, with
    Q_ij = V+ lift(a+_i a_j) V.  With phi the divided differences of the
    populations, J_h,rs = sum_mn phi_mn conj(h_r)_mn (h_s)_mn plus the
    normalisation term beta g_r g_s, g_r = sum_m w_m (h_r)_mm.  That term
    only centres the diagonal: the m = n part becomes the covariance
    -beta sum_m w_m ((h_r)_mm - g_r)((h_s)_mm - g_s).  So with x_r the
    centred h_r times sqrt(-phi) on the upper triangle m <= n (off-diagonal
    entries weighted twice), J_h = -X X^T for the real view X, and
    J = T J_h T^T with T = pbasis.generator_map.

    X X^T is summed over blocks of _block_width eigenbasis rows [a, b): the
    upper triangle of the square Q[a:b, a:b], which holds its mirror, and the
    rectangle Q[a:b, b:], whose mirror is the product Q[b:, a:b].
    """
    dim, lead, conj = basis.dim, energies.shape[:-1], vectors.conj()
    # Q_ij = conj(V[rows])^T (amps V[cols]) over the configurations a+_i a_j
    # reaches; amps scales in place, as a copy would raise the peak by a third
    (rows_d, cols_d), (rows_u, cols_u) = (
        (conj.take(t.rows, axis=-2).swapaxes(-1, -2), vectors.take(t.cols, axis=-2)) for t in basis.hop_blocks
    )
    cols_d *= basis.hop_blocks.diagonal.amps[..., None]
    cols_u *= basis.hop_blocks.upper.amps[..., None]
    nd, nu = rows_d.shape[-3], rows_u.shape[-3]
    root = np.sqrt(-_divided_differences(energies, weights, params.beta))
    # held: the diagonal entries of the blocks before the last
    held, gram, width = [], 0, _block_width(basis)
    for a in range(0, dim, width):
        b = min(a + width, dim)
        triangle, mirror = triangle_indices(b - a)
        x = np.empty((*lead, nd + 2 * nu, triangle.size), dtype=complex)
        x[..., :nd, :] = (rows_d[..., a:b, :] @ cols_d[..., a:b]).reshape(*lead, nd, -1).take(triangle, axis=-1)
        q = (rows_u[..., a:b, :] @ cols_u[..., a:b]).reshape(*lead, nu, -1)
        q, adjoint = q.take(triangle, axis=-1), q.take(mirror, axis=-1)
        _hermitian_parts(x, nd, q, np.conjugate(adjoint, out=adjoint))
        weight = root[..., a:b, a:b].reshape(*lead, -1).take(triangle, axis=-1)
        weight[..., b - a :] *= sqrt(2)
        if b < dim:
            held.append(x[..., : b - a].copy())
            x, weight = x[..., b - a :], weight[..., b - a :]
        else:
            if held:
                x = np.concatenate([*held, x], axis=-1)
                weight = np.concatenate([np.diagonal(root, axis1=-2, axis2=-1)[..., :a], weight], axis=-1)
            x[..., :dim] -= x[..., :dim] @ weights[..., None]
        x *= weight[..., None, :]
        real = x.view(float)
        gram = gram + real @ real.swapaxes(-1, -2)
        if b < dim:
            x = np.empty((*lead, nd + 2 * nu, b - a, dim - b), dtype=complex)
            np.matmul(rows_d[..., a:b, :], cols_d[..., b:], out=x[..., :nd, :, :])
            np.matmul(rows_u[..., a:b, :], cols_u[..., b:], out=x[..., nd : nd + nu, :, :])
            adjoint = cols_u[..., a:b].swapaxes(-1, -2) @ rows_u[..., b:, :].swapaxes(-1, -2)
            x = x.reshape(*lead, nd + 2 * nu, -1)
            _hermitian_parts(x, nd, x[..., nd : nd + nu, :], np.conjugate(adjoint, out=adjoint).reshape(*lead, nu, -1))
            x *= sqrt(2) * root[..., a:b, b:].reshape(*lead, 1, -1)
            real = x.view(float)
            gram = gram + real @ real.swapaxes(-1, -2)
    t = pbasis.generator_map
    j = t @ gram @ t.T
    return (j + j.swapaxes(-1, -2)) / -2


def response_jacobian(
    v: TracelessPotential, system: System, params: EnsembleParams, pbasis: PotentialBasis | None = None
) -> np.ndarray:
    """Analytic derivative of the potential-to-1RDM map at v, in the
    coefficient coordinates of pbasis."""
    pb = pbasis if pbasis is not None else system.pbasis
    if pb.nb != system.basis.nb:
        raise DimensionMismatch(f"potential basis for {pb.nb} orbitals, system has {system.basis.nb}")
    if v.nb != system.basis.nb:
        raise DimensionMismatch(f"potential on {v.nb} orbitals, basis has {system.basis.nb}")
    state = _thermal(v.matrix.ravel(), system, params)
    return _jacobian(state.energies, state.eigenvectors, state.weights, system.basis, params, pb)


def _newton_steps(jac: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """solve(J, -grad) for each (J, grad) of a batch; the step of a singular
    J reads NaN.  The right-hand sides go in as (B, K, 1) columns: numpy 2
    reads a (B, K) one as a single matrix."""
    try:
        return np.linalg.solve(jac, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(grad, np.nan)
        for b in range(len(grad)):
            try:
                steps[b] = np.linalg.solve(jac[b], -grad[b])
            except np.linalg.LinAlgError:
                pass
        return steps


def _bfgs(jac: np.ndarray, s: np.ndarray, y: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """BFGS update (Nocedal & Wright, ch. 6) J - (Js)(Js)^T/(s.Js) - yy^T/(y.s)
    of each negative definite J of a batch, by per-row products."""
    js = (jac @ s[..., None])[..., 0]
    outer = js[..., :, None] * js[..., None, :] / (s * js).sum(-1)[..., None, None]
    return jac - outer - y[..., :, None] * y[..., None, :] / curvature[..., None, None]


class _Running(NamedTuple):
    """The state of the targets still running, one row each: ids maps a row
    to its target, target holds the target's coefficients, energies,
    vectors and weights are the spectrum of its Gibbs state that the
    Jacobian reads, jac holds its J, and fresh flags the rows whose
    next step takes a fresh Jacobian."""

    ids: np.ndarray
    c: np.ndarray
    value: np.ndarray
    grad: np.ndarray
    residual: np.ndarray
    step_norm: np.ndarray
    target: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray
    jac: np.ndarray
    fresh: np.ndarray


def _dual_newton(
    targets: list[OneRdm], system: System, params: EnsembleParams, opts: InversionOptions, starts: np.ndarray
) -> tuple[list[InversionReport], np.ndarray]:
    """invert_potentials at one beta, each target from its row of starts.

    The targets run in lockstep, each with its own Newton steps along
    solve(J, -grad), line search, trace and verdict; one that has stopped
    drops out of later rounds.  A singular J, a direction that does not
    ascend or a step halved below MIN_STEP ends a target's attempt.  Also
    returns each target's spread E_max - E_min of H at its start.

    The first J come with the starting states, one for each distinct start
    that some interior row steps from: rows with the same start bytes share
    its state and first J, and a row that starts at v = 0 reads both from
    _cold_start, which computes them once per system and beta.  The line
    search evaluates its trial points as the starts are, through _start.

    Where _reuses_jacobian holds, a row's J is then the BFGS update of its
    last one, taken fresh (as a subset of the rows) after a step accepted at
    t < 1 or keeping more than REFRESH_RATIO of its residual (Kelley, Solving
    Nonlinear Equations with Newton's Method, ch. 2), or when y.s <= 0; a
    reused J whose step fails is retaken, not given up.

    The running targets' state is held compacted, so a round in which no
    target stops and every one takes its first trial step indexes no rows.
    """
    basis, pbasis, reuse = system.basis, system.pbasis, _reuses_jacobian(system.basis)
    matrices = np.stack([target.matrix for target in targets])
    distance = face_distances(np.linalg.eigvalsh(matrices), basis.statistics).min(-1)
    classes = [_rdm_class(d, opts.classify_tol) for d in distance]
    interior = np.array([cls is RdmClass.INTERIOR for cls in classes])
    target_coeffs = pbasis.coefficients(matrices)
    c = np.array(starts, dtype=float)

    def evaluate(c: np.ndarray, state: tuple[np.ndarray, ...], target: np.ndarray) -> dict[str, np.ndarray]:
        """The fields of _Running at the rows of c from _start's state there:
        the gradient gamma_v - gamma and its norm, the Frobenius distance of
        the matrices since both carry trace n."""
        energies, vectors, weights, omega, gamma = state
        grad = gamma - target
        value, residual = omega - (c * target).sum(-1), np.linalg.norm(grad, axis=-1)
        return dict(c=c, value=value, grad=grad, residual=residual, energies=energies, vectors=vectors, weights=weights)

    # shared[b] numbers row b's start among the distinct ones, first holds
    # the first row of each
    distinct = {}
    shared = np.array([distinct.setdefault(row.tobytes(), len(distinct)) for row in c], dtype=int)
    first = np.unique(shared, return_index=True)[1]
    cold = ~c[first].any(-1)
    memo = _cold_start(system, params) if cold.any() else None
    if memo is None:
        start = _start(c[first], system, params)
    else:
        start = [np.repeat(a, len(first), axis=0) for a in memo.start]
        if not cold.all():
            for mine, a in zip(start, _start(c[first[~cold]], system, params)):
                mine[~cold] = a
    run = _Running(
        ids=np.arange(len(targets)),
        step_norm=np.zeros(len(targets)),
        target=target_coeffs,
        jac=None,
        fresh=np.ones(len(targets), dtype=bool),
        **evaluate(c, start if len(first) == len(c) else [a[shared] for a in start], target_coeffs),
    )
    del start
    spread = run.energies[:, -1] - run.energies[:, 0]

    # the first J of each start that some interior row steps from
    steps = np.zeros(len(first), dtype=bool)
    steps[shared[interior & ~(run.residual <= opts.tol)]] = opts.max_iter > 1
    jac = np.empty((len(first), pbasis.size, pbasis.size))
    if (steps & cold).any():
        if memo.jacobian is None:
            memo.jacobian = _jacobian(*memo.start[:3], basis, params, pbasis)
            memo.jacobian.flags.writeable = False
        jac[steps & cold] = memo.jacobian
    rows = first[steps & ~cold]
    if rows.size:
        rows = slice(None) if rows.size == len(c) else rows
        jac[steps & ~cold] = _jacobian(run.energies[rows], run.vectors[rows], run.weights[rows], basis, params, pbasis)
    run = run._replace(jac=jac[shared])
    del jac

    jacobians = np.zeros(len(targets), dtype=int)
    final_c, final_value, final_residual = np.empty_like(c), np.empty_like(run.value), np.empty_like(run.residual)

    def stop(run: _Running, mask: np.ndarray) -> _Running:
        """Write out the final state of the rows in mask and drop them."""
        ids = run.ids[mask]
        final_c[ids], final_value[ids], final_residual[ids] = run.c[mask], run.value[mask], run.residual[mask]
        return run._make(a[~mask] for a in run)

    records: list[list[IterationRecord]] = [[] for _ in targets]
    # off the interior no maximizer exists, so that verdict is final here
    verdicts = [InversionVerdict.MAX_ITERATIONS if inside else InversionVerdict.NON_REPRESENTABLE for inside in interior]
    if not interior.all():
        run = stop(run, ~interior)

    # every running target has taken the same number of iterations
    for iteration in range(1, opts.max_iter + 1):
        if not run.ids.size:
            break
        done = run.residual <= opts.tol
        fresh_step = run.fresh & ~done & (iteration < opts.max_iter)
        for b, g, r, s, f in zip(*(a.tolist() for a in (run.ids, run.value, run.residual, run.step_norm, fresh_step))):
            records[b].append(IterationRecord(iteration, g, r, s, f))
        if done.any():
            for b in run.ids[done].tolist():
                verdicts[b] = InversionVerdict.CONVERGED
            run = stop(run, done)
        # the rows left stop at the state their last record shows
        if not run.ids.size or iteration == opts.max_iter:
            break

        # after the first step, which reads its J from the starts', the fresh
        # rows take a fresh one, indexed by a slice if that is every row
        fresh = run.fresh
        if iteration > 1 and fresh.any():
            rows = slice(None) if fresh.all() else fresh
            run.jac[rows] = _jacobian(run.energies[rows], run.vectors[rows], run.weights[rows], basis, params, pbasis)
        jacobians[run.ids[fresh]] += 1
        step = _newton_steps(run.jac, run.grad)
        slope = (run.grad * step).sum(-1)
        ascends = np.isfinite(slope) & (slope > 0.0)
        if not ascends.all():
            keep = ascends | ~fresh
            run, step, slope, ascends = stop(run, ~keep), step[keep], slope[keep], ascends[keep]
            if not run.ids.size:
                break
        length, taken = _norm(step, axis=-1), np.zeros(run.ids.size)
        before = (run.c.copy(), run.grad.copy(), run.residual.copy()) if reuse else None

        # every row still searching has halved its step as often; searching
        # is None while that is every row, so that nothing is gathered
        t, searching, trial = 1.0, None if ascends.all() else ascends, None
        while t >= MIN_STEP and (searching is None or searching.any()):
            rows = (run.c, run.value, run.residual, run.target, step, slope, length)
            if searching is not None:
                rows = (a[searching] for a in rows)
            c, value, residual, target, direction, gain, norm = rows
            trial_c = c + t * direction
            # t is a power of 2, so t * norm is the norm of the step taken
            trial = dict(evaluate(trial_c, _start(trial_c, system, params), target), step_norm=t * norm)
            # once the required gain falls below float resolution of g the
            # Armijo test is meaningless; accept on residual contraction
            required = ARMIJO_SLOPE * t * gain
            flat = required <= 1e-12 * np.maximum(1.0, np.abs(value))
            contracted = trial["residual"] <= residual * (1.0 - ARMIJO_SLOPE * t)
            ok = (trial["value"] >= value + required) | (flat & contracted)
            if searching is None and ok.all():
                run, taken[:] = run._replace(**trial), t
                break
            if ok.any():
                if searching is None:
                    searching = np.ones(run.ids.size, dtype=bool)
                accept = np.flatnonzero(searching)[ok]
                for name, new in trial.items():
                    getattr(run, name)[accept] = new[ok]
                taken[accept], searching[accept] = t, False
            t *= BACKTRACK_FACTOR
        del trial
        # the rows that found no admissible step stop, or retake J if stale
        stuck = taken == 0.0
        if reuse:
            c0, grad0, residual0 = before
            s, y = run.c - c0, grad0 - run.grad
            curvature = (y * s).sum(-1)
            refresh = (taken < 1.0) | (run.residual > REFRESH_RATIO * residual0) | ~(curvature > 0.0)
            update = ~refresh
            run.jac[update] = _bfgs(run.jac[update], s[update], y[update], curvature[update])
            run.step_norm[stuck] = 0.0
            run, stuck = run._replace(fresh=refresh), stuck & run.fresh
        if stuck.any():
            run = stop(run, stuck)
    if run.ids.size:
        stop(run, np.ones(run.ids.size, dtype=bool))

    finals = (final_value.tolist(), final_residual.tolist(), jacobians.tolist(), distance.tolist())
    reports = [
        InversionReport(
            verdict=verdict,
            v_star=_checked(v_star),
            f_value=f_value,
            residual=res,
            iterations=len(trace),
            jacobians=count,
            classification=cls,
            face_distance=d,
            trace=tuple(trace),
        )
        for verdict, v_star, f_value, res, count, d, trace, cls in zip(
            verdicts, pbasis.traceless(final_c), *finals, records, classes
        )
    ]
    return reports, spread


def _column_bytes(basis: ConfigurationBasis) -> int:
    """Workspace per eigenbasis row of a block: X and the pairs' mirror products."""
    return 24 * basis.nb * basis.nb * basis.dim


def _gathered_bytes(basis: ConfigurationBasis) -> int:
    """The gathered rows and columns of the nb(nb+1)/2 pairs i <= j that
    _jacobian holds for one target."""
    return 32 * basis.dim * sum(table.rows.size for table in basis.hop_blocks)


def _block_width(basis: ConfigurationBasis) -> int:
    """Eigenbasis rows per block of _jacobian: a property of the basis alone,
    so that a target's Jacobian sums in the same order in any batch.  Each
    block streams every gathered operand, so where an eighth of them exceeds
    WORKSPACE_BYTES the blocks take that much instead."""
    return max(1, max(WORKSPACE_BYTES, _gathered_bytes(basis) // 8) // _column_bytes(basis))


def _workspace_bytes(basis: ConfigurationBasis) -> int:
    """The largest arrays of one target's Jacobian: the gathered operands and
    one block."""
    return _gathered_bytes(basis) + min(_block_width(basis), basis.dim) * _column_bytes(basis)


def _stack_rows(basis: ConfigurationBasis) -> int:
    """Rows per chunk of a stacked Gibbs state or entropy: as many as fit in
    WORKSPACE_BYTES at about eight dim x dim complex arrays a row, at least one."""
    return max(1, WORKSPACE_BYTES // (128 * basis.dim**2))


def _reuses_jacobian(basis: ConfigurationBasis) -> bool:
    """Whether a Jacobian, dim^2 (8 sum_{i<j} k + 4 sum_i k + nb^4) operations
    over the hop-table entries k of each pair, takes at least
    REUSE_COST_RATIO times the 25 dim^3 of a Gibbs evaluation."""
    diagonal, upper = basis.hop_blocks
    cost = basis.dim**2 * (8 * upper.rows.size + 4 * diagonal.rows.size + basis.nb**4)
    return cost >= REUSE_COST_RATIO * 25 * basis.dim**3


def invert_potentials(
    targets,
    system: System,
    params: EnsembleParams,
    opts: InversionOptions = InversionOptions(),
) -> list[InversionReport]:
    """invert_potential for each of a list of targets, as one stacked solve.

    The targets run in lockstep through one Newton path: the lift, the
    Gibbs kernel, the Jacobian, the linear solve and the line search each
    work on the stack of those still running.  Every target keeps its own
    step lengths, backtracks, Jacobian refreshes, verdict, trace, beta
    ladder and products, so its report is, bit for bit, the one
    invert_potential gives it alone.
    opts.initial is None (each target starts from v = 0), one coefficient
    vector of shape (K,) for every target, or a (B, K) array with one row
    per target.

    Targets go in chunks whose Jacobians fit in WORKSPACE_BYTES,
    or one by one where one does not.  Each round solves one rung of the
    beta ladder: the first unfinished chunk's targets on its coldest rung.
    """
    targets = [gamma if isinstance(gamma, OneRdm) else OneRdm(gamma) for gamma in targets]
    basis, size = system.basis, system.pbasis.size
    # checked as one stack; target by target only where that fails, for the first bad one's text
    stack = np.array([gamma.matrix for gamma in targets]) if all(gamma.nb == basis.nb for gamma in targets) else None
    if stack is None or (abs(np.einsum("bii->b", stack.reshape(-1, basis.nb, basis.nb)).real - basis.n) > 1e-10).any():
        for target in targets:
            if target.nb != basis.nb:
                raise DimensionMismatch(f"target on {target.nb} orbitals, basis has {basis.nb}")
            if abs(target.trace - basis.n) > 1e-10:
                raise InvalidArguments(f"target trace {target.trace} differs from n={basis.n} beyond 1e-10")
    starts = np.zeros(size) if opts.initial is None else np.array(opts.initial, dtype=float)
    if starts.shape not in ((size,), (len(targets), size)):
        raise InvalidArguments(f"initial coefficients must have shape ({size},) or ({len(targets)}, {size})")
    starts = np.array(np.broadcast_to(starts, (len(targets), size)))
    chunk = np.arange(len(targets)) // max(1, WORKSPACE_BYTES // _workspace_bytes(basis))
    # each target's rung k on the ladder at beta / BETA_RUNG^k, -1 once it
    # has stopped, and whether it is climbing back from a colder rung
    rung, climbing = np.zeros(len(targets), dtype=int), np.zeros(len(targets), dtype=bool)
    ladder, reports = [params], [None] * len(targets)
    while (rung >= 0).any():
        pending = (rung >= 0) & (chunk == chunk[np.argmax(rung >= 0)])
        k = rung[pending].max()
        rows = np.flatnonzero(pending & (rung == k)).tolist()
        if k == len(ladder):
            ladder.append(EnsembleParams(ladder[-1].beta / BETA_RUNG))
        solved, spread = _dual_newton([targets[b] for b in rows], system, ladder[k], opts, starts[rows])
        for b, report, s in zip(rows, solved, spread.tolist()):
            if k == 0:
                reports[b] = report
            if report.verdict is InversionVerdict.MAX_ITERATIONS and not climbing[b] and ladder[k].beta * s > 1.0:
                rung[b] = k + 1
            elif report.verdict is InversionVerdict.CONVERGED and k > 0:
                rung[b], climbing[b] = k - 1, True
                starts[b] = system.pbasis.coefficients(report.v_star)
            else:
                rung[b] = -1
    return reports


def invert_potential(
    gamma: OneRdm,
    system: System,
    params: EnsembleParams,
    opts: InversionOptions = InversionOptions(),
) -> InversionReport:
    """Maximize g(v) = Omega[v] - tr{v gamma} by damped Newton ascent,
    globalized by continuation in beta.  Where a response Jacobian costs
    REUSE_COST_RATIO Gibbs evaluations or more, steps between fresh ones
    take BFGS updates of it; report.jacobians counts the fresh ones.

    The target is classified first.  An interior target has a unique
    maximizer; the solver stops CONVERGED once the residual is at most tol,
    else MAX_ITERATIONS.  Any other target has none and is NON_REPRESENTABLE
    at iteration 0: the report holds the starting potential, the dual value
    there (a lower bound on F by weak duality), the residual there and an
    empty trace.

    A solve that stops short where the starting Hamiltonian's spread
    E_max - E_min exceeds 1/beta is retried from the same start at
    beta/BETA_RUNG, down to a rung where every population is within a factor
    e of the ground state's.  From a rung that converges it climbs back, each
    rung from the maximizer below, until a climb stops short.  The report
    and its trace are the last solve's at beta; if no colder rung converges,
    that is the first one.

    This is invert_potentials on a batch of one: the same engine.
    """
    return invert_potentials([gamma], system, params, opts)[0]


def require_converged(report: InversionReport, gamma: OneRdm, system: System) -> InversionReport:
    """report, if its verdict is CONVERGED.  Raises NotRepresentableError off
    the interior, naming the natural occupation of gamma nearest to (or
    furthest past) a face and its signed distance from it, and
    ConvergenceFailure if the solver stopped short on an interior target."""
    if report.verdict is InversionVerdict.NON_REPRESENTABLE:
        occ = np.linalg.eigvalsh(np.asarray(getattr(gamma, "matrix", gamma)))
        d = face_distances(occ, system.basis.statistics)
        k = int(np.argmin(d))
        raise NotRepresentableError(
            f"target classified {report.classification.value}: natural occupation {occ[k]:.12g} is at signed "
            f"distance {d[k]:+.3e} from the face n = {int(d[k] != occ[k])}; no potential attains the dual maximum"
        )
    if report.verdict is not InversionVerdict.CONVERGED:
        raise ConvergenceFailure(
            f"dual Newton stopped after {report.iterations} iterations at residual {report.residual:.3e}"
        )
    return report


def universal_functional(
    gamma: OneRdm,
    system: System,
    params: EnsembleParams,
    opts: InversionOptions = InversionOptions(),
) -> tuple[float, TracelessPotential]:
    """Value and derivative of the universal functional at an interior 1RDM.

    Returns (F[gamma], dF/dgamma) where the derivative is -v* for the
    maximizing potential.  Raises NotRepresentableError off the interior
    and ConvergenceFailure if the solver gives up on a valid target.
    """
    report = require_converged(invert_potential(gamma, system, params, opts), gamma, system)
    return report.f_value, report.gradient
