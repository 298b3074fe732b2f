"""Dual evaluation of the universal 1RDM functional at fixed temperature.

The functional is evaluated through its concave dual: F[gamma] =
max_v (Omega[v] - tr{v gamma}) over traceless Hermitian one-body
potentials v.  The maximizer, when it exists, satisfies gamma_v = gamma
and -v* is the derivative of F at gamma.  Potentials are parametrized by
an orthonormal traceless Hermitian basis, so the maximization runs in
R^(nb^2 - 1) where the objective's Hessian is the (negative definite)
linear-response matrix and damped Newton steps converge quadratically.

A maximizer exists exactly for interior targets: every 1RDM with purely
fractional occupations is uniquely v-representable, and a Gibbs 1RDM never
has an occupation on a face.  So the target's classification decides
NonRepresentable before the first Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import sqrt

import numpy as np

from .ensemble import (
    CLASSIFY_DEFAULT_TOL,
    EnsembleParams,
    GibbsSolution,
    OneRdm,
    RdmClass,
    _gibbs,
    classify_rdm,
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
    HopTable,
    ManyBodyOperator,
    _hermiticity_defect,
    _lift,
    _rdm_matrix,
)

TRACE_TOL = 1e-12
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-14


@dataclass(frozen=True, eq=False)
class TracelessPotential:
    """Hermitian one-body potential with vanishing trace.

    The gauge freedom v -> v + c*1 is fixed by rejecting any nonzero
    trace at construction instead of silently projecting it away.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(getattr(self.matrix, "matrix", self.matrix), dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if _hermiticity_defect(m) > ONE_BODY_HERMITICITY_TOL:
            raise NonHermitianInput("potential is not Hermitian within 1e-13")
        # relative to scale: a large potential cannot express an exactly
        # zero trace below the ulp of its own diagonal entries
        if abs(complex(np.trace(m))) > TRACE_TOL * max(1.0, float(np.linalg.norm(m))):
            raise InvalidArguments(f"potential trace {np.trace(m)!r} exceeds 1e-12; remove the gauge part")
        object.__setattr__(self, "matrix", m)

    @property
    def nb(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


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
        m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
        return (self.element_matrix @ m.T.ravel()).real

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
        return (np.asarray(coeffs, dtype=float) @ self.element_matrix).reshape(self.nb, self.nb)

    def potential(self, coeffs: np.ndarray) -> TracelessPotential:
        m = self.assemble(coeffs)
        # scrub the summation round-off so construction never trips on it
        m -= (np.trace(m) / self.nb) * np.eye(self.nb)
        return TracelessPotential(m)


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
    seeds the potential coefficients (zeros by default).
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


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    g_value: float
    residual: float
    step_norm: float


@dataclass(frozen=True, eq=False)
class InversionReport:
    """Outcome of one dual maximization."""

    verdict: InversionVerdict
    v_star: TracelessPotential
    f_value: float
    gradient: TracelessPotential
    residual: float
    iterations: int
    classification: RdmClass
    trace: tuple[IterationRecord, ...]


def _thermal(v: np.ndarray, system: System, params: EnsembleParams) -> GibbsSolution:
    """Gibbs state of H0 + lift(v) for a potential flattened to (nb*nb,)."""
    return _gibbs(system.h0.matrix + _lift(v, system.basis), params.beta, system.basis.tag)


def omega_of_v(v: TracelessPotential, system: System, params: EnsembleParams) -> tuple[float, OneRdm]:
    """Grand potential and Gibbs 1RDM of H0 + lift(v)."""
    if v.nb != system.basis.nb:
        raise DimensionMismatch(f"potential on {v.nb} orbitals, basis has {system.basis.nb}")
    state = _thermal(v.matrix.ravel(), system, params)
    return state.omega, OneRdm(_rdm_matrix(state.density, system.basis))


def _divided_differences(energies: np.ndarray, weights: np.ndarray, beta: float) -> np.ndarray:
    """Matrix of (w_m - w_n)/(E_m - E_n) for the populations w = exp(-beta*E)/Z
    at fixed Z, and its confluent limit -beta*w_m on equal energies.

    With d = |E_m - E_n| the lower level's population is max(w_m, w_n) and
    the other one is that times exp(-beta*d), so the quotient is
    max(w_m, w_n)*expm1(-beta*d)/d: no difference of populations is taken,
    and the entries are <= 0 exactly.
    """
    d = np.abs(energies[:, None] - energies[None, :])
    quotient = np.divide(np.expm1(-beta * d), d, out=np.full_like(d, -beta), where=d > 0)
    return np.maximum(weights[:, None], weights[None, :]) * quotient


def _rotated(block: HopTable, vectors: np.ndarray) -> np.ndarray:
    """Q_ij = V+ lift(a+_i a_j) V = V[rows]+ (amps V[cols]) for each pair of
    the block, flattened to one row per pair: only the configurations that
    a+_i a_j reaches enter the product."""
    rows = vectors.conj().take(block.rows, axis=0).swapaxes(1, 2)
    return np.matmul(rows, block.amps[..., None] * vectors.take(block.cols, axis=0)).reshape(len(block.rows), -1)


def _jacobian(
    state: GibbsSolution, basis: ConfigurationBasis, params: EnsembleParams, pbasis: PotentialBasis
) -> np.ndarray:
    """Response matrix J_ab = d tr{gamma_v G_a} / d c_b in the coordinates of
    pbasis; symmetric and negative definite on the traceless space.

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
    """
    blocks = basis.hop_blocks
    weight = np.sqrt(-_divided_differences(state.energies, state.weights, params.beta).take(blocks.triangle))
    weight[basis.dim :] *= sqrt(2)
    diagonal = _rotated(blocks.diagonal, state.eigenvectors).take(blocks.triangle, axis=1)
    upper = _rotated(blocks.upper, state.eigenvectors)
    q_adjoint = np.conj(upper.take(blocks.mirror, axis=1))
    q = upper.take(blocks.triangle, axis=1)
    # the full products are the largest arrays here: free them before x
    del upper
    nd, nu = len(diagonal), len(q)
    # rows in the column order of T: diagonal, symmetric, antisymmetric
    x = np.empty((nd + 2 * nu, blocks.triangle.size), dtype=complex)
    x[:nd] = diagonal
    np.add(q, q_adjoint, out=x[nd : nd + nu])
    np.subtract(q, q_adjoint, out=x[nd + nu :])
    x[nd + nu :] *= -1j
    x[:, : basis.dim] -= (x[:, : basis.dim] @ state.weights)[:, None]
    x *= weight
    real = x.view(float)
    t = pbasis.generator_map
    j = -(t @ (real @ real.T) @ t.T)
    return (j + j.T) / 2


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
    return _jacobian(_thermal(v.matrix.ravel(), system, params), system.basis, params, pb)


def invert_potential(
    gamma: OneRdm,
    system: System,
    params: EnsembleParams,
    opts: InversionOptions = InversionOptions(),
) -> InversionReport:
    """Maximize g(v) = Omega[v] - tr{v gamma} by damped Newton ascent.

    The target is classified first.  An interior target has a unique
    maximizer; the solver stops CONVERGED once the residual is at most tol,
    else MAX_ITERATIONS.  Any other target has none and is NON_REPRESENTABLE
    at iteration 0: the report holds the starting potential, the dual value
    there (a lower bound on F by weak duality), the residual there and an
    empty trace.
    """
    target = gamma if isinstance(gamma, OneRdm) else OneRdm(np.asarray(gamma, dtype=complex))
    basis = system.basis
    if target.nb != basis.nb:
        raise DimensionMismatch(f"target on {target.nb} orbitals, basis has {basis.nb}")
    if abs(target.trace - basis.n) > 1e-10:
        raise InvalidArguments(f"target trace {target.trace} differs from n={basis.n} beyond 1e-10")
    classification = classify_rdm(target, basis.statistics, opts.classify_tol)

    pbasis = system.pbasis
    elements = pbasis.element_matrix
    target_coeffs = pbasis.coefficients(target.matrix)

    if opts.initial is not None:
        c = np.array(opts.initial, dtype=float)
        if c.shape != (pbasis.size,):
            raise InvalidArguments(f"initial coefficients must have shape ({pbasis.size},)")
    else:
        c = np.zeros(pbasis.size)

    def dual_value(state: GibbsSolution, coeffs: np.ndarray) -> float:
        return state.omega - float(np.dot(coeffs, target_coeffs))

    # the gradient gamma_v - gamma and its norm, the Frobenius distance of
    # the matrices since both carry trace n
    def offset(state: GibbsSolution) -> tuple[np.ndarray, float]:
        grad = pbasis.coefficients(_rdm_matrix(state.density, basis)) - target_coeffs
        return grad, float(np.linalg.norm(grad))

    state = _thermal(c @ elements, system, params)
    grad, residual = offset(state)
    records: list[IterationRecord] = []
    interior = classification is RdmClass.INTERIOR
    verdict = InversionVerdict.MAX_ITERATIONS if interior else InversionVerdict.NON_REPRESENTABLE
    step_norm = 0.0

    # off the interior no maximizer exists, so that verdict is final here
    while interior and len(records) < opts.max_iter:
        g_value = dual_value(state, c)
        records.append(IterationRecord(len(records) + 1, g_value, residual, step_norm))
        if residual <= opts.tol:
            verdict = InversionVerdict.CONVERGED
            break

        jac = _jacobian(state, basis, params, pbasis)
        try:
            step = np.linalg.solve(jac, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -grad, rcond=None)[0]
        slope = float(np.dot(grad, step))
        if not np.isfinite(slope) or slope <= 0.0:
            # Newton direction unusable (J numerically singular); fall back
            # to steepest ascent to keep the dual value monotone
            step = grad / max(params.beta, 1.0)
            slope = float(np.dot(grad, step))

        g_scale = max(1.0, abs(g_value))
        t = 1.0
        accepted = None
        while t >= MIN_STEP:
            trial_c = c + t * step
            trial = _thermal(trial_c @ elements, system, params)
            required = ARMIJO_SLOPE * t * slope
            if dual_value(trial, trial_c) >= g_value + required:
                accepted = (trial_c, trial)
                break
            # once the required gain falls below float resolution of g the
            # Armijo test is meaningless; accept on residual contraction
            if required <= 1e-12 * g_scale and offset(trial)[1] <= residual * (1.0 - ARMIJO_SLOPE * t):
                accepted = (trial_c, trial)
                break
            t *= BACKTRACK_FACTOR
        if accepted is None:
            # no admissible step: the dual is flat at float resolution
            break
        c, state = accepted
        step_norm = float(np.linalg.norm(t * step))
        grad, residual = offset(state)

    v_star = pbasis.potential(c)
    # 0.0 - m, not -m: -m turns the exact zeros of v* into -0.0, which the
    # JSON reports would then print
    return InversionReport(
        verdict=verdict,
        v_star=v_star,
        f_value=dual_value(state, c),
        gradient=TracelessPotential(0.0 - v_star.matrix),
        residual=residual,
        iterations=len(records),
        classification=classification,
        trace=tuple(records),
    )


def converged_inversion(
    gamma: OneRdm,
    system: System,
    params: EnsembleParams,
    opts: InversionOptions = InversionOptions(),
) -> InversionReport:
    """invert_potential for callers that need the maximizer.  Raises
    NotRepresentableError off the interior, naming the natural occupation
    nearest to (or furthest past) a face and its signed distance from it,
    and ConvergenceFailure if the solver stops short on an interior target."""
    report = invert_potential(gamma, system, params, opts)
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
    report = converged_inversion(gamma, system, params, opts)
    return report.f_value, report.gradient
