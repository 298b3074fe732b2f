"""Canonical Gibbs states, grand potential pieces, and 1RDM extraction.

The partition function is handled in log space throughout: with E_min the
lowest eigenvalue of H, log Z = -beta*E_min + log sum_m exp(-beta*(E_m -
E_min)), so no overflow occurs for any beta the floats can express.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import exp

import numpy as np

from .errors import BasisMismatch, DimensionMismatch, InvalidArguments, InvalidDensityOperator
from .fock import (
    LIFTED_HERMITICITY_TOL,
    ConfigurationBasis,
    DensityOperator,
    ManyBodyOperator,
    Statistics,
    _as_square,
    _check_hermitian,
    _rdm_matrix,
)

RDM_TRACE_TOL = 1e-10
ENTROPY_EIGENVALUE_TOL = 1e-12
CLASSIFY_DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class EnsembleParams:
    """Inverse temperature of the canonical ensemble."""

    beta: float

    def __post_init__(self):
        if not (0.0 < self.beta < float("inf")):
            raise InvalidArguments(f"beta must be positive and finite, got {self.beta}")


@dataclass(frozen=True, eq=False)
class GibbsSolution:
    """Gibbs state of a many-body Hamiltonian together with its spectral data.

    energies ascend with the matching eigenvector columns, weights holds the
    normalised populations exp(-beta*E_m)/Z, density the matrix of the state
    and omega the grand potential -log(Z)/beta.  rho, the validated
    DensityOperator on the basis tagged basis_tag, is built on first use.
    The solver's batched kernel gives every field a leading batch axis (log_z
    and omega become arrays); rho and z then do not apply.
    """

    density: np.ndarray
    basis_tag: str
    log_z: float
    omega: float
    energies: np.ndarray
    eigenvectors: np.ndarray
    weights: np.ndarray

    @cached_property
    def rho(self) -> DensityOperator:
        return DensityOperator(self.density, self.basis_tag)

    @property
    def z(self) -> float:
        """Partition function; may overflow to inf for large beta*|E_min|."""
        try:
            return exp(self.log_z)
        except OverflowError:
            return float("inf")


@dataclass(frozen=True, eq=False)
class OneRdm:
    """One-body reduced density matrix gamma_ij = Tr{rho a+_j a_i}."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        _check_hermitian(m, LIFTED_HERMITICITY_TOL, "1RDM")
        object.__setattr__(self, "matrix", m)

    @property
    def nb(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _one_rdms(m: np.ndarray) -> list[OneRdm]:
    """A OneRdm around each matrix of a complex (B, nb, nb) stack, checked once as a stack."""
    _check_hermitian(m, LIFTED_HERMITICITY_TOL, "1RDM")
    rdms = [object.__new__(OneRdm) for _ in m]
    for rdm, row in zip(rdms, m):
        object.__setattr__(rdm, "matrix", row)
    return rdms


@dataclass(frozen=True, eq=False)
class NaturalSpectrum:
    """Natural occupations (descending) and the matching orbital columns."""

    occupations: np.ndarray
    orbitals: np.ndarray


class RdmClass(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def _gibbs(h: np.ndarray, beta: float, tag: str) -> GibbsSolution:
    """The log-space Gibbs kernel: eigenpairs of H, the populations
    exp(-beta*(E_m - E_min)) normalised by their sum, log Z and the state.
    Leading axes of h index a batch of Hamiltonians at one beta."""
    energies, vectors = np.linalg.eigh(h)
    boltzmann = np.exp(-beta * (energies - energies[..., :1]))
    total = np.sum(boltzmann, axis=-1)
    weights = boltzmann / total[..., None]
    rho = (vectors * weights[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    log_z = -beta * energies[..., 0] + np.log(total)
    density = (rho + rho.conj().swapaxes(-1, -2)) / 2
    return GibbsSolution(density, tag, log_z, -log_z / beta, energies, vectors, weights)


def gibbs_state(hamiltonian: ManyBodyOperator, params: EnsembleParams) -> GibbsSolution:
    """Diagonalize H and assemble exp(-beta*H)/Z in log space."""
    return _gibbs(hamiltonian.matrix, params.beta, hamiltonian.basis_tag)


def _entropies(m: np.ndarray) -> np.ndarray:
    """entropy of each matrix of a (B, dim, dim) stack; raises its error if
    some matrix has one.  The eigenvalues ascend, so the positive ones are
    each row's last p; rows are summed in groups of equal p, so that each
    sums its p terms alone, as one matrix would."""
    w = np.linalg.eigvalsh(m)
    outside = (w[:, 0] < -ENTROPY_EIGENVALUE_TOL) | (w[:, -1] > 1.0 + ENTROPY_EIGENVALUE_TOL)
    if outside.any():
        low, high = w[outside.argmax(), [0, -1]]
        raise InvalidDensityOperator(f"eigenvalues outside [0, 1] beyond 1e-12: [{low}, {high}]")
    w = np.clip(w, 0.0, 1.0)
    terms, positive, total = w * np.log(np.where(w > 0.0, w, 1.0)), (w > 0.0).sum(-1), np.empty(len(w))
    for p in set(positive.tolist()):
        total[positive == p] = np.sum(terms[positive == p, w.shape[-1] - p :], axis=-1)
    return np.where(-total < 0.0, 0.0, -total)


def entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy -sum w log w in natural log units, 0 log 0 = 0."""
    return float(_entropies(rho.matrix[None])[0])


def _free_energies(rho: np.ndarray, h: np.ndarray, beta: float) -> np.ndarray:
    """helmholtz of each state of a (B, dim, dim) stack in the Hamiltonian of
    the same row of h."""
    return np.trace(rho @ h, axis1=-2, axis2=-1).real - _entropies(rho) / beta


def helmholtz(rho: DensityOperator, hamiltonian: ManyBodyOperator, params: EnsembleParams) -> float:
    """Free-energy functional Tr{rho H} - S[rho]/beta of a trial state."""
    if rho.basis_tag != hamiltonian.basis_tag:
        raise BasisMismatch(f"state on {rho.basis_tag!r}, operator on {hamiltonian.basis_tag!r}")
    if rho.dim != hamiltonian.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs operator dim {hamiltonian.dim}")
    return float(_free_energies(rho.matrix[None], hamiltonian.matrix[None], params.beta)[0])


def one_rdm(rho: DensityOperator, basis: ConfigurationBasis) -> OneRdm:
    """Extract gamma_ij = Tr{rho a+_j a_i} via the basis hop tables."""
    if rho.basis_tag != basis.tag:
        raise BasisMismatch(f"state on {rho.basis_tag!r}, basis is {basis.tag!r}")
    if rho.dim != basis.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs basis dim {basis.dim}")
    gamma = _rdm_matrix(rho.matrix, basis)
    if abs(float(np.trace(gamma).real) - basis.n) > RDM_TRACE_TOL:
        raise InvalidDensityOperator(
            f"1RDM trace {np.trace(gamma).real!r} differs from n={basis.n} beyond 1e-10"
        )
    if basis.statistics is Statistics.FERMION:
        occ = np.linalg.eigvalsh(gamma)
        if occ[0] < -1e-12 or occ[-1] > 1.0 + 1e-12:
            raise InvalidDensityOperator(
                f"fermionic occupations {occ} leave [0, 1] beyond 1e-12"
            )
    return OneRdm(gamma)


def natural_spectrum(gamma: OneRdm) -> NaturalSpectrum:
    """Eigendecomposition of the 1RDM, occupations sorted descending."""
    occ, orbitals = np.linalg.eigh(gamma.matrix)
    return NaturalSpectrum(occupations=occ[::-1].copy(), orbitals=orbitals[:, ::-1].copy())


def gibbs_occupations(gamma: OneRdm, basis: ConfigurationBasis) -> np.ndarray:
    """Natural occupations of a Gibbs 1RDM, descending.  A Gibbs 1RDM lies
    inside its polytope, so the eigensolver's residue past a face is clipped:
    to [0, 1] for fermions, [0, n] for bosons."""
    ceiling = 1.0 if basis.statistics is Statistics.FERMION else basis.n
    return np.clip(natural_spectrum(gamma).occupations, 0.0, ceiling)


def face_distances(occupations: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Signed distance of each natural occupation from its nearest face of
    the representable set: n_i for bosons, min(n_i, 1 - n_i) for fermions.
    Negative past the face."""
    return np.minimum(occupations, 1.0 - occupations) if statistics is Statistics.FERMION else occupations


def classify_rdm(gamma, statistics: Statistics, tol: float = CLASSIFY_DEFAULT_TOL) -> RdmClass:
    """Locate a 1RDM relative to the representable set by the smallest face
    distance d of its natural occupations.

    Interior: d > tol, every occupation clears its faces.  Boundary:
    |d| <= tol.  Outside: d < -tol, an occupation lies past a face.
    """
    g = gamma if isinstance(gamma, OneRdm) else OneRdm(gamma)
    return _rdm_class(float(np.min(face_distances(np.linalg.eigvalsh(g.matrix), statistics))), tol)


def _rdm_class(distance: float, tol: float) -> RdmClass:
    """classify_rdm from the smallest face distance of the occupations."""
    if distance < -tol:
        return RdmClass.OUTSIDE
    return RdmClass.BOUNDARY if distance <= tol else RdmClass.INTERIOR
