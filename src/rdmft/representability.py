"""Explicit density operators generating a given 1RDM.

Any occupation vector inside the closed representable set decomposes
into extreme points: 0/1 vectors with N ones for fermions (greedy
peeling), the scaled simplex corners N*e_p for bosons.  From such a
decomposition a generating density operator is assembled as a convex
combination of Slater-determinant projectors, or for bosons as a single
condensate-superposition pure state.

Vertices use 0-based orbital indices throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .ensemble import (
    CLASSIFY_DEFAULT_TOL,
    RDM_TRACE_TOL,
    DensityOperator,
    OneRdm,
    RdmClass,
    classify_rdm,
    natural_spectrum,
)
from .errors import (
    DecompositionFailure,
    InfeasibleOccupations,
    InvalidArguments,
    NotRepresentableError,
)
from .fock import ConfigurationBasis, Statistics

OCCUPATION_FEAS_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
PEEL_CUTOFF = 1e-14


@dataclass(frozen=True)
class PolytopeDecomposition:
    """Convex combination of occupation-polytope vertices.

    terms pairs each weight with a vertex given as an orbital index
    tuple: strictly increasing with N entries for fermions, N repeats of
    a single orbital for bosonic simplex corners.  residual is the
    reconstruction error in the max norm.
    """

    terms: tuple[tuple[float, tuple[int, ...]], ...]
    residual: float

    def occupation_vector(self, nb: int) -> np.ndarray:
        out = np.zeros(nb)
        for mu, vertex in self.terms:
            for i in vertex:
                out[i] += mu
        return out


def polytope_decompose(occupations, n_particles: int) -> PolytopeDecomposition:
    """Greedy peeling of a fermionic occupation vector into 0/1 vertices.

    Each round selects the N largest remaining coordinates (ties to the
    lowest index) and peels off the largest weight that keeps the
    remainder inside the shrunken polytope.  Terminates well under the
    nb^2 iteration cap; exactness is enforced by a reconstruction check.
    """
    occ = np.asarray(occupations, dtype=float)
    n = int(n_particles)
    if occ.ndim != 1 or occ.size == 0:
        raise InvalidArguments(f"expected a 1-d occupation vector, got shape {occ.shape}")
    nb = occ.size
    if n < 1 or n > nb:
        raise InvalidArguments(f"particle count {n} incompatible with {nb} orbitals")
    if occ.min() < -OCCUPATION_FEAS_TOL or occ.max() > 1 + OCCUPATION_FEAS_TOL:
        raise InfeasibleOccupations(f"occupations outside [0, 1]: min {occ.min():.3e}, max {occ.max():.3e}")
    if abs(occ.sum() - n) > OCCUPATION_FEAS_TOL:
        raise InfeasibleOccupations(f"occupations sum to {occ.sum()!r}, expected {n}")

    residual = np.clip(occ, 0.0, 1.0)
    terms: list[tuple[float, tuple[int, ...]]] = []
    for _ in range(nb * nb):
        t = residual.sum() / n
        if t <= PEEL_CUTOFF:
            break
        order = np.argsort(-residual, kind="stable")
        selected = np.sort(order[:n])
        unselected = order[n:]
        mu = min(float(residual[selected].min()), t)
        if unselected.size:
            # unselected coordinates must stay coverable by later rounds
            mu = min(mu, t - float(residual[unselected].max()))
        if mu <= 0:
            break
        residual[selected] -= mu
        np.clip(residual, 0.0, None, out=residual)
        terms.append((float(mu), tuple(int(i) for i in selected)))

    decomp = PolytopeDecomposition(terms=tuple(terms), residual=0.0)
    recon = decomp.occupation_vector(nb)
    err = float(np.max(np.abs(recon - np.clip(occ, 0.0, 1.0))))
    weight_defect = abs(sum(mu for mu, _ in terms) - 1.0)
    if err > RECONSTRUCTION_TOL or weight_defect > max(WEIGHT_SUM_TOL, PEEL_CUTOFF):
        raise DecompositionFailure(
            f"greedy peel left reconstruction error {err:.3e}, weight defect {weight_defect:.3e}"
        )
    return PolytopeDecomposition(terms=tuple(terms), residual=err)


def simplex_decompose(occupations, n_particles: int) -> PolytopeDecomposition:
    """Bosonic analogue: weights n_p/N on the simplex corners N*e_p."""
    occ = np.asarray(occupations, dtype=float)
    n = int(n_particles)
    if occ.ndim != 1 or occ.size == 0:
        raise InvalidArguments(f"expected a 1-d occupation vector, got shape {occ.shape}")
    if occ.min() < -OCCUPATION_FEAS_TOL:
        raise InfeasibleOccupations(f"negative occupation {occ.min():.3e}")
    if abs(occ.sum() - n) > OCCUPATION_FEAS_TOL:
        raise InfeasibleOccupations(f"occupations sum to {occ.sum()!r}, expected {n}")
    clipped = np.clip(occ, 0.0, None)
    terms = tuple(
        (float(x / n), (int(p),) * n) for p, x in enumerate(clipped) if x > 0.0
    )
    recon = np.zeros(occ.size)
    for mu, vertex in terms:
        recon[vertex[0]] += mu * n
    err = float(np.max(np.abs(recon - clipped)))
    return PolytopeDecomposition(terms=terms, residual=err)


def _check_target(gamma: OneRdm, basis: ConfigurationBasis, statistics: Statistics, tol: float) -> None:
    if basis.statistics is not statistics:
        raise InvalidArguments(f"basis holds {basis.statistics.value}s, construction is for {statistics.value}s")
    if gamma.nb != basis.nb:
        raise InvalidArguments(f"1RDM on {gamma.nb} orbitals, basis has {basis.nb}")
    if abs(gamma.trace - basis.n) > RDM_TRACE_TOL:
        raise InvalidArguments(f"1RDM trace {gamma.trace} differs from n={basis.n} beyond 1e-10")
    if classify_rdm(gamma, statistics, tol) is RdmClass.OUTSIDE:
        raise NotRepresentableError("1RDM lies outside the admissible occupation set")


def coleman_fermionic(
    gamma, basis: ConfigurationBasis, tol: float = CLASSIFY_DEFAULT_TOL
) -> DensityOperator:
    """Density operator generating a fermionic 1RDM, boundary included.

    Natural occupations are peeled into 0/1 vertices; each vertex maps to
    the Slater determinant of the corresponding natural orbitals, whose
    configuration amplitudes are N x N minors of the orbital matrix.
    """
    target = gamma if isinstance(gamma, OneRdm) else OneRdm(gamma)
    _check_target(target, basis, Statistics.FERMION, tol)
    spectrum = natural_spectrum(target)
    decomp = polytope_decompose(np.clip(spectrum.occupations, 0.0, 1.0), basis.n)
    # minors[s, a, p]: orbital p's coefficient on configuration s's a-th occupied orbital
    minors = spectrum.orbitals[np.nonzero(basis.occupations)[1].reshape(basis.dim, basis.n)]
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    for mu, vertex in decomp.terms:
        vec = np.linalg.det(minors[:, :, list(vertex)])
        vec /= np.linalg.norm(vec)
        rho += mu * np.outer(vec, vec.conj())
    return DensityOperator((rho + rho.conj().T) / 2, basis.tag)


def _condensate_vector(orbital: np.ndarray, basis: ConfigurationBasis) -> np.ndarray:
    # <s|phi^(x)N> = sqrt(N!/prod s_p!) * prod c_p^(s_p), the factorials as exact integers
    occ = basis.occupations
    factorials = np.array([factorial(s) for s in range(basis.n + 1)], dtype=object)
    weights = sqrt(factorial(basis.n)) / np.sqrt(factorials[occ].prod(axis=1).astype(float))
    return weights * np.prod(orbital ** occ, axis=1)


def coleman_bosonic(
    gamma, basis: ConfigurationBasis, tol: float = CLASSIFY_DEFAULT_TOL
) -> DensityOperator:
    """Density operator generating a bosonic 1RDM.

    For one particle the 1RDM itself, reinterpreted on the configuration
    basis, is already a density operator.  For N >= 2 a single pure
    superposition of natural-orbital condensates suffices: the cross
    terms between different condensates carry no one-body weight.
    """
    target = gamma if isinstance(gamma, OneRdm) else OneRdm(gamma)
    _check_target(target, basis, Statistics.BOSON, tol)
    if basis.n == 1:
        # descending-lex single-particle configurations align with orbitals
        return DensityOperator(target.matrix.copy(), basis.tag)
    spectrum = natural_spectrum(target)
    occ = np.clip(spectrum.occupations, 0.0, None)
    psi = np.zeros(basis.dim, dtype=complex)
    for j in range(basis.nb):
        if occ[j] == 0.0:
            continue
        psi += sqrt(occ[j] / basis.n) * _condensate_vector(spectrum.orbitals[:, j], basis)
    psi /= np.linalg.norm(psi)
    return DensityOperator(np.outer(psi, psi.conj()), basis.tag)


def _haar_normals(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The complex Gaussian matrix whose QR gives a Haar-random unitary."""
    return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / sqrt(2)


def _haar_rotations(spectra: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Hermitian matrix with each spectrum of a (B, dim) stack in the Haar basis that QR with R's phases
    fixed makes of the same row of z (Mezzadri, Notices AMS 54, 592 (2007)); the same bits in any stack."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    m = (q * spectra[..., None, :]) @ q.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _rdm_draw(rng: np.random.Generator, nb: int, n_particles: int, statistics: Statistics, interior: bool):
    """random_rdm's draws from rng: its occupations and Haar normals."""
    if nb < 1 or n_particles < 1:
        raise InvalidArguments(f"need nb >= 1 and n >= 1, got nb={nb}, n={n_particles}")
    if statistics is Statistics.FERMION and n_particles >= nb:
        raise InvalidArguments(f"fermions need nb > n, got nb={nb}, n={n_particles}")
    margin = 0.01 if interior else 0.0
    fermion, drawn = statistics is Statistics.FERMION, 0
    while drawn < 100000:
        block, state = min(drawn + 1, 100000 - drawn), rng.bit_generator.state
        occ = rng.dirichlet(np.ones(nb), size=block) * n_particles
        rejected = (occ.min(-1) < margin) & interior | (occ.max(-1) > 1 - margin) & fermion
        if not rejected.all():
            first = int(rejected.argmin())
            if first < block - 1:
                rng.bit_generator.state = state
                rng.dirichlet(np.ones(nb), size=first + 1)
            return occ[first], _haar_normals(rng, nb)
        drawn += block
    raise InvalidArguments(f"no occupation draw satisfied the margins for nb={nb}, n={n_particles}")


def random_rdm(
    nb: int,
    n_particles: int,
    statistics: Statistics,
    interior: bool = True,
    seed=None,
) -> OneRdm:
    """Seeded random 1RDM: occupations from a scaled Dirichlet draw with
    rejection against the constraints, rotated by a Haar unitary.

    interior=True keeps every occupation at least 0.01 away from each
    polytope face; otherwise fermion draws merely reject n_i >= 1.

    Draw stream: the result, and where the generator is left, are those of
    drawing one Dirichlet vector at a time until one is accepted (at most
    100000 draws), then the Haar unitary.  The draws are taken in blocks of
    1, 2, 4, ... vectors; a block whose accepted vector is not its last is
    drawn again, from the generator state at its start, up to that vector.
    """
    occ, z = _rdm_draw(np.random.default_rng(seed), nb, n_particles, statistics, interior)
    return OneRdm(_haar_rotations(occ[None], z[None])[0])
