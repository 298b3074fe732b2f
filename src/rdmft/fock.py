"""Configuration bases at fixed particle number and second-quantized lifting.

A configuration is an occupation vector over ``nb`` orthonormal orbitals,
with entries in {0, 1} for fermions and {0..n} for bosons, summing to the
particle number ``n``.  Configurations are enumerated in descending
lexicographic order; that order is fixed, so matrices built on the same
(nb, n, statistics) triple are always directly comparable.

Sign convention: a fermionic configuration stands for the creation string
with ascending orbital indices applied to the vacuum.  Acting with a_j or
a+_j therefore picks up (-1)**(number of occupied orbitals below j),
evaluated on the occupations at the moment the operator is applied.
Bosonic operators carry the usual sqrt(occupation) factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import comb, prod
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArguments,
    InvalidConfiguration,
    InvalidDensityOperator,
    NonHermitianInput,
    SymmetryViolation,
)

ONE_BODY_HERMITICITY_TOL = 1e-13
LIFTED_HERMITICITY_TOL = 1e-12
TWO_BODY_SYMMETRY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_PSD_TOL = 1e-12


class Statistics(Enum):
    """Particle exchange statistics."""

    BOSON = "boson"
    FERMION = "fermion"


def _hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m+| over a matrix, or over every matrix of a (..., n, n) stack."""
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) if m.size else 0.0


def _as_square(matrix, size: int | None = None) -> np.ndarray:
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if size is not None and m.shape[0] != size:
        raise DimensionMismatch(f"expected a {size}x{size} matrix, got {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class OneBodyOperator:
    """Hermitian matrix on the orbital space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        if _hermiticity_defect(m) > ONE_BODY_HERMITICITY_TOL:
            raise NonHermitianInput("one-body matrix is not Hermitian within 1e-13")
        object.__setattr__(self, "matrix", m)

    @property
    def nb(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class TwoBodyOperator:
    """Coefficient tensor w[i,j,k,l] of (1/2) sum w_ijkl a+_i a+_j a_l a_k.

    Required symmetries: hermiticity w[i,j,k,l] = conj(w[k,l,i,j]) and
    particle exchange w[i,j,k,l] = w[j,i,l,k].
    """

    tensor: np.ndarray

    def __post_init__(self):
        w = np.asarray(getattr(self.tensor, "tensor", self.tensor), dtype=complex)
        if w.ndim != 4 or len(set(w.shape)) != 1:
            raise DimensionMismatch(f"expected an (nb,)*4 tensor, got shape {w.shape}")
        if np.max(np.abs(w - w.transpose(2, 3, 0, 1).conj())) > TWO_BODY_SYMMETRY_TOL:
            raise SymmetryViolation("two-body tensor violates hermiticity")
        if np.max(np.abs(w - w.transpose(1, 0, 3, 2))) > TWO_BODY_SYMMETRY_TOL:
            raise SymmetryViolation("two-body tensor violates particle-exchange symmetry")
        object.__setattr__(self, "tensor", w)

    @property
    def nb(self) -> int:
        return self.tensor.shape[0]


@dataclass(frozen=True, eq=False)
class ManyBodyOperator:
    """Hermitian matrix on a configuration basis, tagged by that basis."""

    matrix: np.ndarray
    basis_tag: str

    def __post_init__(self):
        m = _as_square(self.matrix)
        if _hermiticity_defect(m) > LIFTED_HERMITICITY_TOL:
            raise NonHermitianInput("many-body matrix is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive semidefinite matrix on a configuration basis."""

    matrix: np.ndarray
    basis_tag: str

    def __post_init__(self):
        m = _as_square(self.matrix)
        _check_densities(m[None])
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_densities(m: np.ndarray) -> None:
    """DensityOperator's checks, in order, on every matrix of a (B, dim, dim)
    complex stack: raises the first one that some matrix fails."""
    if not np.isfinite(m).all():
        raise InvalidDensityOperator("density matrix entries must be finite")
    if _hermiticity_defect(m) > LIFTED_HERMITICITY_TOL:
        raise InvalidDensityOperator("density matrix is not Hermitian within 1e-12")
    trace = np.trace(m, axis1=-2, axis2=-1)
    if (abs(trace.real - 1.0) > DENSITY_TRACE_TOL).any() or (abs(trace.imag) > DENSITY_TRACE_TOL).any():
        raise InvalidDensityOperator("density matrix trace differs from 1 beyond 1e-12")
    if np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2).min(initial=np.inf) < -DENSITY_PSD_TOL:
        raise InvalidDensityOperator("density matrix has an eigenvalue below -1e-12")


class HopTable(NamedTuple):
    """Flat sparse table of the hopping operators: entry k states
    <rows[k]| a+_i a_j |cols[k]> = amps[k] with pair[k] = i*nb + j.  For a
    fixed pair the rows are distinct, since a+_i a_j maps distinct
    configurations to distinct ones."""

    pair: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    amps: np.ndarray


class HopBlocks(NamedTuple):
    """The hop table regrouped for the response Jacobian.

    diagonal and upper hold the entries of the pairs (i, i) and of the pairs
    i < j (in np.triu_indices order), one row per pair; all diagonal pairs
    have the same number of entries, and so do all off-diagonal ones.  The
    pairs i > j are left out because a+_j a_i is the adjoint of a+_i a_j.
    """

    diagonal: HopTable
    upper: HopTable


@lru_cache(maxsize=64)
def triangle_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices m*size + n of the upper triangle m <= n of a size x
    size matrix, its diagonal first, and the transposed positions n*size + m;
    read-only, as every caller shares them."""
    m, n = np.concatenate([np.diag_indices(size), np.triu_indices(size, 1)], axis=1)
    flat = np.stack([m * size + n, n * size + m])
    flat.flags.writeable = False
    return flat[0], flat[1]


@dataclass(frozen=True)
class ConfigurationBasis:
    """Ordered occupation-vector basis of the n-particle space."""

    nb: int
    n: int
    statistics: Statistics
    states: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    @cached_property
    def tag(self) -> str:
        return f"{self.statistics.value}:nb={self.nb}:n={self.n}"

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {state: k for k, state in enumerate(self.states)}

    @cached_property
    def occupations(self) -> np.ndarray:
        """The states as one (dim, nb) integer array."""
        return np.array(self.states, dtype=np.intp)

    @cached_property
    def hop_terms(self) -> HopTable:
        """Every nonzero matrix element of a+_i a_j, by pair = i*nb + j, then column."""
        nb, occ = self.nb, self.occupations
        fermion = self.statistics is Statistics.FERMION
        i, j = np.divmod(np.arange(nb * nb), nb)
        hops = occ.T[j] > 0
        if fermion:
            hops &= (occ.T[i] == 0) | (i == j)[:, None]
        pair, cols = np.nonzero(hops)
        i, j = i[pair], j[pair]
        if fermion:
            # a_j counts the orbitals below j, then a+_i those below i without j
            below = np.cumsum(occ, axis=1) - occ
            amps = 1.0 - 2 * ((below[cols, j] + below[cols, i] - (j < i)) % 2)
        else:
            amps = np.sqrt(occ[cols, j]) * np.sqrt(occ[cols, i] + 1)
        # number operators: exact integer amplitude, no sqrt round-off
        amps = np.where(i == j, occ[cols, j], amps)
        # the states' occupation digits, negated to ascend; ravel_multi_index raises
        # rather than wraps past intp, and a+_i a_j moves one unit from digit j to i
        dims = (2 if fermion else self.n + 1,) * nb
        codes, digit = -np.ravel_multi_index(occ.T, dims), np.ravel_multi_index(np.eye(nb, dtype=np.intp), dims)
        rows = np.searchsorted(codes, codes[cols] + digit[j] - digit[i])
        return HopTable(pair, rows, cols, amps)

    @cached_property
    def hop_blocks(self) -> HopBlocks:
        """hop_terms of the pairs i <= j as equal-length rows, see HopBlocks."""
        table, nb = self.hop_terms, self.nb
        bounds = np.searchsorted(table.pair, np.arange(nb * nb + 1))
        blocks = []
        for i, j in (np.diag_indices(nb), np.triu_indices(nb, 1)):
            starts = bounds[i * nb + j]
            counts = bounds[i * nb + j + 1] - starts
            k = int(counts.max(initial=0))
            assert np.all(counts == k)
            entries = starts[:, None] + np.arange(k)
            blocks.append(HopTable(*(field[entries] for field in table)))
        return HopBlocks(*blocks)


def _boson_states(nb: int, n: int) -> list[tuple[int, ...]]:
    if nb == 1:
        return [(n,)]
    out = []
    for k in range(n, -1, -1):
        out.extend((k,) + rest for rest in _boson_states(nb - 1, n - k))
    return out


def build_basis(nb: int, n: int, statistics: Statistics) -> ConfigurationBasis:
    """Enumerate all configurations of n particles in nb orbitals.

    Fermions require nb > n (otherwise the lattice of occupations collapses
    onto a single point or is empty).  The returned states are in descending
    lexicographic order.
    """
    if nb < 1 or n < 1:
        raise InvalidArguments(f"need nb >= 1 and n >= 1, got nb={nb}, n={n}")
    base = 2 if statistics is Statistics.FERMION else n + 1
    if base**nb > np.iinfo(np.intp).max:
        raise InvalidArguments(f"{nb} orbitals need {base}**{nb} configuration codes, past the index range")
    if statistics is Statistics.FERMION:
        if nb <= n:
            raise InvalidArguments(f"fermions need nb > n, got nb={nb}, n={n}")
        states = []
        for occ in itertools.combinations(range(nb), n):
            vec = [0] * nb
            for p in occ:
                vec[p] = 1
            states.append(tuple(vec))
        expected = comb(nb, n)
    else:
        states = _boson_states(nb, n)
        expected = comb(nb + n - 1, n)
    assert len(states) == expected
    assert all(states[k] > states[k + 1] for k in range(len(states) - 1))
    return ConfigurationBasis(nb=nb, n=n, statistics=statistics, states=tuple(states))


def _scatter_sum(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[..., i] = sum of values[..., k] over the k with index[k] = i, for
    i < size and each entry of the leading batch axes of values.  One
    bincount over the whole batch: entry b's bins are offset by b*size, so
    each bin still sums its terms in table order."""
    batch = values.shape[:-1]
    count = prod(batch)
    flat = (np.arange(0, count * size, size)[:, None] + index).ravel() if count > 1 else index
    values = values.reshape(count * len(index))
    out = np.bincount(flat, values.real, count * size) + 1j * np.bincount(flat, values.imag, count * size)
    return out.reshape(*batch, size)


def _lift(coeffs: np.ndarray, basis: ConfigurationBasis) -> np.ndarray:
    """Dense sum_ij coeffs[..., i*nb + j] a+_i a_j on the basis, unchecked;
    leading axes of coeffs index a batch of operators."""
    table = basis.hop_terms
    values = np.asarray(coeffs)[..., table.pair] * table.amps
    out = _scatter_sum(table.rows * basis.dim + table.cols, values, basis.dim * basis.dim)
    return out.reshape(*out.shape[:-1], basis.dim, basis.dim)


def _rdm_matrix(rho: np.ndarray, basis: ConfigurationBasis) -> np.ndarray:
    """gamma_ij = Tr{rho a+_j a_i} from one contraction with the hop table;
    leading axes of rho index a batch of states."""
    table = basis.hop_terms
    traces = _scatter_sum(table.pair, table.amps * rho[..., table.cols, table.rows], basis.nb * basis.nb)
    gamma = traces.reshape(*traces.shape[:-1], basis.nb, basis.nb).swapaxes(-1, -2)
    return (gamma + gamma.conj().swapaxes(-1, -2)) / 2


def lift_one_body(h, basis: ConfigurationBasis) -> ManyBodyOperator:
    """Lift sum_ij h_ij a+_i a_j onto the configuration basis."""
    op = OneBodyOperator(_as_square(h, basis.nb))
    return ManyBodyOperator(_hermitized(_lift(op.matrix.ravel(), basis)), basis.tag)


def lift_two_body(w, basis: ConfigurationBasis) -> ManyBodyOperator:
    """Lift (1/2) sum_ijkl w_ijkl a+_i a+_j a_l a_k onto the basis.

    Uses a+_i a+_j a_l a_k = a+_i a_k a+_j a_l - delta_jk a+_i a_l, which
    holds for both statistics, so the lift is a sum over orbital pairs
    (i, k) of hop(i, k) times the one-body lift of w[i, :, k, :].
    """
    op = w if isinstance(w, TwoBodyOperator) else TwoBodyOperator(np.asarray(w, dtype=complex))
    if op.nb != basis.nb:
        raise DimensionMismatch(f"tensor is for {op.nb} orbitals, basis has {basis.nb}")
    if basis.n == 1:
        return ManyBodyOperator(np.zeros((basis.dim, basis.dim), dtype=complex), basis.tag)
    nb, table = basis.nb, basis.hop_terms
    out = -_lift(np.trace(op.tensor, axis1=1, axis2=2).ravel(), basis)
    by_pair = op.tensor.transpose(0, 2, 1, 3).reshape(nb * nb, nb * nb)
    bounds = np.searchsorted(table.pair, np.arange(nb * nb + 1))
    for p in np.flatnonzero(np.any(by_pair != 0, axis=1)):
        k = slice(bounds[p], bounds[p + 1])
        out[table.rows[k]] += table.amps[k, None] * _lift(by_pair[p], basis)[table.cols[k]]
    return ManyBodyOperator(_hermitized(out / 2), basis.tag)


def _hermitized(m: np.ndarray) -> np.ndarray:
    """(m + m+)/2 of a matrix or of each matrix of a stack, whose hermiticity
    defect must stay below 1e-12."""
    defect = _hermiticity_defect(m) / 2
    if defect >= LIFTED_HERMITICITY_TOL:
        raise NonHermitianInput(f"lifted operator hermiticity defect {defect:.3e} exceeds 1e-12")
    return (m + m.conj().swapaxes(-1, -2)) / 2


def slater_state(orbitals, basis: ConfigurationBasis) -> DensityOperator:
    """Projector onto a single configuration.

    Fermions accept either an index set of n distinct orbitals or a 0/1
    occupation vector of length nb; bosons take an occupation vector
    summing to n.
    """
    spec = tuple(int(x) for x in sorted(orbitals)) if isinstance(orbitals, (set, frozenset)) else tuple(int(x) for x in orbitals)
    state = None
    if len(spec) == basis.nb and all(x >= 0 for x in spec) and sum(spec) == basis.n:
        state = spec
    elif basis.statistics is Statistics.FERMION and len(spec) == basis.n:
        if len(set(spec)) != basis.n or not all(0 <= p < basis.nb for p in spec):
            raise InvalidConfiguration(f"index set {spec!r} is not n distinct orbitals below nb")
        vec = [0] * basis.nb
        for p in spec:
            vec[p] = 1
        state = tuple(vec)
    if state is None or state not in basis.index:
        raise InvalidConfiguration(f"{spec!r} does not describe a configuration of {basis.tag}")
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    k = basis.index[state]
    rho[k, k] = 1.0
    return DensityOperator(rho, basis.tag)
