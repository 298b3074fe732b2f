"""Prebuilt model Hamiltonians on small orbital sets.

Four families: the zero Hamiltonian, seeded random one-body, seeded
random one- plus two-body, and Hubbard-type rings.  Random draws are
reproducible through the seed field; the one-body part is always drawn
before the two-body part so adding w_norm to a config does not change h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArguments
from .fock import (
    ManyBodyOperator,
    OneBodyOperator,
    Statistics,
    TwoBodyOperator,
    build_basis,
    lift_one_body,
    lift_two_body,
)
from .functional import System

MODEL_KINDS = ("zero", "random_onebody", "random_full", "hubbard_ring")


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for a model Hamiltonian.

    h_scale and w_norm are Frobenius norms of the random parts; u and
    t_hop parametrize the Hubbard ring and are ignored elsewhere.
    """

    kind: str
    nb: int
    n: int
    statistics: Statistics
    h_scale: float = 1.0
    w_norm: float = 1.0
    u: float = 4.0
    t_hop: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidArguments(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        for name in ("h_scale", "w_norm", "u", "t_hop"):
            value = getattr(self, name)
            if not np.isfinite(value) or (name in ("h_scale", "w_norm") and value < 0):
                raise InvalidArguments(f"model {name} must be finite (and, as a norm, non-negative), got {value}")


def _random_hermitian(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (a + a.conj().T) / 2
    current = np.linalg.norm(m)
    if current > 0:
        m *= norm / current
    return m


def _random_two_body(rng: np.random.Generator, nb: int, norm: float) -> np.ndarray:
    # a Hermitian matrix on the pair index (ij) reshapes into a tensor with
    # W_ijkl = conj(W_klij); exchange symmetry is then averaged in
    big = rng.normal(size=(nb * nb, nb * nb)) + 1j * rng.normal(size=(nb * nb, nb * nb))
    big = (big + big.conj().T) / 2
    w = big.reshape(nb, nb, nb, nb)
    w = (w + w.transpose(1, 0, 3, 2)) / 2
    current = np.linalg.norm(w)
    if current > 0:
        w *= norm / current
    return w


def _ring_bonds(sites: int) -> list[tuple[int, int]]:
    # a ring of m sites has m bonds, except that two sites share one bond
    # and a single site has none
    bonds = []
    for p in range(sites):
        q = (p + 1) % sites
        if p < q or (q == 0 and sites > 2):
            bonds.append((p, q))
    return bonds


def _hubbard_ring(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    nb = spec.nb
    h = np.zeros((nb, nb), dtype=complex)
    w = np.zeros((nb, nb, nb, nb), dtype=complex)
    if spec.statistics is Statistics.BOSON:
        for p, q in _ring_bonds(nb):
            h[p, q] = h[q, p] = -spec.t_hop
        for p in range(nb):
            w[p, p, p, p] = spec.u
    elif nb % 2 == 0:
        # spinful sites: orbitals 2p and 2p+1 carry the two spin species
        # of site p, hopping preserves spin, U couples the pair on a site
        sites = nb // 2
        for p, q in _ring_bonds(sites):
            for s in (0, 1):
                h[2 * p + s, 2 * q + s] = h[2 * q + s, 2 * p + s] = -spec.t_hop
        for p in range(sites):
            w[2 * p, 2 * p + 1, 2 * p, 2 * p + 1] = spec.u
            w[2 * p + 1, 2 * p, 2 * p + 1, 2 * p] = spec.u
    else:
        # odd orbital count: spinless ring, repulsion between neighbors
        for p, q in _ring_bonds(nb):
            h[p, q] = h[q, p] = -spec.t_hop
            w[p, q, p, q] = w[q, p, q, p] = spec.u
    return h, w


def build_operators(spec: ModelSpec) -> tuple[OneBodyOperator, TwoBodyOperator | None]:
    """Coefficient tensors of the model; the two-body part is None for
    models without one."""
    nb = spec.nb
    if spec.kind == "zero":
        return OneBodyOperator(np.zeros((nb, nb), dtype=complex)), None
    if spec.kind == "random_onebody":
        rng = np.random.default_rng(spec.seed)
        return OneBodyOperator(_random_hermitian(rng, nb, spec.h_scale)), None
    if spec.kind == "random_full":
        rng = np.random.default_rng(spec.seed)
        h = _random_hermitian(rng, nb, spec.h_scale)
        w = _random_two_body(rng, nb, spec.w_norm)
        return OneBodyOperator(h), TwoBodyOperator(w)
    h, w = _hubbard_ring(spec)
    return OneBodyOperator(h), TwoBodyOperator(w)


def build_system(spec: ModelSpec) -> System:
    """Configuration basis plus the lifted model Hamiltonian, which must be finite."""
    basis = build_basis(spec.nb, spec.n, spec.statistics)
    h, w = build_operators(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = lift_one_body(h, basis).matrix
        if w is not None:
            h0 = h0 + lift_two_body(w, basis).matrix
    if not np.isfinite(h0).all():
        raise InvalidArguments(f"the lifted {spec.kind} Hamiltonian overflows the floats; its parameters are too large")
    return System(basis=basis, h0=ManyBodyOperator(h0, basis.tag))
