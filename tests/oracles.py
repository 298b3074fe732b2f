"""Independent reference implementations the tests compare against.

No reference here computes with rdmft.  Operator strings are expanded
on explicit occupation vectors from scratch, the first-quantized oracle
builds (anti)symmetrized product tensors, and the matrix exponential is a
scaled Taylor series.  Agreement with the package is therefore evidence
for both sides, not a tautology.  The one exception, slater_state, is a
fixture: it wraps a single configuration's projector in the package's own
DensityOperator.
"""

from __future__ import annotations

import itertools
from math import factorial, sqrt

import numpy as np

from rdmft.errors import InvalidArguments
from rdmft.fock import ConfigurationBasis, DensityOperator, Statistics


def enumerate_configs(nb: int, n: int, fermion: bool) -> list[tuple[int, ...]]:
    """All occupation vectors with sum n, descending lexicographic order."""
    cap = 1 if fermion else n
    configs = [
        vec
        for vec in itertools.product(range(cap + 1), repeat=nb)
        if sum(vec) == n
    ]
    return sorted(configs, reverse=True)


def annihilate(state: tuple[int, ...], k: int, fermion: bool):
    if state[k] == 0:
        return None
    out = list(state)
    out[k] -= 1
    if fermion:
        return tuple(out), (-1.0) ** sum(state[:k])
    return tuple(out), sqrt(state[k])


def create(state: tuple[int, ...], k: int, fermion: bool):
    if fermion and state[k] == 1:
        return None
    out = list(state)
    out[k] += 1
    if fermion:
        return tuple(out), (-1.0) ** sum(state[:k])
    return tuple(out), sqrt(state[k] + 1)


def apply_string(state: tuple[int, ...], ops, fermion: bool):
    """Apply a list of ("+"/"-", orbital) pairs, rightmost first."""
    amp = 1.0
    for kind, k in reversed(ops):
        step = create(state, k, fermion) if kind == "+" else annihilate(state, k, fermion)
        if step is None:
            return None
        state, factor = step
        amp *= factor
    return state, amp


def one_body_matrix(h: np.ndarray, nb: int, n: int, fermion: bool) -> np.ndarray:
    """Brute-force sum_ij h_ij a+_i a_j on the configuration basis."""
    configs = enumerate_configs(nb, n, fermion)
    index = {c: k for k, c in enumerate(configs)}
    out = np.zeros((len(configs), len(configs)), dtype=complex)
    for col, state in enumerate(configs):
        for i in range(nb):
            for j in range(nb):
                hit = apply_string(state, [("+", i), ("-", j)], fermion)
                if hit is not None:
                    out[index[hit[0]], col] += h[i, j] * hit[1]
    return out


def two_body_matrix(w: np.ndarray, nb: int, n: int, fermion: bool) -> np.ndarray:
    """Brute-force (1/2) sum w_ijkl a+_i a+_j a_l a_k on the basis."""
    configs = enumerate_configs(nb, n, fermion)
    index = {c: k for k, c in enumerate(configs)}
    out = np.zeros((len(configs), len(configs)), dtype=complex)
    for col, state in enumerate(configs):
        for i, j, k, l in itertools.product(range(nb), repeat=4):
            if w[i, j, k, l] == 0:
                continue
            hit = apply_string(state, [("+", i), ("+", j), ("-", l), ("-", k)], fermion)
            if hit is not None:
                out[index[hit[0]], col] += 0.5 * w[i, j, k, l] * hit[1]
    return out


def one_rdm_matrix(rho: np.ndarray, nb: int, n: int, fermion: bool) -> np.ndarray:
    """gamma_ij = Tr{rho a+_j a_i} by expanding the strings directly."""
    configs = enumerate_configs(nb, n, fermion)
    index = {c: k for k, c in enumerate(configs)}
    gamma = np.zeros((nb, nb), dtype=complex)
    for i in range(nb):
        for j in range(nb):
            for col, state in enumerate(configs):
                hit = apply_string(state, [("+", j), ("-", i)], fermion)
                if hit is not None:
                    gamma[i, j] += hit[1] * rho[col, index[hit[0]]]
    return gamma


def _embed(config: tuple[int, ...], nb: int, n: int, fermion: bool) -> np.ndarray:
    """Normalized (anti)symmetrized product vector in the nb**n tensor space."""
    slots = [p for p in range(nb) for _ in range(config[p])]
    psi = np.zeros(nb**n, dtype=complex)
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        if fermion:
            inversions = sum(
                1
                for a in range(n)
                for b in range(a + 1, n)
                if perm[a] > perm[b]
            )
            sign = (-1.0) ** inversions
        flat = 0
        for p in range(n):
            flat = flat * nb + slots[perm[p]]
        psi[flat] += sign
    weight = factorial(n)
    for occ in config:
        weight *= factorial(occ)
    return psi / sqrt(weight)


def first_quantized_one_body(h: np.ndarray, nb: int, n: int, fermion: bool) -> np.ndarray:
    """sum_p h(p) on the product space, projected onto the configurations."""
    op = np.zeros((nb**n, nb**n), dtype=complex)
    eye = np.eye(nb)
    for p in range(n):
        factors = [h if q == p else eye for q in range(n)]
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        op += term
    configs = enumerate_configs(nb, n, fermion)
    emb = np.column_stack([_embed(c, nb, n, fermion) for c in configs])
    return emb.conj().T @ op @ emb


def first_quantized_two_body(w: np.ndarray, nb: int, n: int, fermion: bool) -> np.ndarray:
    """(1/2) sum_{p != q} w(p,q) on the product space, projected likewise."""
    dim = nb**n
    op = np.zeros((dim, dim), dtype=complex)
    pair = w.reshape(nb * nb, nb * nb)
    eye = np.eye(nb)
    for p, q in itertools.permutations(range(n), 2):
        term = np.zeros((dim, dim), dtype=complex)
        for (row_pq, col_pq), amp in np.ndenumerate(pair):
            if amp == 0:
                continue
            i, j = divmod(row_pq, nb)
            k, l = divmod(col_pq, nb)
            factors = []
            for s in range(n):
                if s == p:
                    factors.append(np.outer(eye[:, i], eye[:, k]))
                elif s == q:
                    factors.append(np.outer(eye[:, j], eye[:, l]))
                else:
                    factors.append(eye)
            block = factors[0]
            for f in factors[1:]:
                block = np.kron(block, f)
            term += amp * block
        op += 0.5 * term
    configs = enumerate_configs(nb, n, fermion)
    emb = np.column_stack([_embed(c, nb, n, fermion) for c in configs])
    return emb.conj().T @ op @ emb


def taylor_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring on a plain Taylor series."""
    a = np.asarray(a, dtype=complex)
    scale = max(0, int(np.ceil(np.log2(max(1.0, float(np.linalg.norm(a, np.inf)))))) + 1)
    m = a / (2**scale)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ m / k
        out = out + term
    for _ in range(scale):
        out = out @ out
    return out


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_two_body_tensor(rng: np.random.Generator, nb: int) -> np.ndarray:
    """Random tensor with the hermiticity and exchange symmetries."""
    pair = random_hermitian(rng, nb * nb)
    w = pair.reshape(nb, nb, nb, nb)
    return (w + w.transpose(1, 0, 3, 2)) / 2


def hop_stack(nb: int, n: int, fermion: bool) -> np.ndarray:
    """(nb*nb, dim, dim) stack of the brute-force lifts of a+_i a_j, pair i*nb + j."""
    units = np.eye(nb * nb).reshape(nb * nb, nb, nb)
    return np.array([one_body_matrix(unit, nb, n, fermion) for unit in units])


def dense_response_jacobian(h: np.ndarray, hops: np.ndarray, beta: float, elements: np.ndarray) -> np.ndarray:
    """J_ab = d tr{gamma G_a} / d c_b for the Gibbs state of h + sum_b c_b
    lift(G_b) at c = 0, from the dense rotated stack Q_p = V+ hops[p] V of
    every orbital pair: J = Re(conj(P) M P^T) + beta g g^T with
    M_pq = sum_mn phi_mn conj(Q_p)_mn (Q_q)_mn, phi the divided differences
    of e^-bx / Z (confluent below a relative gap of 1e-9), P the flattened
    elements and g_a = tr{rho lift(G_a)}."""
    energies, vectors = np.linalg.eigh(h)
    shifted = energies - energies[0]
    boltzmann = np.exp(-beta * shifted)
    z = float(np.sum(boltzmann))
    x, y = shifted[:, None], shifted[None, :]
    near = np.abs(x - y) <= 1e-9 * max(1.0, float(shifted[-1]))
    quotient = (boltzmann[:, None] - boltzmann[None, :]) / np.where(near, 1.0, x - y)
    phi = np.where(near, -beta * np.exp(-beta * (x + y) / 2), quotient) / z
    rotated = (vectors.conj().T @ hops @ vectors).reshape(len(hops), -1)
    pair_block = (rotated.conj() * phi.ravel()) @ rotated.T
    p = elements.reshape(len(elements), -1)
    rho = (vectors * (boltzmann / z)) @ vectors.conj().T
    g = (p @ np.einsum("mn,pnm->p", rho, hops)).real
    j = (p.conj() @ pair_block @ p.T).real + beta * np.outer(g, g)
    return (j + j.T) / 2


def random_rdm_one_draw_at_a_time(nb: int, n: int, fermion: bool, interior: bool, rng) -> np.ndarray:
    """The 1RDM matrix of rdmft's random_rdm drawn the plain way: one
    Dirichlet vector per attempt until one clears the margins, then a Haar
    unitary from the QR of a complex Gaussian matrix; rng is left where
    that loop leaves it."""
    margin = 0.01 if interior else 0.0
    for _ in range(100000):
        occ = rng.dirichlet(np.ones(nb)) * n
        if interior and occ.min() < margin:
            continue
        if fermion and occ.max() > 1 - margin:
            continue
        break
    else:
        raise ValueError("no occupation draw satisfied the margins")
    return haar_rotated(rng, occ)


def haar_rotated(rng, spectrum: np.ndarray) -> np.ndarray:
    """The Hermitian matrix with this spectrum in a Haar-random eigenbasis,
    built alone: the Q of the QR of a complex Gaussian matrix drawn from rng,
    each column phase-fixed by R's diagonal (Mezzadri, Notices AMS 54, 592
    (2007))."""
    dim = len(spectrum)
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    m = (q * spectrum) @ q.conj().T
    return (m + m.conj().T) / 2


def _log_symmetric_polynomials(log_x: np.ndarray, n: int, fermion: bool) -> np.ndarray:
    """log e_k(x) for fermions, log h_k(x) for bosons, k = 0..n: the
    elementary or complete symmetric polynomials of x, built one level at a
    time (e_k += x e_{k-1} from the old e_{k-1}, h_k += x h_{k-1} from the
    new h_{k-1}), in log space, so that no term underflows at large beta."""
    log_e = np.full(n + 1, -np.inf)
    log_e[0] = 0.0
    for lx in log_x:
        if fermion:
            log_e[1:] = np.logaddexp(log_e[1:], lx + log_e[:-1])
        else:
            for k in range(1, n + 1):
                log_e[k] = np.logaddexp(log_e[k], lx + log_e[k - 1])
    return log_e


def noninteracting_gibbs(h: np.ndarray, n: int, beta: float, fermion: bool) -> tuple[float, np.ndarray]:
    """Omega = -log(Z)/beta and the 1RDM gamma_ij = <a+_j a_i> of the canonical
    Gibbs state of n particles under the one-body Hamiltonian h, with no
    many-body basis (Borrmann & Franke, J. Chem. Phys. 98, 2484 (1993)).

    With eps_i the eigenvalues of h and x_i = exp(-beta eps_i), Z = e_n(x)
    for fermions and h_n(x) for bosons; h's eigenvectors are the natural
    orbitals, with occupations x_i e_{n-1}(x without i) / e_n(x) and
    sum_{k=1..n} x_i^k h_{n-k}(x) / h_n(x).  Borrmann and Franke's
    recursion in n over the power sums sum_i x_i^k alternates in sign for
    fermions and loses every digit at beta = 50 on non-degenerate levels;
    the level-by-level recursion used here adds only positive terms.
    Energies are measured from the lowest level, so log x <= 0.
    """
    eps, u = np.linalg.eigh(h)
    log_x = -beta * (eps - eps[0])
    log_z = _log_symmetric_polynomials(log_x, n, fermion)
    if fermion:
        others = [_log_symmetric_polynomials(np.delete(log_x, i), n - 1, True)[n - 1] for i in range(len(eps))]
        occupations = np.exp(log_x + np.array(others) - log_z[n])
    else:
        k = np.arange(1, n + 1)
        occupations = np.exp(k * log_x[:, None] + log_z[n - k] - log_z[n]).sum(axis=1)
    return n * eps[0] - log_z[n] / beta, (u * occupations) @ u.conj().T


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
            raise InvalidArguments(f"index set {spec!r} is not n distinct orbitals below nb")
        vec = [0] * basis.nb
        for p in spec:
            vec[p] = 1
        state = tuple(vec)
    if state is None or state not in basis.index:
        raise InvalidArguments(f"{spec!r} does not describe a configuration of {basis.tag}")
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    k = basis.index[state]
    rho[k, k] = 1.0
    return DensityOperator(rho, basis.tag)
