"""Gibbs states, entropy, free energy, and 1RDM extraction."""

from math import exp, log

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from rdmft import ensemble
from rdmft.ensemble import (
    EnsembleParams,
    OneRdm,
    RdmClass,
    classify_rdm,
    entropy,
    gibbs_state,
    helmholtz,
    natural_spectrum,
    one_rdm,
)
from rdmft.errors import BasisMismatch, InvalidArguments, InvalidDensityOperator
from rdmft.fock import (
    DensityOperator,
    ManyBodyOperator,
    Statistics,
    TwoBodyOperator,
    build_basis,
    lift_one_body,
    lift_two_body,
)

F = Statistics.FERMION
B = Statistics.BOSON


def random_many_body(nb, n, stat, seed, interacting=True):
    basis = build_basis(nb, n, stat)
    rng = np.random.default_rng(seed)
    h = lift_one_body(orc.random_hermitian(rng, nb), basis).matrix
    if interacting and n >= 2:
        w = orc.random_two_body_tensor(rng, nb)
        h = h + lift_two_body(TwoBodyOperator(w), basis).matrix
    return basis, ManyBodyOperator(h, basis.tag)


def random_density(basis, seed, rank=None):
    """Mixture of Haar-ish random pure states on the configuration space."""
    rng = np.random.default_rng(seed)
    d = basis.dim
    rank = d if rank is None else rank
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((d, d), dtype=complex)
    for wk in weights:
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rho += wk * np.outer(psi, psi.conj())
    rho = (rho + rho.conj().T) / 2
    return DensityOperator(rho / np.trace(rho).real, basis.tag)


class TestEnsembleParams:
    @pytest.mark.parametrize("beta", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(InvalidArguments):
            EnsembleParams(beta=beta)


class TestGibbsState:
    def test_zero_hamiltonian_is_maximally_mixed(self):
        basis = build_basis(3, 2, F)
        h = ManyBodyOperator(np.zeros((3, 3)), basis.tag)
        sol = gibbs_state(h, EnsembleParams(beta=1.0))
        npt.assert_allclose(sol.rho.matrix, np.eye(3) / 3, atol=1e-15)
        assert sol.log_z == pytest.approx(log(3), rel=1e-14)
        assert sol.omega == pytest.approx(-log(3), rel=1e-14)

    def test_large_beta_projects_onto_ground_state(self):
        h = ManyBodyOperator(np.diag([0.0, 1.0]), "two-level")
        sol = gibbs_state(h, EnsembleParams(beta=50.0))
        assert sol.rho.matrix[1, 1].real == pytest.approx(exp(-50), rel=1e-12)
        assert sol.omega == pytest.approx(0.0, abs=1e-12)

    def test_no_overflow_at_extreme_beta(self):
        h = ManyBodyOperator(np.diag([-500.0, 500.0]), "two-level")
        sol = gibbs_state(h, EnsembleParams(beta=10.0))
        assert np.isfinite(sol.log_z) and sol.log_z == pytest.approx(5000.0, rel=1e-12)
        assert sol.z == float("inf")  # only the raw Z overflows

    def test_matches_series_exponential(self):
        basis, h = random_many_body(3, 2, F, seed=5)
        sol = gibbs_state(h, EnsembleParams(beta=1.3))
        ref = orc.taylor_expm(-1.3 * h.matrix)
        ref /= np.trace(ref)
        npt.assert_allclose(sol.rho.matrix, ref, atol=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stationarity(self, seed):
        # beta^-1 log(rho) + H must be a multiple of the identity
        basis, h = random_many_body(3, 2, B, seed=seed)
        beta = 0.8
        sol = gibbs_state(h, EnsembleParams(beta=beta))
        w, v = np.linalg.eigh(sol.rho.matrix)
        log_rho = (v * np.log(w)) @ v.conj().T
        a = h.matrix + log_rho / beta
        a -= (np.trace(a) / basis.dim) * np.eye(basis.dim)
        assert np.linalg.norm(a) < 1e-10

    def test_weights_match_eigenvector_columns(self):
        _, h = random_many_body(4, 2, F, seed=9)
        sol = gibbs_state(h, EnsembleParams(beta=2.0))
        rebuilt = (sol.eigenvectors * sol.weights) @ sol.eigenvectors.conj().T
        npt.assert_allclose(rebuilt, sol.rho.matrix, atol=1e-14)
        assert np.all(sol.weights > 0)  # strictly positive definite state


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        basis = build_basis(3, 2, F)
        assert entropy(orc.slater_state({0, 1}, basis)) == 0.0

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(3) / 3, "any")
        assert entropy(rho) == pytest.approx(log(3), rel=1e-14)

    def test_direct_summation_value(self):
        rho = DensityOperator(np.diag([0.5, 0.25, 0.25]), "any")
        assert entropy(rho) == pytest.approx(1.5 * log(2), rel=1e-14)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bounds(self, seed):
        basis = build_basis(3, 2, B)
        s = entropy(random_density(basis, seed))
        assert 0.0 <= s <= log(basis.dim) + 1e-12

    def test_stack_sums_each_row_alone(self):
        """A stack whose rows have 0 to 11 zero weights of 12, so that their
        clipped spectra start with about as many zeros: each row's entropy is
        the bits of summing its positive terms alone, as the plain formula
        does.  From 8 terms numpy sums pairwise, so leading zeros in a row
        would move its terms between partial sums."""
        rng = np.random.default_rng(4)
        stack = []
        for zeros in range(12):
            for _ in range(4):
                w = rng.random(12)
                w[:zeros] = 0.0
                q = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))[0]
                m = (q * (w / w.sum())) @ q.conj().T
                stack.append((m + m.conj().T) / 2)
        for m, value in zip(stack, ensemble._entropies(np.array(stack)).tolist()):
            w = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
            positive = w[w > 0.0]
            assert value == max(float(-np.sum(positive * np.log(positive))), 0.0) == entropy(DensityOperator(m, "any"))


class TestHelmholtz:
    @pytest.mark.parametrize("nb,n,stat", [(3, 2, F), (4, 2, F), (3, 2, B)])
    def test_gibbs_state_attains_omega(self, nb, n, stat, beta=1.7):
        _, h = random_many_body(nb, n, stat, seed=nb * 10 + n)
        params = EnsembleParams(beta=beta)
        sol = gibbs_state(h, params)
        assert helmholtz(sol.rho, h, params) == pytest.approx(sol.omega, abs=1e-10)

    def test_maximally_mixed_zero_hamiltonian(self):
        basis = build_basis(3, 2, F)
        h = ManyBodyOperator(np.zeros((3, 3)), basis.tag)
        rho = DensityOperator(np.eye(3) / 3, basis.tag)
        assert helmholtz(rho, h, EnsembleParams(beta=2.0)) == pytest.approx(-log(3) / 2.0)

    def test_pure_state_zero_hamiltonian(self):
        basis = build_basis(3, 2, F)
        h = ManyBodyOperator(np.zeros((3, 3)), basis.tag)
        rho = orc.slater_state({0, 2}, basis)
        assert helmholtz(rho, h, EnsembleParams(beta=1.0)) == 0.0

    def test_tag_mismatch(self):
        basis = build_basis(3, 2, F)
        h = ManyBodyOperator(np.zeros((3, 3)), basis.tag)
        rho = DensityOperator(np.eye(3) / 3, "elsewhere")
        with pytest.raises(BasisMismatch):
            helmholtz(rho, h, EnsembleParams(beta=1.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_gibbs_minimality(self, seed):
        basis, h = random_many_body(3, 2, F, seed=seed)
        params = EnsembleParams(beta=1.2)
        sol = gibbs_state(h, params)
        omega = helmholtz(sol.rho, h, params)
        trial = random_density(basis, seed + 100)
        assert helmholtz(trial, h, params) > omega

    @pytest.mark.parametrize("seed", range(4))
    def test_energy_lipschitz_bound(self, seed):
        basis, h = random_many_body(4, 2, F, seed=seed)
        r0 = random_density(basis, 2 * seed).matrix
        r1 = random_density(basis, 2 * seed + 1).matrix
        gap = abs(np.trace((r0 - r1) @ h.matrix).real)
        h_inf = np.max(np.abs(np.linalg.eigvalsh(h.matrix)))
        trace_norm = np.sum(np.abs(np.linalg.eigvalsh(r0 - r1)))
        assert gap <= h_inf * trace_norm + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_entropy_strict_concavity(self, seed):
        basis = build_basis(3, 2, B)
        r0 = random_density(basis, 3 * seed)
        r1 = random_density(basis, 3 * seed + 1)
        if np.linalg.norm(r0.matrix - r1.matrix) < 1e-3:
            return
        lam = 0.5
        mix = DensityOperator(lam * r0.matrix + (1 - lam) * r1.matrix, basis.tag)
        margin = entropy(mix) - lam * entropy(r0) - (1 - lam) * entropy(r1)
        assert margin > 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_hamiltonian_recovered_up_to_constant(self, seed):
        # same Gibbs state <=> Hamiltonians differ by a scalar shift
        basis, h = random_many_body(3, 2, F, seed=seed)
        beta = 1.1
        shifted = ManyBodyOperator(h.matrix + 2.5 * np.eye(basis.dim), basis.tag)
        s0 = gibbs_state(h, EnsembleParams(beta=beta))
        s1 = gibbs_state(shifted, EnsembleParams(beta=beta))
        assert np.linalg.norm(s0.rho.matrix - s1.rho.matrix) < 1e-12
        w, v = np.linalg.eigh(s0.rho.matrix)
        recovered = -(v * np.log(w)) @ v.conj().T / beta
        diff = h.matrix - recovered
        diff -= (np.trace(diff) / basis.dim) * np.eye(basis.dim)
        assert np.linalg.norm(diff) < 1e-10


class TestOneRdm:
    def test_maximally_mixed_gives_uniform_occupations(self):
        basis = build_basis(3, 2, F)
        rho = DensityOperator(np.eye(3) / 3, basis.tag)
        gamma = one_rdm(rho, basis)
        npt.assert_allclose(gamma.matrix, (2 / 3) * np.eye(3), atol=1e-14)

    def test_slater_projector_gives_idempotent_rdm(self):
        basis = build_basis(4, 2, F)
        gamma = one_rdm(orc.slater_state({0, 1}, basis), basis)
        npt.assert_allclose(gamma.matrix, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_boson_condensate(self):
        basis = build_basis(2, 2, B)
        gamma = one_rdm(orc.slater_state((2, 0), basis), basis)
        npt.assert_allclose(gamma.matrix, np.diag([2.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("nb,n,stat", [(3, 2, F), (4, 3, F), (2, 3, B)])
    def test_matches_string_oracle(self, nb, n, stat):
        basis = build_basis(nb, n, stat)
        rho = random_density(basis, seed=nb + n)
        gamma = one_rdm(rho, basis).matrix
        oracle = orc.one_rdm_matrix(rho.matrix, nb, n, stat is F)
        npt.assert_allclose(gamma, oracle, atol=1e-13)
        assert np.trace(gamma).real == pytest.approx(n, abs=1e-12)

    def test_tag_mismatch(self):
        basis = build_basis(3, 2, F)
        other = build_basis(3, 2, B)
        with pytest.raises(BasisMismatch):
            one_rdm(orc.slater_state((2, 0, 0), other), basis)


class TestNaturalSpectrum:
    def test_uniform(self):
        spec = natural_spectrum(OneRdm((2 / 3) * np.eye(3)))
        npt.assert_allclose(spec.occupations, [2 / 3] * 3, atol=1e-15)

    def test_diagonal_input_passes_through(self):
        spec = natural_spectrum(OneRdm(np.diag([1.0, 0.5, 0.5])))
        npt.assert_allclose(spec.occupations, [1.0, 0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_and_order(self, seed):
        basis = build_basis(4, 2, F)
        gamma = one_rdm(random_density(basis, seed), basis)
        spec = natural_spectrum(gamma)
        assert np.all(np.diff(spec.occupations) <= 0)
        npt.assert_allclose(
            spec.orbitals.conj().T @ spec.orbitals, np.eye(4), atol=1e-12
        )
        rebuilt = (spec.orbitals * spec.occupations) @ spec.orbitals.conj().T
        assert np.linalg.norm(rebuilt - gamma.matrix) < 1e-12
        assert np.sum(spec.occupations) == pytest.approx(2.0, abs=1e-10)


class TestGibbsOccupations:
    @pytest.mark.parametrize(
        "nb,n,stat,diagonal,clipped",
        [
            (3, 2, F, [1.0, 1.0, -1e-17], [1.0, 1.0, 0.0]),
            (3, 2, F, [1.0 + 1e-15, 0.6, 0.4], [1.0, 0.6, 0.4]),
            (2, 3, B, [3.0 + 1e-12, -1e-12], [3.0, 0.0]),
        ],
    )
    def test_residue_past_a_face_is_clipped(self, nb, n, stat, diagonal, clipped):
        gamma = OneRdm(np.diag(diagonal))
        raw = natural_spectrum(gamma).occupations
        assert raw.min() < 0.0 or raw.max() > (1.0 if stat is F else n)
        occupations = ensemble.gibbs_occupations(gamma, build_basis(nb, n, stat))
        assert occupations.tolist() == clipped

    def test_occupations_inside_pass_through(self):
        gamma = OneRdm(np.diag([0.2, 0.9, 0.9]))
        occupations = ensemble.gibbs_occupations(gamma, build_basis(3, 2, F))
        assert occupations.tolist() == natural_spectrum(gamma).occupations.tolist()


class TestNonFiniteMatrices:
    """NaN compares false, so without a finiteness check a NaN matrix passed the
    Hermiticity, trace and occupation checks, and classify_rdm and
    DensityOperator raised numpy's LinAlgError, which is not an RdmftError."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_one_rdm_and_classify_rdm(self, value):
        m = np.eye(3) * 2 / 3
        m[0, 1] = value
        with pytest.raises(InvalidArguments, match="^1RDM entries must be finite$"):
            OneRdm(m)
        with pytest.raises(InvalidArguments, match="^1RDM entries must be finite$"):
            classify_rdm(m, F)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_density_operator(self, value):
        m = np.eye(3) / 3
        m[1, 1] = value
        with pytest.raises(InvalidDensityOperator, match="^density matrix entries must be finite$"):
            DensityOperator(m, build_basis(3, 2, F).tag)


class TestClassifyRdm:
    def test_pinned_occupation_is_boundary(self):
        assert classify_rdm(np.diag([1.0, 0.5, 0.5]), F) is RdmClass.BOUNDARY

    def test_strictly_fractional_is_interior(self):
        assert classify_rdm(np.diag([0.9, 0.6, 0.5]), F) is RdmClass.INTERIOR

    def test_pauli_violation_is_outside(self):
        assert classify_rdm(np.diag([1.2, 0.8]), F) is RdmClass.OUTSIDE

    def test_negative_occupation_is_outside(self):
        assert classify_rdm(np.diag([2.1, -0.1]), B) is RdmClass.OUTSIDE

    def test_boson_only_lower_constraint(self):
        # an occupation above 1 is fine for bosons
        assert classify_rdm(np.diag([1.7, 0.3]), B) is RdmClass.INTERIOR
        assert classify_rdm(np.diag([2.0, 0.0]), B) is RdmClass.BOUNDARY

    def test_tolerance_window(self):
        gamma = np.diag([1.0 - 1e-12, 0.5, 0.5 + 1e-12])
        assert classify_rdm(gamma, F, tol=1e-9) is RdmClass.BOUNDARY
        assert classify_rdm(gamma, F, tol=1e-15) is RdmClass.INTERIOR


@pytest.mark.parametrize("stat", [F, B])
@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_gibbs_rdm_is_interior(stat, beta):
    """Thermal occupations never pin to the polytope boundary."""
    nb, n = (4, 2) if stat is F else (3, 2)
    basis = build_basis(nb, n, stat)
    rng = np.random.default_rng(17)
    v = orc.random_hermitian(rng, nb)
    v -= (np.trace(v) / nb) * np.eye(nb)
    v *= 0.5 / np.linalg.norm(v)  # keep exp(-beta*spread) above eigh resolution
    h = lift_one_body(v, basis)
    sol = gibbs_state(h, EnsembleParams(beta=beta))
    gamma = one_rdm(sol.rho, basis)
    occ = natural_spectrum(gamma).occupations
    assert np.all(occ > 0)
    if stat is F:
        assert np.all(occ < 1)
    assert classify_rdm(gamma, stat) is RdmClass.INTERIOR


def test_density_operator_validation():
    with pytest.raises(InvalidDensityOperator):
        DensityOperator(np.diag([0.7, 0.7, -0.4]), "any")  # negative weight
    with pytest.raises(InvalidDensityOperator):
        DensityOperator(np.eye(3) / 2, "any")  # wrong trace
