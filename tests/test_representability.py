"""Occupation polytope decomposition and Coleman-style state construction."""

from math import factorial, prod, sqrt

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from rdmft.ensemble import (
    EnsembleParams,
    OneRdm,
    RdmClass,
    classify_rdm,
    gibbs_state,
    natural_spectrum,
    one_rdm,
)
from rdmft.errors import InfeasibleOccupations, InvalidArguments, NotRepresentableError
from rdmft.fock import Statistics, build_basis
from rdmft.representability import (
    _condensate_vector,
    coleman_bosonic,
    coleman_fermionic,
    polytope_decompose,
    random_rdm,
    simplex_decompose,
)
from rdmft.verify import DEFAULT_SYSTEMS

F = Statistics.FERMION
B = Statistics.BOSON


class TestPolytopeDecompose:
    def test_half_filled_pair(self):
        dec = polytope_decompose(np.array([1.0, 0.5, 0.5]), 2)
        assert list(dec.terms) == [(0.5, (0, 1)), (0.5, (0, 2))]
        assert dec.residual <= 1e-12

    def test_vertex_is_single_term(self):
        dec = polytope_decompose(np.array([1.0, 1.0, 0.0]), 2)
        assert list(dec.terms) == [(1.0, (0, 1))]

    def test_symmetric_point_splits_into_thirds(self):
        dec = polytope_decompose(np.array([2 / 3, 2 / 3, 2 / 3]), 2)
        weights = sorted(w for w, _ in dec.terms)
        npt.assert_allclose(weights, [1 / 3] * 3, atol=1e-12)
        assert sorted(v for _, v in dec.terms) == [(0, 1), (0, 2), (1, 2)]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nb=st.integers(min_value=2, max_value=6),
    )
    def test_reconstruction_property(self, seed, nb):
        n = max(1, nb // 2)
        rng = np.random.default_rng(seed)
        occ = rng.dirichlet(np.ones(nb)) * n
        while np.any(occ >= 1.0):
            occ = rng.dirichlet(np.ones(nb)) * n
        dec = polytope_decompose(occ, n)
        weights = np.array([w for w, _ in dec.terms])
        assert np.all(weights >= 0)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert len(dec.terms) <= nb * nb
        rebuilt = np.zeros(nb)
        for w, vertex in dec.terms:
            assert list(vertex) == sorted(set(vertex))
            rebuilt[list(vertex)] += w
        npt.assert_allclose(rebuilt, occ, atol=1e-12)

    def test_negative_occupation_rejected(self):
        with pytest.raises(InfeasibleOccupations):
            polytope_decompose(np.array([1.1, 1.0, -0.1]), 2)

    def test_occupation_above_one_rejected(self):
        with pytest.raises(InfeasibleOccupations):
            polytope_decompose(np.array([1.5, 0.3, 0.2]), 2)

    def test_wrong_total_rejected(self):
        with pytest.raises(InfeasibleOccupations):
            polytope_decompose(np.array([0.5, 0.5, 0.5]), 2)


class TestSimplexDecompose:
    def test_boson_mass_splits_per_orbital(self):
        dec = simplex_decompose(np.array([1.5, 0.5]), 2)
        assert list(dec.terms) == [(0.75, (0, 0)), (0.25, (1, 1))]

    def test_condensate_vertex(self):
        dec = simplex_decompose(np.array([2.0, 0.0, 0.0]), 2)
        assert list(dec.terms) == [(1.0, (0, 0))]

    def test_negative_rejected(self):
        with pytest.raises(InfeasibleOccupations):
            simplex_decompose(np.array([2.2, -0.2]), 2)


class TestColemanFermionic:
    def test_slater_rdm_returns_projector(self):
        basis = build_basis(3, 2, F)
        rho = coleman_fermionic(OneRdm(np.diag([1.0, 1.0, 0.0])), basis)
        expected = orc.slater_state({0, 1}, basis).matrix
        npt.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_half_filled_pair_is_rank_two(self):
        basis = build_basis(3, 2, F)
        gamma = OneRdm(np.diag([1.0, 0.5, 0.5]))
        rho = coleman_fermionic(gamma, basis)
        rebuilt = one_rdm(rho, basis)
        assert np.linalg.norm(rebuilt.matrix - gamma.matrix) < 1e-12
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(eigs > 1e-12) == 2

    @pytest.mark.parametrize("nb,n", [(3, 2), (4, 2), (4, 3)])
    def test_random_interior_reconstruction(self, nb, n):
        basis = build_basis(nb, n, F)
        for seed in range(5):
            gamma = random_rdm(nb, n, F, seed=seed)
            rho = coleman_fermionic(gamma, basis)
            rebuilt = one_rdm(rho, basis)
            assert np.linalg.norm(rebuilt.matrix - gamma.matrix) <= 1e-10

    def test_gibbs_rdm_reproduced_by_different_state(self):
        # an interacting Gibbs state carries correlations a mixture of
        # Slater determinants cannot; needs a sector with more freedom
        # than the RDM (at half filling of nb - 1 the map is a bijection)
        from rdmft.models import ModelSpec, build_system

        system = build_system(
            ModelSpec(kind="random_full", nb=4, n=2, statistics=F, seed=3)
        )
        params = EnsembleParams(beta=1.0)
        sol = gibbs_state(system.h0, params)
        gamma = one_rdm(sol.rho, system.basis)
        rho = coleman_fermionic(gamma, system.basis)
        assert np.linalg.norm(one_rdm(rho, system.basis).matrix - gamma.matrix) <= 1e-10
        assert np.linalg.norm(rho.matrix - sol.rho.matrix) > 1e-3

    def test_slater_diagonal_never_exceeds_one(self):
        basis = build_basis(4, 2, F)
        for seed in range(5):
            gamma = random_rdm(4, 2, F, seed=seed + 50)
            rho = coleman_fermionic(gamma, basis)
            rebuilt = one_rdm(rho, basis).matrix
            assert np.all(np.diag(rebuilt).real <= 1.0 + 1e-12)

    @pytest.mark.parametrize("nb,n", [(5, 2), (6, 3)])
    def test_slater_amplitudes_are_the_per_configuration_minors(self, nb, n):
        basis = build_basis(nb, n, F)
        gamma = random_rdm(nb, n, F, seed=nb)
        spectrum = natural_spectrum(gamma)
        decomp = polytope_decompose(np.clip(spectrum.occupations, 0.0, 1.0), n)
        rho = np.zeros((basis.dim, basis.dim), dtype=complex)
        for mu, vertex in decomp.terms:
            minors = [spectrum.orbitals[np.ix_(np.flatnonzero(state), vertex)] for state in basis.states]
            vec = np.array([np.linalg.det(m) for m in minors])
            vec /= np.linalg.norm(vec)
            rho += mu * np.outer(vec, vec.conj())
        assert len(decomp.terms) > 1
        npt.assert_array_equal(coleman_fermionic(gamma, basis).matrix, (rho + rho.conj().T) / 2)

    def test_outside_input_rejected(self):
        basis = build_basis(3, 2, F)
        with pytest.raises(NotRepresentableError):
            coleman_fermionic(OneRdm(np.diag([1.4, 0.4, 0.2])), basis)

    def test_statistics_guard(self):
        basis = build_basis(3, 2, B)
        with pytest.raises(InvalidArguments):
            coleman_fermionic(OneRdm((2 / 3) * np.eye(3)), basis)


class TestColemanBosonic:
    def test_single_particle_returns_gamma_itself(self):
        basis = build_basis(3, 1, B)
        gamma = random_rdm(3, 1, B, seed=8)
        rho = coleman_bosonic(gamma, basis)
        npt.assert_allclose(rho.matrix, gamma.matrix, atol=1e-14)

    def test_two_mode_superposition_amplitudes(self):
        # occupations (1.5, 0.5): weight 0.75 on |20>, 0.25 on |02>
        basis = build_basis(2, 2, B)
        gamma = OneRdm(np.diag([1.5, 0.5]))
        rho = coleman_bosonic(gamma, basis)
        i20, i02 = basis.index[(2, 0)], basis.index[(0, 2)]
        assert rho.matrix[i20, i20].real == pytest.approx(0.75, abs=1e-12)
        assert rho.matrix[i02, i02].real == pytest.approx(0.25, abs=1e-12)
        assert np.linalg.norm(one_rdm(rho, basis).matrix - gamma.matrix) <= 1e-12

    def test_condensate_is_pure_product(self):
        basis = build_basis(3, 2, B)
        gamma = OneRdm(np.diag([2.0, 0.0, 0.0]))
        rho = coleman_bosonic(gamma, basis)
        k = basis.index[(2, 0, 0)]
        assert rho.matrix[k, k].real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nb,n", [(2, 2), (3, 2), (2, 3)])
    def test_random_reconstruction_is_pure(self, nb, n):
        basis = build_basis(nb, n, B)
        for seed in range(5):
            gamma = random_rdm(nb, n, B, seed=seed)
            rho = coleman_bosonic(gamma, basis)
            assert np.linalg.norm(one_rdm(rho, basis).matrix - gamma.matrix) <= 1e-10
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert purity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("nb,n", [(3, 3), (4, 4)])
    def test_condensate_amplitudes_follow_the_per_state_formula(self, nb, n):
        basis = build_basis(nb, n, B)
        orbital = natural_spectrum(random_rdm(nb, n, B, seed=n)).orbitals[:, 0]
        # <s|phi^(x)N> = sqrt(N!/prod s_p!) * prod c_p^(s_p), with powers up to N
        expected = [
            sqrt(factorial(n)) / sqrt(prod(factorial(s) for s in state)) * prod(c**s for c, s in zip(orbital, state))
            for state in basis.states
        ]
        assert max(max(state) for state in basis.states) == n
        npt.assert_array_equal(_condensate_vector(orbital, basis), expected)

    def test_outside_input_rejected(self):
        basis = build_basis(2, 2, B)
        with pytest.raises(NotRepresentableError):
            coleman_bosonic(OneRdm(np.diag([2.4, -0.4])), basis)


class TestRandomRdm:
    def test_deterministic_under_seed(self):
        a = random_rdm(4, 2, F, seed=123)
        b = random_rdm(4, 2, F, seed=123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        a = random_rdm(4, 2, F, seed=1)
        b = random_rdm(4, 2, F, seed=2)
        assert np.linalg.norm(a.matrix - b.matrix) > 1e-3

    @pytest.mark.parametrize("stat", [F, B])
    def test_interior_samples_classify_interior(self, stat):
        nb, n = (4, 2) if stat is F else (3, 2)
        for seed in range(200):
            gamma = random_rdm(nb, n, stat, seed=seed)
            assert classify_rdm(gamma, stat) is RdmClass.INTERIOR

    @pytest.mark.parametrize("interior", [True, False])
    @pytest.mark.parametrize("nb, n, stat", [(3, 2, F), (4, 2, F), (4, 3, F), (3, 2, B), (2, 3, B)])
    def test_block_draws_follow_one_draw_at_a_time(self, nb, n, stat, interior):
        """The blocked rejection loop gives the matrix of drawing one Dirichlet
        vector per attempt, and leaves a generator where that loop does; (4,
        3, F) rejects about 33 interior draws per accepted one."""
        for seed in range(100):
            expected = np.random.default_rng(seed)
            matrix = orc.random_rdm_one_draw_at_a_time(nb, n, stat is F, interior, expected)
            rng = np.random.default_rng(seed)
            assert random_rdm(nb, n, stat, interior=interior, seed=rng).matrix.tobytes() == matrix.tobytes()
            assert rng.random() == expected.random()
            assert random_rdm(nb, n, stat, interior=interior, seed=seed).matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("nb, n, stat", [*DEFAULT_SYSTEMS, (10, 5, F)])
    def test_keeps_the_bytes_of_a_matrix_built_alone(self, nb, n, stat):
        """random_rdm, the batch of one of verify's stacked Haar build, gives
        the matrix of drawing and building one 1RDM alone, on the default
        verify systems and at (10, 5, F)."""
        for k in range(10):
            expected = orc.random_rdm_one_draw_at_a_time(nb, n, stat is F, True, np.random.default_rng(k))
            assert random_rdm(nb, n, stat, seed=k).matrix.tobytes() == expected.tobytes()

    def test_trace_is_particle_number(self):
        for seed in range(20):
            gamma = random_rdm(3, 2, B, seed=seed)
            assert gamma.trace == pytest.approx(2.0, abs=1e-12)

    def test_boundary_samples_allowed_when_not_interior(self):
        hits = 0
        for seed in range(50):
            gamma = random_rdm(4, 2, F, interior=False, seed=seed)
            assert classify_rdm(gamma, F) is not RdmClass.OUTSIDE
            occ = natural_spectrum(gamma).occupations
            hits += np.any(occ > 0.99) or np.any(occ < 0.01)
        assert hits > 0  # without the margin, extremes do occur
