"""Configuration enumeration and second-quantized lifting.

The lifted matrices are checked against two independent oracles: a string
expander working on explicit occupation vectors, and a first-quantized
construction on (anti)symmetrized product tensors.  The latter pins the
fermionic sign convention from outside second quantization entirely.
"""

from math import comb, sqrt

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from rdmft.errors import (
    DimensionMismatch,
    InvalidArguments,
    NonHermitianInput,
    SymmetryViolation,
)
from rdmft.fock import (
    OneBodyOperator,
    Statistics,
    TwoBodyOperator,
    build_basis,
    lift_one_body,
    lift_two_body,
    triangle_indices,
)

F = Statistics.FERMION
B = Statistics.BOSON


class TestBuildBasis:
    def test_fermion_3_2(self):
        basis = build_basis(3, 2, F)
        assert basis.dim == 3
        assert basis.states == ((1, 1, 0), (1, 0, 1), (0, 1, 1))

    def test_boson_2_2(self):
        basis = build_basis(2, 2, B)
        assert basis.dim == 3
        assert basis.states == ((2, 0), (1, 1), (0, 2))

    def test_single_fermion_unit_vectors(self):
        basis = build_basis(5, 1, F)
        assert basis.dim == 5
        for state in basis.states:
            assert sum(state) == 1 and set(state) <= {0, 1}

    @pytest.mark.parametrize("nb,n", [(2, 2), (2, 3), (3, 3)])
    def test_fermion_needs_more_orbitals_than_particles(self, nb, n):
        with pytest.raises(InvalidArguments):
            build_basis(nb, n, F)

    @pytest.mark.parametrize("nb,n", [(0, 1), (3, 0), (-1, 2)])
    def test_rejects_empty_counts(self, nb, n):
        with pytest.raises(InvalidArguments):
            build_basis(nb, n, B)

    @given(
        nb=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=4),
        fermion=st.booleans(),
    )
    def test_dimension_and_ordering(self, nb, n, fermion):
        if fermion and nb <= n:
            return
        basis = build_basis(nb, n, F if fermion else B)
        expected = comb(nb, n) if fermion else comb(nb + n - 1, n)
        assert basis.dim == expected
        assert len(set(basis.states)) == basis.dim
        # strictly descending, so serialization order is unambiguous
        assert all(a > b for a, b in zip(basis.states, basis.states[1:]))
        assert all(sum(s) == n for s in basis.states)

    def test_index_round_trip(self):
        basis = build_basis(4, 2, F)
        for k, state in enumerate(basis.states):
            assert basis.index[state] == k


# nb = 1 bosons, every fermion basis up to nb = 8, and bosons with n >= 3
HOP_BASES = [(1, 1, B), (1, 3, B)]
HOP_BASES += [(nb, n, F) for nb in range(2, 9) for n in range(1, nb)]
HOP_BASES += [(2, 3, B), (3, 3, B), (3, 5, B), (4, 3, B), (5, 4, B)]


class TestHopTable:
    @pytest.mark.parametrize("nb,n,stat", HOP_BASES)
    def test_entries_match_the_string_oracle(self, nb, n, stat):
        basis = build_basis(nb, n, stat)
        expected = [
            (i * nb + j, basis.index[hit[0]], col, hit[1])
            for i in range(nb)
            for j in range(nb)
            for col, state in enumerate(basis.states)
            if (hit := orc.apply_string(state, [("+", i), ("-", j)], stat is F)) is not None
        ]
        pair, rows, cols, amps = (np.array(field) for field in zip(*expected))
        table = basis.hop_terms
        assert [field.dtype for field in table] == [np.intp, np.intp, np.intp, np.float64]
        assert np.array_equal(table.pair, pair)
        assert np.array_equal(table.rows, rows)
        assert np.array_equal(table.cols, cols)
        i, j = np.divmod(table.pair, nb)
        hop = i != j
        assert np.array_equal(table.amps[hop], amps[hop])
        # the oracle's a+_j a_j is sqrt(n_j)**2; the table keeps n_j exactly
        npt.assert_allclose(table.amps[~hop], amps[~hop], rtol=1e-15, atol=0)
        assert np.array_equal(table.amps[~hop], basis.occupations[table.cols[~hop], j[~hop]])

    def test_codes_raise_rather_than_wrap(self):
        # codes run below base**nb, which must itself fit int64: 2**62 does, 2**63 not,
        # so build_basis refuses the basis before any code could wrap
        basis = build_basis(62, 1, F)
        hits = [orc.apply_string(state, [("+", 0), ("-", 61)], True) for state in basis.states]
        table = basis.hop_terms
        k = np.flatnonzero(table.pair == 61)
        assert [basis.states[r] for r in table.rows[k]] == [hit[0] for hit in hits if hit is not None]
        with pytest.raises(InvalidArguments, match="2\\*\\*63"):
            build_basis(63, 1, F)

    def test_boson_code_base_is_n_plus_1(self):
        # 3**39 fits int64 and 3**40 does not
        assert build_basis(39, 2, B).hop_terms.pair.size == 39**3
        with pytest.raises(InvalidArguments, match="3\\*\\*40"):
            build_basis(40, 2, B)


class TestLiftOneBody:
    def test_diagonal_gives_occupation_sums(self):
        basis = build_basis(3, 2, F)
        eps = np.diag([0.3, 1.1, -0.4])
        lifted = lift_one_body(eps, basis).matrix
        npt.assert_allclose(lifted, np.diag([1.4, -0.1, 0.7]), atol=1e-14)

    @pytest.mark.parametrize("nb,n,stat", [(3, 2, F), (4, 3, F), (2, 2, B), (3, 3, B)])
    def test_identity_lifts_to_particle_number_exactly(self, nb, n, stat):
        basis = build_basis(nb, n, stat)
        lifted = lift_one_body(np.eye(nb), basis).matrix
        # integer amplitude path: no sqrt round-off allowed here
        assert np.array_equal(lifted, n * np.eye(basis.dim))

    def test_boson_hop_carries_sqrt2(self):
        basis = build_basis(2, 2, B)
        t = 0.7
        h = np.array([[0.0, t], [t, 0.0]])
        lifted = lift_one_body(h, basis).matrix
        row = basis.index[(2, 0)]
        col = basis.index[(1, 1)]
        assert lifted[row, col] == pytest.approx(t * sqrt(2), rel=1e-15)

    def test_fermion_amplitudes_are_signed_entries(self):
        basis = build_basis(4, 2, F)
        h = np.zeros((4, 4))
        h[0, 2] = h[2, 0] = 1.0
        lifted = lift_one_body(h, basis).matrix.real
        assert set(np.round(lifted.ravel(), 12)) <= {-1.0, 0.0, 1.0}

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        basis = build_basis(3, 2, B)
        h1 = orc.random_hermitian(rng, 3)
        h2 = orc.random_hermitian(rng, 3)
        alpha = float(rng.uniform(-2, 2))
        lhs = lift_one_body(alpha * h1 + h2, basis).matrix
        rhs = alpha * lift_one_body(h1, basis).matrix + lift_one_body(h2, basis).matrix
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_lifted_is_hermitian(self):
        rng = np.random.default_rng(7)
        for nb, n, stat in [(4, 2, F), (3, 3, B)]:
            basis = build_basis(nb, n, stat)
            m = lift_one_body(orc.random_hermitian(rng, nb), basis).matrix
            npt.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_dimension_mismatch(self):
        basis = build_basis(3, 2, F)
        with pytest.raises(DimensionMismatch):
            lift_one_body(np.eye(4), basis)

    def test_non_hermitian_rejected(self):
        basis = build_basis(3, 2, F)
        h = np.zeros((3, 3))
        h[0, 1] = 1.0
        with pytest.raises(NonHermitianInput):
            lift_one_body(h, basis)


class TestLiftTwoBody:
    def test_single_particle_sector_is_zero(self):
        basis = build_basis(3, 1, F)
        rng = np.random.default_rng(0)
        w = orc.random_two_body_tensor(rng, 3)
        assert np.all(lift_two_body(TwoBodyOperator(w), basis).matrix == 0)

    def test_zero_tensor(self):
        basis = build_basis(3, 2, B)
        w = np.zeros((3, 3, 3, 3))
        assert np.all(lift_two_body(w, basis).matrix == 0)

    def test_onsite_repulsion_counts_double_occupancy(self):
        # orbitals (2p, 2p+1) form site p; U per doubly occupied site
        basis = build_basis(4, 2, F)
        u = 3.0
        w = np.zeros((4, 4, 4, 4))
        for p in range(2):
            a, b = 2 * p, 2 * p + 1
            w[a, b, a, b] = u
            w[b, a, b, a] = u
        lifted = lift_two_body(w, basis).matrix
        expected = np.zeros((basis.dim, basis.dim))
        for k, state in enumerate(basis.states):
            doubly = sum(state[2 * p] and state[2 * p + 1] for p in range(2))
            expected[k, k] = u * doubly
        npt.assert_allclose(lifted, expected, atol=1e-13)

    @pytest.mark.parametrize("nb,n,stat", [(3, 2, F), (4, 3, F), (2, 2, B), (3, 2, B), (5, 3, F), (3, 3, B)])
    def test_matches_string_oracle(self, nb, n, stat, seed=1):
        basis = build_basis(nb, n, stat)
        rng = np.random.default_rng(seed)
        w = orc.random_two_body_tensor(rng, nb)
        lifted = lift_two_body(TwoBodyOperator(w), basis).matrix
        oracle = orc.two_body_matrix(w, nb, n, stat is F)
        npt.assert_allclose(lifted, oracle, atol=1e-13)

    def test_hermiticity_violation_rejected(self):
        w = np.zeros((2, 2, 2, 2), dtype=complex)
        w[0, 1, 0, 1] = 1.0
        w[1, 0, 1, 0] = 1.0
        w[0, 0, 1, 1] = 1j  # conj partner missing
        with pytest.raises(SymmetryViolation):
            TwoBodyOperator(w)

    def test_exchange_violation_rejected(self):
        w = np.zeros((2, 2, 2, 2))
        w[0, 1, 0, 1] = 1.0  # w[1,0,1,0] left at zero
        with pytest.raises(SymmetryViolation):
            TwoBodyOperator(w)

    def test_dimension_mismatch(self):
        basis = build_basis(3, 2, F)
        with pytest.raises(DimensionMismatch):
            lift_two_body(np.zeros((2, 2, 2, 2)), basis)


# name: (build from an array, the array's rank, the noun of its error)
NON_FINITE_BUILDS = {
    "OneBodyOperator": (OneBodyOperator, 2, "one-body matrix"),
    "lift_one_body": (lambda h: lift_one_body(h, build_basis(3, 2, F)), 2, "one-body matrix"),
    "TwoBodyOperator": (TwoBodyOperator, 4, "two-body tensor"),
    "lift_two_body": (lambda w: lift_two_body(w, build_basis(3, 2, F)), 4, "two-body tensor"),
}


class TestNonFiniteMatrices:
    """An operator with a NaN or inf entry is refused where it enters, not
    passed on to the eigensolver."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("build,rank,noun", NON_FINITE_BUILDS.values(), ids=NON_FINITE_BUILDS.keys())
    def test_refused(self, build, rank, noun, value):
        m = np.zeros((3,) * rank, dtype=complex)
        m[(0,) * rank] = value
        with pytest.raises(InvalidArguments, match=f"^{noun} entries must be finite$"):
            build(m)


@pytest.mark.parametrize(
    "nb,n,stat",
    [(2, 1, F), (3, 2, F), (4, 3, F), (2, 2, B), (3, 2, B), (2, 3, B)],
)
def test_first_quantized_triangulation(nb, n, stat):
    """Both lifts agree with the symmetrized product-tensor construction."""
    rng = np.random.default_rng(nb * 100 + n * 10 + (stat is F))
    basis = build_basis(nb, n, stat)
    fermion = stat is F
    h = orc.random_hermitian(rng, nb)
    npt.assert_allclose(
        lift_one_body(h, basis).matrix,
        orc.first_quantized_one_body(h, nb, n, fermion),
        atol=1e-12,
    )
    if n >= 2:
        w = orc.random_two_body_tensor(rng, nb)
        npt.assert_allclose(
            lift_two_body(TwoBodyOperator(w), basis).matrix,
            orc.first_quantized_two_body(w, nb, n, fermion),
            atol=1e-12,
        )


@pytest.mark.parametrize("nb,n,stat", [(2, 1, F), (4, 2, F), (5, 3, F), (3, 3, B), (2, 3, B)])
def test_hop_blocks_cover_hop_terms_once(nb, n, stat):
    """The diagonal and upper blocks, plus the upper entries transposed
    (a+_j a_i is the adjoint of a+_i a_j), are the hop table once each."""
    basis = build_basis(nb, n, stat)
    diagonal, upper = basis.hop_blocks
    i, j = np.divmod(upper.pair, nb)
    blocks = [
        diagonal,
        upper,
        (j * nb + i, upper.cols, upper.rows, upper.amps),
    ]
    # one (pair, row, col, amp) line per entry
    entries = np.concatenate([np.stack([np.ravel(field) for field in block], axis=1) for block in blocks])
    assert sorted(map(tuple, entries)) == sorted(zip(*basis.hop_terms))


@pytest.mark.parametrize("size", [1, 2, 6, 20])
def test_triangle_indices_cover_the_matrix(size):
    """triangle and mirror: every position of a size x size matrix, the
    diagonal twice and first."""
    triangle, mirror = triangle_indices(size)
    counts = np.bincount(np.concatenate([triangle, mirror]), minlength=size * size)
    npt.assert_array_equal(counts, 1 + np.eye(size, dtype=int).ravel())
    npt.assert_array_equal(triangle[:size], np.arange(size) * (size + 1))
    m, n = np.divmod(triangle, size)
    assert np.all(m <= n)
    npt.assert_array_equal(mirror, n * size + m)


class TestSlaterState:
    def test_fermion_index_set(self):
        basis = build_basis(3, 2, F)
        rho = orc.slater_state({0, 1}, basis).matrix
        k = basis.index[(1, 1, 0)]
        expected = np.zeros((3, 3))
        expected[k, k] = 1.0
        npt.assert_array_equal(rho.real, expected)
        assert np.trace(rho) == pytest.approx(1.0)

    def test_boson_occupation_vector(self):
        basis = build_basis(2, 2, B)
        rho = orc.slater_state((2, 0), basis).matrix
        k = basis.index[(2, 0)]
        assert rho[k, k] == 1.0

    def test_wrong_size_rejected(self):
        basis = build_basis(4, 2, F)
        with pytest.raises(InvalidArguments):
            orc.slater_state({0, 1, 2}, basis)

    def test_out_of_range_rejected(self):
        basis = build_basis(3, 2, F)
        with pytest.raises(InvalidArguments):
            orc.slater_state({1, 5}, basis)
