"""Dual evaluation of the universal functional and the Newton inversion."""

import gc
import itertools
import tracemalloc
import weakref
from dataclasses import replace
from math import log

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from rdmft import fock, functional, verify
from rdmft.ensemble import EnsembleParams, OneRdm, RdmClass, natural_spectrum
from rdmft.errors import (
    DimensionMismatch,
    InvalidArguments,
    NonHermitianInput,
    NotRepresentableError,
)
from rdmft.fock import Statistics, build_basis, lift_one_body
from rdmft.functional import (
    InversionOptions,
    InversionVerdict,
    PotentialBasis,
    System,
    TracelessPotential,
    invert_potential,
    invert_potentials,
    omega_of_v,
    potential_basis,
    response_jacobian,
    universal_functional,
)
from rdmft.models import MODEL_KINDS, ModelSpec, build_operators, build_system
from rdmft.representability import random_rdm

F = Statistics.FERMION
B = Statistics.BOSON


def zero_system(nb, n, stat):
    return build_system(ModelSpec(kind="zero", nb=nb, n=n, statistics=stat))


def interacting_system(nb, n, stat, seed=11):
    return build_system(
        ModelSpec(kind="random_full", nb=nb, n=n, statistics=stat, seed=seed)
    )


def hubbard_system(nb, n, stat):
    return build_system(
        ModelSpec(kind="hubbard_ring", nb=nb, n=n, statistics=stat, u=4.0, t_hop=0.5)
    )


def random_potential(nb, seed, norm=1.0):
    rng = np.random.default_rng(seed)
    v = orc.random_hermitian(rng, nb)
    v -= (np.trace(v) / nb) * np.eye(nb)
    return TracelessPotential(v * (norm / np.linalg.norm(v)))


class TestTracelessPotential:
    def test_gauge_part_rejected(self):
        with pytest.raises(InvalidArguments):
            TracelessPotential(np.diag([1.0, 1.0, 1.0]))

    def test_small_trace_leak_rejected(self):
        v = np.diag([0.5, -0.5 + 1e-6, 0.0])
        with pytest.raises(InvalidArguments):
            TracelessPotential(v)

    def test_non_hermitian_rejected(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        with pytest.raises(NonHermitianInput):
            TracelessPotential(m)

    @pytest.mark.parametrize(
        "m",
        [np.diag([np.inf, -np.inf]), np.diag([np.nan, 0.0]), np.array([[0.0, np.inf], [np.inf, 0.0]])],
        ids=["inf_diagonal", "nan_diagonal", "inf_off_diagonal"],
    )
    def test_non_finite_entries_rejected(self, m):
        # NaN compares false, so the Hermiticity and trace tests alone let these
        # through; the check runs first, before any arithmetic that would warn
        with pytest.raises(InvalidArguments, match="finite"):
            TracelessPotential(m)

    def test_norm_property(self):
        v = TracelessPotential(np.diag([1.0, -1.0]))
        assert v.norm == pytest.approx(np.sqrt(2))

    def test_norm_and_trace_check_past_the_square_range(self):
        # the sums of squares overflow at 1e200; the norms and the check's scale must not
        v = TracelessPotential(np.diag([1e200, -1e200]))
        assert v.norm == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)
        with pytest.raises(InvalidArguments):
            TracelessPotential(np.diag([1e200, -1e200 + 1e190]))
        stack = np.array([[3e200, 4e200], [3.0, 4.0]])
        norms = functional._norm(stack, axis=-1)
        assert norms[0] == pytest.approx(5e200, rel=1e-15) and norms[1] == np.linalg.norm(stack[1])


class TestPotentialBasis:
    @pytest.mark.parametrize("nb,count", [(2, 3), (3, 8), (4, 15)])
    def test_element_count(self, nb, count):
        assert potential_basis(nb).size == count

    @pytest.mark.parametrize("nb", [2, 3, 4])
    def test_orthonormal_and_traceless(self, nb):
        pb = potential_basis(nb)
        gram = np.einsum("aij,bji->ab", pb.elements, pb.elements).real
        npt.assert_allclose(gram, np.eye(pb.size), atol=1e-14)
        for g in pb.elements:
            assert abs(np.trace(g)) < 1e-14
            npt.assert_allclose(g, g.conj().T, atol=1e-15)

    def test_needs_two_orbitals(self):
        with pytest.raises(InvalidArguments):
            potential_basis(1)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_coefficient_round_trip(self, seed):
        pb = potential_basis(3)
        coeffs = np.random.default_rng(seed).uniform(-3, 3, pb.size)
        npt.assert_allclose(pb.coefficients(pb.assemble(coeffs)), coeffs, atol=1e-13)

    def test_potential_survives_large_coefficients(self):
        # round-off in the trace scrub must not trip construction at scale
        pb = potential_basis(4)
        coeffs = 1e7 * np.arange(1.0, pb.size + 1)
        v = pb.potential(coeffs)
        assert abs(np.trace(v.matrix)) <= 1e-12 * max(1.0, v.norm)


class TestReportAssembly:
    """The report pass of the solver: every v* of a batch assembled and
    checked as one stack, and -v* derived from it."""

    @pytest.mark.parametrize("nb", [2, 3, 4, 10])
    def test_stack_matches_one_row_at_a_time(self, nb):
        """Off the interior a report holds its start's v*, so boundary
        targets from starts scaled by 1e+-6 take those rows through it."""
        system = zero_system(nb, 1, F)
        pb = system.pbasis
        rng = np.random.default_rng(nb)
        coeffs = rng.normal(size=(9, pb.size)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(9, 1))
        targets = [OneRdm(np.diag([1.0] + [0.0] * (nb - 1)))] * len(coeffs)
        reports, _ = functional._dual_newton(targets, system, EnsembleParams(1.0), InversionOptions(), coeffs)
        for row, report in zip(coeffs, reports):
            assert report.verdict is InversionVerdict.NON_REPRESENTABLE
            single = pb.potential(row)
            # the scrubbed vector-matrix product of a one-target report
            m = (row @ pb.element_matrix).reshape(nb, nb)
            m -= (np.trace(m) / nb) * np.eye(nb)
            assert report.v_star.matrix.tobytes() == single.matrix.tobytes() == m.tobytes()
            assert report.gradient.matrix.tobytes() == TracelessPotential(0.0 - single.matrix).matrix.tobytes()

    @pytest.mark.parametrize("defect,error", [("non_hermitian", NonHermitianInput), ("traced", InvalidArguments)])
    def test_bad_row_raises_as_traceless_potential(self, defect, error):
        pb = potential_basis(3)
        stack = pb.traceless(np.random.default_rng(0).normal(size=(4, pb.size)))
        if defect == "non_hermitian":
            stack[2, 0, 1] += 1e-9
        else:
            stack[2] += 1e-6 * np.eye(3)
        with pytest.raises(error):
            TracelessPotential(stack[2])
        with pytest.raises(error):
            functional._check_traceless(stack)


class TestOmegaOfV:
    def test_zero_potential_zero_hamiltonian(self):
        system = zero_system(3, 2, F)
        v = TracelessPotential(np.zeros((3, 3)))
        omega, gamma = omega_of_v(v, system, EnsembleParams(beta=2.0))
        assert omega == pytest.approx(-log(3) / 2.0, rel=1e-14)
        npt.assert_allclose(gamma.matrix, (2 / 3) * np.eye(3), atol=1e-14)

    def test_matches_direct_lift(self):
        system = interacting_system(3, 2, F)
        v = random_potential(3, seed=4)
        params = EnsembleParams(beta=1.0)
        omega, gamma = omega_of_v(v, system, params)
        from rdmft.ensemble import gibbs_state, one_rdm
        from rdmft.fock import ManyBodyOperator

        hv = ManyBodyOperator(
            system.h0.matrix + lift_one_body(v.matrix, system.basis).matrix,
            system.basis.tag,
        )
        sol = gibbs_state(hv, params)
        assert omega == pytest.approx(sol.omega, abs=1e-12)
        npt.assert_allclose(gamma.matrix, one_rdm(sol.rho, system.basis).matrix, atol=1e-12)

    @pytest.mark.parametrize(
        "nb,n,statistics,beta",
        [(nb, n, F, beta) for nb, n in ((3, 2), (4, 2), (5, 3), (6, 3)) for beta in (0.1, 1.0, 50.0, 1000.0, 1e4)]
        + [(nb, n, B, beta) for nb, n in ((3, 2), (3, 3), (4, 3), (2, 5)) for beta in (0.1, 1.0, 50.0, 1000.0, 1e4)],
    )
    @pytest.mark.parametrize("kind", ["zero", "random_onebody"])
    def test_one_body_models_match_the_exact_oracle(self, kind, nb, n, statistics, beta):
        """Without interactions, Omega and the 1RDM at v = 0 and at a random v
        are those of the symmetric-polynomial partition functions, which need
        no many-body basis."""
        spec = ModelSpec(kind=kind, nb=nb, n=n, statistics=statistics, seed=nb + n)
        system, h = build_system(spec), build_operators(spec)[0].matrix
        for v in (TracelessPotential(np.zeros((nb, nb))), random_potential(nb, seed=n, norm=1.5)):
            omega, gamma = omega_of_v(v, system, EnsembleParams(beta))
            exact_omega, exact_gamma = orc.noninteracting_gibbs(h + v.matrix, n, beta, statistics is F)
            assert abs(omega - exact_omega) <= 1e-12
            assert np.abs(gamma.matrix - exact_gamma).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_concave_along_segments(self, seed):
        system = zero_system(3, 2, B)
        params = EnsembleParams(beta=1.0)
        v1 = random_potential(3, seed=2 * seed)
        v2 = random_potential(3, seed=2 * seed + 1)
        mid = TracelessPotential((v1.matrix + v2.matrix) / 2)
        o1, _ = omega_of_v(v1, system, params)
        o2, _ = omega_of_v(v2, system, params)
        om, _ = omega_of_v(mid, system, params)
        assert om > (o1 + o2) / 2


class TestResponseJacobian:
    @pytest.mark.parametrize(
        "nb,n,stat,seed", [(3, 2, F, 0), (4, 2, F, 1), (3, 2, B, 2)]
    )
    def test_symmetric_negative_definite(self, nb, n, stat, seed):
        system = interacting_system(nb, n, stat, seed=seed)
        v = random_potential(nb, seed=seed + 50)
        jac = response_jacobian(v, system, EnsembleParams(beta=1.0))
        npt.assert_allclose(jac, jac.T, atol=1e-9)
        assert np.max(np.linalg.eigvalsh(jac)) < 0

    @pytest.mark.parametrize("beta", [0.5, 1.0, 5.0])
    def test_matches_finite_differences(self, beta):
        system = interacting_system(3, 2, F, seed=3)
        gell_mann = potential_basis(3)
        # a caller's basis must be honoured, not replaced by the system's own:
        # the Gell-Mann elements mixed by a seeded random orthogonal matrix
        mix = np.linalg.qr(np.random.default_rng(21).normal(size=(gell_mann.size,) * 2))[0]
        rotated = PotentialBasis(nb=3, elements=np.tensordot(mix, gell_mann.elements, axes=1))
        v = random_potential(3, seed=8)
        params = EnsembleParams(beta=beta)
        for pb in (gell_mann, rotated):
            jac = response_jacobian(v, system, params, pb)
            c0 = pb.coefficients(v.matrix)
            step = 1e-5
            fd = np.zeros_like(jac)
            for b in range(pb.size):
                for sign in (+1, -1):
                    cb = c0.copy()
                    cb[b] += sign * step
                    _, gamma = omega_of_v(pb.potential(cb), system, params)
                    fd[:, b] += sign * pb.coefficients(gamma.matrix) / (2 * step)
            assert np.linalg.norm(fd - jac) / np.linalg.norm(jac) <= 1e-6

    @pytest.mark.parametrize("nb,n,stat", [(5, 2, F), (6, 3, F), (4, 3, B), (3, 3, B)])
    def test_matches_dense_stack_oracle(self, nb, n, stat):
        hops = orc.hop_stack(nb, n, stat is F)
        gell_mann = potential_basis(nb)
        mix = np.linalg.qr(np.random.default_rng(nb * 10 + n).normal(size=(gell_mann.size,) * 2))[0]
        mixed = PotentialBasis(nb=nb, elements=np.tensordot(mix, gell_mann.elements, axes=1))
        cases = [
            (interacting_system(nb, n, stat), random_potential(nb, seed=nb + n)),
            # fully degenerate spectrum: every pair takes the confluent branch
            (zero_system(nb, n, stat), TracelessPotential(np.zeros((nb, nb)))),
        ]
        # at beta = 1000 the excited weights underflow to 0
        for beta, (system, v), pb in itertools.product([0.5, 5.0, 50.0, 1000.0], cases, [gell_mann, mixed]):
            params = EnsembleParams(beta=beta)
            h = system.h0.matrix + np.tensordot(v.matrix.ravel(), hops, axes=1)
            expected = orc.dense_response_jacobian(h, hops, beta, pb.elements)
            jac = response_jacobian(v, system, params, pb)
            assert np.linalg.norm(jac - expected) <= 1e-12 * np.linalg.norm(expected), (beta, system.h0.basis_tag)

    @pytest.mark.parametrize("stat", [F, B])
    @pytest.mark.parametrize("beta", [1.0, 10.0, 30.0, 100.0])
    def test_two_level_closed_form(self, stat, beta):
        # one particle on two orbitals in v = c*G3 with G3 = diag(1, -1)/sqrt(2)
        # and c = 1/sqrt(2): levels -1/2 and 1/2, so d<G3>/dc is
        # -(beta/2)/cosh^2(beta/2) and the two pair directions respond by the
        # divided difference (w_0 - w_1)/(E_0 - E_1) = -tanh(beta/2), to full
        # relative precision however small these are
        pb = potential_basis(2)
        v = TracelessPotential(np.diag([0.5, -0.5]))
        jac = response_jacobian(v, zero_system(2, 1, stat), EnsembleParams(beta=beta), pb)
        expected = np.diag([-np.tanh(beta / 2)] * 2 + [-(beta / 2) / np.cosh(beta / 2) ** 2])
        npt.assert_allclose(np.diag(jac), np.diag(expected), rtol=1e-14, atol=0)
        npt.assert_array_equal(jac - np.diag(np.diag(jac)), 0.0)

    @pytest.mark.parametrize(
        "nb,n,stat,width",
        [(nb, n, stat, width) for width in (1, 3, 9) for nb, n, stat in [(6, 3, F), (4, 3, B)]] + [(9, 4, F, None)],
    )
    def test_blocks_match_one_block(self, monkeypatch, nb, n, stat, width):
        """Tiles of width eigenbasis columns cut dim 20 down to one column
        each and at widths 3 and 9, which do not divide it, and (9,4,F)'s own
        width cuts dim 126 in two: their sum is the dense oracle's Jacobian
        and the one-tile one, and a stack of three targets gives each row the
        bits of that target's call alone."""
        system = interacting_system(nb, n, stat)
        basis, pb = system.basis, potential_basis(nb)
        if width is None:
            width = functional._block_width(basis)
            assert width < basis.dim
        else:
            assert functional._block_width(basis) >= basis.dim
        potentials = [random_potential(nb, seed=nb + n + k) for k in range(3)]
        hops = orc.hop_stack(nb, n, stat is F)
        h = system.h0.matrix + np.tensordot(potentials[0].matrix.ravel(), hops, axes=1)
        for beta in (0.5, 50.0, 1000.0):
            params = EnsembleParams(beta=beta)
            with monkeypatch.context() as patch:
                patch.setattr(functional, "_block_width", lambda basis: basis.dim)
                whole = response_jacobian(potentials[0], system, params, pb)
            with monkeypatch.context() as patch:
                patch.setattr(functional, "_block_width", lambda basis: width)
                tiled = response_jacobian(potentials[0], system, params, pb)
                state = functional._thermal(np.stack([v.matrix.ravel() for v in potentials]), system, params)
                stack = functional._jacobian(state.energies, state.eigenvectors, state.weights, basis, params, pb)
                for row, v in zip(stack, potentials):
                    assert row.tobytes() == response_jacobian(v, system, params, pb).tobytes()
            expected = orc.dense_response_jacobian(h, hops, beta, pb.elements)
            assert np.linalg.norm(tiled - expected) <= 1e-12 * np.linalg.norm(expected)
            assert np.linalg.norm(tiled - whole) <= 1e-13 * np.linalg.norm(whole)

    def test_workspace_is_bounded(self):
        """At nb=10/n=5 (dim 252) one Jacobian holds about one tile pair of
        WORKSPACE_BYTES at a time: neither the whole (nb^2, dim(dim+1)/2)
        generator matrix nor the operands gathered for every column."""
        system = hubbard_system(10, 5, F)
        v = random_potential(10, seed=1)
        params = EnsembleParams(beta=1.0)
        response_jacobian(v, system, params)
        tracemalloc.start()
        try:
            response_jacobian(v, system, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * functional.WORKSPACE_BYTES

    @pytest.mark.parametrize(
        "nb, n, stat, width",
        [(nb, n, stat, None) for nb, n, stat in [*verify.DEFAULT_SYSTEMS, (6, 3, F), (4, 3, B)]]
        + [(8, 4, F, 70), (9, 4, F, 63), (10, 5, F, 42), (11, 5, F, 58), (12, 6, F, 116), (6, 8, B, 161)],
    )
    def test_block_widths(self, nb, n, stat, width):
        """The default grid and the tiling tests' bases take their triangle
        in one tile, so their Jacobians keep their bits.  Up to nb = 10 the
        tiles are the fewest of equal width whose workspace fits
        WORKSPACE_BYTES, and past it eight."""
        basis = build_basis(nb, n, stat)
        if width is None:
            assert functional._block_width(basis) >= basis.dim
        else:
            assert functional._block_width(basis) == width
            tiles = -(-basis.dim // width)
            assert (functional._workspace_bytes(basis) <= functional.WORKSPACE_BYTES) is (tiles < 8)

    def test_degenerate_spectrum_handled(self):
        # zero Hamiltonian: fully degenerate, runs through the limit branch
        system = zero_system(3, 2, F)
        v = TracelessPotential(np.zeros((3, 3)))
        jac = response_jacobian(v, system, EnsembleParams(beta=1.0))
        assert np.all(np.isfinite(jac))
        assert np.max(np.linalg.eigvalsh(jac)) < 0


class TestInvertPotential:
    def test_uniform_target_yields_zero_potential(self):
        system = zero_system(3, 2, F)
        gamma = OneRdm((2 / 3) * np.eye(3))
        report = invert_potential(gamma, system, EnsembleParams(beta=1.5))
        assert report.verdict is InversionVerdict.CONVERGED
        assert report.v_star.norm == pytest.approx(0.0, abs=1e-12)
        assert report.f_value == pytest.approx(-log(3) / 1.5, rel=1e-12)
        assert report.classification is RdmClass.INTERIOR

    @pytest.mark.parametrize(
        "nb,n,stat,kind",
        [
            (3, 2, F, "zero"),
            (4, 2, F, "random_full"),
            (4, 3, F, "hubbard_ring"),
            (3, 2, B, "random_full"),
            (2, 3, B, "zero"),
        ],
    )
    def test_round_trip(self, nb, n, stat, kind):
        system = build_system(
            ModelSpec(kind=kind, nb=nb, n=n, statistics=stat, seed=5)
        )
        params = EnsembleParams(beta=1.0)
        v = random_potential(nb, seed=nb + n, norm=1.5)
        _, gamma_v = omega_of_v(v, system, params)
        report = invert_potential(gamma_v, system, params)
        assert report.verdict is InversionVerdict.CONVERGED
        assert report.iterations <= 30
        assert np.linalg.norm(report.v_star.matrix - v.matrix) <= 1e-8
        assert np.array_equal(report.gradient.matrix, -report.v_star.matrix)

    def test_idempotent_target_is_non_representable(self):
        system = zero_system(3, 2, F)
        gamma = OneRdm(np.diag([1.0, 1.0, 0.0]))
        report = invert_potential(gamma, system, EnsembleParams(beta=1.0))
        assert report.verdict is InversionVerdict.NON_REPRESENTABLE
        assert report.classification is RdmClass.BOUNDARY
        # the verdict is the classification's: no Newton step is taken
        assert report.iterations == 0
        assert report.trace == ()
        assert not np.any(report.v_star.matrix)

    def test_outside_target_is_non_representable(self):
        system = zero_system(3, 2, F)
        gamma = OneRdm(np.diag([1.3, 0.5, 0.2]))
        report = invert_potential(gamma, system, EnsembleParams(beta=1.0))
        assert report.verdict is InversionVerdict.NON_REPRESENTABLE
        assert report.iterations == 0
        assert report.trace == ()
        assert not np.any(report.v_star.matrix)

    @pytest.mark.parametrize("beta", [5.0, 1e6])
    @pytest.mark.parametrize("nb,n,stat", [(3, 2, F), (4, 2, F), (3, 2, B)])
    def test_non_representable_iff_not_interior(self, nb, n, stat, beta):
        """Targets at signed distances from a face straddling classify_tol:
        the verdict is NON_REPRESENTABLE exactly off the interior."""
        system = hubbard_system(nb, n, stat)
        params = EnsembleParams(beta)
        rng = np.random.default_rng(nb + n)
        seen = set()
        for distance in [-0.05, -1e-3, -2e-9, -5e-10, 0.0, 5e-10, 2e-9, 1e-6, 1e-3, 0.05] * 2:
            # walk from the uniform point n/nb along a random traceless ray
            # until the nearest face is at the signed distance
            w = rng.normal(size=nb)
            w -= w.mean()
            u = n / nb
            reach = np.where(w < 0, (u - distance) / -w, np.inf)
            if stat is F:
                reach = np.minimum(reach, np.where(w > 0, (1 - u - distance) / w, np.inf))
            occ = u + reach.min() * w
            q = np.linalg.eigh(orc.random_hermitian(rng, nb))[1]
            report = invert_potential(OneRdm((q * occ) @ q.conj().T), system, params)
            seen.add(report.classification)
            not_interior = report.classification is not RdmClass.INTERIOR
            assert (report.verdict is InversionVerdict.NON_REPRESENTABLE) == not_interior
        assert seen == set(RdmClass)

    def test_interior_target_at_huge_beta_is_representable(self):
        """Warm-started up a beta ladder to 1e6, where v* has a finite limit
        far above 1/beta: no norm bound may call it non-representable."""
        system = hubbard_system(4, 2, F)
        gamma = random_rdm(4, 2, F, interior=True, seed=0)
        c = None
        for beta in [4.0**k for k in range(9)] + [1e6]:
            report = invert_potential(gamma, system, EnsembleParams(beta), InversionOptions(initial=c))
            c = system.pbasis.coefficients(report.v_star)
        assert report.classification is RdmClass.INTERIOR
        # the residual sits near tol at this beta, so only the verdict is pinned
        assert report.verdict is not InversionVerdict.NON_REPRESENTABLE
        # from a cold start the solver climbs its own ladder
        report = invert_potential(gamma, system, EnsembleParams(1e4))
        assert report.verdict is InversionVerdict.CONVERGED
        report = invert_potential(gamma, system, EnsembleParams(1e6))
        assert report.verdict is not InversionVerdict.NON_REPRESENTABLE

    @pytest.mark.parametrize("beta", [1.0, 100.0, 1e4, 1e6])
    @pytest.mark.parametrize("stat", [F, B])
    def test_one_particle_closed_form(self, stat, beta):
        """For n = 1 the 1RDM is the Gibbs state of h + v on the orbitals, so
        v* is the traceless part of -(1/beta) log gamma - h at any beta."""
        spec = ModelSpec(kind="random_full", nb=4, n=1, statistics=stat, seed=3)
        h = build_operators(spec)[0].matrix
        gamma = random_rdm(4, 1, stat, seed=3)
        report = invert_potential(gamma, build_system(spec), EnsembleParams(beta))
        assert report.verdict is InversionVerdict.CONVERGED
        occ, orbitals = np.linalg.eigh(gamma.matrix)
        exact = -(orbitals * np.log(occ)) @ orbitals.conj().T / beta - h
        exact -= np.trace(exact) / 4 * np.eye(4)
        npt.assert_allclose(report.v_star.matrix, exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [200.0, 1000.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cold_hubbard_target_converges(self, seed, beta):
        system = hubbard_system(4, 2, F)
        params = EnsembleParams(beta)
        gamma = random_rdm(4, 2, F, interior=True, seed=seed)
        report = invert_potential(gamma, system, params)
        assert report.verdict is InversionVerdict.CONVERGED
        _, gamma_v = omega_of_v(report.v_star, system, params)
        assert np.linalg.norm(gamma_v.matrix - gamma.matrix) <= 1e-8

    @pytest.mark.parametrize("beta", [200.0, 1000.0])
    def test_cold_boson_target_converges(self, beta):
        """A residual that shrinks slowly for a while is not a stall."""
        system = hubbard_system(3, 2, B)
        params = EnsembleParams(beta)
        gamma = random_rdm(3, 2, B, interior=True, seed=0)
        report = invert_potential(gamma, system, params)
        assert report.verdict is InversionVerdict.CONVERGED
        _, gamma_v = omega_of_v(report.v_star, system, params)
        assert np.linalg.norm(gamma_v.matrix - gamma.matrix) <= 1e-8

    def test_trace_mismatch_rejected(self):
        system = zero_system(3, 2, F)
        with pytest.raises(InvalidArguments):
            invert_potential(OneRdm(np.eye(3)), system, EnsembleParams(beta=1.0))

    def test_nan_target_rejected(self):
        """NaN compares false, so without the finiteness check a NaN target
        passed the Hermiticity and trace checks and reached eigh, whose
        LinAlgError is not an RdmftError."""
        with pytest.raises(InvalidArguments, match="^1RDM entries must be finite$"):
            invert_potential(np.full((3, 3), np.nan), zero_system(3, 2, F), EnsembleParams(beta=1.0))

    @pytest.mark.parametrize(
        "options",
        [
            {"tol": 0.0},
            {"tol": float("inf")},
            {"max_iter": 0},
            {"classify_tol": -1e-9},
            {"classify_tol": float("nan")},
            {"initial": np.array([0.0, np.nan, 0.0])},
            {"initial": np.array([[0.0, 0.0], [-np.inf, 0.0]])},
            # its imaginary part was dropped with only a ComplexWarning
            {"initial": np.array([0.0, 1j, 0.0])},
            # range() refused it deep in the solve, with a TypeError
            {"max_iter": 2.5},
        ],
    )
    def test_options_out_of_range_rejected(self, options):
        with pytest.raises(InvalidArguments):
            InversionOptions(**options)

    def test_monotone_dual_ascent(self):
        system = interacting_system(4, 2, F, seed=2)
        params = EnsembleParams(beta=1.0)
        gamma = random_rdm(4, 2, F, seed=21)
        report = invert_potential(gamma, system, params)
        assert report.verdict is InversionVerdict.CONVERGED
        values = [rec.g_value for rec in report.trace]
        # float-floor slack: late steps may gain less than one ulp
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_multi_start_uniqueness(self):
        system = interacting_system(3, 2, F, seed=6)
        params = EnsembleParams(beta=1.0)
        gamma = random_rdm(3, 2, F, seed=33)
        pb = potential_basis(3)
        rng = np.random.default_rng(0)
        solutions = []
        for _ in range(4):
            opts = InversionOptions(initial=rng.uniform(-1, 1, pb.size))
            report = invert_potential(gamma, system, params, opts)
            assert report.verdict is InversionVerdict.CONVERGED
            solutions.append(report.v_star.matrix)
        for m in solutions[1:]:
            assert np.linalg.norm(m - solutions[0]) <= 1e-8

    def test_gauge_shift_of_h0_leaves_solution_alone(self):
        spec = ModelSpec(kind="random_full", nb=3, n=2, statistics=F, seed=9)
        system = build_system(spec)
        from rdmft.fock import ManyBodyOperator

        shifted = System(
            basis=system.basis,
            h0=ManyBodyOperator(
                system.h0.matrix + 2.5 * np.eye(system.basis.dim), system.basis.tag
            ),
        )
        params = EnsembleParams(beta=1.0)
        gamma = random_rdm(3, 2, F, seed=44)
        r0 = invert_potential(gamma, system, params)
        r1 = invert_potential(gamma, shifted, params)
        assert r0.verdict is InversionVerdict.CONVERGED
        assert np.linalg.norm(r0.v_star.matrix - r1.v_star.matrix) < 1e-10

    def test_report_trace_is_serializable_shape(self):
        system = zero_system(3, 2, F)
        gamma = random_rdm(3, 2, F, seed=3)
        report = invert_potential(gamma, system, EnsembleParams(beta=1.0))
        assert report.trace[0].iteration == 1
        assert all(rec.residual >= 0 for rec in report.trace)


@pytest.fixture
def dual_newton_calls(monkeypatch):
    """(number of targets, beta) of each _dual_newton call, in order."""
    calls, dual_newton = [], functional._dual_newton

    def spy(targets, system, params, *args):
        calls.append((len(targets), params.beta))
        return dual_newton(targets, system, params, *args)

    monkeypatch.setattr(functional, "_dual_newton", spy)
    return calls


class TestInvertPotentials:
    @pytest.mark.parametrize(
        "bad,error",
        [
            ({2: np.eye(3), 4: np.eye(4) / 2}, "target trace 3.0 differs from n=2 beyond 1e-10"),
            ({2: np.eye(4) / 2, 4: np.eye(3)}, "target on 4 orbitals, basis has 3"),
            ({4: np.eye(3) * 0.5}, "target trace 1.5 differs from n=2 beyond 1e-10"),
        ],
        ids=["trace_first", "orbitals_first", "last_trace"],
    )
    def test_stacked_target_check_names_the_first_bad_target(self, bad, error):
        """The targets are checked as one stack; where that fails, the error is
        the one the first bad target, in list order, raises alone."""
        targets = [np.eye(3) * 2 / 3] * 5
        for k, m in bad.items():
            targets[k] = m
        with pytest.raises((InvalidArguments, DimensionMismatch)) as exc:
            invert_potentials(targets, zero_system(3, 2, F), EnsembleParams(1.0))
        assert str(exc.value) == error

    def test_empty_batch(self):
        assert invert_potentials([], zero_system(3, 2, F), EnsembleParams(1.0)) == []

    @staticmethod
    def mixed_batch(nb=4, n=2):
        """Hubbard nb/n F (half filling) at beta = 200: interior targets, the
        cold seeds 0-2 that need the beta ladder, one boundary and one outside
        target, and a Gibbs 1RDM started at its own potential."""
        system = hubbard_system(nb, n, F)
        params = EnsembleParams(200.0)
        v = random_potential(nb, seed=8, norm=0.5)
        _, gibbs = omega_of_v(v, system, params)
        q = np.linalg.eigh(orc.random_hermitian(np.random.default_rng(3), nb))[1]
        half = [0.5] * (nb - 3)
        targets = [random_rdm(nb, n, F, interior=True, seed=seed) for seed in range(5)] + [
            OneRdm((q * [1.0, *half, 0.3, 0.2]) @ q.conj().T),
            OneRdm((q * [1.1, *half, 0.3, 0.1]) @ q.conj().T),
            gibbs,
        ]
        starts = np.zeros((len(targets), system.pbasis.size))
        starts[-1] = system.pbasis.coefficients(v)
        return system, params, targets, starts

    def test_batch_matches_one_at_a_time(self, monkeypatch):
        """On hubbard 4/2 F and 8/4 F.  8/4 reuses Jacobians, so its rows take
        fresh ones on different rounds and the batch computes them for
        subsets; the budget is raised to hold its whole batch, which leaves
        its Jacobian one block and the 4/2 budget as it was."""
        for nb, n in [(4, 2), (8, 4)]:
            system, params, targets, starts = self.mixed_batch(nb, n)
            budget = max(functional.WORKSPACE_BYTES, len(targets) * functional._workspace_bytes(system.basis))
            monkeypatch.setattr(functional, "WORKSPACE_BYTES", budget)
            batch = invert_potentials(targets, system, params, InversionOptions(initial=starts))
            reused = any(r.jacobians < r.iterations - 1 for r in batch)
            assert reused == functional._reuses_jacobian(system.basis) == (nb == 8)
            single = [
                invert_potential(target, system, params, InversionOptions(initial=start))
                for target, start in zip(targets, starts)
            ]
            assert [r.classification for r in batch[5:7]] == [RdmClass.BOUNDARY, RdmClass.OUTSIDE]
            assert [r.verdict for r in batch].count(InversionVerdict.CONVERGED) == 6
            assert batch[-1].iterations == 1
            # every row of a stack takes the products it would take alone, so
            # a target's report is the same bits in a batch and alone
            for b, s in zip(batch, single):
                assert (b.verdict, b.classification, b.iterations) == (s.verdict, s.classification, s.iterations)
                assert b.jacobians == s.jacobians
                assert b.v_star.matrix.tobytes() == s.v_star.matrix.tobytes()
                assert (b.f_value, b.residual) == (s.f_value, s.residual)
                assert b.trace == s.trace

    @pytest.fixture
    def nonempty_kernels(self, monkeypatch):
        """Fail on a Gibbs kernel or a hop-table scatter over an empty stack."""
        thermal, scatter = functional._thermal, fock._scatter_sum

        def thermal_spy(v, *args):
            assert v.size, "_thermal on an empty stack"
            return thermal(v, *args)

        def scatter_spy(index, values, size):
            assert values.size, "_scatter_sum on an empty stack"
            return scatter(index, values, size)

        monkeypatch.setattr(functional, "_thermal", thermal_spy)
        monkeypatch.setattr(fock, "_scatter_sum", scatter_spy)

    def test_every_target_stops_in_the_first_round(self, nonempty_kernels):
        """Gibbs 1RDMs started at their own potentials all converge at once."""
        system = hubbard_system(4, 2, F)
        params = EnsembleParams(1.0)
        potentials = [random_potential(4, seed=seed, norm=0.5) for seed in range(3)]
        targets = [omega_of_v(v, system, params)[1] for v in potentials]
        starts = system.pbasis.coefficients(np.stack([v.matrix for v in potentials]))
        reports = invert_potentials(targets, system, params, InversionOptions(initial=starts))
        for report, v in zip(reports, potentials):
            assert report.verdict is InversionVerdict.CONVERGED
            assert report.iterations == len(report.trace) == 1
            assert report.residual <= 1e-10
            assert np.max(np.abs(report.v_star.matrix - v.matrix)) <= 1e-12
            assert report.gradient.matrix.tobytes() == (0.0 - report.v_star.matrix).tobytes()

    def test_identical_targets_stop_together(self, nonempty_kernels):
        system = hubbard_system(4, 2, F)
        params = EnsembleParams(1.0)
        gamma = random_rdm(4, 2, F, interior=True, seed=4)
        alone = invert_potential(gamma, system, params)
        assert alone.verdict is InversionVerdict.CONVERGED and alone.iterations > 2
        for report in invert_potentials([gamma] * 3, system, params):
            assert (report.verdict, report.iterations) == (alone.verdict, alone.iterations)
            assert np.max(np.abs(report.v_star.matrix - alone.v_star.matrix)) <= 1e-10

    def test_no_target_runs(self, nonempty_kernels):
        """Off the interior every report is its start's, at iteration 0."""
        system = hubbard_system(4, 2, F)
        params = EnsembleParams(1.0)
        q = np.linalg.eigh(orc.random_hermitian(np.random.default_rng(3), 4))[1]
        targets = [OneRdm((q * occ) @ q.conj().T) for occ in ([1.0, 0.5, 0.3, 0.2], [1.1, 0.5, 0.3, 0.1])]
        start = np.random.default_rng(5).normal(size=system.pbasis.size)
        reports = invert_potentials(targets, system, params, InversionOptions(initial=start))
        v = system.pbasis.potential(start)
        omega, gamma_v = omega_of_v(v, system, params)
        assert [r.classification for r in reports] == [RdmClass.BOUNDARY, RdmClass.OUTSIDE]
        assert [r.face_distance for r in reports] == pytest.approx([0.0, -0.1], abs=1e-12)
        for report, target in zip(reports, targets):
            assert report.verdict is InversionVerdict.NON_REPRESENTABLE
            assert (report.iterations, report.trace) == (0, ())
            assert report.v_star.matrix.tobytes() == v.matrix.tobytes()
            assert report.f_value == pytest.approx(omega - np.trace(v.matrix @ target.matrix).real, abs=1e-12)
            assert report.residual == pytest.approx(np.linalg.norm(gamma_v.matrix - target.matrix), abs=1e-12)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_stop_at_max_iter_is_the_last_record(self, max_iter):
        """A solve that runs out of iterations reports the state its last
        trace record shows: no step is taken past it."""
        system = hubbard_system(4, 2, F)
        gamma = random_rdm(4, 2, F, seed=1)
        report = invert_potential(gamma, system, EnsembleParams(1.0), InversionOptions(max_iter=max_iter))
        assert report.verdict is InversionVerdict.MAX_ITERATIONS
        assert report.iterations == len(report.trace) == max_iter
        assert (report.residual, report.f_value) == (report.trace[-1].residual, report.trace[-1].g_value)
        assert [r.fresh_jacobian for r in report.trace] == [True] * (max_iter - 1) + [False]

    def test_oversized_batch_is_split(self, monkeypatch, dual_newton_calls):
        """Each chunk climbs its own ladder.  Started cold, the five random
        targets and the Gibbs one stop short at beta, converge at beta/4 and
        climb back; the boundary and outside targets stop at once."""
        system, params, targets, _ = self.mixed_batch()
        whole = invert_potentials(targets, system, params)
        assert dual_newton_calls == [(8, 200.0), (6, 50.0), (6, 200.0)]
        # both budgets leave the Jacobian one block, so only the batches change
        monkeypatch.setattr(functional, "WORKSPACE_BYTES", 3 * functional._workspace_bytes(system.basis))
        dual_newton_calls.clear()
        split = invert_potentials(targets, system, params)
        assert dual_newton_calls == [
            *[(3, 200.0), (3, 50.0), (3, 200.0)],
            *[(3, 200.0), (2, 50.0), (2, 200.0)],
            *[(2, 200.0), (1, 50.0), (1, 200.0)],
        ]
        monkeypatch.setattr(functional, "WORKSPACE_BYTES", functional._workspace_bytes(system.basis))
        dual_newton_calls.clear()
        alone = invert_potentials(targets, system, params)
        ladder = [(1, 200.0), (1, 50.0), (1, 200.0)]
        assert dual_newton_calls == ladder * 5 + [(1, 200.0)] * 2 + ladder
        for reports in (split, alone):
            assert [r.trace for r in reports] == [r.trace for r in whole]
            assert [r.v_star.matrix.tobytes() for r in reports] == [r.v_star.matrix.tobytes() for r in whole]

    @pytest.mark.parametrize(
        "beta, calls",
        [
            (200.0, [(8, 200.0), (5, 50.0), (5, 200.0)]),
            (
                1e4,
                [(8, 1e4), *[(5, 1e4 / 4**k) for k in range(1, 5)], (1, 1e4 / 4**5), (1, 1e4 / 4**4)]
                + [(5, 1e4 / 4**k) for k in (3, 2, 1, 0)],
            ),
        ],
    )
    def test_ladder_solves_each_rung_as_one_batch(self, beta, calls, dual_newton_calls):
        """The targets that stop short go down each rung together and climb
        back together; at beta = 1e4 one of them needs one rung more, and
        the five climb on as one batch once it has rejoined them."""
        system, _, targets, starts = self.mixed_batch()
        invert_potentials(targets, system, EnsembleParams(beta), InversionOptions(initial=starts))
        assert dual_newton_calls == calls

    def test_singular_jacobian_stops_only_its_target(self):
        jac = np.stack([np.zeros((2, 2)), -np.eye(2)])
        steps = functional._newton_steps(jac, np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert np.all(np.isnan(steps[0]))
        npt.assert_array_equal(steps[1], [1.0, 2.0])

    @pytest.mark.parametrize(
        "nb, n, factor",
        [
            pytest.param(4, 2, -1.0, id="4-2"),
            pytest.param(8, 4, -1.0, id="8-4"),
            pytest.param(4, 2, 1e30, id="4-2-no_admissible_step"),
            pytest.param(8, 4, 1e30, id="8-4-no_admissible_step"),
        ],
    )
    def test_non_ascending_fresh_row_stops_only_itself(self, monkeypatch, nb, n, factor):
        """Row 0's first direction, from a fresh J, is scaled by factor: negated,
        it does not ascend; times 1e30, it ascends but no t >= MIN_STEP is
        admissible.  On hubbard 4/2 F, where J is not reused, and 8/4 F, where
        it is, that row stops where it started and the others go on as alone."""
        system, params = hubbard_system(nb, n, F), EnsembleParams(1.0)
        targets = [random_rdm(nb, n, F, interior=True, seed=seed) for seed in range(3)]
        cold, opts = np.zeros((1, system.pbasis.size)), InversionOptions()
        solo = [functional._dual_newton([target], system, params, opts, cold)[0][0] for target in targets[1:]]
        steps, calls = functional._newton_steps, []

        def scale_first(jac, grad):
            step = steps(jac, grad)
            if not calls:
                step[0] *= factor
            calls.append(len(grad))
            return step

        monkeypatch.setattr(functional, "_newton_steps", scale_first)
        batch, _ = functional._dual_newton(targets, system, params, opts, np.repeat(cold, 3, axis=0))
        assert calls[0] == 3 and functional._reuses_jacobian(system.basis) == (nb == 8)
        assert (batch[0].verdict, batch[0].iterations, batch[0].jacobians) == (InversionVerdict.MAX_ITERATIONS, 1, 1)
        assert not batch[0].v_star.matrix.any()
        for b, s in zip(batch[1:], solo):
            assert s.verdict is InversionVerdict.CONVERGED
            assert b.v_star.matrix.tobytes() == s.v_star.matrix.tobytes()
            assert (b.trace, b.jacobians) == (s.trace, s.jacobians)

    def test_initial_shape_checked(self):
        system, params, targets, _ = self.mixed_batch()
        with pytest.raises(InvalidArguments, match="initial"):
            invert_potentials(targets, system, params, InversionOptions(initial=np.zeros((2, system.pbasis.size))))


class TestBetaLadder:
    @staticmethod
    def warm_solve(gamma, system, beta):
        """invert_potential at beta/BETA_RUNG, and one solve at beta, with no
        ladder, from its v*."""
        colder = invert_potential(gamma, system, EnsembleParams(beta / functional.BETA_RUNG))
        start = system.pbasis.coefficients(colder.v_star)[None]
        (warm,), _ = functional._dual_newton([gamma], system, EnsembleParams(beta), InversionOptions(), start)
        return colder, warm

    @staticmethod
    def assert_same_report(a, b):
        assert (a.verdict, a.iterations, a.jacobians) == (b.verdict, b.iterations, b.jacobians)
        assert a.v_star.matrix.tobytes() == b.v_star.matrix.tobytes()
        assert (a.f_value, a.residual) == (b.f_value, b.residual)
        assert a.trace == b.trace

    @pytest.mark.parametrize("beta", [200.0, 1e4])
    @pytest.mark.parametrize("seed", range(3))
    def test_report_is_the_warm_solve(self, seed, beta, dual_newton_calls):
        """A cold solve that stops short goes down the ladder, and the report
        is, bit for bit, a solve at beta from the maximizer at beta/BETA_RUNG,
        which is itself the report of a ladder one rung shorter."""
        system = hubbard_system(4, 2, F)
        gamma = random_rdm(4, 2, F, interior=True, seed=seed)
        report = invert_potential(gamma, system, EnsembleParams(beta))
        assert dual_newton_calls[0] == dual_newton_calls[-1] == (1, beta) != dual_newton_calls[1]
        colder, warm = self.warm_solve(gamma, system, beta)
        assert colder.verdict is report.verdict is InversionVerdict.CONVERGED
        self.assert_same_report(report, warm)

    def test_failed_climb_reports_the_warm_solve(self, dual_newton_calls):
        """(3,2,F) with an occupation 1e-6 from its face at beta = 50: the
        cold solve stops short, beta/4 converges, and the climb back stops
        after one iteration.  The report is that climb's, not the cold one's."""
        system = interacting_system(3, 2, F)
        spectrum = natural_spectrum(random_rdm(3, 2, F, interior=True, seed=0))
        occ = spectrum.occupations.copy()
        occ[0] = 1 - 1e-6
        occ[1:] *= (2 - occ[0]) / occ[1:].sum()
        gamma = OneRdm((spectrum.orbitals * occ) @ spectrum.orbitals.conj().T)
        report = invert_potential(gamma, system, EnsembleParams(50.0))
        assert dual_newton_calls == [(1, 50.0), (1, 12.5), (1, 50.0)]
        assert (report.verdict, report.iterations) == (InversionVerdict.MAX_ITERATIONS, 1)
        colder, warm = self.warm_solve(gamma, system, 50.0)
        assert colder.verdict is InversionVerdict.CONVERGED
        self.assert_same_report(report, warm)


class TestJacobianReuse:
    @pytest.mark.parametrize(
        "nb, n, stat, reuses",
        [(nb, n, stat, False) for nb, n, stat in verify.DEFAULT_SYSTEMS]
        + [(4, 1, F, False), (4, 1, B, False), (6, 8, B, False), (8, 4, F, True), (10, 5, F, True)],
    )
    def test_gate(self, nb, n, stat, reuses):
        """Only where a Jacobian costs at least five Gibbs evaluations."""
        assert functional._reuses_jacobian(build_basis(nb, n, stat)) is reuses

    def test_bfgs_update(self):
        """The update meets the secant condition J+ s = -y, stays symmetric
        and negative definite, and gives each row the bits it gives alone."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 6, 6))
        jac = -(a @ a.swapaxes(-1, -2)) - np.eye(6)
        s = rng.normal(size=(3, 6))
        y = -(jac @ s[..., None])[..., 0] + 0.1 * rng.normal(size=(3, 6))
        curvature = (y * s).sum(-1)
        assert np.all(curvature > 0)
        updated = functional._bfgs(jac, s, y, curvature)
        npt.assert_allclose((updated @ s[..., None])[..., 0], -y, rtol=1e-12, atol=1e-12)
        assert np.array_equal(updated, updated.swapaxes(-1, -2))
        assert np.all(np.linalg.eigvalsh(updated) < 0)
        for b in range(3):
            alone = functional._bfgs(jac[b : b + 1], s[b : b + 1], y[b : b + 1], curvature[b : b + 1])
            assert alone.tobytes() == updated[b : b + 1].tobytes()

    @pytest.mark.parametrize("scale", [-1.0, 1e-30])
    def test_failed_reused_step_retakes_the_jacobian(self, monkeypatch, scale):
        """A reused J whose direction descends (scale -1) or finds no
        admissible t (scale 1e-30) is taken fresh, and the row goes on."""
        system, params = hubbard_system(8, 4, F), EnsembleParams(1.0)
        v = random_potential(8, seed=0, norm=0.5)
        _, gamma = omega_of_v(v, system, params)
        monkeypatch.setattr(functional, "_bfgs", lambda jac, *args: scale * jac)
        report = invert_potential(gamma, system, params)
        assert report.verdict is InversionVerdict.CONVERGED
        # every reused step fails, and its record shows no step taken
        assert [r.step_norm == 0.0 for r in report.trace] == [k % 2 == 0 for k in range(report.iterations)]
        assert report.jacobians == report.iterations // 2
        # the reused J's step fails and the retaken one's succeeds
        assert [r.fresh_jacobian for r in report.trace[:-1]] == [k % 2 == 0 for k in range(report.iterations - 1)]
        assert np.max(np.abs(report.v_star.matrix - v.matrix)) <= 1e-8

    @pytest.mark.parametrize("beta", [1.0, 50.0])
    def test_round_trip(self, beta):
        system = hubbard_system(8, 4, F)
        params = EnsembleParams(beta)
        potentials = [random_potential(8, seed=seed, norm=0.5) for seed in range(6)]
        targets = [omega_of_v(v, system, params)[1] for v in potentials]
        for report, v in zip(invert_potentials(targets, system, params), potentials):
            assert report.verdict is InversionVerdict.CONVERGED
            assert np.max(np.abs(report.v_star.matrix - v.matrix)) <= 1e-8
            assert sum(r.fresh_jacobian for r in report.trace) == report.jacobians
            assert report.trace[0].fresh_jacobian and not report.trace[-1].fresh_jacobian
            if beta == 1.0:
                assert report.jacobians < report.iterations - 1

    def test_near_face_verdict_matches_exact_newton(self, monkeypatch):
        """An interior target 1e-4 from a face at beta = 50."""
        system = hubbard_system(8, 4, F)
        params = EnsembleParams(50.0)
        q = np.linalg.eigh(orc.random_hermitian(np.random.default_rng(3), 8))[1]
        gamma = OneRdm((q * [1 - 1e-4, 0.5, 0.5, 0.5, 0.5, 0.5, 0.3, 0.2 + 1e-4]) @ q.conj().T)
        reused = invert_potential(gamma, system, params)
        monkeypatch.setattr(functional, "REUSE_COST_RATIO", float("inf"))
        exact = invert_potential(gamma, system, params)
        assert reused.verdict is exact.verdict is InversionVerdict.CONVERGED
        assert exact.jacobians == exact.iterations - 1
        assert np.max(np.abs(reused.v_star.matrix - exact.v_star.matrix)) <= 1e-8


def assert_same_reports(reports, expected):
    for r, e in zip(reports, expected, strict=True):
        same = ("verdict", "classification", "iterations", "jacobians", "f_value", "residual", "face_distance", "trace")
        assert [getattr(r, name) for name in same] == [getattr(e, name) for name in same]
        assert r.v_star.matrix.tobytes() == e.v_star.matrix.tobytes()


class TestSharedStarts:
    def test_rows_with_one_start_share_its_state_and_first_jacobian(self, monkeypatch):
        """A batch of 10 rows over 2 distinct warm starts computes the
        starting state and the first response Jacobian on 2 rows, and each
        report is the bits of its target solved alone."""
        system, params = hubbard_system(4, 2, F), EnsembleParams(1.0)
        targets = [random_rdm(4, 2, F, interior=True, seed=seed) for seed in range(10)]
        rng = np.random.default_rng(5)
        starts = np.repeat(0.3 * rng.normal(size=(2, system.pbasis.size)), 5, axis=0)
        opts = InversionOptions()
        alone = [functional._dual_newton([t], system, params, opts, s[None])[0][0] for t, s in zip(targets, starts)]
        rows = {"_start": [], "_jacobian": []}
        for name in rows:

            def spy(c, *args, name=name, kernel=getattr(functional, name)):
                rows[name].append(len(c))
                return kernel(c, *args)

            monkeypatch.setattr(functional, name, spy)
        batch, spread = functional._dual_newton(targets, system, params, opts, starts)
        # the starting state's call, then the line search's
        assert rows["_start"][0] == 2 and rows["_jacobian"][0] == 2
        assert max(rows["_jacobian"][1:]) > 2  # later Jacobians are per row
        assert_same_reports(batch, alone)
        assert [r.verdict for r in batch] == [InversionVerdict.CONVERGED] * 10
        assert spread.tobytes() == np.repeat(spread[[0, 5]], 5).tobytes()

    @pytest.mark.parametrize("max_iter", [1, 200])
    def test_first_jacobians_go_only_to_starts_a_row_steps_from(self, monkeypatch, max_iter):
        """Of three warm starts, under a boundary target, at the potential of
        its own Gibbs target (converged at iteration 1) and under an interior
        target, only the last takes a first Jacobian; with max_iter=1 no row
        steps, and none is taken."""
        system, params = hubbard_system(4, 2, F), EnsembleParams(1.0)
        a, b, c = 0.3 * np.random.default_rng(7).normal(size=(3, system.pbasis.size))
        q = np.linalg.eigh(orc.random_hermitian(np.random.default_rng(3), 4))[1]
        gibbs = omega_of_v(system.pbasis.potential(b), system, params)[1]
        targets = [OneRdm((q * [1.0, 0.5, 0.3, 0.2]) @ q.conj().T), gibbs, random_rdm(4, 2, F, interior=True, seed=0)]
        rows = []

        def spy(energies, *args, kernel=functional._jacobian):
            rows.append(len(energies))
            return kernel(energies, *args)

        monkeypatch.setattr(functional, "_jacobian", spy)
        opts = InversionOptions(max_iter=max_iter)
        reports, _ = functional._dual_newton(targets, system, params, opts, np.array([a, b, c]))
        last = InversionVerdict.CONVERGED if max_iter > 1 else InversionVerdict.MAX_ITERATIONS
        assert [r.verdict for r in reports] == [InversionVerdict.NON_REPRESENTABLE, InversionVerdict.CONVERGED, last]
        assert reports[1].iterations == 1
        if max_iter == 1:
            assert rows == []
        else:
            assert rows[0] == 1

    def test_starts_out_of_order_after_a_boundary_row(self):
        """Starts [A, B, A] with a boundary target first: once it stops, the
        running rows hold starts [B, A], whose shared ids fall with position,
        and each report is still the bits of its target solved alone."""
        system, params = hubbard_system(4, 2, F), EnsembleParams(1.0)
        q = np.linalg.eigh(orc.random_hermitian(np.random.default_rng(3), 4))[1]
        targets = [OneRdm((q * [1.0, 0.5, 0.3, 0.2]) @ q.conj().T)]
        targets += [random_rdm(4, 2, F, interior=True, seed=seed) for seed in range(2)]
        a, b = 0.3 * np.random.default_rng(5).normal(size=(2, system.pbasis.size))
        starts = np.array([a, b, a])
        opts = InversionOptions()
        alone = [functional._dual_newton([t], system, params, opts, s[None])[0][0] for t, s in zip(targets, starts)]
        batch, _ = functional._dual_newton(targets, system, params, opts, starts)
        assert_same_reports(batch, alone)
        assert [r.verdict for r in batch] == [InversionVerdict.NON_REPRESENTABLE] + [InversionVerdict.CONVERGED] * 2
        public = invert_potentials(targets, system, params, InversionOptions(initial=starts))
        solo = [invert_potential(t, system, params, InversionOptions(initial=s)) for t, s in zip(targets, starts)]
        assert_same_reports(public, solo)


class TestColdStart:
    """The Gibbs state and response Jacobian at v = 0, kept per System and beta."""

    @pytest.mark.parametrize("nb, n", [(4, 2), (8, 4)])
    def test_warm_system_matches_fresh(self, nb, n):
        """A solve that reads the memo gives the report of one that fills it;
        8/4 F reuses Jacobians, so its memo J is BFGS-updated in the first."""
        params = EnsembleParams(1.0)
        targets = [random_rdm(nb, n, F, interior=True, seed=seed) for seed in range(2)]
        warm = hubbard_system(nb, n, F)
        first = invert_potential(targets[0], warm, params)
        assert first.jacobians < first.iterations - 1 if nb == 8 else first.jacobians == first.iterations - 1
        fresh = invert_potential(targets[1], hubbard_system(nb, n, F), params)
        assert_same_reports([invert_potential(targets[1], warm, params)], [fresh])
        assert_same_reports([invert_potential(targets[0], warm, params)], [first])

    def test_mixed_batch_matches_fresh_systems(self):
        """Cold rows, a warm row and the ladder's cold rungs in one batch on
        one System, against each target alone on a System of its own."""
        system, params, targets, starts = TestInvertPotentials.mixed_batch()
        batch = invert_potentials(targets, system, params, InversionOptions(initial=starts))
        assert len(system._cold_starts) > 1
        alone = [
            invert_potential(target, hubbard_system(4, 2, F), params, InversionOptions(initial=start))
            for target, start in zip(targets, starts)
        ]
        assert_same_reports(batch, alone)

    def test_memo_is_read_only_and_unchanged(self):
        """A solve that BFGS-updates its J leaves the memo's arrays as a
        fresh computation gives them, and none of them can be written."""
        system, params = hubbard_system(8, 4, F), EnsembleParams(1.0)
        report = invert_potential(random_rdm(8, 4, F, interior=True, seed=0), system, params)
        assert report.jacobians < report.iterations - 1
        memo = system._cold_starts[params.beta]
        start = functional._start(np.zeros((1, system.pbasis.size)), system, params)
        jac = functional._jacobian(*start[:3], system.basis, params, system.pbasis)
        for kept, fresh in zip((*memo.start, memo.jacobian), (*start, jac)):
            assert not kept.flags.writeable
            assert kept.tobytes() == fresh.tobytes()

    def test_least_recently_used_beta_is_evicted(self):
        system = hubbard_system(4, 2, F)
        betas = [0.5 + k for k in range(functional.COLD_STARTS + 3)]
        for beta in betas:
            functional._cold_start(system, EnsembleParams(beta))
        kept = betas[-functional.COLD_STARTS :]
        assert list(system._cold_starts) == kept
        # asking for the oldest again makes the next one the oldest
        functional._cold_start(system, EnsembleParams(kept[0]))
        functional._cold_start(system, EnsembleParams(0.25))
        assert list(system._cold_starts) == [*kept[2:], kept[0], 0.25]

    def test_entries_belong_to_their_system(self):
        """Systems never share an entry, and an entry goes with its System."""
        params = EnsembleParams(1.0)
        hubbard, random_full = hubbard_system(4, 2, F), interacting_system(4, 2, F)
        a, b = (functional._cold_start(s, params) for s in (hubbard, random_full))
        assert a is not b and a.start[0].tobytes() != b.start[0].tobytes()
        assert functional._cold_start(hubbard_system(4, 2, F), params) is not a
        entry = weakref.ref(a)
        del a, hubbard
        gc.collect()
        assert entry() is None


class TestUniversalFunctional:
    def test_maximum_entropy_value(self):
        system = zero_system(3, 2, F)
        gamma = OneRdm((2 / 3) * np.eye(3))
        f, grad = universal_functional(gamma, system, EnsembleParams(beta=2.0))
        assert f == pytest.approx(-log(3) / 2.0, rel=1e-12)
        assert np.linalg.norm(grad.matrix) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_duality_tightness(self, seed):
        """F from the dual equals the primal free energy of the recovered state."""
        from rdmft.ensemble import gibbs_state, helmholtz, one_rdm
        from rdmft.fock import ManyBodyOperator

        system = interacting_system(3, 2, F, seed=seed)
        params = EnsembleParams(beta=1.0)
        v = random_potential(3, seed=seed + 70)
        _, gamma_v = omega_of_v(v, system, params)
        f, grad = universal_functional(gamma_v, system, params)
        hv = ManyBodyOperator(
            system.h0.matrix + lift_one_body(-grad.matrix, system.basis).matrix,
            system.basis.tag,
        )
        rho = gibbs_state(hv, params).rho
        f_primal = helmholtz(rho, system.h0, params)
        assert f == pytest.approx(f_primal, abs=1e-8)
        # and the recovered potential is the one that generated the target
        assert np.linalg.norm(-grad.matrix - v.matrix) <= 1e-8

    def test_boundary_input_raises(self):
        system = zero_system(3, 2, F)
        gamma = OneRdm(np.diag([1.0, 0.5, 0.5]))
        reason = "classified boundary: natural occupation 1 is at signed distance [+-]0.000e\\+00 from the face n = 1"
        with pytest.raises(NotRepresentableError, match=reason):
            universal_functional(gamma, system, EnsembleParams(beta=1.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_convex_along_segments(self, seed):
        system = zero_system(3, 2, F)
        params = EnsembleParams(beta=1.0)
        g0 = random_rdm(3, 2, F, seed=3 * seed)
        g1 = random_rdm(3, 2, F, seed=3 * seed + 1)
        lam = 0.5
        mix = OneRdm(lam * g0.matrix + (1 - lam) * g1.matrix)
        f0, _ = universal_functional(g0, system, params)
        f1, _ = universal_functional(g1, system, params)
        fm, _ = universal_functional(mix, system, params)
        assert fm <= lam * f0 + (1 - lam) * f1 + 1e-8

    def test_gradient_matches_finite_differences(self):
        system = interacting_system(3, 2, F, seed=12)
        params = EnsembleParams(beta=1.0)
        v = random_potential(3, seed=90, norm=0.8)
        _, gamma = omega_of_v(v, system, params)
        f, grad = universal_functional(gamma, system, params)
        pb = potential_basis(3)
        cg = pb.coefficients(gamma.matrix)
        cv = pb.coefficients(-grad.matrix)
        eps = 1e-4
        rng = np.random.default_rng(5)
        for _ in range(3):
            direction = rng.standard_normal(pb.size)
            direction /= np.linalg.norm(direction)
            warm = InversionOptions(initial=cv)
            fp, _ = universal_functional(
                OneRdm(gamma.matrix + eps * pb.assemble(direction)), system, params, warm
            )
            fm, _ = universal_functional(
                OneRdm(gamma.matrix - eps * pb.assemble(direction)), system, params, warm
            )
            analytic = float(np.dot(pb.coefficients(grad.matrix), direction))
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - analytic) / max(1.0, np.linalg.norm(cv)) <= 1e-5


def test_system_tag_guard():
    basis = build_basis(3, 2, F)
    other = build_basis(3, 2, B)
    from rdmft.fock import ManyBodyOperator
    from rdmft.errors import BasisMismatch

    with pytest.raises(BasisMismatch):
        System(basis=basis, h0=ManyBodyOperator(np.zeros((10, 10)), other.tag))


def test_omega_dimension_guard():
    system = zero_system(3, 2, F)
    with pytest.raises(DimensionMismatch):
        omega_of_v(
            TracelessPotential(np.diag([1.0, -1.0])), system, EnsembleParams(beta=1.0)
        )


@pytest.mark.parametrize("h_scale", [1.0, 2.5])
def test_random_onebody_is_random_full_without_its_two_body_part(h_scale):
    """The one-body part is drawn first, so random_onebody's h is random_full's
    for the same seed and h_scale, scaled to Frobenius norm h_scale."""
    spec = ModelSpec(kind="random_onebody", nb=4, n=2, statistics=F, seed=17, h_scale=h_scale)
    h, w = build_operators(spec)
    full = build_operators(replace(spec, kind="random_full"))[0]
    assert w is None
    assert h.matrix.tobytes() == full.matrix.tobytes()
    assert np.linalg.norm(h.matrix) == pytest.approx(h_scale, rel=1e-14)


@pytest.mark.parametrize("name", ["h_scale", "w_norm", "u", "t_hop"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_models_build_at_every_scale(kind, name):
    """A model builds wherever its lifted H0 fits in the floats, and is
    refused as overflowing where it does not.  The lifts' round-off grows
    with the scale, so no absolute hermiticity bound on them may refuse a
    valid model."""
    systems, scales = ((3, 2, F), (4, 2, F), (3, 3, B)), (0.0, 1e-300, 1e-8, 1.0, 1e5, 1e8, 1e300, 1e308)
    for (nb, n, stat), value in itertools.product(systems, scales):
        spec = ModelSpec(kind=kind, nb=nb, n=n, statistics=stat, seed=0, **{name: value})
        try:
            h0 = build_system(spec).h0.matrix
        except InvalidArguments as exc:
            assert "overflows" in str(exc), spec
        else:
            assert np.isfinite(h0).all(), spec
