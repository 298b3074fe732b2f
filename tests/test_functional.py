"""Dual evaluation of the universal functional and the Newton inversion."""

import itertools
from math import log

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from rdmft.ensemble import EnsembleParams, OneRdm, RdmClass
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
    omega_of_v,
    potential_basis,
    response_jacobian,
    universal_functional,
)
from rdmft.models import ModelSpec, build_system
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

    def test_norm_property(self):
        v = TracelessPotential(np.diag([1.0, -1.0]))
        assert v.norm == pytest.approx(np.sqrt(2))


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

    @pytest.mark.parametrize(
        "options",
        [{"tol": 0.0}, {"tol": float("inf")}, {"max_iter": 0}, {"classify_tol": -1e-9}, {"classify_tol": float("nan")}],
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
