import dataclasses

import numpy as np
import pytest

from clocksync import (BranchSelectionError, EffectiveCoupling,
                       FrameMismatchError, cavity_susceptibility,
                       effective_coupling, full_drift_and_diffusion,
                       normal_modes_closed_form, normal_modes_numeric,
                       paper_preset, reduced_drift_matrix, solve_lyapunov)
from clocksync.model import TWO_PI, PhysicalParams, reduced_matrices


def random_params(rng, opposite_sign=True):
    kappa = rng.uniform(0.5, 5.0) * TWO_PI * 1e6
    omega2 = rng.uniform(0.1, 0.8) * kappa
    g = rng.uniform(0.0, 0.05) * kappa
    s = -1.0 if opposite_sign else 1.0
    return PhysicalParams(
        omega1=omega2 + rng.uniform(-1e-3, 1e-3) * omega2,
        omega2=omega2,
        gamma1=rng.uniform(1.0, 200.0),
        gamma2=rng.uniform(1.0, 200.0),
        kappa=kappa,
        detuning=-rng.uniform(0.05, 2.0) * kappa,
        G1=g,
        G2=s * g,
        nth1=rng.uniform(0.0, 1e6),
        nth2=rng.uniform(0.0, 1e6),
    )


def aligned_mismatch(nm_a, nm_b):
    """Max eigenvalue distance after removing the common real offset."""
    pa = np.array([nm_a.lambda_plus, nm_a.lambda_minus])
    pb = np.array([nm_b.lambda_plus, nm_b.lambda_minus])
    offset = (pb.real.sum() - pa.real.sum()) / 2.0
    pb = pb - offset
    d_direct = max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1]))
    d_swap = max(abs(pa[0] - pb[1]), abs(pa[1] - pb[0]))
    return min(d_direct, d_swap), np.max(np.abs(pa))


class TestSusceptibility:
    def test_resonant_red_sideband_is_real(self, paper):
        p = dataclasses.replace(paper, detuning=-paper.omega_mid)
        chi = cavity_susceptibility(p.omega_mid, p)
        assert chi == pytest.approx(1.0 / p.kappa)
        assert chi.imag == 0.0

    def test_arithmetic_identity(self):
        p = PhysicalParams(omega1=1.0, omega2=1.0, gamma1=0.1, gamma2=0.1,
                           kappa=1.0, detuning=0.0, G1=0.0, G2=0.0,
                           nth1=0.0, nth2=0.0)
        assert cavity_susceptibility(1.0, p) == pytest.approx(0.5 + 0.5j)

    def test_modulus_bound(self, paper):
        for w in np.linspace(-3 * paper.kappa, 3 * paper.kappa, 101):
            assert abs(cavity_susceptibility(w, paper)) <= 1.0 / paper.kappa + 1e-18


class TestEffectiveCoupling:
    def test_uncoupled(self, paper):
        p = dataclasses.replace(paper, G1=0.0, G2=-1234.0)
        c = effective_coupling(p)
        assert c.Lambda == 0 and c.delta == 0 and c.Gamma == 0

    def test_red_sideband_dissipative_rate(self, paper):
        # at Delta = -wb the algebra closes: Gamma = 4 G^2 wb^2/(k(k^2+4wb^2))
        wb = paper.omega_mid
        g = 0.01 * paper.kappa
        p = dataclasses.replace(paper, detuning=-wb, G1=g, G2=-g)
        c = effective_coupling(p)
        expected = 4 * g ** 2 * wb ** 2 / (paper.kappa * (paper.kappa ** 2 + 4 * wb ** 2))
        assert c.Gamma == pytest.approx(expected, rel=1e-12)
        assert c.Gamma > 0

    def test_red_detuning_adds_damping(self, paper):
        c = effective_coupling(paper.with_coupling(0.01))
        assert c.Gamma > 0

    def test_sign_symmetry(self, paper):
        p = paper.with_coupling(0.02)
        flipped = dataclasses.replace(p, G1=-p.G1, G2=-p.G2)
        assert effective_coupling(p) == effective_coupling(flipped)

    def test_arrays_round_as_scalars(self):
        # couplings whose product underflows: each entry of the array
        # drift keeps the signed zeros of the scalar products, which a
        # fused multiply-add in numpy's array product would flip
        p = PhysicalParams(omega1=TWO_PI * 1e4, omega2=TWO_PI * 3e5,
                           gamma1=TWO_PI, gamma2=TWO_PI, kappa=TWO_PI * 1e5,
                           detuning=-TWO_PI * 1e5, G1=1.0, G2=-1.0,
                           nth1=0.0, nth2=0.0)
        G = np.array([1e-160, 3e-161])
        drift, _ = reduced_matrices(p, effective_coupling(p, G, -G), G, -G)
        for g, A in zip(G.tolist(), drift):
            one = reduced_drift_matrix(dataclasses.replace(p, G1=g, G2=-g))
            assert A.tobytes() == one.drift.tobytes()


class TestClosedForm:
    def test_uncoupled_limit(self):
        zero = EffectiveCoupling(chi_c=0j, Lambda=0j, delta=0.0, Gamma=0.0)
        dw, g1, g2 = TWO_PI * 200.0, TWO_PI * 7.0, TWO_PI * 14.0
        nm = normal_modes_closed_form(dw, g1, g2, zero)
        assert nm.lambda_plus == pytest.approx(dw - 0.5j * g1)
        assert nm.lambda_minus == pytest.approx(-0.5j * g2)

    def test_symmetric_dissipative_limit(self):
        g, G = TWO_PI * 10.0, TWO_PI * 40.0
        c = EffectiveCoupling(chi_c=0j, Lambda=1j * G, delta=0.0, Gamma=G)
        nm = normal_modes_closed_form(0.0, g, g, c)
        assert nm.gamma_plus == pytest.approx(g, rel=1e-12)
        assert nm.gamma_minus == pytest.approx(g + 4 * G, rel=1e-12)

    def test_trace_identity_and_branch_order(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = random_params(rng)
            c = effective_coupling(p)
            nm = normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2, c)
            total = p.gamma1 + p.gamma2 + 4 * c.Gamma
            assert (nm.gamma_plus + nm.gamma_minus - total) == pytest.approx(
                0.0, abs=1e-10 * abs(total))
            assert nm.gamma_plus <= nm.gamma_minus

    def test_matches_numeric_reduced(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            c = effective_coupling(p)
            cf = normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2, c)
            num = normal_modes_numeric(reduced_drift_matrix(p, c))
            d, scale = aligned_mismatch(cf, num)
            worst = max(worst, d / scale)
        assert worst < 1e-9

    @pytest.mark.parametrize("signs", [(1, -1), (-1, 1), (1, 1), (-1, -1)])
    def test_linewidths_match_numeric_on_every_sign_pattern(self, signs):
        # the cavity damping of each mode is -Im(|G1 G2| chi_c): +Gamma
        # for opposite signs, -Gamma for equal ones
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = random_params(rng)
            g = abs(p.G1)
            p = dataclasses.replace(p, G1=signs[0] * g, G2=signs[1] * g)
            cf = normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2,
                                          effective_coupling(p))
            num = normal_modes_numeric(reduced_drift_matrix(p))
            assert cf.gamma_plus == pytest.approx(num.gamma_plus, rel=1e-9)
            assert cf.gamma_minus == pytest.approx(num.gamma_minus, rel=1e-9)

    def test_linewidth_ratio_collapses(self, paper):
        grid = np.linspace(0.0, 0.05, 26)
        ratios = []
        for g in grid:
            p = paper.with_coupling(g)
            nm = normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2,
                                          effective_coupling(p))
            ratios.append(nm.gamma_plus / nm.gamma_minus)
        assert ratios[0] == pytest.approx(paper.gamma1 / paper.gamma2)
        # roughly unchanged below threshold, collapsing well past it
        assert 0.8 * ratios[0] < ratios[1] < 1.4 * ratios[0]
        assert ratios[-1] < 0.1 * ratios[0]
        assert ratios[20] < 0.1  # well past threshold
        tail = ratios[6:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_damping_splitting_grows(self, paper):
        # dissipative signature: the linewidth gap keeps widening with |G|
        gaps = []
        for g in [0.01, 0.02, 0.03, 0.04, 0.05]:
            p = paper.with_coupling(g)
            nm = normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2,
                                          effective_coupling(p))
            gaps.append(nm.gamma_minus - nm.gamma_plus)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestDynamics:
    def test_reduced_self_terms(self, paper):
        p = paper.with_coupling(0.01)
        c = effective_coupling(p)
        H = 1j * reduced_drift_matrix(p, c).drift
        # equal-magnitude couplings: common spring shift -delta, damping
        # gamma_i/2 + Gamma on each diagonal, Lambda off diagonal
        assert H[0, 1] == pytest.approx(c.Lambda)
        assert H[1, 0] == pytest.approx(c.Lambda)
        assert H[0, 0] == pytest.approx(
            p.delta_omega - c.delta - 1j * (p.gamma1 / 2 + c.Gamma))
        assert H[1, 1] == pytest.approx(-c.delta - 1j * (p.gamma2 / 2 + c.Gamma))

    def test_full_thermal_fixed_point(self, paper):
        p = dataclasses.replace(paper, G1=0.0, G2=0.0)
        dyn = full_drift_and_diffusion(p)
        V = solve_lyapunov(dyn.drift, dyn.diffusion)
        expect = np.diag([p.nth1 + 0.5] * 2 + [p.nth2 + 0.5] * 2
                         + [p.na_in + 0.5] * 2)
        assert np.allclose(V, expect, rtol=1e-9, atol=1e-9)

    def test_full_drift_stable(self, paper):
        for g in [0.0, 0.01, 0.05]:
            dyn = full_drift_and_diffusion(paper.with_coupling(g))
            assert np.max(np.linalg.eigvals(dyn.drift).real) < 0

    def test_diffusion_psd(self, paper):
        for g in [0.0, 0.03]:
            for build in (reduced_drift_matrix, full_drift_and_diffusion):
                D = build(paper.with_coupling(g)).diffusion
                w = np.linalg.eigvalsh(0.5 * (D + D.conj().T))
                assert np.min(w) >= -1e-12 * np.max(np.abs(w))

    def test_adiabatic_linewidth_agreement(self, paper):
        for g in [0.005, 0.01, 0.02, 0.04]:
            p = paper.with_coupling(g)
            nm_r = normal_modes_numeric(reduced_drift_matrix(p))
            nm_f = normal_modes_numeric(full_drift_and_diffusion(p))
            assert nm_r.gamma_plus == pytest.approx(nm_f.gamma_plus, rel=0.05)
            assert nm_r.gamma_minus == pytest.approx(nm_f.gamma_minus, rel=0.05)

    def test_full_mechanical_branch_passive(self, paper):
        nm = normal_modes_numeric(full_drift_and_diffusion(paper.with_coupling(0.02)))
        assert 0 < nm.gamma_plus <= paper.kappa
        assert 0 < nm.gamma_minus <= paper.kappa

    def test_branch_ambiguity_raises(self, paper):
        # detuning magnitude equal to the mechanical frequency puts the
        # optical pair right on top of the mechanical ones
        p = dataclasses.replace(paper.with_coupling(0.01),
                                detuning=-paper.omega_mid)
        with pytest.raises(BranchSelectionError):
            normal_modes_numeric(full_drift_and_diffusion(p))

    def test_numeric_modes_need_a_known_frame(self, paper):
        dyn = dataclasses.replace(reduced_drift_matrix(paper), frame="lab")
        with pytest.raises(FrameMismatchError):
            normal_modes_numeric(dyn)

    def test_full_drift_needs_three_oscillatory_pairs(self, paper):
        # an overdamped 6x6 drift: real eigenvalues, no pairs to select
        dyn = dataclasses.replace(full_drift_and_diffusion(paper),
                                  drift=-np.eye(6))
        with pytest.raises(BranchSelectionError, match="found 0"):
            normal_modes_numeric(dyn)

    def test_spectrum_invariant_under_global_sign_flip(self, paper):
        p = paper.with_coupling(0.02)
        flipped = dataclasses.replace(p, G1=-p.G1, G2=-p.G2)
        for build in (reduced_drift_matrix, full_drift_and_diffusion):
            e1 = np.sort_complex(np.linalg.eigvals(build(p).drift))
            e2 = np.sort_complex(np.linalg.eigvals(build(flipped).drift))
            assert np.allclose(e1, e2)


class TestParams:
    def test_invariants_enforced(self, paper):
        with pytest.raises(ValueError):
            dataclasses.replace(paper, gamma1=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(paper, kappa=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(paper, nth1=-0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                dataclasses.replace(paper, omega1=bad)

    def test_delta_omega_derived(self, paper):
        assert paper.delta_omega == paper.omega1 - paper.omega2
        assert paper.delta_omega == pytest.approx(TWO_PI * 200.0)

    def test_with_coupling_keeps_signs(self, paper):
        p = paper.with_coupling(0.01)
        assert p.G1 > 0 > p.G2
        assert abs(p.G1) == abs(p.G2) == pytest.approx(0.01 * p.kappa)
