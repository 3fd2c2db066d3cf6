import dataclasses
import math

import numpy as np
import pytest

from conftest import random_stable_system

from clocksync import (CovarianceState, FrameMismatchError,
                       LyapunovSolveError, StabilityError,
                       analytic_sync_degree, entropy_rates,
                       full_drift_and_diffusion, occupations,
                       reduced_drift_matrix, solve_lyapunov, steady_state,
                       sweep_coupling)
from clocksync.model import TWO_PI


class TestLyapunov:
    def test_scalar_identity(self):
        V = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(V, np.eye(2))

    def test_single_mode_thermal(self):
        nth, w, g = 123.0, 2.0, 0.3
        A = np.array([[-g / 2, w], [-w, -g / 2]])
        D = g * (nth + 0.5) * np.eye(2)
        V = solve_lyapunov(A, D)
        assert np.max(np.abs(V - (nth + 0.5) * np.eye(2))) < 1e-12 * (nth + 0.5)

    def test_random_stable_systems(self):
        rng = np.random.default_rng(3)
        for i in range(200):
            n = rng.choice([2, 4, 6])
            A, D = random_stable_system(rng, n, complex_valued=bool(i % 2))
            V = solve_lyapunov(A, D)
            res = np.linalg.norm(A @ V + V @ A.conj().T + D)
            assert res <= 1e-8 * np.linalg.norm(D)
            w = np.linalg.eigvalsh(V)
            assert np.min(w) >= -1e-10 * np.max(np.abs(w))

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            solve_lyapunov(-np.ones((3, 2, 2)), np.ones((2, 2, 2)))


def kron_solve(A, D):
    """Reference solve of one matrix: np.kron system, Hermitian part."""
    n = len(A)
    K = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A.conj())
    V = np.linalg.solve(K, -D.reshape(-1)).reshape(n, n)
    V = 0.5 * (V + V.conj().T)
    return V if np.iscomplexobj(A) or np.iscomplexobj(D) else V.real


def stacked(dyns):
    return (np.array([d.drift for d in dyns]),
            np.array([d.diffusion for d in dyns]))


class TestStackedLyapunov:
    # a stack solves each matrix to the bits of its solve alone, signed
    # zeros included, in any stack shape

    @pytest.mark.parametrize("build, points", [
        (reduced_drift_matrix, 101), (full_drift_and_diffusion, 11),
    ], ids=["reduced-complex-2x2", "full-real-6x6"])
    def test_bit_identical_to_per_matrix_solves(self, paper, build, points):
        A, D = stacked([build(paper.with_coupling(g))
                        for g in np.linspace(0.0, 0.05, points)])
        V = solve_lyapunov(A, D)
        assert V.shape == A.shape and V.dtype == np.result_type(A, D)
        alone = np.array([solve_lyapunov(a, d) for a, d in zip(A, D)])
        assert V.tobytes() == alone.tobytes()
        assert V.tobytes() == np.array(
            [kron_solve(a, d) for a, d in zip(A, D)]).tobytes()
        n = A.shape[-1]
        V2 = solve_lyapunov(A[:10].reshape(2, 5, n, n),
                            D[:10].reshape(2, 5, n, n))
        assert V2.tobytes() == V[:10].tobytes()

    def test_first_unstable_point_raises(self, paper):
        A, D = stacked([reduced_drift_matrix(paper.with_coupling(g))
                        for g in np.linspace(0.0, 0.05, 26)])
        A[7] += 200.0 * np.eye(2)   # max Re(eig) > 0 at points 7 and 12,
        A[12] += 5e3 * np.eye(2)    # with different messages
        with pytest.raises(StabilityError) as first:
            solve_lyapunov(A[7], D[7])
        with pytest.raises(StabilityError) as later:
            solve_lyapunov(A[12], D[12])
        assert str(first.value) != str(later.value)
        with pytest.raises(StabilityError) as stack:
            solve_lyapunov(A, D)
        assert str(stack.value) == str(first.value)

    def test_nan_residual_fails(self, paper):
        # at omega1 = 2 pi x 1e306 the drift is finite but A V + V A^H
        # overflows to inf - inf: the residual is nan, which no bound
        # accepts, alone or inside a stack
        bad = reduced_drift_matrix(
            dataclasses.replace(paper, omega1=TWO_PI * 1e306))
        good = reduced_drift_matrix(paper.with_coupling(0.02))
        A, D = stacked([good, bad, good])
        with np.errstate(all="ignore"):
            with pytest.raises(LyapunovSolveError,
                               match="residual nan") as alone:
                solve_lyapunov(bad.drift, bad.diffusion)
            with pytest.raises(LyapunovSolveError) as stack:
                solve_lyapunov(A, D)
        assert str(stack.value) == str(alone.value)


class TestOccupations:
    def test_uncoupled_reduced(self, paper):
        dyn = reduced_drift_matrix(dataclasses.replace(paper, G1=0.0, G2=0.0))
        cov = steady_state(dyn)
        assert cov.n_b1_eff == pytest.approx(paper.nth1, rel=1e-9)
        assert cov.n_b2_eff == pytest.approx(paper.nth2, rel=1e-9)
        assert cov.n_a_eff == pytest.approx(0.0, abs=1e-12)
        assert cov.n_cross_eff == pytest.approx(0.0, abs=1e-3)

    def test_uncoupled_full(self, paper):
        dyn = full_drift_and_diffusion(dataclasses.replace(paper, G1=0.0, G2=0.0))
        cov = steady_state(dyn)
        assert cov.n_b1_eff == pytest.approx(paper.nth1, rel=1e-9)
        assert cov.n_a_eff == pytest.approx(0.0, abs=1e-6)

    def test_in_phase_cross_correlation_above_threshold(self, paper):
        cov = steady_state(reduced_drift_matrix(paper.with_coupling(0.02)))
        assert cov.n_cross_eff > 0

    def test_out_of_phase_for_same_sign(self, paper):
        p = paper.with_coupling(0.03)
        p = dataclasses.replace(p, G2=-p.G2)
        cov = steady_state(reduced_drift_matrix(p))
        assert analytic_sync_degree(cov) < -0.9

    def test_reduced_vs_full_photon_number(self, paper):
        p = paper.with_coupling(0.02)
        n_red = steady_state(reduced_drift_matrix(p)).n_a_eff
        n_full = steady_state(full_drift_and_diffusion(p)).n_a_eff
        assert n_red == pytest.approx(n_full, rel=0.10)

    def test_frame_mismatch(self, paper):
        dyn = reduced_drift_matrix(paper)
        with pytest.raises(FrameMismatchError):
            occupations(np.eye(6), dyn)
        with pytest.raises(FrameMismatchError):
            occupations(np.eye(2), full_drift_and_diffusion(paper))
        with pytest.raises(FrameMismatchError, match="unknown frame"):
            occupations(np.eye(2), dataclasses.replace(dyn, frame="lab"))


class TestEntropyRates:
    def test_equilibrium_is_reversible(self, paper):
        cov = CovarianceState(n_b1_eff=paper.nth1, n_b2_eff=paper.nth2,
                              n_a_eff=0.0, n_cross_eff=0.0)
        r = entropy_rates(cov, paper)
        assert r.mu_b1 == r.mu_b2 == r.mu_a == r.Pi_s == 0.0

    def test_cooling_flux_sign_and_size(self, paper):
        # half the thermal occupation at large n_th: mu ~ -gamma/2
        cov = CovarianceState(n_b1_eff=0.5 * paper.nth1, n_b2_eff=paper.nth2,
                              n_a_eff=0.0, n_cross_eff=0.0)
        r = entropy_rates(cov, paper)
        assert r.mu_b1 == pytest.approx(-0.5 * paper.gamma1, rel=1e-6)
        assert r.mu_b1 == pytest.approx(-TWO_PI * 3.5, rel=1e-6)
        assert r.mu_b1 < 0

    def test_total_is_sum(self, paper):
        cov = steady_state(reduced_drift_matrix(paper.with_coupling(0.01)))
        r = entropy_rates(cov, paper.with_coupling(0.01))
        assert r.Pi_s == pytest.approx(r.mu_b1 + r.mu_b2 + r.mu_a)

    def test_nonfinite_rejected(self, paper):
        cov = CovarianceState(n_b1_eff=math.nan, n_b2_eff=0.0,
                              n_a_eff=0.0, n_cross_eff=0.0)
        with pytest.raises(ValueError):
            entropy_rates(cov, paper)


@pytest.fixture(scope="module")
def rows(paper):
    return sweep_coupling(paper, protocol="analytic")


class TestSweepThermodynamics:
    def test_second_law(self, rows):
        assert all(r.pi_s >= -1e-9 for r in rows)

    def test_cooling_signature(self, rows):
        assert all(r.mu_b1 <= 0 and r.mu_b2 <= 0 for r in rows)
        assert all(r.mu_b1 < 0 and r.mu_b2 < 0 for r in rows[1:])

    def test_photon_flux_order_of_magnitude(self, rows):
        mid = rows[len(rows) // 2]
        assert 1e11 <= mid.mu_a <= 1e13

    def test_opposite_flux_behavior(self, rows):
        mua = np.array([r.mu_a for r in rows])
        mub = np.array([abs(r.mu_b1 + r.mu_b2) for r in rows])
        assert abs(int(np.argmax(mua)) - int(np.argmax(mub))) <= 1
