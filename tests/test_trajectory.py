import dataclasses
import re

import numpy as np
import pytest

from conftest import block_standard_error, chunk_steps, run_python

from clocksync import (FrameMismatchError, StabilityError, propagate_exact,
                       reduced_drift_matrix, run_ensemble, solve_lyapunov,
                       trajectory)
from clocksync.model import PhysicalParams
from clocksync.experiments import operating_point, tick_period
from clocksync.trajectory import (_build_exact_map, _expm2, _psd_sqrt,
                                  derived_seed, displacements, recentered,
                                  record_states, stored_states)


def toy_params(nth=5.0, gamma=1.0):
    # order-one rates keep the toy integrations cheap and well conditioned
    return PhysicalParams(omega1=60.0, omega2=50.0, gamma1=gamma,
                          gamma2=2 * gamma, kappa=500.0, detuning=-200.0,
                          G1=5.0, G2=-5.0, nth1=nth, nth2=nth)


def toy_dyn(**kw):
    return reduced_drift_matrix(toy_params(**kw))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        dyn = toy_dyn()
        a = propagate_exact(dyn, duration=2.0, dt=1e-3, seed=123)
        b = propagate_exact(dyn, duration=2.0, dt=1e-3, seed=123)
        assert np.array_equal(a.b1, b.b1) and np.array_equal(a.b2, b.b2)

    def test_different_seeds_differ(self):
        dyn = toy_dyn()
        a = propagate_exact(dyn, duration=1.0, dt=1e-3, seed=1)
        b = propagate_exact(dyn, duration=1.0, dt=1e-3, seed=2)
        assert not np.array_equal(a.b1, b.b1)

    def test_ensemble_of_one_matches_single(self):
        dyn = toy_dyn()
        ens = run_ensemble(dyn, 1, duration=1.0, dt=1e-3, master_seed=9)
        ref = propagate_exact(dyn, duration=1.0, dt=1e-3,
                              seed=derived_seed(9, 0))
        assert np.array_equal(ens[0].b1, ref.b1)
        assert np.array_equal(ens[0].b2, ref.b2)
        assert ens[0].reference_frequency == ref.reference_frequency

    def test_ensemble_reproducible(self):
        dyn = toy_dyn()
        e1 = run_ensemble(dyn, 5, duration=0.5, dt=1e-3, master_seed=4)
        e2 = run_ensemble(dyn, 5, duration=0.5, dt=1e-3, master_seed=4)
        for a, b in zip(e1, e2):
            assert np.array_equal(a.b1, b.b1)


def states(dyn, seeds, duration=0.2, dt=1e-3):
    """All states of a stored_states batch, initial state first."""
    _, _, parts = stored_states(dyn, seeds, duration, dt)
    return np.concatenate(list(parts), axis=1)


class TestEngine:
    DYN = toy_dyn()
    SEEDS = [derived_seed(3, j) for j in range(5)]

    @pytest.mark.parametrize("steps_per_chunk", [1, 2, 7, 33])
    def test_block_boundaries_never_show(self, monkeypatch, steps_per_chunk):
        ref = states(self.DYN, self.SEEDS)
        chunk_steps(monkeypatch, steps_per_chunk, 5)
        assert np.array_equal(states(self.DYN, self.SEEDS), ref)

    @pytest.mark.parametrize("steps_per_chunk", [1, 2, 7, 33])
    def test_paper_map_chunks_never_show(self, paper, monkeypatch,
                                         steps_per_chunk):
        # the paper map's |t12| (about 0.01 at dt = 1e-4) is large enough
        # that a last-bit difference in a product reaches the states; one
        # member at 1 step per chunk makes every product a single element
        dyn = operating_point(paper, 0.05)[0]
        batches = ((50, 4), (1, 2))  # (members, master seed)

        def records(n_traj, master_seed):
            ens = run_ensemble(dyn, n_traj, duration=0.02, dt=1e-4,
                               master_seed=master_seed)
            return np.stack([(tr.b1, tr.b2) for tr in ens])

        refs = [records(*batch) for batch in batches]
        for batch, ref in zip(batches, refs):
            chunk_steps(monkeypatch, steps_per_chunk, batch[0])
            assert np.array_equal(records(*batch), ref)

    def test_chunks_are_sized_in_member_steps(self):
        # a long one-member pass is cut into chunks too, and a wide batch
        # into proportionally shorter ones; the band counts as 4 members
        cap = trajectory._CHUNK_MEMBER_STEPS
        for members, n_steps, chunk in ((1, 10 ** 6, 6553),
                                        (600, 3 * 54 + 5, 54)):
            assert cap // (members + 4) == chunk
            seeds = [derived_seed(8, j) for j in range(members)]
            _, _, parts = stored_states(self.DYN, seeds, n_steps * 1e-3, 1e-3)
            next(parts)  # the initial state
            full, tail = divmod(n_steps, chunk)
            assert [p.shape[1] for p in parts] == [chunk] * full + [tail]

    def test_member_states_do_not_depend_on_the_batch(self):
        batch = states(self.DYN, self.SEEDS)
        for j in range(5):
            alone = states(self.DYN, [self.SEEDS[j]])
            assert np.array_equal(batch[j], alone[0])

    @pytest.mark.parametrize("quench", [True, False])
    @pytest.mark.parametrize("members", [1, 3])
    def test_states_follow_the_map(self, paper, monkeypatch, members,
                                   quench):
        # a plain per-step loop over the same Philox draws: z0 = L zeta,
        # then z <- F z + S zeta / sqrt(2), across several chunks
        dyn = operating_point(paper, 0.04)[0]
        dt, n_steps = 1e-5, 40
        F, S, _, Vinf = _build_exact_map(dyn, dt)
        L = (np.diag(np.sqrt([paper.nth1 + 0.5, paper.nth2 + 0.5]))
             if quench else _psd_sqrt(Vinf))
        seeds = [derived_seed(6, j) for j in range(members)]
        expect = np.empty((members, n_steps + 1, 2), dtype=complex)
        for j, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.Philox(key=seed))
            expect[j, 0] = L @ rng.standard_normal(4).view(complex) / 2 ** 0.5
            for n in range(n_steps):
                zeta = rng.standard_normal(4).view(complex)
                expect[j, n + 1] = F @ expect[j, n] + S @ zeta / 2 ** 0.5
        chunk_steps(monkeypatch, 7, members)
        _, got = record_states(stored_states(dyn, seeds, n_steps * dt, dt,
                                             quench=quench))
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_record_has_one_row_per_seed(self, monkeypatch):
        # the member count is the stream's, over several chunks too
        chunk_steps(monkeypatch, 7, 3)
        for seeds in (self.SEEDS[:3], self.SEEDS[:1]):
            _, record = record_states(stored_states(self.DYN, seeds, 0.2,
                                                    1e-3))
            assert record.shape == (len(seeds), 201, 2)
            assert np.array_equal(record, states(self.DYN, seeds))
            rows = {r.tobytes() for r in record}
            assert len(rows) == len(seeds)

    def test_expansive_map_rejected_before_any_noise(self, monkeypatch):
        # the second map's diagonal entries are both below 1, but its
        # eigenvalues 0.5 +- sqrt(0.27) reach 1.0196; the call raises
        # before it keys a generator from the seeds
        for F, radius in (([[1.01, 0.3], [0.0, 0.5]], "1.01"),
                          ([[0.5, 0.3], [0.9, 0.5]], "1.0196")):
            monkeypatch.setattr(trajectory, "_expm2",
                                lambda M, F=F: np.array(F, dtype=complex))
            seeds = iter([1])
            with pytest.raises(StabilityError, match=radius):
                stored_states(self.DYN, seeds, 0.01, 1e-3)
            assert next(seeds) == 1


class TestBandedSolve:
    # the engine's ztbtrs comes from scipy's LAPACK wrapper, loaded
    # without the scipy.linalg package

    @pytest.mark.parametrize("chunk", [1, 160, 6553])
    @pytest.mark.parametrize("members", [1, 64])
    def test_is_scipys_own(self, chunk, members):
        from scipy.linalg.lapack import ztbtrs as scipys
        from clocksync._lapack import ztbtrs
        rng = np.random.default_rng(members * chunk)
        n = 2 * chunk + 2
        # a unit lower band of bandwidth 3 whose substitution stays bounded
        band = np.zeros((4, n), dtype=complex, order="F")
        band[1:] = 0.3 * (rng.random((3, n)) - 0.5
                          + 1j * (rng.random((3, n)) - 0.5))
        rhs = (rng.standard_normal((members, n))
               + 1j * rng.standard_normal((members, n)))
        solved = []
        for solve in (ztbtrs, scipys):
            x, info = solve(band, rhs.T.copy(order="F"), uplo="L", diag="U")
            assert info == 0 and np.all(np.isfinite(x))
            solved.append(x)
        assert not np.array_equal(solved[0], rhs.T)
        assert np.array_equal(solved[0], solved[1])

    def test_missing_wrapper_names_its_path(self, monkeypatch, tmp_path):
        # no fallback to another import: a renamed wrapper fails loudly
        import scipy
        from clocksync import _lapack
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError,
                           match=re.escape(str(tmp_path / "linalg"))):
            _lapack._flapack()

    def test_first_chunks_on_two_threads_load_it_once(self):
        # in a fresh interpreter, with two CPUs usable, the two sweep
        # points start their first chunk on two threads at once; both
        # step as a warm call does
        code = (
            "import sys\n"
            "from clocksync import paper_preset, sweep_coupling\n"
            "p = paper_preset()\n"
            "cold = sweep_coupling(p, grid=[0.0, 0.03], duration=0.01)\n"
            "warm = sweep_coupling(p, grid=[0.0, 0.03], duration=0.01)\n"
            "print(repr(cold) == repr(warm), 'scipy.linalg' in sys.modules)\n")
        assert run_python(code) == "True False\n"


class TestClosedFormMap:
    # _expm2 against scipy's Pade expm

    @staticmethod
    def assert_close(M, rtol):
        import scipy.linalg as sla
        expect = sla.expm(M)
        got = _expm2(M)
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(got - expect) <= rtol * np.linalg.norm(expect)

    @pytest.mark.parametrize("dt", [1e-6, 1e-5, 1e-4, "T0"])
    def test_paper_grid(self, paper, dt):
        for g in np.linspace(0.0, 0.05, 201):
            dyn = operating_point(paper, g)[0]
            step = tick_period(dyn, 1.0) if dt == "T0" else dt
            self.assert_close(recentered(dyn)[0] * step, 1e-14)

    @pytest.mark.parametrize("split", [0.0, 1e-9])
    def test_coalesced_eigenvalues(self, split):
        # a Jordan block has s = 0 exactly; split = 1e-9 gives s = 1e-9
        M = np.array([[-1.0 + split, 1.0], [0.0, -1.0 - split]], complex)
        self.assert_close(M, 1e-15)

    @pytest.mark.parametrize("g", [0.02, 0.04])
    def test_one_second_step_of_the_paper_model(self, paper, g):
        # e^m cosh(s) is 0 x inf here, so the textbook form gives nan
        self.assert_close(recentered(operating_point(paper, g)[0])[0], 1e-11)

    def test_long_step_of_the_toy_model_is_zero(self):
        import scipy.linalg as sla
        M = recentered(toy_dyn(nth=3.0))[0] * 1e4
        assert not np.any(sla.expm(M)) and not np.any(_expm2(M))


class TestDeterministicLimits:
    def test_exact_zero_diffusion_is_matrix_exponential(self):
        import scipy.linalg as sla
        dyn = toy_dyn(nth=0.0)
        dyn0 = dataclasses.replace(dyn, diffusion=np.zeros((2, 2), complex))
        traj = propagate_exact(dyn0, duration=0.5, dt=0.05, seed=0)
        drift_r, _ = recentered(dyn0)
        z = np.array([traj.b1[0], traj.b2[0]])  # the drawn thermal start
        assert np.all(z != 0)
        for k, t in enumerate(traj.times):
            expect = sla.expm(drift_r * t) @ z
            assert np.allclose([traj.b1[k], traj.b2[k]], expect, atol=1e-12)


class TestStatistics:
    def test_uncoupled_thermal_variance(self):
        p = dataclasses.replace(toy_params(nth=8.0), G1=0.0, G2=0.0)
        dyn = reduced_drift_matrix(p)
        traj = propagate_exact(dyn, duration=400.0, dt=2e-3, seed=21)
        var = np.abs(traj.b1) ** 2
        se = block_standard_error(var)
        assert abs(var.mean() - (p.nth1 + 0.5)) < 3 * se

    @pytest.mark.parametrize("quench", [True, False])
    def test_start_distribution(self, paper, quench):
        # the start alone (duration 0): a quench starts in the uncoupled
        # thermal state diag(nth + 1/2), a NESS record in V_inf
        dyn = operating_point(paper, 0.04)[0]
        ens = run_ensemble(dyn, 4000, duration=0.0, master_seed=3,
                           quench=quench)
        b1, b2 = np.array([(tr.b1[0], tr.b2[0]) for tr in ens]).T
        if quench:
            V = np.diag([paper.nth1 + 0.5, paper.nth2 + 0.5])
        else:
            V = solve_lyapunov(dyn.drift, dyn.diffusion)
        for sample, expect in ((np.abs(b1) ** 2, V[0, 0]),
                               (np.abs(b2) ** 2, V[1, 1]),
                               (np.real(b1 * np.conj(b2)), V[0, 1])):
            se = np.std(sample, ddof=1) / np.sqrt(len(sample))
            assert abs(sample.mean() - np.real(expect)) <= 4 * se

    def test_exact_single_step_reaches_ness(self):
        dyn = toy_dyn(nth=3.0)
        drift_r, _ = recentered(dyn)
        Vinf = solve_lyapunov(drift_r, dyn.diffusion)
        # one enormous step from a quenched start: distribution must be NESS
        ens = run_ensemble(dyn, 4000, duration=1e4, dt=1e4, master_seed=2)
        b = np.array([[tr.b1[-1], tr.b2[-1]] for tr in ens])
        V = (b.conj().T @ b) / len(b)
        se = np.abs(Vinf[0, 0]) / np.sqrt(len(b))
        assert abs(V[0, 0] - Vinf[0, 0]) < 3.5 * se
        assert abs(V[0, 1] - Vinf[0, 1]) < 3.5 * se

    def test_stationarity_of_windows(self):
        dyn = toy_dyn(nth=6.0)
        ens = run_ensemble(dyn, 400, duration=30.0, dt=5e-3, master_seed=8,
                           quench=False)
        b1 = np.stack([tr.b1 for tr in ens])
        n = b1.shape[1]
        w1 = np.mean(np.abs(b1[:, : n // 2]) ** 2)
        w2 = np.mean(np.abs(b1[:, n // 2:]) ** 2)
        se = np.std(np.mean(np.abs(b1) ** 2, axis=1), ddof=1) / np.sqrt(len(ens))
        assert abs(w1 - w2) < 3 * se * np.sqrt(2)

    def test_moments_linear_in_diffusion_scale(self):
        # NESS starts: V_inf, and with it the start's L, scale with the
        # diffusion, so every state scales by sqrt(scale)
        dyn = toy_dyn(nth=5.0)
        scale = 4.0
        dyn_scaled = dataclasses.replace(dyn, diffusion=scale * dyn.diffusion)
        a, b = (run_ensemble(d, 1, 5.0, dt=1e-3, master_seed=5,
                             quench=False)[0] for d in (dyn, dyn_scaled))
        assert np.allclose(b.b1, np.sqrt(scale) * a.b1, rtol=1e-12)
        ratio = np.mean(np.abs(b.b1) ** 2) / np.mean(np.abs(a.b1) ** 2)
        assert ratio == pytest.approx(scale, rel=1e-12)


class TestValidation:
    def test_rejects_full_frame(self, paper):
        from clocksync import full_drift_and_diffusion
        with pytest.raises(FrameMismatchError):
            propagate_exact(full_drift_and_diffusion(paper), 1.0, dt=1e-8,
                            seed=0)

    def test_exact_has_no_dt_limit(self, paper):
        dyn = reduced_drift_matrix(paper.with_coupling(0.04))
        traj = propagate_exact(dyn, duration=0.002, dt=1e-5, seed=0)
        assert np.all(np.isfinite(traj.b1))

    def test_unstable_drift_rejected(self):
        dyn = toy_dyn()
        bad = dataclasses.replace(dyn, drift=-dyn.drift.conj())
        with pytest.raises(StabilityError):
            propagate_exact(bad, 1.0, dt=1e-4, seed=0)

    def test_n_traj_positive(self):
        with pytest.raises(ValueError):
            run_ensemble(toy_dyn(), 0, duration=1.0, dt=1e-3, master_seed=0)

    def test_master_seed_range(self):
        with pytest.raises(ValueError):
            derived_seed(2 ** 64, 0)


class TestSampling:
    @pytest.mark.parametrize("g", [0.0, 0.05])
    @pytest.mark.parametrize("dt, k", [(1e-5, 10), (1e-6, 7)])
    def test_k_steps_are_one_step_of_k_dt(self, paper, g, dt, k):
        # the exact map composes: a record thinned k-fold has the same
        # statistics as one stepped at k dt
        dyn = reduced_drift_matrix(paper.with_coupling(g))
        F, S, _, _ = _build_exact_map(dyn, dt)
        Fk, Sk, _, _ = _build_exact_map(dyn, k * dt)
        power, noise = np.eye(2), np.zeros((2, 2), complex)
        for _ in range(k):
            noise += power @ S @ S.conj().T @ power.conj().T
            power = F @ power
        np.testing.assert_allclose(Fk, power, rtol=1e-12, atol=0)
        assert (np.linalg.norm(Sk @ Sk.conj().T - noise)
                <= 1e-9 * np.linalg.norm(noise))

    def test_uniform_grid_and_finite(self):
        traj = propagate_exact(toy_dyn(), 1.0, dt=1e-3, seed=0)
        assert np.allclose(np.diff(traj.times), traj.dt)
        assert np.all(np.isfinite(traj.b1)) and np.all(np.isfinite(traj.b2))

    def test_displacement_reconstruction(self):
        traj = propagate_exact(toy_dyn(), 0.2, dt=1e-3, seed=0)
        x1, x2 = displacements(traj)
        manual = np.sqrt(2) * np.real(
            traj.b1 * np.exp(-1j * traj.reference_frequency * traj.times))
        assert np.allclose(x1, manual)

    def test_frame_metadata(self, paper):
        dyn = reduced_drift_matrix(paper.with_coupling(0.01))
        traj = propagate_exact(dyn, 0.01, dt=1e-5, seed=0)
        # carrier per design: omega2 plus mismatch midpoint plus spring shift
        assert abs(traj.reference_frequency - paper.omega2) < 2 * np.pi * 500
