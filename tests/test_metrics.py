import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import moments_of, quench_record, run_python

from clocksync import (ConstantSeriesError, EnsembleError, PlateauError,
                       TickStats, power_spectrum, reduced_drift_matrix,
                       transient_time)
from clocksync import experiments, metrics
from clocksync.experiments import (TICK_SEED_BASE, operating_point,
                                   tick_metrics, tick_period, tick_stats)
from clocksync.metrics import (MAGNITUDE_FLOOR_FRACTION, EnsembleMoments,
                               PearsonStats, moving_median, power_spectra)
from clocksync.model import TWO_PI
from clocksync.trajectory import derived_seed


def pearson(x1, x2):
    """C of two whole series: one piece of ``PearsonStats``."""
    return PearsonStats().update(x1, x2).result()


@pytest.fixture
def window_periods(monkeypatch):
    """The (p1, p2, keep1, keep2) that ``tick_stats`` passes to
    ``TickStats.update``, one tuple per D window."""
    seen = []

    class Recording(TickStats):
        def update(self, *args):
            seen.append(args)
            super().update(*args)

    monkeypatch.setattr(experiments, "TickStats", Recording)
    return seen


class TestPearson:
    def test_identical(self):
        x = np.sin(np.linspace(0, 20, 500))
        assert pearson(x, x) == pytest.approx(1.0)

    def test_anti(self):
        x = np.sin(np.linspace(0, 20, 500))
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_noise_small(self):
        rng = np.random.default_rng(0)
        n = 20000
        c = pearson(rng.standard_normal(n), rng.standard_normal(n))
        assert abs(c) < 3 / np.sqrt(n)

    def test_constant_rejected(self):
        with pytest.raises(ConstantSeriesError):
            pearson(np.ones(10), np.arange(10.0))

    def test_tiny_nonconstant_series(self):
        # squared deviations of order 1e-272 underflow to zero
        x = np.ones(64)
        x[0] = 0.0
        y = np.zeros(64)
        y[0] = 4.72403968e-272
        assert pearson(x, y) == pytest.approx(-1.0)

    def test_one_piece_is_the_two_pass_formula(self):
        rng = np.random.default_rng(4)
        x1 = 2.0 + rng.standard_normal(3001)
        x2 = 0.3 * x1 + rng.standard_normal(3001)
        d1, d2 = x1 - x1.mean(), x2 - x2.mean()

        def dot(a, b):
            return float(np.add.reduce(a * b))

        ref = dot(d1, d2) / math.sqrt(dot(d1, d1) * dot(d2, d2))
        assert pearson(x1, x2) == ref

    def test_independent_of_blas_threads(self):
        # a threaded BLAS dot product sums 1e6 terms in an order that
        # follows its thread count
        code = ("import numpy as np\n"
                "from clocksync.metrics import PearsonStats\n"
                "rng = np.random.default_rng(1)\n"
                "x1 = rng.standard_normal(10 ** 6)\n"
                "x2 = 0.5 * x1 + rng.standard_normal(10 ** 6)\n"
                "print(PearsonStats().update(x1, x2).result().hex())\n")
        one, two = (run_python(code, OPENBLAS_NUM_THREADS=n)
                    for n in ("1", "2"))
        assert one == two

    @settings(max_examples=60, deadline=None)
    @given(arrays(float, 64, elements=st.floats(-1e6, 1e6)),
           arrays(float, 64, elements=st.floats(-1e6, 1e6)))
    # a subnormal deviation once overflowed the power-of-two scale to inf
    @example(np.concatenate([[0.0], np.ones(63)]),
             np.concatenate([[2.225e-311], np.zeros(63)]))
    def test_bounded(self, x, y):
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            return
        assert abs(pearson(x, y)) <= 1.0


class TestTicks:
    # a 1 kHz carrier: T0 = 1 ms, D windows of 250 periods, and a trailing
    # window counts from 10 periods on
    carrier = TWO_PI * 1e3

    def test_constant_envelope(self, window_periods):
        b = np.ones((1001, 2), dtype=complex)
        m = tick_stats([b], self.carrier)
        assert len(window_periods) == 4
        for p1, p2, keep1, keep2 in window_periods:
            assert np.array_equal(p1, np.full(250, TWO_PI / self.carrier))
            assert np.array_equal(p2, p1) and keep1.all() and keep2.all()
        assert m.D == 0.0 and m.N1 == math.inf and m.N2 == math.inf

    def test_frequency_offset(self, window_periods):
        # b_i = exp(i nu_i t) turns nu_i T0 per period, so its periods are
        # T0 + nu_i T0 / carrier: 1.04 and 0.97 ms
        t0 = TWO_PI / self.carrier
        nu = TWO_PI * np.array([40.0, -30.0])
        b = np.exp(1j * nu * t0 * np.arange(1101)[:, None])
        m = tick_stats([b], self.carrier)
        assert [len(w[0]) for w in window_periods] == [250] * 4 + [100]
        for i, want in enumerate(t0 + nu * t0 / self.carrier):
            got = np.concatenate([w[i] for w in window_periods])
            np.testing.assert_allclose(got, want, rtol=1e-12)
        # tau ramps by the period difference c each period: var(tau) is
        # c^2 K (K + 1) / 12 over a window of K periods
        c = (nu[1] - nu[0]) * t0 / self.carrier
        K = np.array([250] * 4 + [100])
        mean = t0 * (1 + nu.mean() / self.carrier)
        want = np.mean(c ** 2 * K * (K + 1) / 12) / mean ** 2
        assert m.D == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("stride", [1, 3, 7])
    def test_c_takes_every_kth_state_once(self, monkeypatch, stride):
        # four full D windows and a counted tail: C sums the states whose
        # index is a multiple of the stride, each shared end state once
        monkeypatch.setattr(experiments, "C_SAMPLE_SECONDS",
                            stride * TWO_PI / self.carrier)
        rng = np.random.default_rng(6)
        b = rng.standard_normal((1101, 2)) + 1j * rng.standard_normal(
            (1101, 2))
        b[:, 1] += 0.5 * b[:, 0]
        s = b[::stride]
        v1, v2 = np.sum(np.abs(s) ** 2, axis=0)
        C = np.sum(s[:, 0] * np.conj(s[:, 1])).real / math.sqrt(v1 * v2)
        assert abs(tick_stats([b], self.carrier).C - C) <= 1e-14

    def test_too_short(self):
        # 9 periods: fewer than a counted window needs
        with pytest.raises(EnsembleError):
            tick_stats([np.ones((10, 2), dtype=complex)], self.carrier)

    def test_magnitude_dip_flagged(self, window_periods, monkeypatch):
        # a dip to 1e-4 with a scrambled phase: the periods that touch it
        # count for D but not for N, so N stays noiseless
        b = np.ones((1001, 2), dtype=complex)
        b[400:403, 0] = 1e-4 * np.exp(1j * np.array([2.0, -1.0, 3.0]))
        m = tick_stats([b], self.carrier)
        keep = np.concatenate([w[2] for w in window_periods])
        assert np.array_equal(np.flatnonzero(~keep), np.arange(399, 403))
        assert m.N1 == math.inf and m.D > 0.0
        monkeypatch.setattr(experiments, "MAGNITUDE_FLOOR_FRACTION", 0.0)
        assert math.isfinite(tick_stats([b], self.carrier).N1)

    @pytest.mark.parametrize("slice_periods", [1, 7, 33])
    def test_periods_do_not_depend_on_the_slice(self, window_periods,
                                                monkeypatch, slice_periods):
        # a full D window and a counted tail, reduced TICK_SLICE periods
        # at a time, give the same periods bit for bit at any slice
        rng = np.random.default_rng(3)
        phase = np.cumsum(0.3 * rng.standard_normal((1101, 2)), axis=0)
        b = (1.0 + 0.5 * rng.standard_normal((1101, 2))) * np.exp(1j * phase)
        tick_stats([b], self.carrier)
        ref = [w[:2] for w in window_periods]
        window_periods.clear()
        monkeypatch.setattr(experiments, "TICK_SLICE", slice_periods)
        tick_stats([b], self.carrier)
        assert len(window_periods) == len(ref) == 5
        for (p1, p2, *_), want in zip(window_periods, ref):
            assert np.array_equal(p1, want[0]) and np.array_equal(p2, want[1])

    def test_periods_do_not_depend_on_the_window_size(self, window_periods):
        # a 2 us carrier: D windows of 125 000 periods (4 MB of states),
        # against a copied 6000-period stretch of one as a record of its
        # own (a counted tail of 190 kB).  numpy computes a product in
        # place of a temporary only past 256 kB, which once rounded the
        # periods of long windows differently
        carrier = TWO_PI / 2e-6
        rng = np.random.default_rng(5)
        phase = np.cumsum(0.05 * rng.standard_normal((125_001, 2)), axis=0)
        b = (1.0 + 0.3 * rng.standard_normal((125_001, 2))) * np.exp(
            1j * phase)
        tick_stats([b], carrier)
        [(p1, p2, *_)] = window_periods
        window_periods.clear()
        tick_stats([b[40_000:46_001].copy()], carrier)
        [(q1, q2, *_)] = window_periods
        assert np.array_equal(q1, p1[40_000:46_000])
        assert np.array_equal(q2, p2[40_000:46_000])

    def test_stochastic_period_mean_matches_mode(self, paper, window_periods):
        from clocksync import normal_modes_numeric
        p = paper.with_coupling(0.02)
        dyn = reduced_drift_matrix(p)
        tick_metrics(dyn, 3, 0.2, tick_period(dyn, 0.2))
        periods = np.concatenate([w[0] for w in window_periods])
        nm = normal_modes_numeric(dyn)
        f_lab = p.omega2 + nm.omega_plus  # long-lived mode, lab frame
        se = np.std(periods, ddof=1) / np.sqrt(len(periods))
        # mean period estimates are anticorrelated sample to sample, so the
        # naive standard error overestimates; 3 se is a safe band
        assert abs(periods.mean() - TWO_PI / f_lab) < 3 * se

    def test_zero_coupling_matches_closed_form(self, paper):
        # uncoupled clocks.  Clock i's phase increment over T0 has variance
        # D_ii T0 / (2 |b_i|^2); N counts a period when |b_i|^2 reaches
        # f^2 (n_i + 1/2), with probability e^(-f^2), so
        # N_i = 4 pi w_i (n_i + 1/2) e^(-f^2) / (D_ii E1(f^2)).  D is the
        # mismatch ramp, (dw / w)^2 K^2 / 12 over windows of K periods.
        from scipy.special import exp1
        dyn, _ = operating_point(paper, 0.0)
        t0 = tick_period(dyn, 2.0)
        runs = np.array([[getattr(tick_metrics(
            dyn, derived_seed(seed, TICK_SEED_BASE), 2.0, t0), k)
            for k in ("D", "N1", "N2")] for seed in range(12)])
        f2 = MAGNITUDE_FLOOR_FRACTION ** 2
        w = np.array([paper.omega1, paper.omega2])
        nth = np.array([paper.nth1, paper.nth2])
        N = 4 * np.pi * w * (nth + 0.5) * np.exp(-f2) / (
            np.real(np.diag(dyn.diffusion)) * exp1(f2))
        K = round(0.25 / t0)
        D = ((w[0] - w[1]) / w.mean()) ** 2 * K ** 2 / 12
        mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert np.all(np.abs(mean - [D, *N]) < 3 * se)


def window_stats(p1, p2, nominal_period, keep1=None, keep2=None):
    """One-window D and N of a pair of period trains, every period kept
    unless masks are given."""
    every = np.ones(len(p1), dtype=bool)
    stats = TickStats(nominal_period)
    stats.update(p1, p2, every if keep1 is None else keep1,
                 every if keep2 is None else keep2)
    return stats.result()


class TestClockStats:
    def test_identical_trains(self):
        periods = np.full(200, 1e-3)
        m = window_stats(periods, periods, 1e-3)
        assert m.D == 0.0

    def test_noiseless_accuracy_sentinel(self):
        # exactly representable period so the variance is exactly zero
        periods = np.full(99, 2.0 ** -10)
        m = window_stats(periods, periods, 2.0 ** -10)
        assert m.N1 == math.inf and m.N2 == math.inf

    def test_minimum_periods(self):
        periods = np.full(4, 1e-3)
        with pytest.raises(EnsembleError):
            window_stats(periods, periods, 1e-3)

    def test_offset_ramp_dominates_unsynchronized(self):
        rng = np.random.default_rng(1)
        jitter = 1e-9
        p1 = 2.5e-6 + jitter * rng.standard_normal(2000)
        p2 = 2.501e-6 + jitter * rng.standard_normal(2000)
        unsync = window_stats(p1, p2, 2.5e-6).D
        common = 2.5e-6 + jitter * rng.standard_normal(2000)
        sync = window_stats(common, common + 1e-11 * rng.standard_normal(
            2000), 2.5e-6).D
        assert unsync > 100 * sync

    def test_gap_periods_excluded_from_accuracy(self):
        base = 2.0 ** -10
        periods = np.full(100, base)
        periods[50] = 4 * base  # corrupted period inside a flagged gap
        keep = periods == base
        clean = window_stats(periods, periods, base, keep, keep)
        assert clean.N1 == math.inf  # the only jitter sat inside the gap

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 23500), max_size=8))
    def test_block_boundaries_do_not_reach_the_result(self, cuts):
        # T0 = 20 us: one full 12500-period window plus a 10999-period
        # tail, which counts (at least 500 periods); magnitudes reach
        # below the floor, so the masks are exercised too
        carrier = TWO_PI / 2e-5
        rng = np.random.default_rng(4)  # two members, slow phase noise
        phase = np.cumsum(0.02 * rng.standard_normal((2, 23500, 2)), axis=1)
        record = (1.0 + 0.5 * rng.standard_normal((2, 23500, 2))
                  ) * np.exp(1j * phase)
        for member in record:
            whole = tick_stats([member], carrier)
            cut = tick_stats(np.split(member, sorted(cuts)), carrier)
            assert (whole.D, whole.N1, whole.N2) == (cut.D, cut.N1, cut.N2)


class TestPowerSpectrum:
    def test_sinusoid_peak_location(self):
        fs, f0 = 1000.0, 123.0
        t = np.arange(0, 20, 1 / fs)
        f, psd = power_spectrum(np.exp(2j * np.pi * f0 * t), 1 / fs)
        assert f[np.argmax(psd)] == pytest.approx(f0, abs=f[1] - f[0])

    def test_white_noise_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2 ** 17) + 1j * rng.standard_normal(2 ** 17)
        f, psd = power_spectrum(x, 1e-3)
        df = f[1] - f[0]
        assert np.sum(psd) * df == pytest.approx(np.var(x), rel=0.01)

    def test_complex_input_two_sided(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        f, psd = power_spectrum(z, 1e-2)
        assert f[0] < 0 < f[-1]
        assert np.all(np.diff(f) > 0)
        df = f[1] - f[0]
        assert np.sum(psd) * df == pytest.approx(np.var(z), rel=0.02)

    def test_too_short(self):
        with pytest.raises(ValueError):
            power_spectrum(np.ones(3), 1.0)

    def test_one_segment_at_a_time(self):
        # 2^20 samples make 15 half-overlapping segments of 2^17; their
        # periodograms are summed as they come, not held all at once
        rng = np.random.default_rng(8)
        z = rng.standard_normal(2 ** 20) + 1j * rng.standard_normal(2 ** 20)
        segment_bytes = 2 ** 17 * z.itemsize
        tracemalloc.start()
        try:
            power_spectrum(z, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * segment_bytes

    @pytest.mark.parametrize("cuts", [[], [1, 700, 701, 4096], [2500]])
    def test_streamed_columns_are_the_series_spectra(self, cuts):
        # a stream of blocks cut anywhere gives each column the spectrum
        # of a plain loop over the whole series' segments, bit for bit
        def welch(x, dt):
            nperseg = 2 ** int(np.log2(max(len(x) // 8, 2)))
            w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(nperseg) / nperseg)
            starts = range(0, len(x) - nperseg + 1, nperseg // 2)
            psd = 0.0
            for s in starts:
                seg = x[s:s + nperseg]
                psd += np.abs(np.fft.fft((seg - seg.mean()) * w)) ** 2
            psd = psd / len(starts) * (dt / np.sum(w ** 2))
            return (np.fft.fftshift(np.fft.fftfreq(nperseg, dt)),
                    np.fft.fftshift(psd))

        rng = np.random.default_rng(7)
        z = 2.0 + rng.standard_normal((5000, 4)).view(complex)
        f, psd = power_spectra(np.split(z, cuts), len(z), 1e-3)
        assert psd.shape == (512, 2)
        for i in (0, 1):
            want_f, want = welch(z[:, i], 1e-3)
            assert np.array_equal(f, want_f)
            assert np.array_equal(psd[:, i], want)

    @pytest.mark.parametrize("n", [4, 1000, 4097])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_matches_scipy_welch(self, n, complex_valued):
        # the spectrum is two-sided, of a real series too
        from scipy.signal import welch
        rng = np.random.default_rng(n)
        x = 2.0 + rng.standard_normal(n)
        if complex_valued:
            x = x + 1j * rng.standard_normal(n)
        nperseg = 2 ** int(np.log2(max(n // 8, 2)))
        want_f, want = welch(x, fs=1e3, window="hann", nperseg=nperseg,
                             noverlap=nperseg // 2, detrend="constant",
                             return_onesided=False, scaling="density")
        order = np.argsort(want_f)
        f, psd = power_spectrum(x, 1e-3)
        assert np.array_equal(f, want_f[order])
        np.testing.assert_allclose(psd, want[order], rtol=1e-12, atol=0)

    def test_peak_linewidth_matches_long_lived_mode(self, paper):
        from clocksync import normal_modes_closed_form, effective_coupling
        from clocksync import propagate_exact
        p = paper.with_coupling(0.02)
        nm = normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2,
                                      effective_coupling(p))
        traj = propagate_exact(reduced_drift_matrix(p), 10.0, 1e-5, seed=31)
        f, psd = power_spectrum(traj.b1, traj.dt)
        ipk = int(np.argmax(psd))
        half = 0.5 * psd[ipk]
        lo = ipk - np.argmax(psd[ipk::-1] < half)
        hi = ipk + np.argmax(psd[ipk:] < half)
        fwhm = f[hi] - f[lo]
        assert fwhm == pytest.approx(nm.gamma_plus / TWO_PI, rel=0.20)

    @pytest.mark.parametrize("g", [0.002, 0.04])
    def test_envelope_spectrum_is_the_ou_spectrum(self, paper, g):
        # trajectory's Welch spectrum of each clock, on a record keyed as
        # its own, against S_ii(nu) = [(i nu - A')^-1 D (i nu - A')^-H]_ii
        # of the recentred drift A' over |f| < 500 Hz.  Each bin is S times
        # chi2_nu / nu, nu = 2K / (1 + 2 rho) for K Hann segments at 50%
        # overlap (Welch 1967).  dt = 2e-5 keeps the 2.9 kHz wide fast
        # mode at g = 0.04 from aliasing into the band.
        from scipy.stats import chi2
        from clocksync.trajectory import (record_states, recentered,
                                          stored_states)
        dt = 2e-5
        dyn, _ = operating_point(paper, g)
        _, (record,) = record_states(stored_states(
            dyn, [derived_seed(3, 0)], 8.0, dt, quench=False))
        A, _ = recentered(dyn)
        n = len(record)
        nperseg = 2 ** int(np.log2(n // 8))
        K = len(range(0, n - nperseg + 1, nperseg // 2))
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(nperseg) / nperseg)
        rho = (w[nperseg // 2:] @ w[:nperseg // 2] / (w @ w)) ** 2
        nu = 2 * K / (1 + 2 * rho)
        for i in (0, 1):
            f, psd = power_spectrum(record[:, i], dt)
            f, psd = f[np.abs(f) < 500.0], psd[np.abs(f) < 500.0]
            M = np.linalg.inv(2j * np.pi * f[:, None, None] * np.eye(2) - A)
            S = (M @ dyn.diffusion @ M.conj().swapaxes(1, 2))[:, i, i].real
            r = psd / S
            assert r.mean() == pytest.approx(1.0, abs=0.05)
            for p, most in ((0.01, 0.03), (0.05, 0.10)):
                lo, hi = chi2.ppf([p / 2, 1 - p / 2], nu) / nu
                assert np.mean((r < lo) | (r > hi)) <= most
            assert np.std(r) == pytest.approx(np.sqrt(2 / nu), rel=0.2)


class TestTransientCorrelation:
    def test_perfectly_correlated_clocks(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((40, 50)) + 1j * rng.standard_normal((40, 50))
        R = moments_of(np.stack([b, 2.0 * b], -1)).correlation()
        assert np.allclose(R, 1.0)

    def test_independent_start(self, paper):
        p = dataclasses.replace(paper, G1=0.0, G2=0.0)
        ens = quench_record(reduced_drift_matrix(p), 400, duration=0.01,
                            dt=1e-3, master_seed=1)
        R = moments_of(ens).correlation()
        assert abs(R[0]) < 3 / np.sqrt(400)

    def test_degenerate_points_flagged(self):
        R = moments_of(np.zeros((3, 5, 2), dtype=complex)).correlation()
        assert np.all(np.isnan(R))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_bounded_random_ensembles(self, seed):
        rng = np.random.default_rng(seed)
        b1, b2 = (rng.standard_normal((2, 4, 20))
                  + 1j * rng.standard_normal((2, 4, 20)))
        R = moments_of(np.stack([b1, b2], -1)).correlation()
        ok = np.isfinite(R)
        assert np.all(np.abs(R[ok]) <= 1.0)


class TestEnsembleMoments:
    def test_blocks_never_show(self):
        # one-time blocks too: numpy sums a lone member column pairwise
        rng = np.random.default_rng(8)
        states = rng.standard_normal((300, 40, 4)).view(complex)
        whole = EnsembleMoments(40)
        whole.update(states)
        for cuts in ([1] * 40, [1, 2, 7, 30], [33, 7]):
            parts = EnsembleMoments(40)
            for a, b in zip(np.cumsum([0] + cuts[:-1]), np.cumsum(cuts)):
                parts.update(states[:, a:b])
            assert np.array_equal(parts.cross, whole.cross)
            assert np.array_equal(parts.squares, whole.squares)

    def test_stored_record_reference(self):
        # the plain-sum reduction over a (members, times) stack, bit for
        # bit: moments about zero, each root taken on its own
        rng = np.random.default_rng(9)
        b1, b2 = rng.standard_normal((2, 120, 30, 2)).view(complex)[..., 0]
        num = np.real(np.sum(b1 * np.conj(b2), axis=0))
        v1, v2 = (np.sum(np.abs(b) ** 2, axis=0) for b in (b1, b2))
        R = moments_of(np.stack([b1, b2], -1)).correlation()
        assert np.array_equal(R, num / (np.sqrt(v1) * np.sqrt(v2)))

    def test_correlation_does_not_depend_on_scale(self):
        # sums of huge envelopes whose product would overflow a float
        rng = np.random.default_rng(12)
        states = rng.standard_normal((50, 20, 4)).view(complex)
        R = moments_of(states).correlation()
        huge = moments_of(1e150 * states).correlation()
        assert np.all(np.abs(huge - R) <= 1e-15)

    def test_empty_rejected(self, paper):
        # no block received: no member to reduce
        moments = EnsembleMoments(5)
        with pytest.raises(EnsembleError):
            moments.correlation()
        with pytest.raises(EnsembleError):
            moments.fluxes(paper.with_coupling(0.02))

    def test_members_must_not_change(self):
        moments = EnsembleMoments(4)
        moments.update(np.zeros((3, 2, 2), dtype=complex))
        with pytest.raises(EnsembleError):
            moments.update(np.zeros((4, 2, 2), dtype=complex))

    @staticmethod
    def assert_close(got, want):
        assert got.members == want.members
        for x, y in ((got.cross, want.cross), (got.squares, want.squares)):
            assert np.allclose(x, y, rtol=1e-13, atol=1e-13 * np.abs(y).max())

    @pytest.mark.parametrize("split", [1, 120, 299])
    def test_merge_is_the_whole_block(self, split):
        # groups of split and 300 - split members, one of a single member
        # when split is 299, against the one-block reduction
        rng = np.random.default_rng(10)
        states = (rng.standard_normal((300, 40, 4)) + [3, -1, 0.5, 2]).view(
            complex)
        merged = moments_of(states[:split]).merge(moments_of(states[split:]))
        self.assert_close(merged, moments_of(states))

    def test_merge_needs_the_same_times(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, 5, 7, 4)).view(complex)
        with pytest.raises(EnsembleError):
            moments_of(a).merge(moments_of(b[:, :6]))
        with pytest.raises(EnsembleError):
            moments_of(a).merge(EnsembleMoments(7))


class TestTransientTime:
    def test_step_function(self):
        t = np.linspace(0, 1, 1001)
        R = (t >= 0.3).astype(float)
        assert transient_time(t, R) == pytest.approx(0.3, abs=0.01)

    def test_saturating_exponential(self):
        tau = 0.05
        t = np.linspace(0, 1, 4001)
        R = 1.0 - np.exp(-t / tau)
        assert transient_time(t, R) == pytest.approx(3 * tau, rel=0.05)

    def test_no_plateau_raises(self):
        t = np.linspace(0, 1, 500)
        with pytest.raises(PlateauError):
            transient_time(t, t.copy())

    @pytest.mark.parametrize("n", [1000, 1020])  # median widths 50 and 51
    def test_anti_phase_plateau(self, n):
        # equal-sign couplings lock the clocks in anti-phase, R -> -1
        rng = np.random.default_rng(n)
        t = np.linspace(0, 1, n)
        R = 1.0 - np.exp(-t / 0.05) + 0.02 * rng.standard_normal(n)
        assert transient_time(t, -R) == transient_time(t, R) > 0.1


class TestMovingMedian:
    @pytest.mark.parametrize("n, w", [(1000, 50), (1000, 51), (31, 2),
                                      (31, 3), (5, 8), (5, 9), (4000, 1558)])
    def test_is_scipys_median_filter(self, monkeypatch, n, w):
        # odd and even widths, wider than the series too, with ties, and
        # a few rows per selection slice
        from scipy.ndimage import median_filter
        rng = np.random.default_rng(n + w)
        x = np.round(rng.standard_normal(n), 1)
        want = median_filter(x, size=w, mode="nearest")
        assert np.array_equal(moving_median(x, w), want)
        monkeypatch.setattr(metrics, "MEDIAN_SLICE_ELEMENTS", 3 * w)
        assert np.array_equal(moving_median(x, w), want)


class TestTransientFlux:
    def test_small_ensemble_rejected(self, paper):
        dyn = reduced_drift_matrix(paper.with_coupling(0.02))
        ens = quench_record(dyn, 5, duration=0.001, dt=1e-5, master_seed=0)
        with pytest.raises(EnsembleError):
            moments_of(ens).fluxes(paper.with_coupling(0.02))

    def test_thermal_start_has_no_phonon_flux(self, paper):
        p = paper.with_coupling(0.02)
        ens = quench_record(reduced_drift_matrix(p), 600, duration=0.001,
                            dt=1e-4, master_seed=11)
        mu1, mu2, mua = moments_of(ens).fluxes(p)
        assert abs(mu1[0]) < 0.2 * p.gamma1
        assert abs(mu2[0]) < 0.2 * p.gamma2
        assert mua[0] > 0  # coupling on: the hot membranes transduce at once
