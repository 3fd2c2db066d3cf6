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
                       TickStats, extract_ticks, power_spectrum,
                       reduced_drift_matrix, transient_time)
from clocksync.experiments import tick_stats
from clocksync.metrics import (MAGNITUDE_FLOOR_FRACTION, EnsembleMoments,
                               PearsonStats, TickSeries, _clean_periods)
from clocksync.model import TWO_PI
from clocksync.trajectory import Trajectory


def pearson(x1, x2):
    """C of two whole series: one piece of ``PearsonStats``."""
    return PearsonStats().update(x1, x2).result()


def make_traj(b1, b2, dt, carrier):
    n = len(b1)
    return Trajectory(times=dt * np.arange(n), b1=np.asarray(b1, complex),
                      b2=np.asarray(b2, complex), dt=dt,
                      reference_frequency=carrier)


def _reference_extract_ticks(traj, clock):
    """extract_ticks as first written: np.median guard, np.unwrap and a
    full np.searchsorted; the reference its rewrite must match bit for bit.
    """
    b = {1: traj.b1, 2: traj.b2}[clock]
    t = traj.times
    mag = np.abs(b)
    floor = MAGNITUDE_FLOOR_FRACTION * np.sqrt(np.mean(mag ** 2))
    low = mag < floor
    gaps = []
    if np.any(low):
        runs = np.flatnonzero(low)
        splits = np.split(runs, np.flatnonzero(np.diff(runs) > 1) + 1)
        gaps = [(t[s[0]], t[s[-1]]) for s in splits if len(s)]
    phase = traj.reference_frequency * t - np.unwrap(np.angle(b))
    dphi = np.diff(phase)
    if np.median(dphi) <= 0:
        raise ValueError(
            "oscillator phase is not advancing; envelope evolves faster "
            "than the carrier, tick extraction is ill-defined")
    slips = np.flatnonzero(dphi <= 0)
    if len(slips):
        runs = np.split(slips, np.flatnonzero(np.diff(slips) > 1) + 1)
        gaps.extend((t[r[0]], t[r[-1] + 1]) for r in runs if len(r))
        gaps.sort()
        phase = np.maximum.accumulate(phase)
    m0 = math.floor(phase[0] / (2 * np.pi)) + 1
    m1 = math.floor(phase[-1] / (2 * np.pi))
    if m1 - m0 + 1 < 10:
        raise ValueError("trajectory too short: fewer than 10 ticks")
    targets = 2 * np.pi * np.arange(m0, m1 + 1)
    hi = np.searchsorted(phase, targets)
    hi = np.clip(hi, 1, len(phase) - 1)
    lo = hi - 1
    span = phase[hi] - phase[lo]
    frac = np.divide(targets - phase[lo], span, where=span > 0,
                     out=np.zeros_like(span))
    ticks = t[lo] + frac * (t[hi] - t[lo])
    return TickSeries(tick_times=ticks, periods=np.diff(ticks),
                      gaps=tuple(gaps))


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

    def test_pieces_merge_to_the_whole_series(self):
        rng = np.random.default_rng(5)
        x1 = 3.0 + rng.standard_normal(5000)
        x2 = 0.4 * x1 + rng.standard_normal(5000)
        stats = PearsonStats()
        for i in range(0, 5000, 777):
            stats.update(x1[i:i + 777], x2[i:i + 777])
        assert stats.result() == pytest.approx(pearson(x1, x2),
                                               rel=1e-12)

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
    def test_constant_envelope(self):
        w = TWO_PI * 1e3
        dt = 1e-5
        traj = make_traj(np.ones(5001), np.ones(5001), dt, w)
        ticks = extract_ticks(traj, 1)
        k = np.arange(1, len(ticks.tick_times) + 1)
        assert np.allclose(ticks.tick_times, k * TWO_PI / w, atol=1e-12)
        assert np.allclose(ticks.periods, TWO_PI / w)
        assert ticks.gaps == ()

    def test_frequency_offset(self):
        w, dw = TWO_PI * 1e3, TWO_PI * 40.0
        dt = 1e-5
        t = dt * np.arange(20001)
        b = np.exp(-1j * dw * t)
        ticks = extract_ticks(make_traj(b, b, dt, w), 1)
        assert np.allclose(ticks.periods, TWO_PI / (w + dw), rtol=1e-9)

    def test_too_short(self):
        traj = make_traj(np.ones(20), np.ones(20), 1e-5, TWO_PI * 100.0)
        with pytest.raises(ValueError):
            extract_ticks(traj, 1)

    def test_magnitude_dip_flagged(self):
        w = TWO_PI * 1e3
        dt = 1e-5
        b = np.ones(5001, complex)
        b[2000:2010] = 1e-4
        ticks = extract_ticks(make_traj(b, b, dt, w), 1)
        assert len(ticks.gaps) == 1
        lo, hi = ticks.gaps[0]
        assert lo == pytest.approx(2000 * dt)
        assert hi == pytest.approx(2009 * dt)

    def test_stochastic_period_mean_matches_mode(self, paper):
        from clocksync import normal_modes_numeric
        p = paper.with_coupling(0.02)
        dyn = reduced_drift_matrix(p)
        traj = __import__("clocksync").propagate_exact(dyn, 0.2, 1e-6, seed=3)
        ticks = extract_ticks(traj, 1)
        nm = normal_modes_numeric(dyn)
        f_lab = p.omega2 + nm.omega_plus  # long-lived mode, lab frame
        se = np.std(ticks.periods, ddof=1) / np.sqrt(len(ticks.periods))
        # mean period estimates are anticorrelated sample to sample, so the
        # naive standard error overestimates; 3 se is a safe band
        assert abs(ticks.periods.mean() - TWO_PI / f_lab) < 3 * se

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 400),
           st.sampled_from([0.0, 0.3, 1.0, 2.5, np.pi, 6.0, TWO_PI / 5,
                            TWO_PI, 25.0]),
           st.sampled_from([0.0, 0.1, 1.0, 3.0]),
           st.lists(st.tuples(st.integers(0, 399), st.integers(1, 30)),
                    max_size=4), st.booleans())
    def test_matches_reference_implementation(self, seed, n, rad_per_sample,
                                              slip_scale, low_runs, flip):
        # envelope phase steps of up to several rad make phase slips and
        # unwrap jumps; zero noise with 2 pi / 5 rad per sample puts
        # samples on exact crossings, and sign flips of a real envelope
        # make steps of exactly pi; low runs make magnitude gaps
        rng = np.random.default_rng(seed)
        dt = 1e-6
        mag = 1.0 + 0.3 * rng.standard_normal(n)
        for start, width in low_runs:
            mag[start:start + width] = 1e-3
        if flip:
            mag[::3] *= -1.0
        b = mag * np.exp(1j * np.cumsum(slip_scale * rng.standard_normal(n)))
        traj = make_traj(b, b[::-1], dt, rad_per_sample / dt)
        for clock in (1, 2):
            try:
                expect = _reference_extract_ticks(traj, clock)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)[:20]):
                    extract_ticks(traj, clock)
                continue
            got = extract_ticks(traj, clock)
            assert np.array_equal(got.tick_times, expect.tick_times)
            assert got.gaps == expect.gaps

    @pytest.mark.parametrize("advance, retreat", [(3.0, -1.0), (1.0, -3.0)])
    def test_tied_phase_steps_use_the_median(self, advance, retreat):
        # as many retreating as advancing steps, so np.median decides:
        # advancing for (3, -1), not advancing for (1, -3)
        # carrier midway, so the envelope phase steps by +-2 rad (no unwrap)
        dt = 1e-6
        carrier = 0.5 * (advance + retreat) / dt
        steps = np.tile([advance, retreat], 200)
        phase = np.concatenate([[0.0], np.cumsum(steps)])
        b = np.exp(-1j * (phase - carrier * dt * np.arange(len(phase))))
        traj = make_traj(b, b, dt, carrier)
        if advance + retreat > 0:
            expect = _reference_extract_ticks(traj, 1)
            got = extract_ticks(traj, 1)
            assert np.array_equal(got.tick_times, expect.tick_times)
        else:
            with pytest.raises(ValueError, match="not advancing"):
                _reference_extract_ticks(traj, 1)
            with pytest.raises(ValueError, match="not advancing"):
                extract_ticks(traj, 1)

def window_stats(ticks1, ticks2, nominal_period):
    """One-window D and N of a pair of tick trains."""
    stats = TickStats(nominal_period)
    stats.update(ticks1, ticks2)
    return stats.result()


class TestClockStats:
    def test_identical_trains(self):
        times = np.cumsum(np.full(200, 1e-3))
        ticks = TickSeries(tick_times=times, periods=np.diff(times), gaps=())
        m = window_stats(ticks, ticks, 1e-3)
        assert m.D == 0.0

    def test_noiseless_accuracy_sentinel(self):
        # exactly representable period so the variance is exactly zero
        times = np.arange(1, 101) * 2.0 ** -10
        ticks = TickSeries(tick_times=times, periods=np.diff(times), gaps=())
        m = window_stats(ticks, ticks, 2.0 ** -10)
        assert m.N1 == math.inf and m.N2 == math.inf

    def test_minimum_periods(self):
        times = np.cumsum(np.full(5, 1e-3))
        ticks = TickSeries(tick_times=times, periods=np.diff(times), gaps=())
        with pytest.raises(EnsembleError):
            window_stats(ticks, ticks, 1e-3)

    def test_offset_ramp_dominates_unsynchronized(self):
        rng = np.random.default_rng(1)
        jitter = 1e-9
        t1 = np.cumsum(2.5e-6 + jitter * rng.standard_normal(2000))
        t2 = np.cumsum(2.501e-6 + jitter * rng.standard_normal(2000))
        mk = lambda t: TickSeries(tick_times=t, periods=np.diff(t), gaps=())
        unsync = window_stats(mk(t1), mk(t2), 2.5e-6).D
        common = 2.5e-6 + jitter * rng.standard_normal(2000)
        t_sync = np.cumsum(common)
        sync = window_stats(mk(t_sync), mk(t_sync + 1e-7), 2.5e-6).D
        assert unsync > 100 * sync

    def test_gap_periods_excluded_from_accuracy(self):
        base = 2.0 ** -10
        periods = np.full(100, base)
        periods[50] = 4 * base  # corrupted period inside a flagged gap
        tick_times = base + np.concatenate([[0.0], np.cumsum(periods)])
        dirty = TickSeries(tick_times=tick_times, periods=periods,
                           gaps=((tick_times[50], tick_times[51]),))
        clean = window_stats(dirty, dirty, base)
        assert clean.N1 == math.inf  # the only jitter sat inside the gap

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 23500), max_size=8))
    def test_block_boundaries_do_not_reach_the_result(self, cuts):
        # 2e-5 s spacing: one full 12500-sample window plus an 11000-sample
        # tail, which counts (at least 10000 samples)
        dt, carrier = 2e-5, TWO_PI * 1e3
        rng = np.random.default_rng(4)  # two members, slow phase noise
        phase = np.cumsum(0.02 * rng.standard_normal((2, 23500, 2)), axis=1)
        record = (1.0 + 0.05 * rng.standard_normal((2, 23500, 2))
                  ) * np.exp(1j * phase)
        for member in record:
            whole = tick_stats([member], carrier, dt)
            cut = tick_stats(np.split(member, sorted(cuts)), carrier, dt)
            assert (whole.D, whole.N1, whole.N2) == (cut.D, cut.N1, cut.N2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=2, max_size=40, unique=True),
           st.lists(st.tuples(st.integers(-5, 65), st.integers(0, 12)),
                    max_size=8))
    def test_clean_periods_matches_pairwise_loop(self, ticks, gap_specs):
        # integer instants make shared endpoints and overlapping gaps common
        tick_times = np.array(sorted(ticks), dtype=float)
        gaps = tuple((float(a), float(a + w)) for a, w in gap_specs)
        series = TickSeries(tick_times=tick_times,
                            periods=np.diff(tick_times), gaps=gaps)
        keep = np.ones(len(series.periods), dtype=bool)
        for g0, g1 in gaps:  # reference: test every period against every gap
            keep &= (tick_times[1:] < g0) | (tick_times[:-1] > g1)
        assert np.array_equal(_clean_periods(series), series.periods[keep])


class TestPowerSpectrum:
    def test_sinusoid_peak_location(self):
        fs, f0 = 1000.0, 123.0
        t = np.arange(0, 20, 1 / fs)
        f, psd = power_spectrum(np.sin(2 * np.pi * f0 * t), 1 / fs)
        assert f[np.argmax(psd)] == pytest.approx(f0, abs=f[1] - f[0])

    def test_white_noise_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2 ** 17)
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

    @pytest.mark.parametrize("n", [4, 1000, 4097])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_matches_scipy_welch(self, n, complex_valued):
        from scipy.signal import welch
        rng = np.random.default_rng(n)
        x = 2.0 + rng.standard_normal(n)
        if complex_valued:
            x = x + 1j * rng.standard_normal(n)
        nperseg = 2 ** int(np.log2(max(n // 8, 2)))
        want_f, want = welch(x, fs=1e3, window="hann", nperseg=nperseg,
                             noverlap=nperseg // 2, detrend="constant",
                             return_onesided=not complex_valued,
                             scaling="density")
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
            assert np.array_equal(parts.var, whole.var)

    def test_stored_record_reference(self):
        # the reduction over a (members, times) stack, bit for bit
        rng = np.random.default_rng(9)
        b1, b2 = rng.standard_normal((2, 120, 30, 2)).view(complex)[..., 0]
        d1, d2 = b1 - b1.mean(axis=0), b2 - b2.mean(axis=0)
        num = np.real(np.sum(d1 * np.conj(d2), axis=0))
        ref = num / np.sqrt(np.sum(np.abs(d1) ** 2, axis=0)
                            * np.sum(np.abs(d2) ** 2, axis=0))
        R = moments_of(np.stack([b1, b2], -1)).correlation()
        assert np.array_equal(R, ref)

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
