import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import chunk_steps, moments_of, quench_record

from clocksync import (ConfigError, EnsembleError, PlateauError, SweepRow,
                       ThresholdError, TickExtractionError, TurningPointError,
                       find_threshold, find_turning_point, sweep_coupling,
                       transient_experiment)
from clocksync import experiments, metrics, trajectory
from clocksync.experiments import (ENSEMBLE_GROUP, SWEEP_CSV_HEADER,
                                   TICK_SEED_BASE, _model_arrays,
                                   analytic_point, in_grid_order,
                                   operating_point, tick_metrics, tick_period)
from clocksync.metrics import C_SAMPLE_SECONDS, MIN_FLUX_ENSEMBLE
from clocksync.trajectory import (MAX_RECORD_STEPS, derived_seed,
                                  stored_states)


def synthetic_rows(g, c, pi=None):
    pi = np.zeros_like(g) if pi is None else pi
    return [SweepRow(g_over_kappa=gi, C=math.nan, D=math.nan, N1=math.nan,
                     N2=math.nan, gamma_plus=1.0, gamma_minus=2.0, ratio=0.5,
                     mu_b1=0.0, mu_b2=0.0, mu_a=p, pi_s=p, analytic_C=ci)
            for gi, ci, p in zip(g, c, pi)]


@pytest.fixture(scope="module")
def rows(paper):
    return sweep_coupling(paper, protocol="analytic")


class TestSweepAnalytic:
    def test_zero_coupling_row(self, rows, paper):
        r0 = rows[0]
        assert r0.analytic_C == pytest.approx(0.0, abs=1e-6)
        assert r0.pi_s == pytest.approx(0.0, abs=1e-6)
        assert r0.ratio == pytest.approx(paper.gamma1 / paper.gamma2)
        assert math.isnan(r0.C) and math.isnan(r0.D)

    def test_sync_degree_rises_to_one(self, rows):
        c = np.array([r.analytic_C for r in rows])
        g = np.array([r.g_over_kappa for r in rows])
        assert np.all(np.abs(c[g < 0.004]) < 0.1)
        assert c[-1] > 0.95

    def test_row_column_contract(self, rows):
        assert len(dataclasses.astuple(rows[0])) == len(SWEEP_CSV_HEADER)
        assert dataclasses.astuple(rows[0])[0] == rows[0].g_over_kappa

    def test_grid_validation(self, paper):
        with pytest.raises(ValueError):
            sweep_coupling(paper, grid=[-0.01, 0.02], protocol="analytic")
        for protocol in ("bogus", "monte-carlo"):
            with pytest.raises(ValueError):
                sweep_coupling(paper, protocol=protocol)


    def test_overflowing_coupling_named(self, paper):
        # at 1e100 only the closed-form normal modes overflow (to nan); at
        # 1e200 G ** 2 raises OverflowError.  The first one is named.
        with pytest.raises(ConfigError, match=r"= 1e\+100 "):
            _model_arrays(paper, [0.0, 0.02, 1e100, 1e200])
        with pytest.raises(ConfigError, match=r"= 1e\+200 "):
            sweep_coupling(paper, grid=[0.0, 1e200], protocol="analytic")
        with pytest.raises(ConfigError, match=r"= 1e\+100 "):
            operating_point(paper, 1e100)

    @pytest.mark.parametrize("signs", [(0.0, -0.0), (-1.0, -1.0), (1.0, 1.0),
                                       (-1.0, 1.0)])
    def test_operating_point_is_an_entry_of_the_arrays(self, paper, signs):
        # bit for bit, whatever the other couplings of the grid
        params = dataclasses.replace(paper, G1=signs[0], G2=signs[1],
                                     na_in=0.3)
        grid = np.linspace(0.0, 0.05, 11).tolist()
        G1, G2, A, D, modes = _model_arrays(params, grid)
        for i, g in enumerate(grid):
            dyn, nm = operating_point(params, g)
            assert dyn.drift.tobytes() == A[i].tobytes()
            assert dyn.diffusion.tobytes() == D[i].tobytes()
            assert (dyn.params.G1, dyn.params.G2) == (G1[i], G2[i])
            assert dyn.params == params.with_coupling(g)
            assert dyn.reference_frequency == params.omega2
            assert (np.array([nm.lambda_plus, nm.lambda_minus]).tobytes()
                    == np.array([modes.lambda_plus[i],
                                 modes.lambda_minus[i]]).tobytes())

    def test_equal_signs_mirror_opposite_signs(self, paper):
        # b2 -> -b2 maps the (+, +) model onto the (+, -) one: every
        # column agrees, and C changes sign (anti-phase locking)
        grid = np.linspace(0.0, 0.05, 101)
        opposite = sweep_coupling(paper, grid=grid, protocol="analytic")
        equal = sweep_coupling(dataclasses.replace(paper, G1=1.0, G2=1.0),
                               grid=grid, protocol="analytic")
        mirrored = [dataclasses.replace(r, analytic_C=-r.analytic_C)
                    for r in opposite]
        np.testing.assert_array_equal([dataclasses.astuple(r) for r in equal],
                                      [dataclasses.astuple(r) for r in mirrored])
        assert find_threshold(equal) == find_threshold(opposite)
        assert all(r.gamma_plus > 0 for r in equal)


def row_bits(rows):
    return np.array([dataclasses.astuple(r) for r in rows]).tobytes()


class TestAnalyticSlices:
    # the NESS is solved ANALYTIC_SLICE couplings per stacked call; no row
    # depends on where the grid is cut

    def test_rows_equal_per_point_rows(self, paper):
        grid = np.linspace(0.0, 0.05, experiments.ANALYTIC_SLICE + 3)
        rows = sweep_coupling(paper, grid=grid, protocol="analytic")
        per_point = [analytic_point(paper, float(g))[0] for g in grid]
        assert row_bits(rows) == row_bits(per_point)
        half = len(grid) // 2
        halves = (sweep_coupling(paper, grid=grid[:half], protocol="analytic")
                  + sweep_coupling(paper, grid=grid[half:],
                                   protocol="analytic"))
        assert row_bits(rows) == row_bits(halves)

    def test_both_protocol_rows(self, paper, monkeypatch):
        kw = dict(grid=[0.0, 0.02, 0.04], protocol="both", master_seed=1,
                  duration=0.02)
        ref = sweep_coupling(paper, **kw)
        analytic = sweep_coupling(paper, grid=kw["grid"], protocol="analytic")
        assert row_bits([dataclasses.replace(r, C=math.nan, D=math.nan,
                                             N1=math.nan, N2=math.nan)
                         for r in ref]) == row_bits(analytic)
        for size in (1, 2):
            monkeypatch.setattr(experiments, "ANALYTIC_SLICE", size)
            assert row_bits(sweep_coupling(paper, **kw)) == row_bits(ref)


class TestThreshold:
    def test_linear_interpolation(self):
        rows = synthetic_rows(np.array([0.0, 0.01, 0.02]),
                              np.array([0.0, 0.4, 0.8]))
        assert find_threshold(rows) == pytest.approx(0.0125)

    def test_no_crossing_raises(self):
        rows = synthetic_rows(np.linspace(0, 0.003, 4),
                              np.array([0.0, 0.1, 0.2, 0.3]))
        with pytest.raises(ThresholdError):
            find_threshold(rows)

    def test_degenerate_clocks_threshold_collapses(self, paper):
        thr = find_threshold(sweep_coupling(paper, protocol="analytic"))
        degenerate = dataclasses.replace(paper, omega1=paper.omega2)
        thr0 = find_threshold(sweep_coupling(
            degenerate, grid=np.linspace(0, 0.02, 81), protocol="analytic"))
        assert thr0 < 0.5 * thr


class TestTurningPoint:
    def test_quadratic_vertex(self):
        g = np.linspace(0, 0.04, 9)
        pi = -(g - 0.0175) ** 2
        rows = synthetic_rows(g, np.zeros_like(g), pi)
        assert find_turning_point(rows) == pytest.approx(0.0175, abs=1e-12)

    def test_monotone_raises(self):
        g = np.linspace(0, 0.04, 9)
        rows = synthetic_rows(g, np.zeros_like(g), g.copy())
        with pytest.raises(TurningPointError):
            find_turning_point(rows)

    def test_non_monotone_witness_exists(self, paper):
        rows = sweep_coupling(paper, protocol="analytic")
        found = any(a.pi_s < b.pi_s and a.analytic_C > b.analytic_C
                    for a in rows for b in rows)
        assert found


class TestTransientExperiment:
    def test_small_ensemble_rejected(self, paper, monkeypatch):
        # before any noise is drawn
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagated a rejected ensemble")
        monkeypatch.setattr(experiments, "stored_states", no_propagation)
        for n in (1, MIN_FLUX_ENSEMBLE - 1):
            with pytest.raises(EnsembleError):
                transient_experiment(paper, 0.02, n_traj=n, master_seed=0)

    @pytest.mark.parametrize("steps_per_chunk", [1, 2, 7, 33])
    def test_streamed_equals_stored_adapters(self, paper, monkeypatch,
                                             steps_per_chunk):
        # the block stream, cut anywhere, reduces to the same bits as the
        # stored record reduced as one block
        g, n, duration, dt, seed = 0.02, MIN_FLUX_ENSEMBLE, 0.02, 1e-4, 4
        dyn, _ = operating_point(paper, g)
        chunk_steps(monkeypatch, steps_per_chunk, n)
        res = transient_experiment(paper, g, n_traj=n, master_seed=seed,
                                   duration=duration, dt=dt)
        ens = quench_record(dyn, n, duration, dt, master_seed=seed)
        moments = moments_of(ens)
        assert np.array_equal(res.times, dt * np.arange(ens.shape[1]))
        assert np.array_equal(res.R, moments.correlation(), equal_nan=True)
        fluxes = moments.fluxes(dyn.params)
        for got, want in zip((res.mu_b1_t, res.mu_b2_t, res.mu_a_t), fluxes):
            assert np.array_equal(got, want)

    def test_memory_flat_in_ensemble_size(self, paper, monkeypatch):
        # the stored record of 4x the members would be 4x the memory; the
        # streamed moments need one chunk, sized in member-steps
        monkeypatch.setattr(trajectory, "_CHUNK_MEMBER_STEPS", 2 ** 13)
        kw = dict(master_seed=1, dt=5e-5)
        transient_experiment(paper, 0.05, n_traj=MIN_FLUX_ENSEMBLE, **kw)
        peaks = []
        for n in (MIN_FLUX_ENSEMBLE, 4 * MIN_FLUX_ENSEMBLE):
            tracemalloc.start()
            try:
                transient_experiment(paper, 0.05, n_traj=n, **kw)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_unholdable_record_rejected_before_any_step(self, paper,
                                                        monkeypatch):
        # 8e10 stored times: a ConfigError before any group is keyed
        def never(*args, **kwargs):
            raise AssertionError("stepped a record too long to hold")

        monkeypatch.setattr(experiments, "stored_states", never)
        with pytest.raises(ConfigError, match="stored times"):
            transient_experiment(paper, 0.04, n_traj=MIN_FLUX_ENSEMBLE,
                                 dt=1e-12)

    def test_reproducible(self, paper):
        a = transient_experiment(paper, 0.03, n_traj=60, master_seed=6)
        b = transient_experiment(paper, 0.03, n_traj=60, master_seed=6)
        assert np.array_equal(a.R, b.R)
        assert a.transient_time == b.transient_time

    def test_result_shapes_and_bounds(self, paper):
        res = transient_experiment(paper, 0.03, n_traj=80, master_seed=1)
        assert res.times.shape == res.R.shape == res.mu_a_t.shape
        ok = np.isfinite(res.R)
        assert np.all(np.abs(res.R[ok]) <= 1.0)
        assert 0 < res.transient_time < res.times[-1]

    @pytest.mark.xfail(strict=True, raises=PlateauError, reason=(
        "ROADMAP item 1: below threshold R peaks near 0.25, and the "
        "ensemble noise of 50 members exceeds the plateau tolerance"))
    def test_below_threshold_has_a_transient_time(self, paper):
        res = transient_experiment(paper, 0.005, n_traj=50, master_seed=0)
        assert 0 < res.transient_time < res.times[-1]

    def test_energy_time_tradeoff(self, paper):
        # faster synchronization demands a higher photonic dissipation rate
        # during the transient (the time-integrated cost is nearly scale
        # invariant here: both the flux and the rates grow as G^2)
        grid = [0.01, 0.02, 0.03, 0.04, 0.05]
        times, rates = [], []
        for g in grid:
            res = transient_experiment(paper, g, n_traj=150, master_seed=3)
            upto = res.times <= res.transient_time
            times.append(res.transient_time)
            rates.append(np.mean(np.abs(res.mu_a_t[upto])))
        rt = np.argsort(np.argsort(times))
        rc = np.argsort(np.argsort(rates))
        rho = np.corrcoef(rt, rc)[0, 1]
        assert rho < 0


class TestEnsembleGroups:
    # 129 members: groups of 64, 64 and 1
    G, N, DURATION, DT, SEED = 0.02, 2 * ENSEMBLE_GROUP + 1, 0.02, 1e-4, 4

    def run(self, paper):
        return transient_experiment(paper, self.G, n_traj=self.N,
                                    master_seed=self.SEED,
                                    duration=self.DURATION, dt=self.DT)

    @staticmethod
    def columns(res):
        return (res.R, res.mu_b1_t, res.mu_b2_t, res.mu_a_t)

    def assert_same(self, a, b):
        for x, y in zip(self.columns(a), self.columns(b)):
            assert np.array_equal(x, y, equal_nan=True)
        assert a.transient_time == b.transient_time

    def test_pooled_equals_serial(self, paper, monkeypatch):
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
            results.append(self.run(paper))
        self.assert_same(*results)

    @pytest.mark.parametrize("steps_per_chunk", [1, 7, 33])
    def test_chunks_never_show(self, paper, monkeypatch, steps_per_chunk):
        ref = self.run(paper)
        chunk_steps(monkeypatch, steps_per_chunk, ENSEMBLE_GROUP)
        self.assert_same(self.run(paper), ref)

    def test_groups_merged_in_group_order(self, paper):
        # each group is the one-block reduction of its members, and the
        # groups are merged in group order
        dyn, _ = operating_point(paper, self.G)
        moments = None
        for first in range(0, self.N, ENSEMBLE_GROUP):
            n = min(ENSEMBLE_GROUP, self.N - first)
            part = moments_of(quench_record(dyn, n, self.DURATION, self.DT,
                                            self.SEED, first=first))
            moments = part if moments is None else moments.merge(part)
        res = self.run(paper)
        assert np.array_equal(res.R, moments.correlation(), equal_nan=True)
        for got, want in zip(self.columns(res)[1:],
                             moments.fluxes(dyn.params)):
            assert np.array_equal(got, want)

    def test_close_to_one_block(self, paper):
        dyn, _ = operating_point(paper, self.G)
        whole = moments_of(quench_record(dyn, self.N, self.DURATION, self.DT,
                                         self.SEED))
        res = self.run(paper)
        assert np.max(np.abs(res.R - whole.correlation())) <= 1e-14
        for got, want in zip(self.columns(res)[1:],
                             whole.fluxes(dyn.params)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_group_raises_its_error(self, paper, monkeypatch, cpus):
        # group 1 of 4 fails: its own error is raised, as a plain loop
        # raises it, and group 3 is never stepped
        monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
        real, started, error = experiments.stored_states, [], EnsembleError()

        def failing(dyn, seeds, *args, **kwargs):
            j = (seeds[0] - derived_seed(self.SEED, 0)) // ENSEMBLE_GROUP
            started.append(j)
            if j == 0:
                time.sleep(0.2)  # group 1 fails while group 0 runs
            if j == 1:
                raise error
            return real(dyn, seeds, *args, **kwargs)

        monkeypatch.setattr(experiments, "stored_states", failing)
        with pytest.raises(EnsembleError) as exc:
            transient_experiment(paper, self.G, n_traj=4 * ENSEMBLE_GROUP,
                                 master_seed=self.SEED,
                                 duration=self.DURATION, dt=self.DT)
        assert exc.value is error
        assert 3 not in started


class TestInGridOrder:
    def test_bounded_and_in_order(self, monkeypatch):
        # two threads and one queued call: call 3 is submitted only when
        # the result after call 0's is asked for
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        started = []

        def call(i):
            started.append(i)
            return i * i

        results = in_grid_order(call, 6)
        assert next(results) == 0
        assert set(started) <= {0, 1, 2}
        assert list(results) == [1, 4, 9, 16, 25]
        assert sorted(started) == [0, 1, 2, 3, 4, 5]

    def test_one_call_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool for one call")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        assert list(in_grid_order(lambda i: i + 1, 1)) == [1]


class TestSweepMonteCarlo:
    @pytest.mark.parametrize("steps_per_block", [1, 2, 7, 33])
    def test_c_does_not_depend_on_blocks(self, paper, monkeypatch,
                                         steps_per_block):
        # D windows of 1600 periods, so the record spans five of them
        monkeypatch.setattr(metrics, "D_WINDOW_SECONDS", 0.004)
        kw = dict(grid=[0.0, 0.03], protocol="both", master_seed=2,
                  duration=0.02)
        ref = [(r.C, r.D, r.N1, r.N2) for r in sweep_coupling(paper, **kw)]
        chunk_steps(monkeypatch, steps_per_block, 1)  # one point at a time
        assert [(r.C, r.D, r.N1, r.N2)
                for r in sweep_coupling(paper, **kw)] == ref

    def test_c_is_the_whole_stationary_stream(self, paper):
        # point i's tick record starts in the NESS, keyed derived seed
        # 2^32 + i, and C counts every k-th state of it: a 0.3 s record
        # is one full D window and a counted tail, so every state is in
        # a D window
        seed, duration = 9, 0.3
        rows = sweep_coupling(paper, grid=[0.0, 0.03], protocol="both",
                              master_seed=seed, duration=duration)
        dyn, _ = operating_point(paper, 0.03)
        t0 = tick_period(dyn, duration)
        k = round(C_SAMPLE_SECONDS / t0)
        assert k > 1
        _, _, parts = stored_states(
            dyn, [derived_seed(seed, TICK_SEED_BASE + 1)], duration, t0,
            quench=False)
        record = np.concatenate(list(parts), axis=1)[0][::k]
        # the envelope form about the exact zero mean, in two passes
        v1, v2 = np.sum(np.abs(record) ** 2, axis=0)
        C = (np.sum(record[:, 0] * np.conj(record[:, 1])).real
             / math.sqrt(v1 * v2))
        assert abs(rows[1].C - C) <= 1e-13

    def test_pooled_rows_equal_serial_rows(self, paper, monkeypatch):
        # points in flight on two threads, or one after another, give the
        # same rows bit for bit, in grid order
        kw = dict(grid=[0.0, 0.01, 0.02, 0.03, 0.04], protocol="both",
                  master_seed=5, duration=0.05)
        rows = {}
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
            rows[cpus] = [dataclasses.astuple(r)
                          for r in sweep_coupling(paper, **kw)]
        assert [r[0] for r in rows[2]] == kw["grid"]
        assert rows[1] == rows[2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_point_raises_the_first_error_in_grid_order(
            self, paper, monkeypatch, cpus):
        # points 1 and 3 fail, and 3 fails first in time: the pool raises
        # point 1's own error, as a plain loop does, and starts no point
        # that is queued when it raises
        monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
        errors, started = {}, []
        real = experiments.tick_metrics

        def failing(dyn, key, duration, t0):
            i = key - derived_seed(8, TICK_SEED_BASE)
            started.append(i)
            if i == 1:
                time.sleep(0.3)
            if i in (1, 3):
                errors[i] = TickExtractionError(f"point {i}")
                raise errors[i]
            if i > 3:
                time.sleep(0.05)
            return real(dyn, key, duration, t0)

        monkeypatch.setattr(experiments, "tick_metrics", failing)
        grid = np.linspace(0.0, 0.05, 30)
        with pytest.raises(TickExtractionError) as exc:
            sweep_coupling(paper, grid=grid, protocol="both", master_seed=8,
                           duration=0.01)
        assert exc.value is errors[1]
        assert len(started) < len(grid)

    def test_row_depends_only_on_its_coupling_and_index(self, paper):
        kw = dict(protocol="both", master_seed=3, duration=0.02)
        [alone] = sweep_coupling(paper, grid=[0.03], **kw)
        assert sweep_coupling(paper, grid=[0.03, 0.01], **kw)[0] == alone

    def test_memory_flat_in_grid_size(self, paper):
        # every point is propagated and reduced on its own, so the peak is
        # that of the points in flight: their tick records of one full D
        # window dominate it
        kw = dict(protocol="both", master_seed=1, duration=0.25)
        peaks = []
        for n in (2, 6):
            tracemalloc.start()
            try:
                sweep_coupling(paper, grid=np.linspace(0.01, 0.05, n), **kw)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0]

    def test_reproducible_and_consistent(self, paper):
        grid = [0.0, 0.02]
        kw = dict(grid=grid, protocol="both", master_seed=17, duration=0.4)
        rows_a = sweep_coupling(paper, **kw)
        rows_b = sweep_coupling(paper, **kw)
        assert rows_a == rows_b
        for r in rows_a:
            assert np.isfinite(r.C) and np.isfinite(r.D)
        # short-record estimate still tracks the analytic curve loosely
        assert abs(rows_a[1].C - rows_a[1].analytic_C) < 0.2

    @pytest.mark.parametrize("steps_per_chunk", [1000, 4099])
    def test_d_and_n_do_not_depend_on_chunks(self, paper, monkeypatch,
                                             steps_per_chunk):
        # a 0.3 s tick record: a full D window, a counted tail and chunk
        # boundaries inside both
        kw = dict(grid=[0.0, 0.03], protocol="both", master_seed=4,
                  duration=0.3)
        ref = [(r.D, r.N1, r.N2) for r in sweep_coupling(paper, **kw)]
        chunk_steps(monkeypatch, steps_per_chunk, 1)
        assert [(r.D, r.N1, r.N2) for r in sweep_coupling(paper, **kw)] == ref

    def test_tick_record_is_keyed_and_stepped_at_the_carrier(
            self, paper, monkeypatch):
        # point i steps one record, once: its tick record, keyed 2^32 + i
        # and stepped at its own T0 (two points in flight may start in
        # either order), and its C, D and N are that record's
        calls = []
        real = experiments.stored_states

        def counted(dyn, seeds, duration, dt, **kwargs):
            calls.append((seeds, dt))
            return real(dyn, seeds, duration, dt, **kwargs)

        monkeypatch.setattr(experiments, "stored_states", counted)
        grid = [0.0, 0.03]
        rows = sweep_coupling(paper, grid=grid, protocol="both",
                              master_seed=9, duration=0.05)
        dyns = [operating_point(paper, g)[0] for g in grid]
        keys = [derived_seed(9, TICK_SEED_BASE + i) for i in range(len(grid))]
        periods = [tick_period(dyn, 0.05) for dyn in dyns]
        assert sorted(calls) == [([key], t0) for key, t0 in zip(keys, periods)]
        _, carrier = trajectory.recentered(dyns[1])
        assert periods[1] == 2 * np.pi / carrier
        for row, dyn, key, t0 in zip(rows, dyns, keys, periods):
            m = tick_metrics(dyn, key, 0.05, t0)
            assert (m.C, m.D, m.N1, m.N2) == (row.C, row.D, row.N1, row.N2)


def no_stepping(*args, **kwargs):
    raise AssertionError("stepped a record that its guard rejects")


class TestTickGuards:
    # each guard fires before any record is stepped

    def test_record_steps_bounded(self, paper, monkeypatch):
        # omega1 = 1e100 Hz: a finite model whose tick record would need
        # about 1e100 steps; its envelope also turns too fast, and the
        # step bound is checked first
        monkeypatch.setattr(experiments, "stored_states", no_stepping)
        fast = dataclasses.replace(paper, omega1=2 * np.pi * 1e100)
        dyn, _ = operating_point(fast, 0.02)
        with pytest.raises(ConfigError, match="steps"):
            tick_period(dyn, 0.2)
        with pytest.raises(ConfigError, match="steps"):
            sweep_coupling(fast, grid=[0.0, 0.02], protocol="both",
                           duration=0.2)

    def test_window_steps_bounded(self, paper, monkeypatch):
        # a 1 GHz carrier: a 0.01 s record is 1e7 steps, but one 0.25 s D
        # window would be 2.5e8
        monkeypatch.setattr(experiments, "stored_states", no_stepping)
        fast = dataclasses.replace(paper, omega1=2 * np.pi * 1e9,
                                   omega2=2 * np.pi * 1e9)
        dyn, _ = operating_point(fast, 0.02)
        assert 0.01 * 1e9 < MAX_RECORD_STEPS < 0.25 * 1e9
        with pytest.raises(ConfigError, match="steps"):
            tick_period(dyn, 0.01)

    @pytest.mark.parametrize("params, g", [
        # envelopes relax faster than the 105 Hz carrier turns
        ({"omega1": 2 * np.pi * 110, "omega2": 2 * np.pi * 100,
          "gamma1": 2 * np.pi * 1e5, "gamma2": 2 * np.pi * 1e5}, 0.0),
        # the optical spring pulls the carrier below zero
        ({}, 1.0),
    ], ids=["overdamped", "negative-carrier"])
    def test_fast_envelope_rejected(self, paper, monkeypatch, params, g):
        monkeypatch.setattr(experiments, "stored_states", no_stepping)
        dyn, _ = operating_point(dataclasses.replace(paper, **params), g)
        with pytest.raises(TickExtractionError, match="carrier"):
            tick_period(dyn, 0.05)

    def test_minimum_length_in_seconds(self, paper):
        dyn, _ = operating_point(paper, 0.02)
        assert tick_period(dyn, 0.01) == tick_period(dyn, 6.0)
        with pytest.raises(ConfigError, match="at least 0.01 s"):
            tick_period(dyn, 0.0099)
