"""Coupling sweeps and quench protocols: thresholds, turning points, transients.

The sweep computes every quantity twice where possible: an analytic path
(normal modes, Lyapunov NESS, entropy rates) that is noise free and
fast, and a Monte Carlo path (each grid point propagated on its own)
that exercises the full simulation pipeline.  Threshold detection runs
on the analytic C; the Monte Carlo estimates validate it.  A sweep
point's (and a single trajectory's) C, D, N1 and N2 all come from one
tick record (``tick_metrics``), stepped once per nominal carrier period
from the NESS, which the exact map keeps, so it needs no burn-in:
``tick_stats`` reduces each D window to D and N, and its states
C_SAMPLE_SECONDS apart to C, the envelope form of the analytic C and R(t).

Sweeps and quenches reduce the engine's block stream as it comes: a
sweep point's tick record per D window, and a quench group of
ENSEMBLE_GROUP members per block into the plain sums of
``EnsembleMoments``, added in window or group order.  No record of a
whole run is kept, so memory stays bounded by one engine chunk (about
``trajectory._CHUNK_MEMBER_STEPS`` member-steps) and a D window or a
group's sums per record in flight: whatever the number of points or
trajectories, and except for the sums (up to MAX_QUENCH_TIMES times)
whatever the record length.  Sweep points and quench groups run through
``in_grid_order``: at most MAX_POINTS_IN_FLIGHT at once, each on its own
thread, their results taken in index order.

Operating points (couplings, reduced dynamics, normal modes) are built
as arrays, a list of couplings at a time, by the model's own functions
(``_model_arrays``), and one that overflows a float is rejected.
``analytic_points`` is the one analytic path: it adds the NESS
covariances and entropy rates, ANALYTIC_SLICE couplings per array pass
and stacked Lyapunov call.  ``operating_point`` (what a command steps)
and ``analytic_point`` are their one-point views.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .errors import (ConfigError, EnsembleError, ThresholdError,
                     TickExtractionError, TurningPointError)
from .metrics import (D_WINDOW_SECONDS, MAGNITUDE_FLOOR_FRACTION,
                      MIN_FLUX_ENSEMBLE, MIN_TICK_SECONDS, EnsembleMoments,
                      SyncMetrics, TickStats, TransientResult, d_windows,
                      transient_time)
from .model import (FRAME_REDUCED, TWO_PI, LinearDynamics, NormalModes,
                    PhysicalParams, coupling_pair, effective_coupling,
                    normal_modes_closed_form, reduced_matrices)
from .steadystate import (CovarianceState, analytic_sync_degree,
                          entropy_rates, reduced_occupations, solve_lyapunov)
from .trajectory import DEFAULT_DT, derived_seed, recentered, stored_states

DEFAULT_GRID = np.linspace(0.0, 0.05, 26)
BURN_IN_DECAY_TIMES = 5.0
THRESHOLD_LEVEL = 0.5
# Tick statistics need long records: the period-jitter variance mixes
# over the slow amplitude breathing of the long-lived mode (rate
# gamma_plus ~ 2pi x 10 Hz), so several hundred amplitude correlation
# times are required for a stable estimate.  Each record is reduced one
# D window at a time as the engine steps it.
TICK_RECORD_DURATION = 6.0
# A tick record steps once per nominal carrier period.  One D window of
# it is held in memory, 32 bytes a step with temporaries several times
# that, so a window of 2^25 steps (a 134 MHz carrier) takes a few GB; a
# record of 2^25 steps (6 s of a 5.6 MHz carrier) steps for about 10 s.
# Past this bound a record is a ConfigError, not a MemoryError or a run
# of hours (omega1_hz = 1e100 would ask for 1e100 steps).
MAX_TICK_STEPS = 2 ** 25
# A quench's per-time sums and results took about 153 bytes of peak RSS
# per stored time (128 members), 2.6 GB at this bound; past it, ConfigError.
MAX_QUENCH_TIMES = 2 ** 24
# The envelope may turn at most this far per nominal period T0, read as
# the largest |eigenvalue| of the recentred drift times T0.  The period
# T0 + darg/carrier is first order in the phase increment darg: its
# deviation from T0 is off by a relative darg/2pi (below 1/8 here, 1% on
# the paper's grid), and a turn near pi would alias darg across +-pi.
MAX_ENVELOPE_TURN = np.pi / 4
# tick_stats takes the phase increments of a D window this many periods at
# a time, so its temporaries stay far below the window's 3.2 MB of states
# on the paper's carrier.  No result depends on it.
TICK_SLICE = 2 ** 12
# The Monte Carlo C takes every k-th tick record state, k = round(this / T0):
# 26 on the paper's carrier.  C moved by at most 4.3e-4 (seed 2026) with
# k = 1, 6 or 64: states this far apart are still far inside the envelope's
# millisecond decay.
C_SAMPLE_SECONDS = 64e-6
# The analytic path builds and solves this many couplings per array pass
# and stacked Lyapunov call.  It bounds the arrays held at once: a
# 10001-point sweep peaked at 42.4 MB RSS with 256, 43.2 MB with 1024 and
# 45.3 MB with every point in one pass, at the same wall time within the
# noise (0.40-0.56 s).  No result depends on it.
ANALYTIC_SLICE = 256
# Monte Carlo sweep points stepped at once, each on its own thread: every
# point in flight holds its engine chunk and its D window, and two on two
# CPUs cut a 26-point sweep's wall time by about a quarter.
MAX_POINTS_IN_FLIGHT = 2
# A quench is stepped and reduced in groups of this many consecutive
# members, added in group order: R(t) and the fluxes depend on it by
# rounding, as C on the D window.  A group steps 160-481 steps per chunk,
# so a noise draw (which releases the GIL) fills 640-1924 normals, against
# 216 for a 600-member block; up to 64 members are one block.
ENSEMBLE_GROUP = 64


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; Monte Carlo fields are nan on the analytic path."""

    g_over_kappa: float
    C: float
    D: float
    N1: float
    N2: float
    gamma_plus: float
    gamma_minus: float
    ratio: float
    mu_b1: float
    mu_b2: float
    mu_a: float
    pi_s: float
    analytic_C: float


SWEEP_CSV_HEADER = [f.name for f in fields(SweepRow)]


def burn_in_time(modes: NormalModes) -> float:
    """Equilibration margin of a record with a thermal start (such as
    ``propagate_exact``'s): 5 decay times of the long-lived mode."""
    return BURN_IN_DECAY_TIMES / modes.gamma_plus if modes.gamma_plus > 0 else 0.0


def tick_stats(blocks, carrier: float) -> SyncMetrics:
    """C, D, N1, N2 of one member's stream of (m, 2) states stepped at the
    nominal carrier period T0 = 2 pi / carrier, the start state first.

    Clock i's phase carrier t - arg b_i advances by 2 pi - darg_i over a
    step, so its period is p = T0 + darg_i / carrier to first order in
    darg_i = angle(b_i[k + 1] conj b_i[k]).  That lies in (-pi, pi], so
    p > T0 / 2 and no unwrapping is needed.  The periods are reduced per
    D window: all of them for D, and for N those whose two end states
    reach MAGNITUDE_FLOOR_FRACTION of the window's rms |b_i|.

    C = Re sum b1 b2* / sqrt(sum |b1|^2 sum |b2|^2), the envelope form of
    ``analytic_C`` and R(t), sums the D windows' states whose global step
    index is a multiple of round(C_SAMPLE_SECONDS / T0), at least 1, an
    end state two windows share once: each window's are the members of
    one ``EnsembleMoments`` time, its sums added in window order, so no
    engine chunk shows.

    darg is atan2 of the product's parts in real arithmetic, every
    operation rounded on its own, over TICK_SLICE periods at a time: a
    complex product rounds differently when numpy computes it in place
    of a temporary, which it does only for large operands, so the
    periods' bits would depend on the window's size.
    """
    t0 = TWO_PI / carrier
    stride = max(1, round(C_SAMPLE_SECONDS / t0))
    stats, moments, first = TickStats(t0), None, 0
    for b in d_windows(blocks, t0):
        window = EnsembleMoments(1)
        window.update(b[first::stride, None])
        moments = window if moments is None else moments.merge(window)
        # the next sampled state, indexed in the next window, which starts
        # at this one's end state
        first = (first - len(b)) % stride + 1
        mag = np.abs(b)
        above = mag >= MAGNITUDE_FLOOR_FRACTION * np.sqrt(
            np.mean(mag ** 2, axis=0))
        keep = above[1:] & above[:-1]
        p = mag[1:]  # the magnitudes are spent; their memory takes p
        for s in range(0, len(p), TICK_SLICE):
            x, y = b[s:s + TICK_SLICE + 1].real, b[s:s + TICK_SLICE + 1].imag
            np.arctan2(y[1:] * x[:-1] - x[1:] * y[:-1],
                       x[1:] * x[:-1] + y[1:] * y[:-1],
                       out=p[s:s + TICK_SLICE])
        p /= carrier
        p += t0
        stats.update(p[:, 0], p[:, 1], keep[:, 0], keep[:, 1])
    return replace(stats.result(), C=float(moments.correlation()[0]))


def tick_period(dyn, duration: float) -> float:
    """Nominal carrier period T0 of dyn's tick record, duration long, once
    the record is known to be sound, before any step.

    ConfigError if the record is shorter than MIN_TICK_SECONDS, or if it
    or one D window needs more than MAX_TICK_STEPS steps of T0;
    TickExtractionError if the carrier is not positive or the envelope
    turns MAX_ENVELOPE_TURN or more per period (it evolves too fast for
    the carrier to define ticks).
    """
    check_record_length(duration, MIN_TICK_SECONDS, "tick record")
    drift, carrier = recentered(dyn)
    t0 = TWO_PI / abs(carrier)
    if max(duration, D_WINDOW_SECONDS) > MAX_TICK_STEPS * t0:
        raise ConfigError(
            f"tick record needs more than {MAX_TICK_STEPS} steps of the "
            f"{t0:g} s carrier period")
    turn = float(np.max(np.abs(np.linalg.eigvals(drift)))) * t0
    if not (carrier > 0 and turn < MAX_ENVELOPE_TURN):
        raise TickExtractionError(
            f"envelope turns {turn:.3g} rad per period of the {carrier:g} "
            f"rad/s carrier (need a positive carrier and less than "
            f"{MAX_ENVELOPE_TURN:.3g} rad): it evolves faster than the "
            "carrier turns, so ticks are ill-defined")
    return t0


def tick_metrics(dyn, seed: int, duration: float, t0: float) -> SyncMetrics:
    """``tick_stats`` of the tick record keyed seed: one member of dyn's
    NESS, duration long, stepped at its carrier period t0 (from
    ``tick_period``)."""
    carrier, _, parts = stored_states(dyn, [seed], duration, t0, quench=False)
    return tick_stats((p[0] for p in parts), carrier)


def check_record_length(duration: float, minimum: float, what: str):
    """ConfigError unless duration is at least ``minimum`` seconds."""
    if duration < minimum:
        raise ConfigError(f"{what} of {duration:g} s is too short: need at "
                          f"least {minimum:g} s")


# Seed layout inside a sweep: point i draws its one record, its tick
# record, with derived seed 2^32 + i; derived seed i is left unused.
TICK_SEED_BASE = 2 ** 32


def _model_arrays(params: PhysicalParams, grid):
    """(G1, G2, drifts, diffusions, normal modes) of a list of |G|/kappa,
    as arrays with one entry per g: the reduced model of
    params.with_coupling(g) (no NESS, so unstable couplings are served
    too).  ConfigError names the first g whose drift, diffusion (or its
    norm) or normal modes overflow a float."""
    with np.errstate(all="ignore"):  # what numpy warns of fails below
        G1, G2 = coupling_pair(params, np.asarray(grid, dtype=float))
        try:  # a huge |chi_a| ** 2: OverflowError, for every g alike
            c = effective_coupling(params, G1, G2)
            A, D = reduced_matrices(params, c, G1, G2)
            modes = normal_modes_closed_form(params.delta_omega, params.gamma1,
                                             params.gamma2, c)
            lam = np.stack([modes.lambda_plus, modes.lambda_minus], axis=-1)
            # ||D|| too: past about 1e154 it overflows, which voids
            # solve_lyapunov's residual bound, and V11 V22 overflows with
            # it, so analytic C = V12 / sqrt(inf) would read 0
            ok = (np.isfinite(np.hstack([A, D, lam[:, None]])).all(axis=(1, 2))
                  & np.isfinite(np.linalg.norm(D, axis=(1, 2))))
        except OverflowError:
            ok = np.zeros(len(grid), dtype=bool)
    if not ok.all():
        raise ConfigError(
            f"|G|/kappa = {grid[np.argmin(ok)]!r} overflows the model")
    return G1, G2, A, D, modes


def operating_point(params: PhysicalParams, g: float):
    """(dynamics, normal modes) of params.with_coupling(g): the one-point
    view of ``_model_arrays``."""
    _, _, A, D, modes = _model_arrays(params, [g])
    return (LinearDynamics(frame=FRAME_REDUCED, drift=A[0], diffusion=D[0],
                           reference_frequency=params.omega2,
                           params=params.with_coupling(g)),
            NormalModes(modes.lambda_plus.item(), modes.lambda_minus.item()))


def analytic_points(params: PhysicalParams, grid):
    """Yield (rows, NESS occupations) per ANALYTIC_SLICE couplings of grid,
    in grid order: their analytic sweep rows, Monte Carlo fields nan, and
    a state of arrays, one entry per row.  A slice is built as arrays by
    the model functions, and its drifts and diffusions are stacked for one
    ``solve_lyapunov`` call, whose covariances are bit-identical to those
    of one solve per point: no value depends on the slicing."""
    nan = math.nan
    for start in range(0, len(grid), ANALYTIC_SLICE):
        gs = [float(g) for g in grid[start:start + ANALYTIC_SLICE]]
        G1, G2, A, D, modes = _model_arrays(params, gs)
        cov = reduced_occupations(solve_lyapunov(A, D), params, G1, G2)
        with np.errstate(over="ignore"):  # analytic C's V11 V22 below
            ok = np.isfinite((cov.n_b1_eff + 0.5) * (cov.n_b2_eff + 0.5))
        if not ok.all():
            raise ConfigError(
                f"|G|/kappa = {gs[np.argmin(ok)]!r} overflows the model")
        rates = entropy_rates(cov, params)
        columns = (modes.gamma_plus, modes.gamma_minus, modes.ratio,
                   rates.mu_b1, rates.mu_b2, rates.mu_a, rates.Pi_s,
                   analytic_sync_degree(cov))
        yield ([SweepRow(g, nan, nan, nan, nan, *values) for g, *values
                in zip(gs, *(col.tolist() for col in columns))], cov)


def analytic_point(params: PhysicalParams, g: float):
    """(row, NESS occupations) of ``analytic_points`` at one coupling g."""
    (row,), cov = next(analytic_points(params, [g]))
    return row, CovarianceState(*(x.item() for x in astuple(cov)))


def sweep_coupling(params: PhysicalParams, grid=None, protocol: str = "both",
                   master_seed: int = 0,
                   duration: float = TICK_RECORD_DURATION) -> list[SweepRow]:
    """Sweep |G|/kappa and collect analytic and Monte Carlo observables.

    The analytic columns come from ``analytic_points``.  On the Monte Carlo
    path each grid point then steps one NESS record, duration long, at its
    carrier period: its tick record (derived seed 2^32 + i for point i),
    whose C, D and N come from ``tick_metrics``, once ``tick_period`` has
    checked every point's record.  No record is stored, and a point's row
    depends only on its own coupling and index, so memory does not grow
    with the grid and the output is reproducible.  The points run
    concurrently, two at a time where two CPUs are usable
    (``in_grid_order``): the rows come back in grid order, the same bits
    as one point after another.
    """
    if protocol not in ("analytic", "both"):
        raise ValueError(f"unknown protocol {protocol!r}")
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if np.any(grid < 0):
        raise ValueError("grid values must be >= 0")

    rows = [row for part, _ in analytic_points(params, grid) for row in part]
    if protocol == "analytic":
        return rows
    dyns = [operating_point(params, g)[0] for g in grid.tolist()]
    periods = [tick_period(dyn, duration) for dyn in dyns]

    def point(i):
        key = derived_seed(master_seed, TICK_SEED_BASE + i)
        m = tick_metrics(dyns[i], key, duration, periods[i])
        return replace(rows[i], C=m.C, D=m.D, N1=m.N1, N2=m.N2)

    return list(in_grid_order(point, len(rows)))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def in_flight(n: int) -> int:
    """Calls ``in_grid_order`` runs at once for n calls: MAX_POINTS_IN_FLIGHT,
    at most one per usable CPU and one per call."""
    return min(MAX_POINTS_IN_FLIGHT, usable_cpus(), n)


def in_grid_order(fn, n: int):
    """Yield fn(0), ..., fn(n - 1) in index order, ``in_flight(n)`` calls
    at a time on threads, or as a plain loop when that is one.

    Noise draws and numpy's array passes release the GIL (the engine's
    banded solve holds it), so two calls in flight overlap most of their
    work.  One call more than the threads waits in the queue, so a
    thread that finishes while an earlier call still runs starts the
    next at once; the call after it is submitted when the consumer asks
    for the next result, so at most ``in_flight(n) + 1`` results are
    held, and none once yielded.  The first call to fail in index order,
    the one a plain loop would meet, is re-raised as it was raised, and
    no call is submitted once a submitted one has failed.
    """
    workers = in_flight(n)
    if workers <= 1:
        yield from map(fn, range(n))
        return
    # with logging, 6 ms of start-up that only a pool needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        ahead = min(n, workers + 1)
        pending = deque(pool.submit(fn, i) for i in range(ahead))
        for i in range(ahead, n + ahead):
            yield pending.popleft().result()
            if i < n and not any(f.done() and f.exception() for f in pending):
                pending.append(pool.submit(fn, i))


def find_threshold(rows: list[SweepRow]) -> float:
    """|G_c|/kappa where the analytic |C| first crosses 0.5 (interpolated)."""
    g = np.array([r.g_over_kappa for r in rows])
    c = np.abs([r.analytic_C for r in rows])
    above = np.flatnonzero(c >= THRESHOLD_LEVEL)
    if len(above) == 0 or above[0] == 0:
        raise ThresholdError(
            "sweep does not bracket the C = 0.5 crossing; extend the grid")
    i = above[0]
    frac = (THRESHOLD_LEVEL - c[i - 1]) / (c[i] - c[i - 1])
    return float(g[i - 1] + frac * (g[i] - g[i - 1]))


def find_turning_point(rows: list[SweepRow]) -> float:
    """|G|/kappa of the interior maximum of Pi_s (quadratic interpolation)."""
    g = np.array([r.g_over_kappa for r in rows])
    pi = np.array([r.pi_s for r in rows])
    i = int(np.argmax(pi))
    if i == 0 or i == len(rows) - 1:
        raise TurningPointError(
            "maximum of Pi_s sits on the sweep boundary; widen the range")
    x0, x1, x2 = g[i - 1], g[i], g[i + 1]
    y0, y1, y2 = pi[i - 1], pi[i], pi[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0:
        return float(x1)
    return float(x1 + 0.25 * (x2 - x0) * (y0 - y2) / denom)


def transient_experiment(params: PhysicalParams, g_over_kappa: float,
                         n_traj: int = 600, master_seed: int = 0,
                         duration: float | None = None,
                         dt: float = DEFAULT_DT) -> TransientResult:
    """Quench protocol: switch the coupling on at t = 0 and watch R(t).

    The ensemble starts from the uncoupled thermal state.  The record,
    ``duration`` or when None a length the result keeps, covers both the
    correlation transient (set by the linewidth gap gamma_minus -
    gamma_plus) and the slow flux relaxation (set by gamma_plus).  The
    transient time is evaluated on the front segment of R(t) that contains
    the transient and its plateau, so the moving median window tracks the
    physical timescale rather than the record length.

    Group j, members j ENSEMBLE_GROUP onwards, is stepped over the whole
    record and reduced block by block into per-time sums of its own
    (``EnsembleMoments``, t = 0 and every step), which are added to the
    total in group order as soon as the group is next.  Groups run
    two at a time where two CPUs are usable (``in_grid_order``), so the
    result depends only on the seeds and ENSEMBLE_GROUP.
    Ensembles below MIN_FLUX_ENSEMBLE members raise EnsembleError, and a
    window too short for ``transient_time`` or a record of more than
    MAX_QUENCH_TIMES stored times ConfigError, before any work.
    """
    if n_traj < MIN_FLUX_ENSEMBLE:
        raise EnsembleError(f"transient experiment needs n_traj >= "
                            f"{MIN_FLUX_ENSEMBLE}, got {n_traj}")
    dyn, modes = operating_point(params, g_over_kappa)
    gap = modes.gamma_minus - modes.gamma_plus
    if duration is None:
        duration = max(6.0 / modes.gamma_plus,
                       120.0 / modes.gamma_minus, 0.05)
    window = duration if gap <= 0 else min(duration, 40.0 / gap)
    # transient_time needs 10 samples of R(t) in the window
    check_record_length(window, 10 * dt, "transient R(t) window")
    if duration / dt + 1 > MAX_QUENCH_TIMES:
        raise ConfigError(f"quench record of {duration / dt + 1:.4g} stored "
                          f"times exceeds {MAX_QUENCH_TIMES}")
    starts = range(0, n_traj, ENSEMBLE_GROUP)
    # Every group in flight also holds its per-time sums and numpy's
    # iterator buffers, as do the total and a finished group waiting for
    # its turn, so w > 1 groups in flight step with a (w + 1)-th of the
    # chunk budget each: then 200 members in four groups peak at
    # 0.86-0.99 of the traced memory of 50 members stepped alone.
    workers = in_flight(len(starts))
    share = workers + 1 if workers > 1 else 1

    def group(j):
        seeds = [derived_seed(master_seed, i) for i in
                 range(starts[j], min(starts[j] + ENSEMBLE_GROUP, n_traj))]
        _, n_stored, parts = stored_states(dyn, seeds, duration, dt,
                                           share=share)
        moments = EnsembleMoments(n_stored)
        for part in parts:
            moments.update(part)
        return moments

    groups = in_grid_order(group, len(starts))
    moments = next(groups)
    for part in groups:
        moments.merge(part)
        del part  # freed before the next group starts
    times = dt * np.arange(len(moments.cross))
    R = moments.correlation()
    sel = times <= window
    t_tr = transient_time(times[sel], R[sel])
    mu1, mu2, mua = moments.fluxes(dyn.params)
    return TransientResult(times=times, R=R, mu_b1_t=mu1, mu_b2_t=mu2,
                           mu_a_t=mua, transient_time=t_tr, duration=duration)
