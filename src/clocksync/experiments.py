"""Coupling sweeps and quench protocols: thresholds, turning points, transients.

The sweep computes every quantity twice where possible: an analytic path
(normal modes, Lyapunov NESS, entropy rates) that is noise free and
fast, and a Monte Carlo path (each grid point propagated on its own)
that exercises the full simulation pipeline.  Threshold detection runs
on the analytic C; the Monte Carlo estimates validate it.  C of a sweep
point and of a single trajectory comes from ``sync_degree``, and D, N1
and N2 from ``tick_stats``, over every sample of records that start in
the NESS: the exact map keeps them stationary, so none needs a burn-in.
D and N come from a tick record of their own (``tick_metrics``), stepped
once per nominal carrier period, whatever the ``dt`` of the command.

Sweeps and quenches reduce the engine's block stream as it comes: a
sweep point's C per C window, its D and N per D window, and a quench's
R(t) and fluxes per block of every member's states.  No record of a
whole run is kept, so memory stays bounded by one engine chunk (at most
``trajectory._CHUNK_MEMBER_STEPS`` member-steps) and a window, whatever
the record length, the number of sweep points or the number of
trajectories.

Every operating point (coupling, normal modes, reduced dynamics) is built
by ``operating_points``, which rejects one that overflows a float.
``analytic_points`` is the one analytic path: it adds the NESS
covariances and entropy rates, solving ANALYTIC_SLICE couplings per
stacked Lyapunov call.  ``operating_point`` and ``analytic_point`` are
their one-point cases; sweeps, quenches and every command start there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (ConfigError, EnsembleError, ThresholdError,
                     TickExtractionError, TurningPointError)
from .metrics import (D_WINDOW_SECONDS, MAGNITUDE_FLOOR_FRACTION,
                      MIN_FLUX_ENSEMBLE, MIN_TICK_SECONDS, EnsembleMoments,
                      PearsonStats, SyncMetrics, TickStats, TransientResult,
                      d_windows, transient_time, windows)
from .model import (TWO_PI, NormalModes, PhysicalParams, effective_coupling,
                    normal_modes_closed_form, reduced_drift_matrix)
from .steadystate import (analytic_sync_degree, entropy_rates, occupations,
                          solve_lyapunov)
from .trajectory import (DEFAULT_DT, DEFAULT_DURATION, Trajectory,
                         derived_seed, displacements, recentered,
                         stored_states)

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
# The envelope may turn at most this far per nominal period T0, read as
# the largest |eigenvalue| of the recentred drift times T0.  The period
# T0 + darg/carrier is first order in the phase increment darg: its
# deviation from T0 is off by a relative darg/2pi (below 1/8 here, 1% on
# the paper's grid), and a turn near pi would alias darg across +-pi.
MAX_ENVELOPE_TURN = np.pi / 4
# The Monte Carlo C merges Pearson sums over windows of this many samples
# of global step index, so it does not depend on how the engine chunks.
C_WINDOW_SAMPLES = 2 ** 12
# The analytic path solves the NESS of this many couplings per stacked
# Lyapunov call.  It bounds the dynamics held at once: a 10001-point sweep
# peaked at 69.4 MB RSS with 256, 71.0 MB with 1024 and 78.0 MB with every
# point in one call, at the same wall time.  No result depends on it.
ANALYTIC_SLICE = 256


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

    def as_list(self):
        return [getattr(self, k) for k in SWEEP_CSV_HEADER]


SWEEP_CSV_HEADER = [f.name for f in fields(SweepRow)]


def burn_in_time(modes: NormalModes) -> float:
    """Equilibration margin of a record with a thermal start (such as
    ``propagate_exact``'s): 5 decay times of the long-lived mode."""
    return BURN_IN_DECAY_TIMES / modes.gamma_plus if modes.gamma_plus > 0 else 0.0


def tick_stats(blocks, carrier: float) -> SyncMetrics:
    """D, N1, N2 of one member's stream of (m, 2) states stepped at the
    nominal carrier period T0 = 2 pi / carrier, the start state first.

    Clock i's phase carrier t - arg b_i advances by 2 pi - darg_i over a
    step, so its period is p = T0 + darg_i / carrier to first order in
    darg_i = angle(b_i[k + 1] conj b_i[k]).  That lies in (-pi, pi], so
    p > T0 / 2 and no unwrapping is needed.  The periods are reduced per
    D window: all of them for D, and for N those whose two end states
    reach MAGNITUDE_FLOOR_FRACTION of the window's rms |b_i|.
    """
    t0 = TWO_PI / carrier
    stats = TickStats(t0)
    for b in d_windows(blocks, t0):
        p = t0 + np.angle(b[1:] * np.conj(b[:-1])) / carrier
        mag = np.abs(b)
        above = mag >= MAGNITUDE_FLOOR_FRACTION * np.sqrt(
            np.mean(mag ** 2, axis=0))
        keep = above[1:] & above[:-1]
        stats.update(p[:, 0], p[:, 1], keep[:, 0], keep[:, 1])
    return stats.result()


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
    ``tick_period``), every state counted."""
    carrier, _, parts = stored_states(dyn, [seed], duration, t0, quench=False)
    return tick_stats((p[0] for p in parts), carrier)


def sync_degree(parts, carrier: float, dt: float) -> float:
    """Pearson C of one member's stream of (m, 2) sample blocks, every
    sample counted.  The sums are taken per C window (C_WINDOW_SAMPLES
    of global sample index) and merged by ``PearsonStats``."""
    stats = PearsonStats()
    k = 0
    for window in windows(parts, C_WINDOW_SAMPLES):
        w = len(window)
        traj = Trajectory(times=dt * np.arange(k, k + w), b1=window[:, 0],
                          b2=window[:, 1], dt=dt, reference_frequency=carrier)
        stats.update(*displacements(traj))
        k += w
    return stats.result()


def check_record_length(duration: float, minimum: float, what: str):
    """ConfigError unless duration is at least ``minimum`` seconds."""
    if duration < minimum:
        raise ConfigError(f"{what} of {duration:g} s is too short: need at "
                          f"least {minimum:g} s")


# Seed layout inside a sweep: point i draws its correlation record with
# derived seed i and its tick record with derived seed 2^32 + i.
TICK_SEED_BASE = 2 ** 32


def operating_points(params: PhysicalParams, grid):
    """(points, drifts, diffusions) of a list of |G|/kappa: per g, the
    dynamics for params.with_coupling(g) and its normal modes (no NESS, so
    unstable couplings are served too), then the stacked drifts and
    diffusions.  ConfigError names the first g whose drift, diffusion or
    normal modes overflow a float."""
    points = []
    with np.errstate(all="ignore"):  # what numpy warns of fails below
        for g in grid:
            try:  # huge x ** 2: OverflowError; infinite G: ValueError
                p = params.with_coupling(g)
                c = effective_coupling(p)
                modes = normal_modes_closed_form(p.delta_omega, p.gamma1,
                                                 p.gamma2, c)
                points.append((reduced_drift_matrix(p, c), modes))
            except (OverflowError, ValueError):
                break  # grid[len(points)] fails below
    A = np.array([dyn.drift for dyn, _ in points]).reshape(-1, 2, 2)
    D = np.array([dyn.diffusion for dyn, _ in points]).reshape(-1, 2, 2)
    lam = np.reshape([(m.lambda_plus, m.lambda_minus) for _, m in points],
                     (-1, 1, 2))
    finite = np.isfinite(np.hstack([A, D, lam])).all(axis=(1, 2))
    ok = np.append(finite, len(points) == len(grid))
    if not ok.all():
        raise ConfigError(
            f"|G|/kappa = {grid[np.argmin(ok)]!r} overflows the model")
    return points, A, D


def operating_point(params: PhysicalParams, g: float):
    """``operating_points`` of the one coupling g: (dynamics, modes)."""
    return operating_points(params, [g])[0][0]


def analytic_points(params: PhysicalParams, grid):
    """Yield (row, dynamics, normal modes, NESS covariance) per |G|/kappa
    of grid, in grid order.

    row is the analytic sweep row, its Monte Carlo fields nan.  The grid
    is taken ANALYTIC_SLICE couplings at a time: their drifts and
    diffusions are stacked for one ``solve_lyapunov`` call, whose
    covariances are bit-identical to those of one solve per point.
    """
    for start in range(0, len(grid), ANALYTIC_SLICE):
        gs = [float(g) for g in grid[start:start + ANALYTIC_SLICE]]
        points, A, D = operating_points(params, gs)
        V = solve_lyapunov(A, D)
        for g, (dyn, modes), v in zip(gs, points, V):
            cov = occupations(v, dyn)
            rates = entropy_rates(cov, dyn.params)
            row = SweepRow(g_over_kappa=g, C=math.nan, D=math.nan,
                           N1=math.nan, N2=math.nan,
                           gamma_plus=modes.gamma_plus,
                           gamma_minus=modes.gamma_minus, ratio=modes.ratio,
                           mu_b1=rates.mu_b1, mu_b2=rates.mu_b2,
                           mu_a=rates.mu_a, pi_s=rates.Pi_s,
                           analytic_C=analytic_sync_degree(cov))
            yield row, dyn, modes, cov


def analytic_point(params: PhysicalParams, g: float):
    """``analytic_points`` of the one-point grid [g]."""
    return next(analytic_points(params, [g]))


def sweep_coupling(params: PhysicalParams, grid=None, protocol: str = "both",
                   master_seed: int = 0, duration: float = DEFAULT_DURATION,
                   dt: float = DEFAULT_DT,
                   tick_duration: float = TICK_RECORD_DURATION) -> list[SweepRow]:
    """Sweep |G|/kappa and collect analytic and Monte Carlo observables.

    The analytic columns come from ``analytic_points``.  On the Monte Carlo
    path each grid point is then propagated on its own, twice, each record
    starting in the NESS: a correlation record (point i keyed with derived
    seed i) whose Pearson C is streamed over every sample, and a tick
    record (derived seed 2^32 + i, ``tick_metrics``) for D and N.  Every
    point's tick record is checked by ``tick_period`` before any point is
    stepped.  Neither record is stored, and a point's row depends only on
    its own coupling and index, so memory does not grow with the grid and
    the output is reproducible.
    """
    if protocol not in ("analytic", "both"):
        raise ValueError(f"unknown protocol {protocol!r}")
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if np.any(grid < 0):
        raise ValueError("grid values must be >= 0")

    if protocol == "analytic":  # keeps no dynamics past their slice
        return [pt[0] for pt in analytic_points(params, grid)]
    points = [pt[:2] for pt in analytic_points(params, grid)]
    check_record_length(duration, 2 * dt, "correlation record")
    periods = [tick_period(dyn, tick_duration) for _, dyn in points]
    rows = []
    for i, ((row, dyn), t0) in enumerate(zip(points, periods)):
        carrier, _, parts = stored_states(
            dyn, [derived_seed(master_seed, i)], duration, dt, quench=False)
        C = sync_degree((p[0] for p in parts), carrier, dt)
        key = derived_seed(master_seed, TICK_SEED_BASE + i)
        ticks = tick_metrics(dyn, key, tick_duration, t0)
        rows.append(replace(row, C=C, D=ticks.D, N1=ticks.N1, N2=ticks.N2))
    return rows


def find_threshold(rows: list[SweepRow]) -> float:
    """|G_c|/kappa where the analytic C first crosses 0.5 (interpolated)."""
    g = np.array([r.g_over_kappa for r in rows])
    c = np.array([r.analytic_C for r in rows])
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
    physical timescale rather than the record length.  The ensemble is
    reduced block by block as the engine steps it (``EnsembleMoments``);
    only the per-time moments of its states, t = 0 and every step, are kept.
    Ensembles below MIN_FLUX_ENSEMBLE members raise EnsembleError, and a
    window too short for ``transient_time`` ConfigError, before any work.
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
    seeds = [derived_seed(master_seed, i) for i in range(n_traj)]
    _, n_stored, parts = stored_states(dyn, seeds, duration, dt)
    moments = EnsembleMoments(n_stored)
    for part in parts:
        moments.update(part)
    times = dt * np.arange(n_stored)
    R = moments.correlation()
    sel = times <= window
    t_tr = transient_time(times[sel], R[sel])
    mu1, mu2, mua = moments.fluxes(dyn.params)
    return TransientResult(times=times, R=R, mu_b1_t=mu1, mu_b2_t=mu2,
                           mu_a_t=mua, transient_time=t_tr, duration=duration)
