"""Workload definitions: the clocksync commands each benchmark round runs.

A workload is a fixed list of CLI commands.  The benchmark's --seed is
passed to every seeded command as the program's master seed; nothing else
about the inputs depends on it, so the work per round is the same for
every seed.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Inputs, kept small enough that one run of every workload fits the
# benchmark's time budget on a 2-CPU machine.
ANALYTIC_POINTS = 10001
GRID_MAX = 0.05
MC_POINTS = 26
MC_DURATION = 0.5          # correlation record per sweep point (s)
MC_TICK_DURATION = 0.5     # fine-sampled tick record per sweep point (s)
MC_TICK_DT = 1e-6          # experiments.TICK_RECORD_DT
TRAJ_COUPLING = 0.04
TRAJ_DURATION = 3.0
TRAJ_DT = 1e-5             # trajectory.DEFAULT_DT, the CLI default
TRANSIENT_COUPLINGS = (0.01, 0.02, 0.03, 0.04, 0.05)
TRANSIENT_N_TRAJ = 600     # the CLI default
THRESHOLD_COUPLING = 0.005
THRESHOLD_N_TRAJ = 50
# The threshold point fails with PlateauError on every seed tried; it runs
# with a seed of its own, so whether it fails does not depend on --seed.
THRESHOLD_SEED = 0


@dataclass(frozen=True)
class Command:
    """One clocksync invocation; ``--out`` is appended by the runner."""

    name: str
    argv: tuple
    # Exception name the command is known to end with (exit code 3), or None.
    known_error: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    # Command rerun once to check byte-identical output when a run has
    # only one round.
    determinism_command: str
    # Fine-sampled tick samples per clock that the commands ask for.
    tick_samples_requested: int = 0
    params: dict = field(default_factory=dict)


def _sweep_analytic(seed):
    argv = ("sweep", "--protocol", "analytic", "--points",
            str(ANALYTIC_POINTS), "--g-max", str(GRID_MAX), "--seed", str(seed))
    return Workload(
        name="sweep-analytic",
        why="analytic sweep on a dense grid: model, Lyapunov and CSV work "
            "only, no stochastic layer",
        commands=(Command("sweep", argv),),
        determinism_command="sweep",
        params={"points": ANALYTIC_POINTS, "g_max": GRID_MAX})


def _sweep_mc(seed):
    argv = ("sweep", "--protocol", "both", "--points", str(MC_POINTS),
            "--g-max", str(GRID_MAX), "--duration", str(MC_DURATION),
            "--tick-duration", str(MC_TICK_DURATION), "--seed", str(seed))
    return Workload(
        name="sweep-mc",
        why="Monte Carlo sweep on the 26-point grid: trajectory stepping on "
            "the thread pool and the stacked tick pass",
        commands=(Command("sweep", argv),),
        determinism_command="sweep",
        tick_samples_requested=MC_POINTS * int(round(MC_TICK_DURATION
                                                     / MC_TICK_DT)),
        params={"points": MC_POINTS, "g_max": GRID_MAX,
                "duration": MC_DURATION, "tick_duration": MC_TICK_DURATION})


def _trajectory_record(seed):
    argv = ("trajectory", "--g-over-kappa", str(TRAJ_COUPLING), "--duration",
            str(TRAJ_DURATION), "--dt", str(TRAJ_DT), "--seed", str(seed))
    return Workload(
        name="trajectory-record",
        why="one long single trajectory: whole-record tick statistics with "
            "gap exclusion and a large CSV",
        commands=(Command("trajectory", argv),),
        determinism_command="trajectory",
        params={"g_over_kappa": TRAJ_COUPLING, "duration": TRAJ_DURATION,
                "dt": TRAJ_DT})


def _transient_grid(seed):
    commands = [
        Command(f"transient-{g}",
                ("transient", "--g-over-kappa", str(g), "--n-traj",
                 str(TRANSIENT_N_TRAJ), "--seed", str(seed)))
        for g in TRANSIENT_COUPLINGS]
    commands.append(Command(
        f"transient-{THRESHOLD_COUPLING}",
        ("transient", "--g-over-kappa", str(THRESHOLD_COUPLING), "--n-traj",
         str(THRESHOLD_N_TRAJ), "--seed", str(THRESHOLD_SEED)),
        known_error="PlateauError"))
    return Workload(
        name="transient-grid",
        why="600-trajectory quench ensembles at five couplings plus the "
            "threshold point: wide-batch stepping and ensemble reductions",
        commands=tuple(commands),
        determinism_command=f"transient-{TRANSIENT_COUPLINGS[-1]}",
        params={"couplings": TRANSIENT_COUPLINGS, "n_traj": TRANSIENT_N_TRAJ})


BUILDERS = {
    "sweep-analytic": _sweep_analytic,
    "sweep-mc": _sweep_mc,
    "trajectory-record": _trajectory_record,
    "transient-grid": _transient_grid,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
