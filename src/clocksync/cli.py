"""Command line interface: configuration ingestion and experiment dispatch.

Subcommands: ``modes`` (normal-mode table), ``ness`` (single-point NESS
report), ``sweep`` (coupling sweep with threshold/turning-point summary),
``trajectory`` (real-time traces plus spectra), ``transient`` (quench
ensemble).  Every run writes a resolved_config.json with all defaults
actually used.  Exit codes: 0 success, 2 config errors, 3 physics or
stability errors, 4 I/O errors.

Configuration is a single JSON document (``--config``): an optional
``preset`` name plus a ``params`` object overriding individual fields.
Frequency-like fields accept either rad/s (``*_rad``) or Hz (``*_hz``,
multiplied by 2*pi on ingestion); CSV output is always SI rad/s for
rates.  Note the stored ``kappa`` is the cavity *amplitude* decay rate
(half linewidth).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .errors import ClockSyncError, ConfigError
from .experiments import (SWEEP_CSV_HEADER, TICK_RECORD_DURATION,
                          _model_arrays, analytic_point, check_record_length,
                          find_threshold, find_turning_point, operating_point,
                          sweep_coupling, transient_experiment)
from .metrics import D_WINDOW_SECONDS, MIN_FLUX_ENSEMBLE, power_spectra
from .model import TWO_PI, PhysicalParams, paper_preset
from .output import csv_table, write_csv, write_json, write_svg
from .trajectory import (DEFAULT_DT, DEFAULT_DURATION, derived_seed,
                         stored_states)

_PRESETS = {"paper": paper_preset}

_FREQ_FIELDS = ("omega1", "omega2", "gamma1", "gamma2", "kappa", "detuning",
                "G1", "G2")
_PLAIN_FIELDS = ("nth1", "nth2", "na_in")


class _FiniteRange(click.FloatRange):
    """click.FloatRange that also rejects inf and nan."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value


_GE_ZERO = _FiniteRange(min=0.0)
_GT_ZERO = _FiniteRange(min=0.0, min_open=True)
# A grid point costs about 0.8 KB of peak RSS in an analytic sweep and
# 0.5 KB in a mode table: past this bound, about 0.8 GB, exit 2 before
# any array is built, not an OOM kill.
MAX_GRID_POINTS = 2 ** 20
_POINTS = click.IntRange(1, MAX_GRID_POINTS)


def _params_from_config(preset: str, config_path: str | None) -> PhysicalParams:
    base = _PRESETS.get(preset)
    if base is None:
        raise ConfigError(f"unknown preset {preset!r}; known: {sorted(_PRESETS)}")
    params = base()
    if config_path is None:
        return params

    try:
        with open(config_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - {"preset", "params"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "preset" in doc:
        if not isinstance(doc["preset"], str) or doc["preset"] not in _PRESETS:
            raise ConfigError(f"unknown preset {doc['preset']!r}")
        params = _PRESETS[doc["preset"]]()
    if not isinstance(doc.get("params", {}), dict):
        raise ConfigError("config params must be a JSON object")

    try:  # float() of null, a list or a non-numeric string raises
        overrides = {}
        for key, value in doc.get("params", {}).items():
            if key in _PLAIN_FIELDS:
                overrides[key] = float(value)
            elif key.endswith("_rad") and key[:-4] in _FREQ_FIELDS:
                overrides[key[:-4]] = float(value)
            elif key.endswith("_hz") and key[:-3] in _FREQ_FIELDS:
                overrides[key[:-3]] = TWO_PI * float(value)
            else:
                raise ConfigError(
                    f"unknown params key {key!r}; frequency fields take a "
                    f"_rad or _hz suffix: {_FREQ_FIELDS}, "
                    f"plain: {_PLAIN_FIELDS}")
        return dataclasses.replace(params, **overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid physical parameters: {exc}") from exc


def _echo_config(out: str, params: PhysicalParams, **resolved):
    """Write resolved_config.json for the running command: click's parsed
    options, minus preset and config (resolved into params_rad) and out
    and svg (where and how results are written, not what they are), with
    ``resolved`` replacing options whose value the run settled."""
    ctx = click.get_current_context()
    command = ctx.info_name
    payload = {
        "command": command,
        "version": __version__,
        "params_rad": dataclasses.asdict(params),
        "options": {k: resolved.get(k, v) for k, v in ctx.params.items()
                    if k not in ("preset", "config_path", "out", "svg")},
    }
    if command in ("sweep", "trajectory"):  # the commands that report D
        payload["d_window_s"] = D_WINDOW_SECONDS
    write_json(os.path.join(out, "resolved_config.json"), payload)


def _write_table(out: str, name: str, header, table, svg: bool = False):
    """Write out/name.csv, and out/name.svg too when svg is set; returns
    the CSV path."""
    path = os.path.join(out, name + ".csv")
    write_csv(path, header, table)
    if svg:
        write_svg(os.path.join(out, name + ".svg"), header, table)
    return path


_shared = [
    click.option("--preset", default="paper", show_default=True,
                 help="Named parameter preset."),
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="JSON config overriding the preset."),
    click.option("--out", default="out", show_default=True,
                 help="Output directory."),
    click.option("--svg", is_flag=True, help="Also write SVG quick-look plots."),
]
seed_option = click.option("--seed", default=0, show_default=True,
                           type=click.IntRange(0, 2 ** 64 - 1),
                           help="Master seed for all stochastic paths.")


def shared_options(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def cli():
    """Coupled stochastic-clock simulator and analysis tool."""


@cli.command()
@shared_options
@click.option("--g-max", default=0.05, show_default=True, type=_GE_ZERO)
@click.option("--points", default=26, show_default=True, type=_POINTS)
def modes(preset, config_path, out, svg, g_max, points):
    """Normal-mode table over a coupling grid."""
    params = _params_from_config(preset, config_path)
    os.makedirs(out, exist_ok=True)
    header = ["g_over_kappa", "omega_plus", "omega_minus", "gamma_plus",
              "gamma_minus", "ratio"]
    grid = np.linspace(0.0, g_max, points).tolist()
    *_, nm = _model_arrays(params, grid)
    rows = np.column_stack([grid, nm.omega_plus, nm.omega_minus,
                            nm.gamma_plus, nm.gamma_minus, nm.ratio])
    path = _write_table(out, "modes", header, rows, svg)
    _echo_config(out, params)
    click.echo(f"wrote {path}")


@cli.command()
@shared_options
@click.option("--g-over-kappa", default=0.02, show_default=True, type=_GE_ZERO)
def ness(preset, config_path, out, svg, g_over_kappa):
    """Single-point NESS report: occupations and entropy rates."""
    params = _params_from_config(preset, config_path)
    os.makedirs(out, exist_ok=True)
    pt, cov = analytic_point(params, g_over_kappa)
    header = ["g_over_kappa", "n_b1_eff", "n_b2_eff", "n_a_eff",
              "n_cross_eff", "mu_b1", "mu_b2", "mu_a", "pi_s", "analytic_C",
              "gamma_plus", "gamma_minus"]
    row = [g_over_kappa, cov.n_b1_eff, cov.n_b2_eff, cov.n_a_eff,
           cov.n_cross_eff, pt.mu_b1, pt.mu_b2, pt.mu_a, pt.pi_s,
           pt.analytic_C, pt.gamma_plus, pt.gamma_minus]
    path = _write_table(out, "ness", header, [row], svg)
    _echo_config(out, params.with_coupling(g_over_kappa))
    click.echo(f"wrote {path}")


@cli.command()
@shared_options
@seed_option
@click.option("--g-max", default=0.05, show_default=True, type=_GE_ZERO)
@click.option("--points", default=26, show_default=True, type=_POINTS)
@click.option("--protocol", default="both", show_default=True,
              type=click.Choice(["analytic", "both"]))
@click.option("--duration", "--tick-duration", "duration",
              default=TICK_RECORD_DURATION, show_default=True, type=_GT_ZERO,
              help="Monte Carlo record length per point (s); "
                   "--tick-duration is its old spelling.")
def sweep(preset, config_path, out, seed, svg, g_max, points, protocol,
          duration):
    """Coupling sweep: sync metrics, normal modes, entropy rates."""
    params = _params_from_config(preset, config_path)
    os.makedirs(out, exist_ok=True)
    grid = np.linspace(0.0, g_max, points)
    rows = sweep_coupling(params, grid, protocol=protocol, master_seed=seed,
                          duration=duration)
    # getattr, not dataclasses.astuple: that deep-copies every field
    path = _write_table(out, "sweep", SWEEP_CSV_HEADER,
                        [[getattr(r, k) for k in SWEEP_CSV_HEADER]
                         for r in rows], svg)

    summary = {}
    for name, fn in [("threshold_g_over_kappa", find_threshold),
                     ("turning_point_g_over_kappa", find_turning_point)]:
        try:
            summary[name] = fn(rows)
        except ClockSyncError as exc:
            summary[name] = None
            summary[name + "_error"] = str(exc)
    write_json(os.path.join(out, "sweep_summary.json"), summary)
    _echo_config(out, params)
    click.echo(f"wrote {path}")


@cli.command()
@shared_options
@seed_option
@click.option("--g-over-kappa", default=0.02, show_default=True, type=_GE_ZERO)
@click.option("--duration", default=DEFAULT_DURATION, show_default=True,
              type=_GT_ZERO)
@click.option("--dt", default=DEFAULT_DT, show_default=True, type=_GT_ZERO)
def trajectory(preset, config_path, out, seed, svg, g_over_kappa, duration,
               dt):
    """One NESS trajectory: raw envelopes and spectra of a record that
    starts in the NESS, keyed as member 0 of the seed
    (``run_ensemble(..., master_seed=seed, quench=False)``), and the C,
    D and N of sweep point 0 at the same coupling and seed, from its tick
    record min(duration, TICK_RECORD_DURATION) long."""
    params = _params_from_config(preset, config_path)
    # the Welch spectrum needs two segments of at least 2 samples
    check_record_length(duration, 4 * dt, "trajectory")
    # C, D and N before any file, so a record they reject writes none;
    # the record of the CSV and the spectra is stepped once, not held
    [row] = sweep_coupling(params, [g_over_kappa], master_seed=seed,
                           duration=min(duration, TICK_RECORD_DURATION))
    dyn, _ = operating_point(params, g_over_kappa)
    os.makedirs(out, exist_ok=True)
    carrier, n_stored, parts = stored_states(dyn, [derived_seed(seed, 0)],
                                             duration, dt, quench=False)

    path = os.path.join(out, "trajectory.csv")
    with csv_table(path, ["t", "re_b1", "im_b1", "re_b2", "im_b2"]) as append:
        def written(parts):
            """The states, each block written to the CSV as it passes."""
            k = 0
            for (b,) in parts:
                append(np.column_stack([dt * np.arange(k, k + len(b)),
                                        b.view(float)]))
                k += len(b)
                yield b
        f, psd = power_spectra(written(parts), n_stored, dt)
    carrier_hz = carrier / TWO_PI
    # an envelope component e^{i nu t} moves x_i at carrier - nu; rows
    # reversed, so the physical axis ascends
    _write_table(out, "spectrum", ["f_hz", "psd_b1", "psd_b2"],
                 np.column_stack([carrier_hz - f, psd])[::-1], svg)
    write_json(os.path.join(out, "trajectory_summary.json"),
               {"C": row.C, "D": row.D, "N1": row.N1, "N2": row.N2,
                "carrier_hz": carrier_hz})
    _echo_config(out, dyn.params)
    click.echo(f"wrote {path}")


@cli.command()
@shared_options
@seed_option
@click.option("--g-over-kappa", default=0.04, show_default=True, type=_GE_ZERO)
@click.option("--n-traj", default=600, show_default=True,
              type=click.IntRange(min=MIN_FLUX_ENSEMBLE))
@click.option("--duration", default=None, type=_GT_ZERO,
              help="Record length (s); default adapts to the linewidths.")
@click.option("--dt", default=DEFAULT_DT, show_default=True, type=_GT_ZERO)
def transient(preset, config_path, out, seed, svg, g_over_kappa, n_traj,
              duration, dt):
    """Quench ensemble: transient correlation and entropy fluxes."""
    params = _params_from_config(preset, config_path)
    os.makedirs(out, exist_ok=True)
    res = transient_experiment(params, g_over_kappa, n_traj=n_traj,
                               master_seed=seed, duration=duration, dt=dt)
    header = ["t", "R", "mu_b1", "mu_b2", "mu_a"]
    path = _write_table(out, "transient", header, np.column_stack(
        [res.times, res.R, res.mu_b1_t, res.mu_b2_t, res.mu_a_t]), svg)
    write_json(os.path.join(out, "transient_summary.json"),
               {"transient_time_s": res.transient_time,
                "g_over_kappa": g_over_kappa, "n_traj": n_traj})
    _echo_config(out, params, duration=res.duration)
    click.echo(f"wrote {path}")


def run(argv) -> int:
    """Dispatch argv and return the process exit code (0/2/3/4)."""
    try:
        cli.main(args=list(argv), prog_name="clocksync",
                 standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 2
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except ClockSyncError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 3
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))
