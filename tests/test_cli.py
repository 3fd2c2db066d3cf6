import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import read_csv, run_python

from clocksync import (normal_modes_numeric, paper_preset, power_spectrum,
                       run_ensemble, sweep_coupling)
from clocksync.cli import run
from clocksync.experiments import operating_point
from clocksync.model import TWO_PI
from clocksync.output import write_csv, write_svg


class TestPackage:
    def test_public_names_resolve_once(self):
        # an export edit must reach both the import and __all__
        import inspect
        import clocksync
        assert len(set(clocksync.__all__)) == len(clocksync.__all__)
        for name in clocksync.__all__:
            assert getattr(clocksync, name, None) is not None, name
        imported = {name for name, value in vars(clocksync).items()
                    if not (name.startswith("_") or inspect.ismodule(value))}
        assert imported == set(clocksync.__all__)


class TestOutputs:
    def test_csv_round_trip_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[0.1, 1e-300, 2 ** 53 + 1.0], [float("nan"), float("inf"), -0.0]]
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text().splitlines()[1:] == [
            "0.1,1e-300,9007199254740992.0", "nan,inf,-0.0"]
        header, back = read_csv(path)
        assert header == ["a", "b", "c"]
        assert back[0] == rows[0]
        assert np.isnan(back[1][0]) and np.isinf(back[1][1])

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "e.csv", ["a"], [])
        assert not (tmp_path / "e.csv").exists()

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "w.csv", ["a", "b"], [[1.0]])

    def test_format_cell(self, tmp_path):
        # a cell is the float's repr: shortest round trip, nan and +-inf
        path = tmp_path / "f.csv"
        write_csv(path, ["a", "b", "c"], [[0.1, float("nan"), float("-inf")]])
        assert path.read_text() == "a,b,c\n0.1,nan,-inf\n"

    @pytest.mark.parametrize("write", [write_csv, write_svg])
    def test_ragged_rows_rejected(self, tmp_path, write):
        with pytest.raises(ValueError):
            write(tmp_path / "r", ["a", "b"], [[1.0, 2.0], [3.0]])
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("write", [write_csv, write_svg])
    def test_array_and_lists_give_same_bytes(self, tmp_path, write):
        # more rows than one CSV slice, a signed zero and non-finite cells
        x = np.linspace(-1.0, 1.0, 10001)
        table = np.column_stack([x, np.sin(x), x ** 3 - 1e-300])
        table[5000, 1] = -0.0
        table[17, 2], table[9000, 2] = np.nan, np.inf
        write(tmp_path / "a", ["x", "s", "q"], table)
        write(tmp_path / "l", ["x", "s", "q"], table.tolist())
        assert ((tmp_path / "a").read_bytes()
                == (tmp_path / "l").read_bytes())

    def test_svg_polyline_per_column(self, tmp_path):
        path = tmp_path / "p.svg"
        x = np.linspace(0, 1, 20)
        rows = np.column_stack([x, np.sin(x), np.cos(x), x ** 2])
        write_svg(path, ["x", "s", "c", "q"], rows)
        text = path.read_text()
        assert text.count("<polyline") == 3
        assert "</svg>" in text


def test_cli_import_leaves_scipy_signal_out():
    # scipy.signal, which loads scipy.stats, takes most of a second to
    # import and scipy.ndimage about 0.1 s; no command needs either: a
    # transient time takes its moving median from numpy
    code = (
        "import sys, clocksync.cli\n"
        "import numpy as np\n"
        "slow = ('scipy.signal', 'scipy.stats', 'scipy.ndimage')\n"
        "print([m for m in slow if m in sys.modules])\n"
        "from clocksync import paper_preset, power_spectrum, "
        "sweep_coupling, transient_experiment\n"
        "p = paper_preset()\n"
        "transient_experiment(p, 0.05, n_traj=50, master_seed=1, dt=5e-5)\n"
        "sweep_coupling(p, grid=[0.0, 0.03], protocol='both', "
        "duration=0.01)\n"
        "power_spectrum(np.arange(64.0), 1.0)\n"
        "power_spectrum(np.arange(64.0) * 1j, 1.0)\n"
        "print([m for m in slow if m in sys.modules])\n")
    assert run_python(code) == "[]\n[]\n"


def test_commands_that_step_nothing_leave_scipy_out(tmp_path):
    # scipy.linalg takes about a third of a second to import, and only a
    # command that steps a record uses it (for the banded solve of its
    # first chunk), so the analytic commands never load any of SciPy
    code = (
        "import contextlib, io, sys\n"
        "from clocksync.cli import run\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy())\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['--version'], ['sweep', '--protocol', 'analytic',\n"
        "             '--points', '300', '--out', out], ['modes', '--out', out],\n"
        "             ['ness', '--out', out]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "print(scipy())\n"
        "from clocksync.experiments import operating_point\n"
        "from clocksync.model import paper_preset\n"
        "from clocksync.trajectory import stored_states\n"
        "parts = stored_states(operating_point(paper_preset(), 0.02)[0], [1],\n"
        "                      1e-3, 1e-4)[2]\n"
        "next(parts)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "next(parts)\n"
        "print('scipy.linalg' in sys.modules)\n")
    assert run_python(code) == "[]\n[]\nFalse\nTrue\n"


class TestConfig:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(["sweep", "--bogus-flag"]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run(["modes", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2

    def test_unknown_param_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"params": {"flux_capacitance": 1.0}}))
        assert run(["modes", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2

    def test_invalid_physics_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"params": {"nth1": -5.0}}))
        assert run(["modes", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("doc", [
        b'{"params": [1, 2]}',
        b'{"params": {"nth1": "abc"}}',
        b'{"params": {"nth1": null}}',
        b'{"preset": []}',
        b'{"params": {"nth1": NaN}}',
        b'{"params": {"nth1": 1e400}}',
        b'\xff\xfe{"params": {}}',
    ], ids=["params-list", "string", "null", "preset-list", "nan",
            "overflow", "not-utf8"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, doc):
        # JSON the parser accepts, with values no parameter can take, and
        # bytes that are not UTF-8 text
        cfg = tmp_path / "c.json"
        cfg.write_bytes(doc)
        out = tmp_path / "o"
        assert run(["ness", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_hz_and_rad_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "preset": "paper",
            "params": {"kappa_hz": 1e6, "detuning_rad": -2e6 * np.pi * 0.8},
        }))
        out = tmp_path / "o"
        assert run(["modes", "--config", str(cfg), "--out", str(out),
                    "--points", "3"]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["params_rad"]["kappa"] == pytest.approx(2 * np.pi * 1e6)
        assert resolved["params_rad"]["detuning"] == pytest.approx(-1.6e6 * np.pi)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--protocol", "analytic", "--g-max", "-0.01"],
        ["sweep", "--protocol", "analytic", "--points", "0"],
        ["sweep", "--points", "1", "--duration", "0.2",
         "--tick-duration", "0"],
        ["trajectory", "--dt", "0"],
        ["trajectory", "--duration", "0"],
        ["transient", "--dt", "0"],
        ["trajectory", "--store-every", "2"],
        ["transient", "--n-traj", "1"],
        ["ness", "--g-over-kappa=-0.02"],
        ["trajectory", "--g-over-kappa=-0.04"],
        ["transient", "--g-over-kappa=-0.04"],
        ["sweep", "--protocol", "monte-carlo"],
        ["sweep", "--dt", "1e-5"],
        ["sweep", "--protocol", "analytic", "--points", "1048577"],
        ["modes", "--points", "1048577"],
        ["ness", "--g-over-kappa", "inf"],
        ["sweep", "--g-max", "nan"],
        ["trajectory", "--duration", "inf"],
        ["transient", "--dt", "nan"],
    ], ids=["sweep-g-max", "sweep-points", "sweep-tick-duration",
            "trajectory-dt", "trajectory-duration", "transient-dt",
            "trajectory-store-every-removed", "transient-n-traj",
            "ness-g-over-kappa", "trajectory-g-over-kappa",
            "transient-g-over-kappa", "sweep-protocol", "sweep-dt-removed",
            "sweep-points-bound", "modes-points-bound", "ness-inf",
            "sweep-g-max-nan", "trajectory-duration-inf",
            "transient-dt-nan"])
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--seed", "-1"],
        ["transient", "--seed", str(2 ** 64)],
        ["sweep", "--protocol", "both", "--seed", "-1"],
    ], ids=["trajectory", "transient", "sweep-monte-carlo"])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, argv):
        # a Philox key holds a 64-bit master seed; parsing rejects the
        # rest before any work or output
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path, capsys):
        assert run(["trajectory", "--g-over-kappa", "0.04", "--duration",
                    "0.2", "--seed", str(2 ** 64 - 1), "--out",
                    str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--g-over-kappa", "0.04", "--duration", "0.005"],
        ["sweep", "--points", "2", "--g-max", "0.01", "--duration", "0.005"],
        ["transient", "--n-traj", "50", "--dt", "0.05"],
        ["transient", "--n-traj", "50", "--duration", "1e-5"],
    ], ids=["trajectory", "sweep-tick-record",
            "transient-dt", "transient-duration"])
    def test_record_too_short_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 2
        assert "at least" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("params, argv", [
        (None, ["ness", "--g-over-kappa", "1e200"]),
        (None, ["trajectory", "--g-over-kappa", "1e200"]),
        (None, ["transient", "--g-over-kappa", "1e200"]),
        (None, ["modes", "--g-max", "1e200"]),
        (None, ["sweep", "--protocol", "analytic", "--g-max", "1e200"]),
        (None, ["ness", "--g-over-kappa", "1e302"]),
        ({"kappa_hz": 1e300}, ["ness"]),
        ({"nth1": 1e308}, ["ness"]),
        ({"nth1": 1e308}, ["sweep", "--points", "3"]),
        ({"nth1": 1e200}, ["ness"]),
        ({"nth1": 1e300}, ["ness"]),
        ({"nth1": 1e200}, ["transient", "--n-traj", "50"]),
        ({"nth1": 1e155, "nth2": 1e155, "gamma1_hz": 0.01, "gamma2_hz": 0.01},
         ["ness", "--g-over-kappa", "0.0001"]),
        ({"gamma1_hz": 1e306}, ["ness"]),
        ({"gamma1_hz": 1e306}, ["sweep", "--points", "3"]),
        ({"gamma1_hz": 1e306}, ["trajectory", "--duration", "0.2"]),
        ({"omega1_hz": 1e306}, ["ness"]),
        ({"omega1_hz": 1e306}, ["modes"]),
    ], ids=["ness-g", "trajectory-g", "transient-g", "modes-g-max",
            "sweep-g-max", "ness-g-infinite-coupling", "ness-kappa",
            "ness-nth1", "sweep-nth1", "ness-nth1-1e200", "ness-nth1-1e300",
            "transient-nth1-1e200", "ness-slow-baths-1e155", "ness-gamma1",
            "sweep-gamma1", "trajectory-gamma1", "ness-omega1",
            "modes-omega1"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_model_exits_2(self, tmp_path, capsys, params, argv):
        # finite inputs whose drift, diffusion (or its norm), normal modes
        # or NESS V11 V22 overflow a float: a typed error naming the
        # coupling, before any table
        if params is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"params": params}))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "|G|/kappa = " in err
        assert "Traceback" not in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--duration", "1e301", "--dt", "1e300"],
    ], ids=["trajectory"])
    def test_non_finite_map_exits_2(self, tmp_path, capsys, argv):
        # a step so long that e^(A dt) overflows: a config error naming
        # the step, before any noise is drawn
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dt = 1e+300" in err
        assert "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_unholdable_quench_exits_2(self, tmp_path, capsys):
        # a quench whose per-time sums would take terabytes: a config error
        # naming the count, before any member is stepped
        out = tmp_path / "o"
        assert run(["transient", "--dt", "1e-12", "--n-traj", "50",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "stored times" in err
        assert "Traceback" not in err
        assert not (out / "transient.csv").exists()

    def test_physics_error_exits_3(self, tmp_path, capsys):
        cases = [
            # blue detuning anti-damps the long-lived mode: no NESS exists
            ({"detuning_rad": 5.0e6}, "StabilityError",
             ["ness", "--g-over-kappa", "0.05"]),
            # envelopes relax faster than the 100 Hz carrier turns: the
            # oscillator phase does not advance, so no tick is defined
            ({"omega1_hz": 110, "omega2_hz": 100, "gamma1_hz": 1e5,
              "gamma2_hz": 1e5}, "TickExtractionError",
             ["trajectory", "--g-over-kappa", "0", "--duration", "0.05",
              "--dt", "1e-6"]),
        ]
        for i, (params, error, argv) in enumerate(cases):
            cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"o{i}"
            cfg.write_text(json.dumps({"params": params}))
            assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 3
            assert error in capsys.readouterr().err
            assert not list(out.glob("*.csv"))

    @pytest.mark.filterwarnings("error")
    def test_unallocatable_tick_record_exits_2(self, tmp_path, capsys):
        # a finite model whose tick record would need about 1e100 steps of
        # its carrier period: a typed error before any step or table
        cfg, out = tmp_path / "c.json", tmp_path / "o"
        cfg.write_text(json.dumps({"params": {"omega1_hz": 1e100}}))
        assert run(["trajectory", "--config", str(cfg),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "steps" in err
        assert not list(out.glob("*.csv"))

    def test_io_error_exits_4(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        assert run(["modes", "--points", "3", "--out", str(target)]) == 4


class TestCommands:
    def test_modes_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["modes", "--points", "5", "--out", str(out)]) == 0
        header, rows = read_csv(out / "modes.csv")
        assert header == ["g_over_kappa", "omega_plus", "omega_minus",
                          "gamma_plus", "gamma_minus", "ratio"]
        assert len(rows) == 5
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert set(resolved["options"]) == {"g_max", "points"}

    @pytest.mark.parametrize("command", ["modes", "ness"])
    def test_analytic_commands_take_no_seed(self, tmp_path, capsys, command):
        # they draw no noise, so a seed would be an option nothing reads
        out = tmp_path / "o"
        assert run([command, "--seed", "1", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_modes_columns_are_the_sweep_columns(self, tmp_path, capsys):
        # the same normal modes, written through the same floats
        assert run(["modes", "--points", "301", "--g-max", "0.06", "--out",
                    str(tmp_path / "m")]) == 0
        assert run(["sweep", "--protocol", "analytic", "--points", "301",
                    "--g-max", "0.06", "--out", str(tmp_path / "s")]) == 0

        def columns(path, names):
            header, *lines = path.read_text().splitlines()
            idx = [header.split(",").index(n) for n in names]
            return [[line.split(",")[i] for i in idx] for line in lines]

        names = ["g_over_kappa", "gamma_plus", "gamma_minus", "ratio"]
        assert (columns(tmp_path / "m" / "modes.csv", names)
                == columns(tmp_path / "s" / "sweep.csv", names))

    def test_equal_sign_couplings_lock_in_anti_phase(self, tmp_path, capsys):
        # G1 G2 > 0: the same linewidths and threshold as the paper's
        # G1 = -G2, with C < 0, and a quench that settles at R < 0
        cfg = tmp_path / "plus.json"
        cfg.write_text(json.dumps({"params": {"G1_rad": 1, "G2_rad": 1}}))
        out = tmp_path / "o"
        assert run(["sweep", "--protocol", "analytic", "--config", str(cfg),
                    "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        col = dict(zip(header, np.array(rows).T))
        assert np.all(col["gamma_plus"] > 0)
        assert col["analytic_C"][-1] < -0.95
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["threshold_g_over_kappa"] == pytest.approx(0.0086,
                                                                  rel=0.01)
        assert run(["transient", "--config", str(cfg), "--g-over-kappa",
                    "0.04", "--n-traj", "50", "--seed", "2", "--out",
                    str(out)]) == 0
        _, rows = read_csv(out / "transient.csv")
        assert np.mean([r[1] for r in rows[-100:]]) < -0.9
        summary = json.loads((out / "transient_summary.json").read_text())
        assert 0 < summary["transient_time_s"] < 1e-3

    def test_modes_at_unstable_coupling(self, tmp_path, capsys):
        # blue detuning anti-damps the long-lived mode: the table still
        # reports it, although the drift has no NESS there
        cfg = tmp_path / "blue.json"
        cfg.write_text(json.dumps({"params": {"detuning_rad": 5.0e6}}))
        out = tmp_path / "o"
        assert run(["modes", "--config", str(cfg), "--points", "3",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out / "modes.csv")
        assert rows[-1][3] < 0
        assert run(["ness", "--config", str(cfg), "--g-over-kappa", "0.05",
                    "--out", str(tmp_path / "n")]) == 3

    def test_ness_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["ness", "--g-over-kappa", "0.02", "--out", str(out),
                    "--svg"]) == 0
        assert (out / "ness.svg").stat().st_size > 0
        header, rows = read_csv(out / "ness.csv")
        assert header[:5] == ["g_over_kappa", "n_b1_eff", "n_b2_eff",
                              "n_a_eff", "n_cross_eff"]
        assert rows[0][9] > 0.9  # analytic_C above threshold
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert set(resolved["options"]) == {"g_over_kappa"}

    def test_sweep_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["sweep", "--points", "6", "--g-max", "0.02",
                    "--protocol", "analytic", "--out", str(out), "--svg"])
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["g_over_kappa", "C", "D", "N1", "N2", "gamma_plus",
                          "gamma_minus", "ratio", "mu_b1", "mu_b2", "mu_a",
                          "pi_s", "analytic_C"]
        assert len(rows) == 6
        assert (out / "sweep.svg").exists()
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert "threshold_g_over_kappa" in summary
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["d_window_s"] == 0.25
        assert set(resolved["options"]) == {
            "g_max", "points", "protocol", "duration", "seed"}

    def test_trajectory_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["trajectory", "--g-over-kappa", "0.01", "--duration",
                    "0.4", "--dt", "4e-5", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "re_b1", "im_b1", "re_b2", "im_b2"]
        sheader, srows = read_csv(out / "spectrum.csv")
        assert sheader == ["f_hz", "psd_b1", "psd_b2"]
        summary = json.loads((out / "trajectory_summary.json").read_text())
        assert {"C", "D", "N1", "N2", "carrier_hz"} <= set(summary)
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["d_window_s"] == 0.25
        assert set(resolved["options"]) == {"g_over_kappa", "duration", "dt",
                                            "seed"}

    def test_trajectory_summary_uses_the_sweep_reducers(self, tmp_path,
                                                        capsys):
        # C, D and N of sweep point 0 at the same coupling and seed, from
        # its tick record of min(duration, 6 s); the CSV holds the record
        # that starts in the NESS as member 0 of the seed's ensemble
        out = tmp_path / "o"
        assert run(["trajectory", "--duration", "0.4", "--seed", "13",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "trajectory_summary.json").read_text())
        [row] = sweep_coupling(paper_preset(), [0.02], master_seed=13,
                               duration=min(0.4, 6.0))
        assert [summary[k] for k in ("C", "D", "N1", "N2")] == [
            row.C, row.D, row.N1, row.N2]
        dyn, _ = operating_point(paper_preset(), 0.02)
        [traj] = run_ensemble(dyn, 1, 0.4, master_seed=13, quench=False)
        record = np.stack([traj.b1, traj.b2], axis=-1)
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == len(record)
        assert rows[0] == [0.0, *record[0].view(float)]

    def test_trajectory_streams_its_record(self, tmp_path, capsys):
        # the record is stepped once and never held: 10x the samples (at
        # a 10x finer --dt, the same tick record) leave the peak of traced
        # memory where it was, and the CSV and the spectra are those of
        # the stored record
        argv = ["trajectory", "--g-over-kappa", "0.04", "--duration", "0.1",
                "--seed", "2"]
        assert run([*argv, "--out", str(tmp_path / "warm")]) == 0  # imports
        peaks = []
        for dt in ("1e-5", "1e-6"):
            tracemalloc.start()
            try:
                assert run([*argv, "--dt", dt,
                            "--out", str(tmp_path / dt)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]
        dyn, _ = operating_point(paper_preset(), 0.04)
        [traj] = run_ensemble(dyn, 1, 0.1, master_seed=2, quench=False)
        _, rows = read_csv(tmp_path / "1e-5" / "trajectory.csv")
        assert np.array_equal(rows, np.column_stack(
            [traj.times, np.stack([traj.b1, traj.b2], -1).view(float)]))
        _, rows = read_csv(tmp_path / "1e-5" / "spectrum.csv")
        f, psd1 = power_spectrum(traj.b1, traj.dt)
        _, psd2 = power_spectrum(traj.b2, traj.dt)
        carrier_hz = traj.reference_frequency / TWO_PI
        assert np.array_equal(rows, np.column_stack(
            [carrier_hz - f, psd1, psd2])[::-1])

    @pytest.mark.parametrize("duration", ["0.3", "7"])
    def test_trajectory_d_and_n_equal_the_sweep_row(self, tmp_path, capsys,
                                                    duration):
        # C, D and N of sweep point 0 at the same coupling and seed, all
        # of its tick record over min(duration, 6 s), whatever --dt is
        g, seed = 0.03, 5
        out = tmp_path / "o"
        assert run(["trajectory", "--g-over-kappa", str(g), "--duration",
                    duration, "--dt", "1e-3", "--seed", str(seed),
                    "--out", str(out)]) == 0
        summary = json.loads((out / "trajectory_summary.json").read_text())
        [row] = sweep_coupling(paper_preset(), grid=[g], protocol="both",
                               master_seed=seed,
                               duration=min(float(duration), 6.0))
        assert [summary[k] for k in ("C", "D", "N1", "N2")] == [
            row.C, row.D, row.N1, row.N2]

    def test_spectrum_on_the_physical_axis(self, tmp_path, capsys):
        # below threshold each clock's envelope peaks at its own mode:
        # clock 1 about 200 Hz above clock 2, both on the lab axis
        out = tmp_path / "o"
        assert run(["trajectory", "--g-over-kappa", "0.002", "--duration",
                    "2", "--seed", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        f, psd1, psd2 = np.array(rows).T
        assert np.all(np.diff(f) > 0)
        dyn, _ = operating_point(paper_preset(), 0.002)
        nm = normal_modes_numeric(dyn)
        lab = np.sort([dyn.reference_frequency + nm.omega_plus,
                       dyn.reference_frequency + nm.omega_minus]) / TWO_PI
        df = f[1] - f[0]
        peaks = f[np.argmax(psd2)], f[np.argmax(psd1)]
        assert np.all(np.abs(np.subtract(peaks, lab)) <= 2 * df)
        assert 160.0 <= peaks[1] - peaks[0] <= 240.0

    def test_transient_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["transient", "--g-over-kappa", "0.04", "--n-traj", "80",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "transient.csv")
        assert header == ["t", "R", "mu_b1", "mu_b2", "mu_a"]
        summary = json.loads((out / "transient_summary.json").read_text())
        assert summary["transient_time_s"] > 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert set(resolved["options"]) == {"g_over_kappa", "n_traj",
                                            "duration", "dt", "seed"}
        # the adaptive duration is recorded, and passing it back
        # reproduces the run byte for byte
        duration = resolved["options"]["duration"]
        assert isinstance(duration, float) and duration > 0
        again = tmp_path / "again"
        assert run(["transient", "--g-over-kappa", "0.04", "--n-traj", "80",
                    "--seed", "7", "--duration", repr(duration),
                    "--out", str(again)]) == 0
        for name in ("transient.csv", "transient_summary.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        args = ["transient", "--g-over-kappa", "0.03", "--n-traj", "50",
                "--seed", "11"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(args + ["--out", str(out)]) == 0
            outs.append((out / "transient.csv").read_bytes())
        assert outs[0] == outs[1]
