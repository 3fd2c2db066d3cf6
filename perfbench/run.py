"""End-to-end benchmark of the clocksync CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each of
them in turn.  Each clocksync command runs in a fresh interpreter with
src/ on PYTHONPATH (nothing installed), one at a time.  A run repeats
whole rounds of the workload's commands until S seconds have passed and
reports the median round.  With --trace 1 every round is run three times:
plain, under tracer.py for span times and counts, and under tracer.py
with tracemalloc for allocation peaks; the per-module figures are
reported instead of the end-to-end ones.  Outputs are checked after the
timed rounds; the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
TRACER = BENCH_DIR / "tracer.py"
LAUNCH = "from clocksync.cli import main; main()"
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0
MB = float(2 ** 20)


@dataclass
class Result:
    """One finished clocksync process."""

    wall_s: float
    rss_mb: float
    code: int
    stderr: str
    out_dir: Path
    hashes: dict
    trace: dict | None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    # Sweep threads at or below the CPU count; the 2x2 BLAS calls gain
    # nothing from BLAS threads, which would compete with the sweep pool.
    env["CLOCKSYNC_THREADS"] = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def csv_hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def run_process(args, out_dir: Path, env, trace: str | None = None) -> Result:
    """Run one clocksync command to its end; wall time spawn to exit.

    trace is None (plain run), "time" (spans) or "alloc" (spans and
    tracemalloc).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "_trace.json"
    if trace is None:
        argv = [sys.executable, "-c", LAUNCH, *args]
    else:
        flags = ["--alloc"] if trace == "alloc" else []
        argv = [sys.executable, str(TRACER), str(trace_path), *flags, "--",
                *args]
    with open(out_dir / "_stdout.txt", "w") as so, \
            open(out_dir / "_stderr.txt", "w") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    summary = None
    if trace is not None and trace_path.exists():
        summary = json.loads(trace_path.read_text())
    return Result(wall_s=wall, rss_mb=usage.ru_maxrss * 1024 / MB,
                  code=proc.returncode,
                  stderr=(out_dir / "_stderr.txt").read_text(),
                  out_dir=out_dir, hashes=csv_hashes(out_dir), trace=summary)


def run_round(workload, round_dir: Path, env, trace: str | None) -> dict:
    results = {}
    for cmd in workload.commands:
        out = round_dir / cmd.name
        results[cmd.name] = run_process([*cmd.argv, "--out", str(out)], out,
                                        env, trace)
    return results


def measure_setup(env, scratch: Path) -> float:
    """Median wall time of a fresh ``clocksync --version``."""
    times = []
    for i in range(SETUP_REPEATS):
        res = run_process(["--version"], scratch / f"setup{i}", env)
        stdout = (res.out_dir / "_stdout.txt").read_text()
        if res.code != 0 or "version" not in stdout:
            raise RuntimeError(f"clocksync --version failed (exit {res.code}):"
                               f" {res.stderr.strip()[-300:]}")
        times.append(res.wall_s)
    return statistics.median(times)


def check_outputs(workload, results: dict) -> list:
    errs = []
    for cmd in workload.commands:
        res = results[cmd.name]
        if cmd.known_error is not None:
            errs += checks.check_known_failure(res.code, res.stderr,
                                               res.out_dir, cmd.known_error)
        elif res.code != 0:
            errs.append(f"{cmd.name} exited {res.code}: "
                        f"{res.stderr.strip()[-300:]}")
    if errs:
        return errs
    p = workload.params
    if workload.name == "sweep-analytic":
        return checks.check_sweep(results["sweep"].out_dir, False, 0.0)
    if workload.name == "sweep-mc":
        return checks.check_sweep(results["sweep"].out_dir, True,
                                  p["duration"])
    if workload.name == "trajectory-record":
        return checks.check_trajectory(results["trajectory"].out_dir,
                                       p["g_over_kappa"], p["duration"],
                                       p["dt"])
    errs = checks.check_transient_grid(
        {g: results[f"transient-{g}"].out_dir for g in p["couplings"]},
        p["n_traj"])
    thr = results[f"transient-{workloads.THRESHOLD_COUPLING}"]
    if thr.code == 0:  # the known fault is gone: check its output as well
        errs += checks.check_transient(thr.out_dir,
                                       workloads.THRESHOLD_COUPLING,
                                       workloads.THRESHOLD_N_TRAJ)[0]
    return errs


def check_determinism(rounds: list) -> list:
    """Same seed, same bytes: every command's CSVs agree across rounds."""
    errs = []
    for name, first in rounds[0].items():
        for other in rounds[1:]:
            if other[name].hashes != first.hashes:
                errs.append(f"{name}: CSV bytes differ between runs with the "
                            "same seed")
    return errs


def round_totals(results: dict) -> tuple:
    return (sum(r.wall_s for r in results.values()),
            max(r.rss_mb for r in results.values()))


def layer_metrics(workload, traced: dict, alloc_round: dict,
                  untraced_wall: float, setup_s: float) -> dict:
    """Per-module figures of one traced round, summed over its commands.

    Allocation peaks come from the tracemalloc round alloc_round.
    """
    mods, funcs, counters = {}, {}, {}
    alloc = {"trajectory": 0, "metrics": 0}
    cli_cpu = 0.0
    for res in [*traced.values(), *alloc_round.values()]:
        if res.trace is None:
            raise RuntimeError(f"no trace written by {res.out_dir.name}")
    for res in alloc_round.values():
        for layer, peak in res.trace["alloc_peak_bytes"].items():
            alloc[layer] = max(alloc[layer], peak)
    for res in traced.values():
        tr = res.trace
        cli_cpu += tr["cli_cpu_s"]
        for name, agg in tr["modules"].items():
            into = mods.setdefault(name, {})
            for key, value in agg.items():
                into[key] = into.get(key, 0) + value
        for name, agg in tr["functions"].items():
            funcs[name] = funcs.get(name, 0) + agg[0]
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def mod(name, key):
        return mods.get(name, {}).get(key, 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    wall = sum(r.wall_s for r in traced.values())
    self_sum = sum(m["self_s"] for m in mods.values())
    steps = counters["trajectory.steps"]
    samples = counters["metrics.tick_samples"]
    out_bytes = counters["output.bytes"]
    requested = 2 * workload.tick_samples_requested  # two clocks
    return {
        "model.busy_s": mod("model", "busy_s"),
        "model.self_s": mod("model", "self_s"),
        "model.calls": mod("model", "calls"),
        "steadystate.busy_s": mod("steadystate", "busy_s"),
        "steadystate.self_s": mod("steadystate", "self_s"),
        "steadystate.lyapunov_calls": funcs.get(
            "steadystate.solve_lyapunov", 0),
        "trajectory.busy_s": mod("trajectory", "busy_s"),
        "trajectory.self_s": mod("trajectory", "self_s"),
        "trajectory.wait_s": mod("trajectory", "wait_s"),
        "trajectory.steps": steps,
        "trajectory.steps_per_s": rate(steps, mod("trajectory", "busy_s")),
        "trajectory.result_mb": counters["trajectory.result_bytes"] / MB,
        "trajectory.alloc_peak_mb": alloc["trajectory"] / MB,
        "metrics.busy_s": mod("metrics", "busy_s"),
        "metrics.self_s": mod("metrics", "self_s"),
        "metrics.ticks_s": mod("metrics", "tick_s"),
        "metrics.ticks": counters["metrics.ticks"],
        "metrics.tick_samples_per_s": rate(samples, mod("metrics", "tick_s")),
        "metrics.tick_samples_used_ratio": rate(samples, requested),
        "metrics.reduce_s": mod("metrics", "reduce_s"),
        "metrics.spectrum_s": mod("metrics", "spectrum_s"),
        "metrics.alloc_peak_mb": alloc["metrics"] / MB,
        "experiments.busy_s": mod("experiments", "busy_s"),
        "experiments.self_s": mod("experiments", "self_s"),
        "output.write_s": mod("output", "busy_s"),
        "output.self_s": mod("output", "self_s"),
        "output.bytes": out_bytes,
        "output.mb_per_s": rate(out_bytes / MB, mod("output", "busy_s")),
        "cli.self_s": mod("cli", "self_s"),
        "cli.cpu_s": cli_cpu,
        "trace.wall_s": wall,
        "trace.alloc_wall_s": sum(r.wall_s for r in alloc_round.values()),
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.setup_s": setup_s,
        "trace.self_sum_s": self_sum,
        "trace.unaccounted_s": wall - len(traced) * setup_s - self_sum,
    }


PER_LAYER_UNITS = {"calls": "count", "lyapunov_calls": "count",
                   "steps": "count", "ticks": "count", "bytes": "bytes",
                   "steps_per_s": "1/s", "tick_samples_per_s": "1/s",
                   "tick_samples_used_ratio": "ratio", "mb_per_s": "MB/s",
                   "result_mb": "MB", "alloc_peak_mb": "MB"}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS.get(name.split(".", 1)[1], "s")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env, setup_s: float, scratch: Path) -> dict:
    workload = workloads.build(name, seed)
    rounds, traced_rounds, alloc_rounds = [], [], []
    t0 = time.perf_counter()
    while True:
        idx = len(rounds)
        rounds.append(run_round(workload, scratch / f"{name}-r{idx}", env,
                                None))
        if trace:
            traced_rounds.append(run_round(
                workload, scratch / f"{name}-t{idx}", env, "time"))
            alloc_rounds.append(run_round(
                workload, scratch / f"{name}-a{idx}", env, "alloc"))
        if time.perf_counter() - t0 >= seconds:
            break

    errs = check_outputs(workload, rounds[0])
    every = rounds + traced_rounds + alloc_rounds
    if len(every) == 1:
        cmd = next(c for c in workload.commands
                   if c.name == workload.determinism_command)
        again_dir = scratch / f"{name}-again"
        again = run_process([*cmd.argv, "--out", str(again_dir)], again_dir,
                            env)
        errs += check_determinism([{cmd.name: rounds[0][cmd.name]},
                                   {cmd.name: again}])
    else:
        errs += check_determinism(every)

    attempted = sum(len(r) for r in every)
    failed = sum(res.code != 0 for r in every for res in r.values())
    walls = [round_totals(r)[0] for r in rounds]
    if trace:
        per_round = [layer_metrics(workload, tr, al, wall, setup_s)
                     for tr, al, wall in zip(traced_rounds, alloc_rounds,
                                             walls)]
        metrics = {key: {"value": statistics.median(m[key] for m in per_round),
                         "unit": unit_of(key)} for key in per_round[0]}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                round_totals(r)[1] for r in rounds), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    for err in errs:
        print(f"CHECK FAILED [{name}]: {err}", file=sys.stderr)
    summary = {"workload": name, "seed": seed, "rounds": len(rounds),
               "round_wall_s": walls,
               "commands": {c: [r[c].wall_s for r in rounds]
                            for c in rounds[0]},
               "errors": errs, "correct": not errs, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    if trace:
        summary["traces"] = {c: r.trace for c, r in traced_rounds[0].items()}
    return summary


def describe(summary: dict) -> str:
    parts = [f"{summary['workload']:<18}"]
    parts += [f"{k} {v['value']:.6g} {v['unit']}"
              for k, v in summary["metrics"].items()]
    parts.append(f"attempted {summary['attempted']} failed "
                 f"{summary['failed']} rounds {summary['rounds']} "
                 f"correct {summary['correct']}")
    return "  ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be in [0, 2**64)")
    if not (ROOT / "src" / "clocksync" / "__init__.py").is_file():
        print(f"no clocksync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    scratch = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        try:
            setup_s = measure_setup(env, scratch)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 3
        names = (list(workloads.BUILDERS) if args.workload == "all"
                 else [args.workload])
        summaries = [run_workload(n, args.seed, args.seconds,
                                  bool(args.trace), env, setup_s, scratch)
                     for n in names]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for s in summaries:
        (WORK_DIR / f"last-{s['workload']}-trace{args.trace}.json").write_text(
            json.dumps(s, indent=1, sort_keys=True, default=str))
        print(describe(s))
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
