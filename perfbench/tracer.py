"""Run one clocksync command with spans around each module's public functions.

Usage: python3 perfbench/tracer.py TRACE_JSON [--alloc] -- <clocksync arguments>

The package must be importable (run.py sets PYTHONPATH to the checkout's
src/).  Every public function of model, steadystate, trajectory, metrics,
experiments and output is wrapped at each place a caller looks it up: in
its own module, in every clocksync module that imported it by name and in
the package namespace.  The command itself runs inside one ``cli`` span.
Spans are kept per thread, because ``sweep_coupling`` runs sweep points on
a thread pool; a span's self time is its duration minus the time its child
spans on the same thread cover.  Aggregates are written to TRACE_JSON when
the command ends; the process exits with the command's exit code.

With --alloc, tracemalloc also runs inside the outermost trajectory and
metrics spans and their allocation peaks are recorded.  tracemalloc
slows every allocation, several-fold in the per-step loops, so timings
from an --alloc run are not reported; run.py takes them from a run
without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
import tracemalloc

MODULES = ("model", "steadystate", "trajectory", "metrics", "experiments",
           "output")
# Per-cell helpers: called millions of times on a long record, where a span
# each would cost more than the work it measures.
NOT_WRAPPED = {"output.format_cell"}
# Layers whose allocation peak is taken with tracemalloc inside their spans.
ALLOC_LAYERS = ("trajectory", "metrics")
TICK_FUNCS = {"extract_ticks", "clock_stats"}
REDUCE_FUNCS = {"transient_correlation", "transient_entropy_flux",
                "transient_time"}
SPECTRUM_FUNCS = {"power_spectrum"}
STEP_FUNCS = {"simulate", "propagate_exact", "run_ensemble"}
WRITE_FUNCS = {"write_csv", "write_json", "write_svg"}


def _array_bytes(result) -> int:
    """Bytes of the arrays held by a Trajectory or a list of them."""
    items = result if isinstance(result, list) else [result]
    seen, total = set(), 0
    for tr in items:
        for arr in (getattr(tr, "times", None), getattr(tr, "b1", None),
                    getattr(tr, "b2", None)):
            if arr is not None and id(arr) not in seen:
                seen.add(id(arr))
                total += arr.nbytes
    return total


class Tracer:
    """Per-thread span stacks, aggregated per module and function."""

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.local = threading.local()
        self.lock = threading.Lock()
        self.funcs = {}      # "module.func" -> [calls, total_s, self_s]
        self.modules = {}    # module -> {"busy_s", "self_s", "calls", ...}
        self.counters = {"trajectory.steps": 0, "trajectory.result_bytes": 0,
                         "metrics.ticks": 0, "metrics.tick_samples": 0,
                         "output.bytes": 0}
        self.alloc_peak = {layer: 0 for layer in ALLOC_LAYERS}
        self.mem_depth = 0
        self.mem_layers = set()

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _module(self, name):
        mod = self.modules.get(name)
        if mod is None:
            mod = self.modules[name] = {"busy_s": 0.0, "self_s": 0.0,
                                        "calls": 0, "wait_s": 0.0,
                                        "tick_s": 0.0, "reduce_s": 0.0,
                                        "spectrum_s": 0.0}
        return mod

    def _mem_enter(self, layer):
        with self.lock:
            if self.mem_depth == 0:
                tracemalloc.start()
                self.mem_layers = set()
            self.mem_depth += 1
            self.mem_layers.add(layer)

    def _mem_exit(self):
        with self.lock:
            self.mem_depth -= 1
            if self.mem_depth == 0:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                for layer in self.mem_layers:
                    self.alloc_peak[layer] = max(self.alloc_peak[layer], peak)

    def call(self, module, name, fn, args, kwargs):
        stack = self._stack()
        outermost = all(frame[0] != module for frame in stack)
        frame = [module, 0.0]  # module, time covered by child spans
        track_mem = self.alloc and outermost and module in ALLOC_LAYERS
        if track_mem:
            self._mem_enter(module)
        stack.append(frame)
        thread0 = time.thread_time() if outermost else 0.0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            thread_dur = time.thread_time() - thread0 if outermost else 0.0
            stack.pop()
            if track_mem:
                self._mem_exit()
            if stack:
                stack[-1][1] += dur
            self._record(module, name, dur, dur - frame[1], outermost,
                         thread_dur)
        self._count(module, name, fn, args, kwargs, result)
        return result

    def _record(self, module, name, dur, self_dur, outermost, thread_dur):
        with self.lock:
            key = f"{module}.{name}"
            agg = self.funcs.setdefault(key, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_dur
            mod = self._module(module)
            mod["calls"] += 1
            mod["self_s"] += self_dur
            if outermost:
                mod["busy_s"] += dur
                mod["wait_s"] += max(dur - thread_dur, 0.0)
            if name in TICK_FUNCS:
                mod["tick_s"] += dur
            elif name in REDUCE_FUNCS:
                mod["reduce_s"] += dur
            elif name in SPECTRUM_FUNCS:
                mod["spectrum_s"] += dur

    def _count(self, module, name, fn, args, kwargs, result):
        if module == "trajectory" and name in STEP_FUNCS:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            steps = int(round(a["duration"] / a["dt"])) * a.get("n_traj", 1)
            with self.lock:
                self.counters["trajectory.steps"] += steps
                self.counters["trajectory.result_bytes"] += _array_bytes(result)
        elif module == "metrics" and name == "extract_ticks":
            traj = args[0] if args else kwargs["traj"]
            with self.lock:
                self.counters["metrics.ticks"] += len(result.tick_times)
                self.counters["metrics.tick_samples"] += len(traj.times)
        elif module == "output" and name in WRITE_FUNCS:
            path = args[0] if args else kwargs["path"]
            with self.lock:
                self.counters["output.bytes"] += os.path.getsize(path)

    def wrap(self, module, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(module, name, fn, args, kwargs)
        return traced

    def install(self):
        """Replace each public function wherever a clocksync module holds it."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"clocksync.{short}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and f"{short}.{name}" not in NOT_WRAPPED):
                    wrappers[id(fn)] = self.wrap(short, name, fn)
        holders = [m for n, m in sys.modules.items()
                   if n == "clocksync" or n.startswith("clocksync.")]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(holder, name, wrapper)

    def run_cli(self, argv):
        """Run the command inside the cli span; returns (exit code, summary)."""
        from clocksync import cli
        stack = self._stack()
        frame = ["cli", 0.0]
        stack.append(frame)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        finally:
            dur = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            stack.pop()
        self._record("cli", "run", dur, dur - frame[1], True, dur)
        summary = {"cli_s": dur, "cli_cpu_s": cpu, "modules": self.modules,
                   "functions": self.funcs, "counters": self.counters,
                   "alloc_peak_bytes": self.alloc_peak}
        return code, summary


def main(argv):
    alloc = len(argv) > 1 and argv[1] == "--alloc"
    rest = argv[2:] if alloc else argv[1:]
    if not rest or rest[0] != "--":
        sys.stderr.write("usage: tracer.py TRACE_JSON [--alloc] -- ARGS...\n")
        return 2
    import clocksync.cli  # noqa: F401  (import before wrapping, as a user's run does)
    tracer = Tracer(alloc)
    tracer.install()
    code, summary = tracer.run_cli(rest[1:])
    summary["exit_code"] = code
    with open(argv[0], "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
