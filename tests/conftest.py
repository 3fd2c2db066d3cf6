import os
import subprocess
import sys

import numpy as np
import pytest


def block_standard_error(series, n_blocks=16):
    """Standard error of the mean of a correlated series via blocking."""
    series = np.asarray(series)
    usable = (len(series) // n_blocks) * n_blocks
    blocks = series[:usable].reshape(n_blocks, -1).mean(axis=1)
    return float(blocks.std(ddof=1) / np.sqrt(n_blocks))


def read_csv(path):
    """Read back a CSV written by clocksync.output.write_csv:
    (header, list of rows)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


def run_python(code, **env):
    """stdout of ``code`` run in a fresh interpreter that imports this
    clocksync, with ``env`` added to the environment."""
    import clocksync
    src = os.path.dirname(os.path.dirname(clocksync.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def chunk_steps(monkeypatch, steps, members):
    """Make the engine step ``members`` trajectories ``steps`` at a time."""
    from clocksync import trajectory
    monkeypatch.setattr(trajectory, "_CHUNK_MEMBER_STEPS", steps * members)


def quench_record(dyn, n, duration, dt, master_seed):
    """(n, n_stored, 2) states of a seeded quench ensemble, members keyed
    as in ``run_ensemble``, stored by ``record_states``."""
    from clocksync.trajectory import (derived_seed, record_states,
                                      stored_states)
    seeds = [derived_seed(master_seed, i) for i in range(n)]
    return record_states(stored_states(dyn, seeds, duration, dt))[1]


def moments_of(block):
    """``EnsembleMoments`` of a (members, times, 2) block, fed as one."""
    from clocksync.metrics import EnsembleMoments
    moments = EnsembleMoments(block.shape[1])
    moments.update(block)
    return moments


def r_squared(x, y):
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = np.asarray(x)[keep], np.asarray(y)[keep]
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return 1.0 - resid.var() / y.var()


def random_stable_system(rng, n, complex_valued=False):
    """Random strictly stable drift and PSD diffusion of size n."""
    if complex_valued:
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(A).real)
    A -= (shift + rng.uniform(0.2, 2.0)) * np.eye(n)
    D = B @ B.conj().T
    return A, D


@pytest.fixture(scope="session")
def paper():
    from clocksync import paper_preset
    return paper_preset()
