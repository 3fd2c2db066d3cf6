"""Stochastic trajectories of the reduced (rotating-frame) model.

All time stepping happens in the two-mode envelope picture: the rates
there are at most a few kHz, so microsecond steps suffice, versus the
~10 ns the cavity-resolved model would need.  The full 6x6 model is only
ever exercised through Lyapunov algebra, never time stepped.

One engine, ``stored_states``, steps a batch of members side by side
with the exact OU discretization (Gillespie, Phys. Rev. E 54, 2084,
1996): z <- F z + S zeta with F = e^(A dt) and
S S^H = V_inf - F V_inf F^H, statistically exact for any dt, F in
closed form (``_expm2``).  A map that is not finite, or whose noise
covariance rounding has made indefinite (a step too short for float64),
and a record of more than MAX_RECORD_STEPS steps are a ConfigError, a
map of spectral radius >= 1 a StabilityError, before any noise is drawn.
The members share one dynamics, each with its own Philox key.  No Python
loop runs per time step: over a chunk of m steps, one member's states
interleaved as (z1_0, z2_0, z1_1, z2_1, ...) solve a unit
lower-triangular banded system of bandwidth 3, whose subdiagonals hold
the entries of -F and whose right-hand side is the noise S zeta written
after the carry state (z1_0, z2_0), the previous chunk's last state.
One LAPACK banded triangular solve (``ztbtrs``, from scipy's compiled
wrapper loaded alone by ``_lapack`` on the first chunk, without the
``scipy.linalg`` package) steps every member of the chunk, each a
right-hand side, so chunk boundaries go through the same arithmetic as
every other step.  A chunk of B members runs
``_CHUNK_MEMBER_STEPS // (B + 4)`` steps, and always at least one, or a
``share``-th of that when calls stepping at once divide the budget.

``stored_states`` hands the stream of states to a consumer block by
block; ``propagate_exact`` and ``run_ensemble`` fill it into one
(members, times, 2) array, a row per seed, and return ``Trajectory``
views of it.  A consumer that reduces each block as it comes (a sweep
point's C, D and N, the R(t) and fluxes of each member group of a
quench, the ``trajectory`` command's CSV and spectra) needs memory for
about one chunk, not for the record.  Stepping the same dynamics and
keys again gives the same states, so a consumer that needs two passes
steps twice.

Before stepping, the common rotation of the drift (frequency mismatch
midpoint plus optical-spring shift) is moved into the carrier, so the
integrated envelopes are as slow as possible; the carrier actually used
is recorded as ``Trajectory.reference_frequency``.

Every member starts at z0 = L zeta, zeta a pair of unit complex normals:
a quench in the NESS of the uncoupled model, L = diag(sqrt(nth_i + 1/2)),
a NESS record in the NESS of its own dynamics, L = V_inf^(1/2).

Reproducibility: trajectory i of an ensemble with master seed m draws
from a Philox counter-based generator keyed with m * 2^64 + i: first the
4 standard normals of zeta, then 4 per step (real/imaginary pairs for
the two modes).  A member's states depend only on its dynamics and key,
not on the rest of its batch or on the chunk size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FrameMismatchError, StabilityError
from .model import FRAME_REDUCED, LinearDynamics
from .steadystate import solve_lyapunov

DEFAULT_DT = 1e-5
DEFAULT_DURATION = 10.0
# A chunk of B members runs _CHUNK_MEMBER_STEPS // (B + 4) steps, so its
# noise, its solved states and the band stay at 1-3 MB whatever the
# batch: per step the band (4 x 2 entries) costs as much as 4 members'
# states.  One member steps 6553 steps per chunk and 64 members 481, or
# 160 with a third of the budget each (a quench's two groups in flight).
_CHUNK_MEMBER_STEPS = 2 ** 15
# Every record has at most this many steps: past it (inf and nan too),
# ``stored_states`` raises ConfigError before any noise is drawn, not a
# MemoryError or hours of stepping (one member steps 2^25 steps in about
# 10 s).  At the bound a tick record's D window takes a few GB, as does a
# kept one-member record, and ``trajectory``'s Welch segment 2^22 samples.
MAX_RECORD_STEPS = 2 ** 25


@dataclass(frozen=True)
class Trajectory:
    """One realization of the two envelope processes.

    times is the uniform sample grid (s), dt its step; b1, b2 are the
    complex envelopes.  The displacement of clock i is
    x_i(t) = sqrt(2) Re[b_i(t) exp(-i reference_frequency t)].
    """

    times: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    dt: float
    reference_frequency: float


def displacements(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the displacement records x1(t), x2(t)."""
    phase = np.exp(-1j * traj.reference_frequency * traj.times)
    x1 = np.sqrt(2.0) * np.real(traj.b1 * phase)
    x2 = np.sqrt(2.0) * np.real(traj.b2 * phase)
    return x1, x2


def recentered(dyn: LinearDynamics) -> tuple[np.ndarray, float]:
    """Shift the common rotation into the carrier.

    Returns (drift', carrier) with drift' = drift + i c I and
    carrier = reference_frequency + c, c = Re(tr(i drift))/2.
    """
    if dyn.frame != FRAME_REDUCED:
        raise FrameMismatchError(
            "time stepping is only supported for reduced-rotating dynamics")
    c = float(np.real(np.trace(1j * dyn.drift)) / 2.0)
    drift = dyn.drift + 1j * c * np.eye(2)
    return drift, dyn.reference_frequency + c


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigh; tiny negative eigs clipped."""
    w, U = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    floor = -1e-10 * max(np.max(np.abs(w)), 1.0)
    if np.min(w) < floor:
        raise ValueError(f"matrix is not PSD (min eig {np.min(w):.3e})")
    return U * np.sqrt(np.clip(w, 0.0, None))


def derived_seed(master_seed: int, index: int) -> int:
    """Per-trajectory Philox key: master_seed * 2^64 + index."""
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError("master seed must fit in 64 bits")
    return (int(master_seed) << 64) + int(index)


def _banded_blocks(F, R, z, n_steps, rngs, share):
    """Step z <- F z + R zeta (R = S / sqrt(2), zeta the complex view of
    4 normals per member and step) in chunks of a share-th of the chunk
    budget; yields the states after each step in (B, m, 2) blocks.  In a
    chunk's banded system the row of z1_n reads
    z1_n - F00 z1_{n-1} - F01 z2_{n-1} = u1_{n-1}, that of z2_n
    z2_n - F10 z1_{n-1} - F11 z2_{n-1} = u2_{n-1}, with u = R zeta, and
    the carry rows are identities.  Chunked draws from one generator are
    bit-identical to one large draw, every step takes the same arithmetic
    and members are independent right-hand sides, so states depend
    neither on the chunk size nor on the rest of the batch.

    No complex product writes into memory that one of its operands
    occupies: numpy computes such a product in a scalar loop that rounds
    differently from its vector loop, and whether it counts as
    overlapping depends on the chunk's shape.  So the normals, a scratch
    row and the solved states are three buffers; the first two are
    allocated once, the states afresh per chunk, since the yielded block
    is a view of them.
    """
    from ._lapack import ztbtrs  # loads scipy's LAPACK wrapper once
    B = len(rngs)
    chunk = max(1, min(n_steps, _CHUNK_MEMBER_STEPS // share // (B + 4)))
    # band row r, column j: the coefficient of state j in row j + r.
    # z1_n (even j) enters the rows of z1_{n+1} and z2_{n+1} at r = 2, 3,
    # z2_n (odd j) at r = 1, 2
    band = np.zeros((4, 2 * chunk + 2), dtype=complex, order="F")
    band[1, 1::2] = -F[0, 1]
    band[2, 0::2], band[2, 1::2] = -F[0, 0], -F[1, 1]
    band[3, 0::2] = -F[1, 0]
    normals = np.empty(4 * B * chunk)
    scratch = np.empty(B * chunk, dtype=complex)
    for k in range(0, n_steps, chunk):
        m = min(chunk, n_steps - k)
        noise = normals[:4 * B * m].reshape(B, m, 4)
        for b, rng in enumerate(rngs):
            rng.standard_normal(out=noise[b])
        # the complex view pairs (re, im) like n[..., 0::2] + 1j n[..., 1::2]
        zeta = noise.view(np.complex128)
        part = scratch[:B * m].reshape(B, m)
        states = np.empty((B, 2 * m + 2), dtype=complex)
        states[:, :2] = z
        # steps 1..m: the noise u = R zeta, then the states
        block = states[:, 2:].reshape(B, m, 2)
        for i in (0, 1):
            np.multiply(zeta[..., 0], R[i, 0], out=block[..., i])
            np.multiply(zeta[..., 1], R[i, 1], out=part)
            block[..., i] += part
        ztbtrs(band[:, :2 * m + 2], states.T, uplo="L", diag="U",
               overwrite_b=1)
        z = block[:, -1].copy()
        if not np.all(np.isfinite(z)):
            raise StabilityError("trajectory diverged (non-finite samples)")
        yield block


def _expm2(M: np.ndarray) -> np.ndarray:
    """e^M of a 2x2 matrix: with m = tr M / 2, N = M - m I and
    s = sqrt(N00^2 + N01 N10), Re s >= 0, e^m [cosh(s) I + sinh(s)/s N]
    written as e^(m+s) [(1 - d/2) I + d/(2s) N], d = 1 - e^(-2s), whose
    bracket stays finite where e^m cosh(s) of a long, stable step is
    0 x inf.  d/(2s) is 1 at s = 0 (coalesced eigenvalues)."""
    m = (M[0, 0] + M[1, 1]) / 2
    N = M - m * np.eye(2)
    s = np.sqrt(N[0, 0] ** 2 + N[0, 1] * N[1, 0])
    d = -np.expm1(-2 * s)
    return np.exp(m + s) * ((1 - d / 2) * np.eye(2)
                            + (d / (2 * s) if s else 1.0) * N)


def _build_exact_map(dyn: LinearDynamics, dt: float):
    """One-step map (F, S), carrier and stationary covariance V_inf;
    ConfigError if F is not finite or the noise covariance
    V_inf - F V_inf F^H is not PSD, StabilityError if F's spectral
    radius is >= 1."""
    drift_r, carrier = recentered(dyn)
    # V_inf is invariant under the recentering (i c I drops from A V + V A^H)
    Vinf = solve_lyapunov(drift_r, dyn.diffusion)
    with np.errstate(all="ignore"):  # a map that overflows fails below
        F = _expm2(drift_r * dt)
    if not np.all(np.isfinite(F)):
        raise ConfigError(f"one-step map of dt = {dt:g} s is not finite")
    radius = float(np.max(np.abs(np.linalg.eigvals(F))))
    if not radius < 1.0:
        raise StabilityError(f"one-step map is expansive: spectral radius "
                             f"{radius:.17g} >= 1")
    try:  # below about dt = 1e-17 s, Q is lost to cancellation
        S = _psd_sqrt(Vinf - F @ Vinf @ F.conj().T)
    except ValueError as exc:
        raise ConfigError(f"step of dt = {dt:g} s is too short for "
                          f"float64: its noise {exc}") from exc
    return F, S, carrier, Vinf


def stored_states(dyn: LinearDynamics, seeds, duration: float,
                  dt: float = DEFAULT_DT, quench: bool = True,
                  share: int = 1):
    """Members j = 0..B-1 of one dynamics, member j keyed seeds[j], over
    round(duration / dt) steps, in chunks of 1/share of the budget.

    Each member starts at z0 = L zeta, zeta from its first 4 normals.
    With ``quench`` the start is the uncoupled thermal state, which is
    the NESS of the uncoupled model: L = diag(sqrt(nth_i + 1/2)).
    Otherwise it is the NESS of dyn: L = V_inf^(1/2).

    Returns (carrier, n_stored, parts): parts yields (B, m, 2) blocks of
    the states in time order, the initial state first, then the state
    after each step.  Blocks from step chunks are views, so a consumer
    that reduces them as they come holds one chunk at a time.
    ConfigError past MAX_RECORD_STEPS steps, before any noise is drawn.
    """
    F, S, carrier, Vinf = _build_exact_map(dyn, dt)
    if not duration / dt <= MAX_RECORD_STEPS:
        raise ConfigError(f"record of {duration / dt:.4g} steps of dt = "
                          f"{dt:g} s exceeds {MAX_RECORD_STEPS}")
    rngs = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
    p = dyn.params
    L = (np.diag(np.sqrt([p.nth1 + 0.5, p.nth2 + 0.5])) if quench
         else _psd_sqrt(Vinf))
    z0 = np.stack([L @ (r.standard_normal(4).view(complex) / np.sqrt(2.0))
                   for r in rngs])
    n_steps = int(round(duration / dt))
    blocks = _banded_blocks(F, S / np.sqrt(2.0), z0, n_steps, rngs, share)
    return carrier, n_steps + 1, itertools.chain([z0[:, None]], blocks)


def _record(states, dt: float) -> list[Trajectory]:
    """One ``Trajectory`` per member of a ``stored_states`` stream of step
    dt, the stream filled into one (members, n_stored, 2) record, one row
    per seed (the member count is that of its first block): one shared
    times array, b1 and b2 views into the record."""
    carrier, n_stored, parts = states
    filled = 0
    for part in parts:
        if not filled:
            out = np.empty((len(part), n_stored, 2), dtype=complex)
        out[:, filled:filled + part.shape[1]] = part
        filled += part.shape[1]
    times = dt * np.arange(n_stored)
    return [Trajectory(times=times, b1=b[:, 0], b2=b[:, 1], dt=dt,
                       reference_frequency=carrier) for b in out]


def propagate_exact(dyn: LinearDynamics, duration: float, dt: float = DEFAULT_DT,
                    seed: int = 0) -> Trajectory:
    """Exact discrete-time OU update, statistically exact for any dt.

    state <- e^(A dt) state + xi with cov(xi) = V_inf - F V_inf F^H,
    from a quench start z0 = diag(sqrt(nth_i + 1/2)) zeta.  With zero
    diffusion this reduces to the matrix-exponential flow from z0.
    """
    return _record(stored_states(dyn, [seed], duration, dt), dt)[0]


def run_ensemble(dyn: LinearDynamics, n_traj: int, duration: float,
                 dt: float = DEFAULT_DT, master_seed: int = 0,
                 quench: bool = True) -> list[Trajectory]:
    """Seeded ensemble of independent trajectories, ordered by index.

    Members start as in ``stored_states``: in the uncoupled (G = 0)
    thermal state with ``quench`` (the default protocol), in the NESS of
    the coupled dynamics otherwise.  Trajectory i uses the derived seed
    master_seed * 2^64 + i, so ``run_ensemble(..., n_traj=1)`` is
    bit-identical to ``propagate_exact`` called with that derived seed.
    The whole record is kept; ``stored_states`` streams it instead.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    seeds = [derived_seed(master_seed, i) for i in range(n_traj)]
    return _record(stored_states(dyn, seeds, duration, dt, quench=quench), dt)
