"""Stochastic trajectories of the reduced (rotating-frame) model.

All time stepping happens in the two-mode envelope picture: the rates
there are at most a few kHz, so microsecond steps suffice, versus the
~10 ns the cavity-resolved model would need.  The full 6x6 model is only
ever exercised through Lyapunov algebra, never time stepped.

One engine, ``stored_states``, steps a batch of members side by side
with the exact OU discretization (Gillespie, Phys. Rev. E 54, 2084,
1996): z <- F z + S zeta with F = expm(A dt) and
S S^H = V_inf - F V_inf F^H, statistically exact for any dt.  The
members share one dynamics, each with its own Philox key.  No Python
loop runs per time step: the map is factored once into complex Schur form F = Q T Q^H
(Golub & Van Loan, Matrix Computations, 7.1), the noise is mapped
straight into the Schur basis with Q^H S, and the upper-triangular T
turns the update into two scalar first-order recurrences per member.
Over a chunk of steps each recurrence is a unit lower-bidiagonal system,
solved by one LAPACK banded triangular solve (``ztbtrs``) with every
member a right-hand side of the same call.  Each Schur-basis
buffer leads with a carry column holding the previous chunk's last
state, so chunk boundaries go through the same arithmetic as every other
step; Q rotates each chunk back.  A chunk holds at most
``_CHUNK_MEMBER_STEPS`` member-steps, and always at least one step.

``stored_states`` hands the stream of states to a consumer block by
block; ``record_states``, ``propagate_exact`` and ``run_ensemble``
collect the same stream into whole records.  A consumer that reduces
each block as it comes (a sweep point's C, D and N, a quench's R(t) and
fluxes) needs memory for about one chunk, not for the record.

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
import scipy.linalg as sla
from scipy.linalg.lapack import ztbtrs

from .errors import FrameMismatchError, StabilityError
from .model import FRAME_REDUCED, LinearDynamics
from .steadystate import solve_lyapunov

DEFAULT_DT = 1e-5
DEFAULT_DURATION = 10.0
# A chunk of B members runs _CHUNK_MEMBER_STEPS // B steps, so the arrays
# live while one is built stay at a few MB whatever the batch.
_CHUNK_MEMBER_STEPS = 2 ** 15


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


def _recentered(dyn: LinearDynamics) -> tuple[np.ndarray, float]:
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


def _gaussian_initial(L: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw b(0) = L zeta with covariance L L^H (4 normals)."""
    return L @ (rng.standard_normal(4).view(complex) / np.sqrt(2.0))


def _iterate_blocks(F: np.ndarray, S: np.ndarray, z0: np.ndarray,
                    n_steps: int, rngs: list):
    """Propagate z <- F z + S zeta; returns a generator of state blocks.

    Every member steps under the same (2, 2) map.  It is factored once,
    F = Q T Q^H (complex Schur form), and the states are stepped in the
    Schur basis w = Q^H z, where the triangular map is two scalar
    recurrences: w2 <- t22 w2 + u2, then
    w1 <- t11 w1 + t12 w2(previous) + u1, with u = Q^H S zeta.  Over a
    chunk of m steps each component is a (B, m+1) buffer: column 0
    carries the previous chunk's last state, columns 1..m receive u
    (plus the t12 term), and one banded triangular solve (``_recur``)
    runs the recurrence through them in place.  Raises StabilityError on
    the call, before any noise is drawn, when the spectral radius
    max|t_ii| is >= 1.

    The generator yields the states after each step in (B, m, 2) blocks,
    in time order (the initial state is not yielded).  Noise is drawn per
    member in chunks of steps; chunked draws from one generator are
    bit-identical to a single large draw, every step (the first of a
    chunk included) takes the same solve and elementwise arithmetic, and
    the members are independent right-hand sides of each solve, so states
    depend neither on the chunk size nor on the rest of the batch.
    """
    T, Q = sla.schur(F, output="complex")
    radius = float(np.max(np.abs(np.diag(T))))
    if not radius < 1.0:
        raise StabilityError(f"one-step map is expansive: spectral radius "
                             f"{radius:.17g} >= 1")
    Qh = Q.conj().T
    # noise lands in the Schur basis: u = R n, n = normals, R = Q^H S/sqrt 2
    R = Qh @ S / np.sqrt(2.0)
    z1, z2 = z0[:, :1], z0[:, 1:]
    w1 = Qh[0, 0] * z1 + Qh[0, 1] * z2
    w2 = Qh[1, 0] * z1 + Qh[1, 1] * z2
    return _schur_blocks(T, Q, R, w1, w2, n_steps, rngs)


def _recur(t, v, band):
    """v[j, n] += t v[j, n-1] for n = 1, 2, ... in place (column 0 is
    the carry).  Each row is a unit lower-bidiagonal system with
    subdiagonal -t; all rows are right-hand sides of one ztbtrs call in
    the Fortran-ordered (2, >= n) ``band``.  v must be C-contiguous, so
    that v.T reaches LAPACK without a copy.
    """
    band = band[:, :v.shape[1]]
    band[1] = -t
    ztbtrs(band, v.T, uplo="L", diag="U", overwrite_b=1)


def _schur_blocks(T, Q, R, w1, w2, n_steps, rngs):
    """The chunk loop of ``_iterate_blocks``, from Schur-basis state w.

    No complex product writes into memory that one of its operands
    occupies.  numpy computes such a product in a scalar loop that rounds
    differently from its vector loop, and whether it counts as
    overlapping depends on the chunk's shape: in place it does for one
    member and one step only, between the interleaved z1 and z2 for any
    longer chunk.  Products that would overlap go through the scratch
    rows x instead.
    """
    B = len(rngs)
    chunk = max(1, min(n_steps, _CHUNK_MEMBER_STEPS // B))
    # the two Schur-basis components of every chunk, carry column first,
    # and the scratch rows are carved from one buffer, each C-contiguous
    work = np.empty(3 * B * (chunk + 1), dtype=complex)
    band = np.ones((2, chunk + 1), dtype=complex, order="F")
    for k in range(0, n_steps, chunk):
        m = min(chunk, n_steps - k)
        noise = np.empty((B, m, 4))
        for b, rng in enumerate(rngs):
            rng.standard_normal(out=noise[b])
        # the complex view pairs (re, im) like n[..., 0::2] + 1j n[..., 1::2];
        # it is worked in place and becomes the yielded block
        block = noise.view(np.complex128)
        z1, z2 = block[..., 0], block[..., 1]
        v1, v2, x = work[:3 * B * (m + 1)].reshape(3, B, m + 1)
        v1[:, :1], v2[:, :1] = w1, w2
        u1, u2 = v1[:, 1:], v2[:, 1:]  # steps 1..m: inputs, then states
        x = x[:, 1:]
        np.multiply(z1, R[1, 0], out=u2)
        np.multiply(z2, R[1, 1], out=u1)
        u2 += u1
        np.multiply(z1, R[0, 0], out=x)
        np.multiply(z2, R[0, 1], out=u1)
        u1 += x  # z1 and z2 are scratch from here on
        _recur(T[1, 1], v2, band)
        np.multiply(v2[:, :-1], T[0, 1], out=z2)
        u1 += z2
        _recur(T[0, 0], v1, band)
        w1, w2 = v1[:, -1:].copy(), v2[:, -1:].copy()
        # back to z = Q w, elementwise
        np.multiply(u1, Q[0, 0], out=z1)
        np.multiply(u2, Q[0, 1], out=z2)
        z1 += z2
        np.multiply(u1, Q[1, 0], out=z2)
        np.multiply(u2, Q[1, 1], out=x)
        z2 += x
        if not np.all(np.isfinite(block[:, -1])):
            raise StabilityError("trajectory diverged (non-finite samples)")
        yield block


def _build_exact_map(dyn: LinearDynamics, dt: float):
    """One-step map (F, S), carrier and stationary covariance V_inf."""
    drift_r, carrier = _recentered(dyn)
    # V_inf is invariant under the recentering (i c I drops from A V + V A^H)
    Vinf = solve_lyapunov(drift_r, dyn.diffusion)
    F = sla.expm(drift_r * dt)
    Q = Vinf - F @ Vinf @ F.conj().T
    S = _psd_sqrt(Q)
    return F, S, carrier, Vinf


def stored_states(dyn: LinearDynamics, seeds, duration: float,
                  dt: float = DEFAULT_DT, quench: bool = True):
    """Members j = 0..B-1 of one dynamics, member j keyed seeds[j], over
    round(duration / dt) steps.

    Each member starts at z0 = L zeta, zeta from its first 4 normals.
    With ``quench`` the start is the uncoupled thermal state, which is
    the NESS of the uncoupled model: L = diag(sqrt(nth_i + 1/2)).
    Otherwise it is the NESS of dyn: L = V_inf^(1/2).

    Returns (carrier, n_stored, parts): parts yields (B, m, 2) blocks of
    the states in time order, the initial state first, then the state
    after each step.  Blocks from step chunks are views, so a consumer
    that reduces them as they come holds one chunk at a time.
    """
    F, S, carrier, Vinf = _build_exact_map(dyn, dt)
    rngs = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
    p = dyn.params
    L = (np.diag(np.sqrt([p.nth1 + 0.5, p.nth2 + 0.5])) if quench
         else _psd_sqrt(Vinf))
    z0 = np.stack([_gaussian_initial(L, r) for r in rngs])
    n_steps = int(round(duration / dt))
    blocks = _iterate_blocks(F, S, z0, n_steps, rngs)
    return carrier, n_steps + 1, itertools.chain([z0[:, None]], blocks)


def record_states(states, n_traj: int) -> tuple[float, np.ndarray]:
    """(carrier, record): a ``stored_states`` stream of n_traj members
    filled into one (n_traj, n_stored, 2) array."""
    carrier, n_stored, parts = states
    out = np.empty((n_traj, n_stored, 2), dtype=complex)
    filled = 0
    for part in parts:
        out[:, filled:filled + part.shape[1]] = part
        filled += part.shape[1]
    return carrier, out


def _record(states, n_traj: int, dt: float) -> list[Trajectory]:
    """Store a ``stored_states`` stream of n_traj members and step dt;
    members share one times array, b1 and b2 are views into one record."""
    carrier, out = record_states(states, n_traj)
    times = dt * np.arange(out.shape[1])
    return [Trajectory(times=times, b1=out[i, :, 0], b2=out[i, :, 1],
                       dt=dt, reference_frequency=carrier)
            for i in range(n_traj)]


def propagate_exact(dyn: LinearDynamics, duration: float, dt: float = DEFAULT_DT,
                    seed: int = 0) -> Trajectory:
    """Exact discrete-time OU update, statistically exact for any dt.

    state <- expm(A dt) state + xi with cov(xi) = V_inf - F V_inf F^H,
    from a quench start z0 = diag(sqrt(nth_i + 1/2)) zeta.  With zero
    diffusion this reduces to the matrix-exponential flow from z0.
    """
    return _record(stored_states(dyn, [seed], duration, dt), 1, dt)[0]


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
    return _record(stored_states(dyn, seeds, duration, dt, quench=quench),
                   n_traj, dt)
