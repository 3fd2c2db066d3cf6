"""NESS second moments via the Lyapunov equation and entropy rates.

The total irreversible entropy production rate in the NESS decomposes
into per-bath flux contributions,

    Pi_s = gamma1 ((n_b1 + 1/2)/(nth1 + 1/2) - 1)
         + gamma2 ((n_b2 + 1/2)/(nth2 + 1/2) - 1)
         + 2 kappa n_a
         = mu_b1 + mu_b2 + mu_a,

where the n's are effective occupations in the steady state.  Red-detuned
operation cools the clocks (mu_b < 0) at the expense of a large positive
photonic flux mu_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError, LyapunovSolveError, StabilityError
from .model import (FRAME_FULL, FRAME_REDUCED, LinearDynamics, PhysicalParams,
                    sideband_weight, unstacked)

LYAPUNOV_RTOL = 1e-8


@dataclass(frozen=True)
class CovarianceState:
    """Effective occupations of a steady covariance.

    n_cross_eff is the phononic cross-correlation Re<b1† b2> (equal-time
    <x1 x2> in the lab frame).
    """

    n_b1_eff: float
    n_b2_eff: float
    n_a_eff: float
    n_cross_eff: float


@dataclass(frozen=True)
class EntropyRates:
    """Per-bath entropy flux rates and their NESS total (1/s)."""

    mu_b1: float
    mu_b2: float
    mu_a: float
    Pi_s: float


def solve_lyapunov(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve A V + V A^H + D = 0 for the stationary covariance V.

    A and D are matrices (n, n) or stacks (..., n, n) of them; V has the
    shape of A, one covariance per matrix.  Vectorized Kronecker solve,
    one LAPACK call for the whole stack; exact and cheap for the system
    sizes here (<= 6).  Each V is bit-identical to the solve of its
    matrix alone.  Every A must be strictly stable and every D symmetric
    (Hermitian) PSD.

    Raises
    ------
    StabilityError
        If any eigenvalue of A has non-negative real part.
    LyapunovSolveError
        If the Kronecker system is singular or the residual is not
        within 1e-8 * ||D|| (a nan residual included).

    In a stack, the error and its message are those of the first failing
    matrix in stack order, as its solve alone would raise them.
    """
    A = np.asarray(A)
    D = np.asarray(D)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or D.shape != A.shape:
        raise ValueError("A and D must be square matrices of equal size")
    n, stack = A.shape[-1], A.shape[:-2]
    A = A.reshape(-1, n, n)
    D = D.reshape(-1, n, n)
    eig_max = np.linalg.eigvals(A).real.max(axis=-1)
    # the first unstable matrix fails first: none after it is solved
    unstable = np.flatnonzero(eig_max >= 0)
    stop = unstable[0] if len(unstable) else len(A)
    A, D = A[:stop], D[:stop]

    # K = kron(A, I) + kron(I, conj(A)), the same products np.kron forms
    eye = np.eye(n)
    K = (A[:, :, None, :, None] * eye[None, :, None, :]
         + eye[:, None, :, None] * A.conj()[:, None, :, None, :]
         ).reshape(stop, n * n, n * n)
    try:
        v = np.linalg.solve(K, -D.reshape(stop, n * n, 1))
    except np.linalg.LinAlgError as exc:
        j = next(j for j in range(stop) if _is_singular(K[j]))
        raise LyapunovSolveError(f"singular Kronecker system "
                                 f"(cond = {np.linalg.cond(K[j]):.3e})") from exc
    V = v.reshape(stop, n, n)
    V = 0.5 * (V + V.conj().swapaxes(-1, -2))
    if not np.iscomplexobj(A) and not np.iscomplexobj(D):
        V = V.real

    AH = A.conj().swapaxes(-1, -2)
    res = np.linalg.norm(A @ V + V @ AH + D, axis=(-2, -1))
    bound = LYAPUNOV_RTOL * np.linalg.norm(D, axis=(-2, -1))
    over = np.flatnonzero(~(res <= bound))  # a nan residual fails too
    if len(over):
        j = over[0]
        raise LyapunovSolveError(
            f"Lyapunov residual {res[j]:.3e} exceeds {bound[j]:.3e} "
            f"(cond = {np.linalg.cond(K[j]):.3e})")
    if len(unstable):
        raise StabilityError(
            f"drift is not stable: max Re(eig) = {eig_max[stop]:.3e}")
    return V.reshape(stack + (n, n))


def _is_singular(K: np.ndarray) -> bool:
    """Whether LAPACK's LU factorization of K meets a zero pivot."""
    try:
        np.linalg.solve(K, np.zeros(len(K)))
    except np.linalg.LinAlgError:
        return True
    return False


def occupations(V: np.ndarray, dyn: LinearDynamics) -> CovarianceState:
    """Effective occupations from a steady covariance.

    Full model: phonon/photon numbers read directly off the quadrature
    blocks, n + 1/2 = (<x^2> + <p^2>)/2, and n_cross = <x1 x2>.

    Reduced model: n_bi + 1/2 = <|b_i|^2>, n_cross = Re<b1† b2>, and the
    photon number is the adiabatic transduction of ``bath_fluxes``.
    """
    V = np.asarray(V)
    if dyn.frame == FRAME_FULL:
        if V.shape != (6, 6):
            raise FrameMismatchError("full-model covariance must be 6x6")
        n1 = 0.5 * (V[0, 0] + V[1, 1]).real - 0.5
        n2 = 0.5 * (V[2, 2] + V[3, 3]).real - 0.5
        na = 0.5 * (V[4, 4] + V[5, 5]).real - 0.5
        ncr = V[0, 2].real
    elif dyn.frame == FRAME_REDUCED:
        if V.shape != (2, 2):
            raise FrameMismatchError("reduced-model covariance must be 2x2")
        return reduced_occupations(V, dyn.params, dyn.params.G1,
                                   dyn.params.G2)
    else:
        raise FrameMismatchError(f"unknown frame {dyn.frame!r}")
    return CovarianceState(n_b1_eff=float(n1), n_b2_eff=float(n2),
                           n_a_eff=float(na), n_cross_eff=float(ncr))


def reduced_occupations(V: np.ndarray, params: PhysicalParams, G1,
                        G2) -> CovarianceState:
    """``occupations`` of reduced covariances V, (2, 2) or a stack
    (..., 2, 2) with arrays G1, G2 of the couplings in place of params';
    a stack gives a state of arrays, one entry per covariance."""
    n1 = V[..., 0, 0].real - 0.5
    n2 = V[..., 1, 1].real - 0.5
    ncr = V[..., 0, 1].real
    na = _photon_number(params, G1, G2, n1, n2, ncr)
    return CovarianceState(*map(unstacked, (n1, n2, na, ncr)))


def _photon_number(params: PhysicalParams, G1, G2, n1, n2, ncr):
    # G ** 2 as pow() takes it, which for some G rounds off G * G
    return sideband_weight(params) * (np.float_power(G1, 2) * n1
                                      + np.float_power(G2, 2) * n2
                                      + 2.0 * G1 * G2 * ncr)


def bath_fluxes(params: PhysicalParams, n1, n2, ncr, na=None):
    """(n_a, mu_b1, mu_b2, mu_a) of occupations n_b1, n_b2, n_cross.

    Unless given, the photon number is the adiabatic transduction
    n_a = (|chi_a(wb)|^2 + |chi_a(-wb)|^2) (G1^2 n_b1 + G2^2 n_b2
    + 2 G1 G2 n_cross), which keeps both motional sidebands (the cavity is
    far from the resolved regime, so dropping the lower one would
    undercount n_a).  Takes scalars or arrays (one entry per time).
    """
    if na is None:
        na = _photon_number(params, params.G1, params.G2, n1, n2, ncr)
    mu1 = params.gamma1 * ((n1 + 0.5) / (params.nth1 + 0.5) - 1.0)
    mu2 = params.gamma2 * ((n2 + 0.5) / (params.nth2 + 0.5) - 1.0)
    return na, mu1, mu2, 2.0 * params.kappa * na


def entropy_rates(cov: CovarianceState, params: PhysicalParams) -> EntropyRates:
    """Entropy flux decomposition evaluated on effective occupations; a
    state of arrays gives rates of arrays."""
    if not np.isfinite([cov.n_b1_eff, cov.n_b2_eff, cov.n_a_eff]).all():
        raise ValueError("occupations must be finite")
    _, mu1, mu2, mua = bath_fluxes(params, cov.n_b1_eff, cov.n_b2_eff,
                                   cov.n_cross_eff, cov.n_a_eff)
    return EntropyRates(*map(unstacked, (mu1, mu2, mua, mu1 + mu2 + mua)))


def steady_state(dyn: LinearDynamics) -> CovarianceState:
    """Convenience: Lyapunov solve followed by occupation extraction."""
    return occupations(solve_lyapunov(dyn.drift, dyn.diffusion), dyn)


def analytic_sync_degree(cov: CovarianceState) -> float:
    """Carrier-averaged Pearson degree of synchronization from the NESS.

    C = Re<b1† b2> / sqrt(<|b1|^2><|b2|^2>); equals the long-window
    Pearson correlation of the two displacement records.  A state of
    arrays gives an array.
    """
    v1 = cov.n_b1_eff + 0.5
    v2 = cov.n_b2_eff + 0.5
    return unstacked(np.clip(cov.n_cross_eff / np.sqrt(v1 * v2), -1.0, 1.0))
