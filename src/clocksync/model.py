"""System parameters, cavity-mediated coupling, and linear dynamics.

Two mechanical modes (the clocks) interact with one driven cavity mode.
After adiabatic elimination of the cavity the clocks obey an effective
two-mode model whose off-diagonal coupling is Lambda = G1*G2*chi_c with a
coherent part delta = Re(Lambda) and a dissipative part Gamma = Im(Lambda).
Everything here is a pure function of immutable parameter values.

Conventions
-----------
* All rates and frequencies are angular (rad/s).
* kappa is the cavity *amplitude* decay rate (half linewidth), so the
  cavity energy decays at 2*kappa and the thermal input enters the
  diffusion as 2*kappa*(na_in + 1/2).
* Quadratures are x = (b + b†)/sqrt(2), p = -i(b - b†)/sqrt(2); a thermal
  mode then has covariance (n_th + 1/2) * I.
* G1, G2 are the linearized couplings in H = -G_i (a + a†)(b_i + b_i†),
  i.e. the quadrature coupling coefficient is 2*G_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BranchSelectionError, FrameMismatchError

TWO_PI = 2.0 * np.pi

# "paper" preset. The detuning and bath occupations are not fixed by the
# measured rates; they are calibrated so that the analytic sweep reproduces
# the observed landmarks (sync threshold near |G|/kappa ~ 0.005, entropy
# turning point, photonic flux of order 1e12 1/s at the turning point).
PAPER_OMEGA2 = TWO_PI * 400e3
PAPER_DELTA_OMEGA = TWO_PI * 200.0
PAPER_GAMMA1 = TWO_PI * 7.0
PAPER_GAMMA2 = TWO_PI * 14.0
PAPER_KAPPA = TWO_PI * 2e6
PAPER_DETUNING = -0.4 * PAPER_KAPPA
PAPER_NTH1 = 2e9
PAPER_NTH2 = 1e9

FRAME_FULL = "full-lab"
FRAME_REDUCED = "reduced-rotating"


@dataclass(frozen=True)
class PhysicalParams:
    """All physical rates and occupations defining one configuration.

    Attributes
    ----------
    omega1, omega2 : float
        Mechanical angular frequencies (rad/s).
    gamma1, gamma2 : float
        Mechanical energy decay rates (rad/s), > 0.
    kappa : float
        Cavity amplitude decay rate (rad/s), > 0.
    detuning : float
        Laser-cavity detuning Delta (rad/s); negative means red detuned.
    G1, G2 : float
        Linearized optomechanical couplings (rad/s), sign carrying.
    nth1, nth2 : float
        Thermal bath phonon occupations, >= 0.
    na_in : float
        Cavity bath occupation, >= 0 (default 0).
    """

    omega1: float
    omega2: float
    gamma1: float
    gamma2: float
    kappa: float
    detuning: float
    G1: float
    G2: float
    nth1: float
    nth2: float
    na_in: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("parameters must be finite")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("mechanical decay rates must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.nth1 < 0 or self.nth2 < 0 or self.na_in < 0:
            raise ValueError("bath occupations must be non-negative")

    @property
    def delta_omega(self) -> float:
        """Frequency mismatch omega1 - omega2 (derived, never stored)."""
        return self.omega1 - self.omega2

    @property
    def omega_mid(self) -> float:
        """Mid frequency (omega1 + omega2)/2, default evaluation point."""
        return 0.5 * (self.omega1 + self.omega2)

    def with_coupling(self, g_over_kappa: float) -> "PhysicalParams":
        """Return a copy with |G| = g_over_kappa * kappa.

        The sign pattern of (G1, G2) is kept; if both couplings are zero
        the opposite-sign pattern (+, -) is used.
        """
        G1, G2 = coupling_pair(self, g_over_kappa)
        return replace(self, G1=G1, G2=G2)


def coupling_pair(params: PhysicalParams, g_over_kappa):
    """(G1, G2) of ``params.with_coupling(g_over_kappa)``; an array of
    couplings gives arrays."""
    s1 = np.sign(params.G1) if params.G1 != 0 else 1.0
    s2 = np.sign(params.G2) if params.G2 != 0 else -1.0
    g = g_over_kappa * params.kappa
    return s1 * g, s2 * g


def paper_preset() -> PhysicalParams:
    """The default configuration: two near-degenerate membrane clocks.

    omega_{1,2} ~ 2pi x 400 kHz split by 2pi x 200 Hz, gamma_{1,2} =
    2pi x 7 (14) Hz, kappa = 2pi x 2 MHz, opposite-sign couplings
    G1 = -G2, red detuning Delta = -0.4 kappa, and white-noise drives
    giving n_th1 = 2e9, n_th2 = 1e9.
    """
    return PhysicalParams(
        omega1=PAPER_OMEGA2 + PAPER_DELTA_OMEGA,
        omega2=PAPER_OMEGA2,
        gamma1=PAPER_GAMMA1,
        gamma2=PAPER_GAMMA2,
        kappa=PAPER_KAPPA,
        detuning=PAPER_DETUNING,
        G1=0.0,
        G2=-0.0,
        nth1=PAPER_NTH1,
        nth2=PAPER_NTH2,
    )


@dataclass(frozen=True)
class EffectiveCoupling:
    """Cavity-eliminated coupling between the two clocks.

    Lambda = G1*G2*chi_c, delta = Re(Lambda), Gamma = Im(Lambda).
    For opposite-sign couplings (G1 = -G2 = G) this is the familiar
    delta = -G^2 Re(chi_c), Gamma = -G^2 Im(chi_c); red detuning gives
    Gamma > 0 (net added damping).
    """

    chi_c: complex
    Lambda: complex
    delta: float
    Gamma: float


@dataclass(frozen=True)
class LinearDynamics:
    """Drift/diffusion matrices of the linearized model.

    frame is "full-lab" (6x6 real, state x1,p1,x2,p2,X,Y) or
    "reduced-rotating" (2x2 complex for the envelopes b1, b2 in the frame
    rotating at reference_frequency = omega2).  diffusion is symmetric
    (Hermitian) PSD.  params is retained so downstream operations can
    reconstruct susceptibilities and bath occupations.
    """

    frame: str
    drift: np.ndarray
    diffusion: np.ndarray
    reference_frequency: float
    params: PhysicalParams


@dataclass(frozen=True)
class NormalModes:
    """Eigenvalues of the coupled two-mode system, omega - i*gamma/2.

    Branch labels: gamma_plus <= gamma_minus (the "+" mode is the
    long-lived one that dominates after the transient); ties broken by
    Re(lambda) descending.  The analytic sweep holds one complex array
    per branch, a mode pair per coupling, and reads the same properties.
    """

    lambda_plus: complex
    lambda_minus: complex

    @property
    def omega_plus(self) -> float:
        return self.lambda_plus.real

    @property
    def omega_minus(self) -> float:
        return self.lambda_minus.real

    @property
    def gamma_plus(self) -> float:
        return -2.0 * self.lambda_plus.imag

    @property
    def gamma_minus(self) -> float:
        return -2.0 * self.lambda_minus.imag

    @property
    def ratio(self) -> float:
        """gamma_plus / gamma_minus, nan where gamma_minus is 0."""
        gm = self.gamma_minus
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(self.gamma_plus, gm)
        return unstacked(np.where(gm == 0, np.nan, ratio))

    @classmethod
    def from_pair(cls, l1, l2) -> "NormalModes":
        """The pair l1, l2 in branch order; arrays of pairs give arrays,
        and single eigenvalues Python complex numbers."""
        g1, g2 = -2.0 * np.imag(l1), -2.0 * np.imag(l2)
        swap = (g1 > g2) | ((g1 == g2) & (np.real(l1) < np.real(l2)))
        return cls(lambda_plus=unstacked(np.where(swap, l2, l1)),
                   lambda_minus=unstacked(np.where(swap, l1, l2)))


def unstacked(x):
    """x as a Python scalar when it holds one value; arrays pass as they
    are.  The model functions return a value per coupling this way."""
    return x if np.ndim(x) else np.asarray(x).item()


def _cmul(a, b):
    """a b of scalars or arrays, a real or complex, rounded as one complex
    number times another in scalar arithmetic: each part is one sum of
    two rounded products.  numpy's array product may fuse a product into
    the sum and round otherwise, which shows in underflowed zeros."""
    a = np.asarray(a, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def cavity_susceptibility(omega: float, params: PhysicalParams) -> complex:
    """Cavity field susceptibility chi_a(omega) = 1/(kappa - i(Delta + omega)).

    The denominator never vanishes for kappa > 0, so |chi_a| <= 1/kappa.
    """
    return 1.0 / (params.kappa - 1j * (params.detuning + omega))


def effective_coupling(params: PhysicalParams, G1=None,
                       G2=None) -> EffectiveCoupling:
    """Effective phonon-phonon coupling after adiabatic cavity elimination.

    chi_c(wb) = -i [chi_a(wb) - chi_a*(-wb)] combines the cavity response
    at the upper and lower motional sidebands of the mid mechanical
    frequency wb = omega_mid; Lambda = G1*G2*chi_c.  The modes are nearly
    degenerate, so the choice of wb matters less than other tolerances.
    G1 and G2 default to params'; arrays of them give arrays Lambda,
    delta and Gamma, one entry per pair.
    """
    G1 = params.G1 if G1 is None else G1
    G2 = params.G2 if G2 is None else G2
    chi_p = cavity_susceptibility(params.omega_mid, params)
    chi_m = cavity_susceptibility(-params.omega_mid, params)
    chi_c = -1j * (chi_p - np.conj(chi_m))
    Lam = unstacked(_cmul(G1 * G2, chi_c))
    return EffectiveCoupling(chi_c=complex(chi_c), Lambda=Lam,
                             delta=Lam.real, Gamma=Lam.imag)


def sideband_weight(params: PhysicalParams) -> float:
    """|chi_a(wb)|^2 + |chi_a(-wb)|^2 at wb = omega_mid.

    Transduction weight of mechanical motion into intracavity photons;
    both sidebands contribute because the cavity is not in the resolved
    regime.  Used to reconstruct the effective photon number from the
    reduced model.
    """
    return (abs(cavity_susceptibility(params.omega_mid, params)) ** 2
            + abs(cavity_susceptibility(-params.omega_mid, params)) ** 2)


def normal_modes_closed_form(delta_omega: float, gamma1: float, gamma2: float,
                             coupling: EffectiveCoupling) -> NormalModes:
    """Closed-form eigenvalues of the coupled phononic system.

    lambda_pm = (dw/2 - i(g1+g2+4*Gs)/4)
                +- sqrt((dw - i(g1-g2)/2)^2/4 + (delta + i*Gamma)^2)

    in the frame rotating at omega2 (Re lambda are offsets from omega2),
    for |G1| = |G2|.  Each mode's cavity damping Gs = -Im(|G1 G2| chi_c)
    is Gamma, or -Gamma where Re(Lambda chi_c*) = G1 G2 |chi_c|^2 > 0.
    The common optical-spring shift is not included here; numeric
    eigenvalues of the reduced drift match these up to a uniform real
    offset.  A coupling of arrays gives the mode pair of each entry.
    """
    d, G = coupling.delta, coupling.Gamma
    Gs = unstacked(np.where(
        np.real(coupling.Lambda * np.conj(coupling.chi_c)) > 0, -G, G))
    centre = 0.5 * delta_omega - 0.25j * (gamma1 + gamma2 + 4.0 * Gs)
    # z ** 2 as CPython takes it, z z; + 0j makes each zero part +0.0
    z = d + 1j * G
    root = np.sqrt(0.25 * (delta_omega - 0.5j * (gamma1 - gamma2)) ** 2
                   + _cmul(z, z) + 0j)
    return NormalModes.from_pair(centre + root, centre - root)


def reduced_drift_matrix(params: PhysicalParams,
                         coupling: EffectiveCoupling | None = None) -> LinearDynamics:
    """Cavity-eliminated 2x2 complex dynamics for the envelopes (b1, b2).

    Valid in the adiabatic regime kappa >> |G|, gamma, |delta_omega|
    (documented, not enforced).  In the frame rotating at omega2 the mode
    matrix is

        H = [[dw + S1 - i(g1/2 + Gs1),  Lambda              ],
             [Lambda,                    S2 - i(g2/2 + Gs2) ]]

    with per-mode self energies S_i = Re(G_i^2 chi_c) (optical spring)
    and Gs_i = -Im(G_i^2 chi_c) (cavity-induced damping); drift = -i*H.
    For |G1| = |G2| both modes share S and Gs: S = -delta and Gs = Gamma
    for G1 = -G2, S = delta and Gs = -Gamma for G1 = G2.
    Diffusion combines the thermal drives gamma_i*(nth_i + 1/2) with the
    rank-one cavity backaction shared by the two modes.
    """
    if coupling is None:
        coupling = effective_coupling(params)
    drift, diffusion = reduced_matrices(params, coupling, params.G1,
                                        params.G2)
    return LinearDynamics(frame=FRAME_REDUCED, drift=drift,
                          diffusion=diffusion,
                          reference_frequency=params.omega2, params=params)


def reduced_matrices(params: PhysicalParams, coupling: EffectiveCoupling,
                     G1, G2):
    """(drift, diffusion) of ``reduced_drift_matrix`` at the couplings G1,
    G2 in place of params'; a coupling of arrays (and arrays G1, G2) gives
    stacks (..., 2, 2), a matrix per entry."""
    chi_c = coupling.chi_c
    # G ** 2 as pow() takes it, which for some G rounds off G * G
    s1 = np.float_power(G1, 2) * chi_c
    s2 = np.float_power(G2, 2) * chi_c
    H = np.empty(np.shape(coupling.Lambda) + (2, 2), dtype=complex)
    H[..., 0, 0] = (params.delta_omega + s1.real
                    - 1j * (0.5 * params.gamma1 - s1.imag))
    H[..., 0, 1] = H[..., 1, 0] = coupling.Lambda
    H[..., 1, 1] = s2.real - 1j * (0.5 * params.gamma2 - s2.imag)
    drift = -1j * H

    g = np.stack([G1, G2], axis=-1)
    diffusion = (np.diag([params.gamma1 * (params.nth1 + 0.5),
                          params.gamma2 * (params.nth2 + 0.5)]).astype(complex)
                 + 2.0 * params.kappa * (params.na_in + 0.5)
                 * sideband_weight(params) * (g[..., :, None] * g[..., None, :]))
    return drift, diffusion


def full_drift_and_diffusion(params: PhysicalParams) -> LinearDynamics:
    """Lab-frame 6x6 dynamics on (x1, p1, x2, p2, X, Y).

    Mechanical blocks rotate at omega_i and damp at gamma_i/2, the cavity
    block rotates at -Delta and damps at kappa, and the radiation-pressure
    coupling enters as A[Y, x_i] = A[p_i, X] = 2*G_i.  Diffusion is
    blockdiag(gamma_i (nth_i + 1/2) I2, 2 kappa (na_in + 1/2) I2).
    """
    A = np.zeros((6, 6))
    for i, (w, g) in enumerate([(params.omega1, params.gamma1),
                                (params.omega2, params.gamma2)]):
        A[2 * i, 2 * i] = -0.5 * g
        A[2 * i, 2 * i + 1] = w
        A[2 * i + 1, 2 * i] = -w
        A[2 * i + 1, 2 * i + 1] = -0.5 * g
    A[4, 4] = A[5, 5] = -params.kappa
    A[4, 5] = -params.detuning
    A[5, 4] = params.detuning
    for i, G in enumerate([params.G1, params.G2]):
        A[2 * i + 1, 4] += 2.0 * G
        A[5, 2 * i] += 2.0 * G
    D = np.diag([params.gamma1 * (params.nth1 + 0.5)] * 2
                + [params.gamma2 * (params.nth2 + 0.5)] * 2
                + [2.0 * params.kappa * (params.na_in + 0.5)] * 2)
    return LinearDynamics(frame=FRAME_FULL, drift=A, diffusion=D,
                          reference_frequency=0.0, params=params)


def normal_modes_numeric(dyn: LinearDynamics) -> NormalModes:
    """Numeric normal modes from either model, as a cross check.

    Reduced: eigenvalues of the 2x2 mode matrix.  Full: the conjugate
    eigenvalue pairs of the 6x6 drift whose |Im| is nearest the mid
    mechanical frequency (the slow mechanical branches); raises
    BranchSelectionError when the optical branch comes within 10% of a
    selected mechanical one.
    """
    if dyn.frame == FRAME_REDUCED:
        # mode eigenvalues omega - i*gamma/2 of the 2x2 mode matrix
        l1, l2 = np.linalg.eigvals(1j * dyn.drift)
        return NormalModes.from_pair(l1, l2)
    if dyn.frame != FRAME_FULL:
        raise FrameMismatchError(f"unknown frame {dyn.frame!r}")

    ev = np.linalg.eigvals(dyn.drift)
    upper = ev[ev.imag > 0]
    if len(upper) != 3:
        raise BranchSelectionError(
            f"expected 3 oscillatory eigenvalue pairs, found {len(upper)}")
    wbar = dyn.params.omega_mid
    order = np.argsort(np.abs(np.abs(upper.imag) - wbar))
    mech, other = upper[order[:2]], upper[order[2]]
    for m in mech:
        if abs(abs(m.imag) - abs(other.imag)) < 0.10 * abs(m.imag):
            raise BranchSelectionError(
                "mechanical and optical branches within 10% in |Im|; "
                "cannot assign normal modes")
    # quadrature pair -gamma/2 +- i*omega -> mode eigenvalue omega - i*gamma/2
    modes = [m.imag + 1j * m.real for m in mech]
    return NormalModes.from_pair(modes[0], modes[1])
