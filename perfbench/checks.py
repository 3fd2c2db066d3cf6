"""Output checks for each workload, computed apart from the program.

The reference model below is written from the definitions in the
project README (paper preset, cavity elimination, reduced drift and
diffusion) and solved with SciPy's Bartels-Stewart Lyapunov solver and
``expm``, so a check never compares the program with itself or with a
stored copy of an earlier output.  Statistical checks use standard errors
derived from the linear dynamics and the record length (see README.md),
with a margin of six standard errors.

Every check function returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.linalg as sla

TWO_PI = 2.0 * np.pi
# The "paper" preset (README table); stored rates are angular.
OMEGA2 = TWO_PI * 400e3
DELTA_OMEGA = TWO_PI * 200.0
GAMMA = (TWO_PI * 7.0, TWO_PI * 14.0)
KAPPA = TWO_PI * 2e6
DETUNING = -0.4 * KAPPA
NTH = (2e9, 1e9)
NA_IN = 0.0

PAPER_THRESHOLD = 0.005
PAPER_TURNING_POINT = 0.013
BURN_IN_DECAY_TIMES = 5.0
N_SIGMA = 6.0
D_DROP = 10.0
PEAK_MERGE_HZ = 40.0
TAIL_R_MIN = 0.9


class Reference:
    """Reduced two-mode dynamics of the paper preset at |G|/kappa = g."""

    def __init__(self, g: float):
        g1, g2 = g * KAPPA, -g * KAPPA
        wbar = OMEGA2 + 0.5 * DELTA_OMEGA

        def chi_a(w):
            return 1.0 / (KAPPA - 1j * (DETUNING + w))

        chi_c = -1j * (chi_a(wbar) - np.conj(chi_a(-wbar)))
        lam = g1 * g2 * chi_c
        s1, s2 = g1 ** 2 * chi_c, g2 ** 2 * chi_c
        self.H = np.array(
            [[DELTA_OMEGA + s1.real - 1j * (0.5 * GAMMA[0] - s1.imag), lam],
             [lam, s2.real - 1j * (0.5 * GAMMA[1] - s2.imag)]])
        self.A = -1j * self.H
        weight = abs(chi_a(wbar)) ** 2 + abs(chi_a(-wbar)) ** 2
        gv = np.array([g1, g2])
        self.D = (np.diag([GAMMA[0] * (NTH[0] + 0.5),
                           GAMMA[1] * (NTH[1] + 0.5)]).astype(complex)
                  + 2.0 * KAPPA * (NA_IN + 0.5) * weight * np.outer(gv, gv))
        # A V + V A^H = -D
        self.V = sla.solve_continuous_lyapunov(self.A, -self.D)
        v = self.V
        n1, n2 = v[0, 0].real - 0.5, v[1, 1].real - 0.5
        ncr = v[0, 1].real
        n_a = weight * (g1 ** 2 * n1 + g2 ** 2 * n2 + 2.0 * g1 * g2 * ncr)
        self.mu_b1 = GAMMA[0] * ((n1 + 0.5) / (NTH[0] + 0.5) - 1.0)
        self.mu_b2 = GAMMA[1] * ((n2 + 0.5) / (NTH[1] + 0.5) - 1.0)
        self.mu_a = 2.0 * KAPPA * n_a
        self.C = ncr / math.sqrt(v[0, 0].real * v[1, 1].real)
        gam = np.sort(-2.0 * np.linalg.eigvals(self.H).imag)
        self.gamma_plus, self.gamma_minus = float(gam[0]), float(gam[1])
        self.burn_in = BURN_IN_DECAY_TIMES / self.gamma_plus
        # Lagged covariance R(tau) = expm(A tau) V = sum_k exp(l_k tau) M_k.
        self.lam, U = np.linalg.eig(self.A)
        W = np.linalg.solve(U, self.V)
        self.M = [np.outer(U[:, k], W[k]) for k in range(2)]

    def _half(self, a, c, b, d):
        """Integral over tau >= 0 of R_ac(tau) * conj(R_bd(tau))."""
        return sum(self.M[k][a, c] * np.conj(self.M[m][b, d])
                   * (-1.0 / (self.lam[k] + np.conj(self.lam[m])))
                   for k in range(2) for m in range(2))

    def _full(self, a, c, b, d):
        """Same integral over all tau, using R(-tau) = R(tau)^H."""
        return self._half(a, c, b, d) + np.conj(self._half(c, a, d, b))

    def corr_sd(self, T: float) -> float:
        """Standard deviation of the Pearson C of the displacements over T s.

        Delta method on C = S12 / sqrt(S11 S22) with the Gaussian
        covariance of time-averaged products, carrier-averaged:
        T cov(S_ab, S_cd) = 1/2 Re int [R_ac conj(R_bd) + R_ad conj(R_bc)].
        """
        v11, v22 = self.V[0, 0].real, self.V[1, 1].real
        grad = {(0, 1): 1.0 / math.sqrt(v11 * v22),
                (0, 0): -0.5 * self.C / v11, (1, 1): -0.5 * self.C / v22}
        var = 0.0
        for (a, b), ga in grad.items():
            for (c, d), gb in grad.items():
                cov = 0.5 * np.real(self._full(a, c, b, d)
                                    + self._full(a, d, b, c))
                var += ga * gb * cov
        return math.sqrt(max(var, 0.0) / T)

    def occupation_sd(self, i: int, T: float) -> float:
        """Standard deviation of the time average of |b_i|^2 over T s."""
        return math.sqrt(np.real(self._full(i, i, i, i)) / T)

    def quench_second_moments(self, t: float) -> np.ndarray:
        """<|b_i(t)|^2> after a quench from diag(nth_i + 1/2)."""
        V0 = np.diag([NTH[0] + 0.5, NTH[1] + 0.5]).astype(complex)
        F = sla.expm(self.A * t)
        Vt = self.V + F @ (V0 - self.V) @ F.conj().T
        return np.real(np.diag(Vt))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _close(x, ref, rtol, atol=0.0):
    return abs(x - ref) <= rtol * abs(ref) + atol


def _sample(n, k=12):
    return sorted(set(np.linspace(0, n - 1, min(n, k)).round().astype(int)))


def check_sweep(out_dir, monte_carlo: bool, duration: float):
    errs = []
    cols = read_csv(os.path.join(out_dir, "sweep.csv"))
    summary = read_json(os.path.join(out_dir, "sweep_summary.json"))
    g = cols["g_over_kappa"]
    flux_sum = cols["mu_b1"] + cols["mu_b2"] + cols["mu_a"]
    scale = np.abs(cols["mu_b1"]) + np.abs(cols["mu_b2"]) + np.abs(cols["mu_a"])
    if np.any(np.abs(cols["pi_s"] - flux_sum) > 1e-12 * scale):
        errs.append("pi_s differs from mu_b1 + mu_b2 + mu_a")
    if np.any(cols["pi_s"] < 0):
        errs.append("negative entropy production pi_s")
    if np.any(cols["mu_b1"] > 0) or np.any(cols["mu_b2"] > 0):
        errs.append("positive phonon flux mu_b1 or mu_b2 (red detuning cools)")
    for i in _sample(len(g)):
        ref = Reference(g[i])
        for name, want, atol in (("analytic_C", ref.C, 1e-12),
                                 ("mu_b1", ref.mu_b1, 1e-9 * GAMMA[0]),
                                 ("mu_b2", ref.mu_b2, 1e-9 * GAMMA[1])):
            if not _close(cols[name][i], want, 1e-7, atol):
                errs.append(f"{name} at g={g[i]}: {cols[name][i]!r} vs "
                            f"Bartels-Stewart {want!r}")
        scale_h = np.linalg.norm(ref.H)
        for name, want in (("gamma_plus", ref.gamma_plus),
                           ("gamma_minus", ref.gamma_minus)):
            if not _close(cols[name][i], want, 1e-9, 1e-11 * scale_h):
                errs.append(f"{name} at g={g[i]}: {cols[name][i]!r} vs "
                            f"eigvals {want!r}")
    for key, paper in (("threshold_g_over_kappa", PAPER_THRESHOLD),
                       ("turning_point_g_over_kappa", PAPER_TURNING_POINT)):
        value = summary.get(key)
        if value is None or not paper / 2 <= value <= paper * 2:
            errs.append(f"{key} = {value} not within a factor 2 of {paper}")
    if not monte_carlo:
        for name in ("C", "D", "N1", "N2"):
            if not np.all(np.isnan(cols[name])):
                errs.append(f"analytic sweep reports Monte Carlo {name}")
        return errs

    for i in range(len(g)):
        ref = Reference(g[i])
        tol = N_SIGMA * ref.corr_sd(duration - ref.burn_in)
        if abs(cols["C"][i] - cols["analytic_C"][i]) > tol:
            errs.append(f"Monte Carlo C at g={g[i]}: {cols['C'][i]:.4f} vs "
                        f"analytic {cols['analytic_C'][i]:.4f} (tol {tol:.4f})")
    threshold = summary.get("threshold_g_over_kappa") or PAPER_THRESHOLD
    low = cols["D"][(g > 0) & (g <= threshold)]
    high = cols["D"][g >= 0.03]
    if len(low) == 0 or len(high) == 0:
        errs.append("grid does not cover both sides of the threshold")
    elif not np.mean(low) >= D_DROP * np.max(high):
        errs.append(f"D drops only {np.mean(low) / np.max(high):.2f}x across "
                    f"the threshold (need {D_DROP}x)")
    for name in ("N1", "N2"):
        if not np.all(np.isfinite(cols[name]) & (cols[name] > 0)):
            errs.append(f"{name} not finite and positive")
    return errs


def check_trajectory(out_dir, g: float, duration: float, dt: float):
    errs = []
    cols = read_csv(os.path.join(out_dir, "trajectory.csv"))
    t = cols["t"]
    n = int(round(duration / dt)) + 1
    if len(t) != n:
        return [f"trajectory.csv has {len(t)} rows, expected {n}"]
    if t[0] != 0.0 or not np.allclose(t, dt * np.arange(n), rtol=1e-12,
                                      atol=0.0):
        errs.append("trajectory time grid is not uniform from 0")
    ref = Reference(g)
    keep = t >= ref.burn_in
    T = duration - ref.burn_in
    for i in range(2):
        b = cols[f"re_b{i + 1}"][keep] + 1j * cols[f"im_b{i + 1}"][keep]
        mean = float(np.mean(np.abs(b) ** 2))
        want = ref.V[i, i].real
        tol = N_SIGMA * ref.occupation_sd(i, T)
        if abs(mean - want) > tol:
            errs.append(f"<|b{i + 1}|^2> = {mean:.4e} vs NESS {want:.4e} "
                        f"(tol {tol:.2e})")
    summary = read_json(os.path.join(out_dir, "trajectory_summary.json"))
    tol = N_SIGMA * ref.corr_sd(T)
    if abs(summary["C"] - ref.C) > tol:
        errs.append(f"trajectory C = {summary['C']:.4f} vs analytic "
                    f"{ref.C:.4f} (tol {tol:.4f})")
    spec = read_csv(os.path.join(out_dir, "spectrum.csv"))
    f1 = spec["f_hz"][np.argmax(spec["psd_b1"])]
    f2 = spec["f_hz"][np.argmax(spec["psd_b2"])]
    if abs(f1 - f2) > PEAK_MERGE_HZ:
        errs.append(f"spectral peaks {f1:.1f} Hz and {f2:.1f} Hz are more "
                    f"than {PEAK_MERGE_HZ} Hz apart")
    return errs


def check_transient(out_dir, g: float, n_traj: int):
    """Checks one transient.csv; returns (errors, transient time)."""
    errs = []
    cols = read_csv(os.path.join(out_dir, "transient.csv"))
    summary = read_json(os.path.join(out_dir, "transient_summary.json"))
    t, R = cols["t"], cols["R"]
    if not np.all(np.isfinite(R) & (R >= -1.0) & (R <= 1.0)):
        errs.append(f"R outside [-1, 1] at g={g}")
    if abs(R[0]) > N_SIGMA / math.sqrt(n_traj):
        errs.append(f"|R(0)| = {abs(R[0]):.4f} at g={g}: the quench starts "
                    "from uncorrelated clocks")
    ref = Reference(g)
    bias = (n_traj - 1) / n_traj  # across-ensemble mean removed
    for k in _sample(len(t), 6):
        want = ref.quench_second_moments(t[k])
        for i, mu in enumerate((cols["mu_b1"][k], cols["mu_b2"][k])):
            got = (mu / GAMMA[i] + 1.0) * (NTH[i] + 0.5)
            if abs(got - bias * want[i]) > N_SIGMA * want[i] / math.sqrt(n_traj):
                errs.append(f"<|b{i + 1}|^2>({t[k]:.4g}) = {got:.4e} vs "
                            f"{want[i]:.4e} at g={g}")
    t_tr = summary["transient_time_s"]
    if not 0.0 < t_tr <= t[-1]:
        errs.append(f"transient time {t_tr} outside the record at g={g}")
    if g == 0.04:
        tail = float(np.mean(R[int(0.8 * len(R)):]))
        if tail < TAIL_R_MIN:
            errs.append(f"tail of R at g=0.04 is {tail:.3f} < {TAIL_R_MIN}")
    return errs, t_tr


def check_transient_grid(out_dirs: dict, n_traj: int):
    """out_dirs maps each coupling, in ascending order, to its output."""
    errs, times = [], []
    for g, out_dir in out_dirs.items():
        e, t_tr = check_transient(out_dir, g, n_traj)
        errs += e
        times.append(t_tr)
    if not np.all(np.diff(times) < 0):
        errs.append(f"transient time does not fall with coupling: {times}")
    return errs


def check_known_failure(code, stderr, out_dir, known_error):
    """A transient command known to fail must fail with its typed error,
    exit 3 and leave no transient.csv."""
    if code == 0:
        return []
    errs = []
    if code != 3 or known_error not in stderr:
        errs.append(f"expected {known_error} (exit 3), got exit {code}: "
                    f"{stderr.strip()[-200:]}")
    if os.path.exists(os.path.join(out_dir, "transient.csv")):
        errs.append("failed command left transient.csv behind")
    return errs
