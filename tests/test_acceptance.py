"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.  The heavyweight Monte Carlo artifacts (full sweep, quench
ensembles) are session fixtures shared between criteria.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import block_standard_error, r_squared, random_stable_system

import clocksync as cs
from clocksync.experiments import burn_in_time
from clocksync.metrics import PearsonStats
from clocksync.model import TWO_PI
from clocksync.trajectory import displacements

MC_SEED = 2026
TRANSIENT_SEED = 5
TRANSIENT_GRID = [0.01, 0.02, 0.03, 0.04, 0.05]


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def analytic_rows(paper):
    t0 = time.time()
    rows = cs.sweep_coupling(paper, protocol="analytic")
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def mc_rows(paper):
    t0 = time.time()
    rows = cs.sweep_coupling(paper, protocol="both", master_seed=MC_SEED)
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def transients(paper):
    t0 = time.time()
    results = {g: cs.transient_experiment(paper, g, n_traj=600,
                                          master_seed=TRANSIENT_SEED)
               for g in TRANSIENT_GRID}
    return results, time.time() - t0


def test_criterion_1_closed_form_vs_numeric(paper):
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        kappa = rng.uniform(0.5, 5.0) * TWO_PI * 1e6
        omega2 = rng.uniform(0.1, 0.8) * kappa
        g = rng.uniform(0.0, 0.05) * kappa
        p = cs.PhysicalParams(
            omega1=omega2 * (1 + rng.uniform(-1e-3, 1e-3)), omega2=omega2,
            gamma1=rng.uniform(1.0, 200.0), gamma2=rng.uniform(1.0, 200.0),
            kappa=kappa, detuning=-rng.uniform(0.05, 2.0) * kappa,
            G1=g, G2=-g, nth1=1.0, nth2=1.0)
        c = cs.effective_coupling(p)
        cf = cs.normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2, c)
        num = cs.normal_modes_numeric(cs.reduced_drift_matrix(p, c))
        pa = np.array([cf.lambda_plus, cf.lambda_minus])
        pb = np.array([num.lambda_plus, num.lambda_minus])
        pb = pb - (pb.real.sum() - pa.real.sum()) / 2.0
        d = min(max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1])),
                max(abs(pa[0] - pb[1]), abs(pa[1] - pb[0])))
        worst = max(worst, d / np.max(np.abs(pa)))
    elapsed = time.time() - t0
    report(1, "closed-form vs numeric modes",
           worst < 1e-9 and elapsed < 1.0,
           f"worst rel mismatch {worst:.2e} over 1000 draws, {elapsed:.2f}s")


def test_criterion_2_adiabatic_elimination(paper):
    t0 = time.time()
    worst = 0.0
    for g in [0.005, 0.01, 0.02, 0.04]:
        p = paper.with_coupling(g)
        nm_r = cs.normal_modes_numeric(cs.reduced_drift_matrix(p))
        nm_f = cs.normal_modes_numeric(cs.full_drift_and_diffusion(p))
        worst = max(worst,
                    abs(nm_r.gamma_plus - nm_f.gamma_plus) / nm_f.gamma_plus,
                    abs(nm_r.gamma_minus - nm_f.gamma_minus) / nm_f.gamma_minus)
    elapsed = time.time() - t0
    report(2, "adiabatic elimination validity",
           worst < 0.05 and elapsed < 1.0,
           f"worst linewidth mismatch {worst:.2%}, {elapsed:.2f}s")


def test_criterion_3_lyapunov_correctness():
    t0 = time.time()
    rng = np.random.default_rng(3)
    ok = True
    for i in range(1000):
        n = int(rng.choice([2, 4, 6]))
        A, D = random_stable_system(rng, n, complex_valued=bool(i % 3 == 0))
        V = cs.solve_lyapunov(A, D)
        res = np.linalg.norm(A @ V + V @ A.conj().T + D)
        ok &= res <= 1e-8 * np.linalg.norm(D)
        w = np.linalg.eigvalsh(V)
        ok &= np.min(w) >= -1e-10 * np.max(np.abs(w))
    nth, w0, g0 = 777.0, 3.0, 0.2
    A1 = np.array([[-g0 / 2, w0], [-w0, -g0 / 2]])
    V1 = cs.solve_lyapunov(A1, g0 * (nth + 0.5) * np.eye(2))
    thermal_err = np.max(np.abs(V1 - (nth + 0.5) * np.eye(2))) / (nth + 0.5)
    elapsed = time.time() - t0
    report(3, "Lyapunov correctness",
           ok and thermal_err < 1e-12 and elapsed < 5.0,
           f"1000 random systems, thermal err {thermal_err:.2e}, {elapsed:.1f}s")


def test_criterion_4_monte_carlo_vs_analytic(paper):
    t0 = time.time()
    details = []
    ok = True
    for i, g in enumerate([0.004, 0.008, 0.012, 0.02, 0.04]):
        p = paper.with_coupling(g)
        dyn = cs.reduced_drift_matrix(p)
        cov = cs.steady_state(dyn)
        c_an = cs.analytic_sync_degree(cov)
        nm = cs.normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2,
                                         cs.effective_coupling(p))
        traj = cs.propagate_exact(dyn, 10.0, 1e-5, seed=404 + i)
        keep = traj.times >= burn_in_time(nm)
        v1 = np.abs(traj.b1[keep]) ** 2
        v2 = np.abs(traj.b2[keep]) ** 2
        x1, x2 = (x[keep] for x in displacements(traj))
        n_blocks = 16
        usable = (len(x1) // n_blocks) * n_blocks
        blocks_c = [PearsonStats().update(bx1, bx2).result()
                    for bx1, bx2 in zip(np.split(x1[:usable], n_blocks),
                                        np.split(x2[:usable], n_blocks))]
        se_c = np.std(blocks_c, ddof=1) / np.sqrt(n_blocks)
        for mc, an, se, label in [
                (v1.mean(), cov.n_b1_eff + 0.5, block_standard_error(v1), "V11"),
                (v2.mean(), cov.n_b2_eff + 0.5, block_standard_error(v2), "V22"),
                (np.mean(blocks_c), c_an, se_c, "C")]:
            z = abs(mc - an) / se
            ok &= z <= 3.0
            details.append(f"g={g} {label} z={z:.1f}")
    elapsed = time.time() - t0
    report(4, "Monte Carlo vs analytic NESS",
           ok and elapsed < 120.0,
           f"{'; '.join(details[:5])}..., {elapsed:.0f}s")


def test_criterion_5_second_law(analytic_rows):
    rows, _ = analytic_rows
    pi_ok = all(r.pi_s >= -1e-9 for r in rows)
    mu_ok = all(r.mu_b1 <= 0 and r.mu_b2 <= 0 for r in rows)
    report(5, "second law and cooling signs", pi_ok and mu_ok,
           f"min Pi_s = {min(r.pi_s for r in rows):.2e}, "
           f"max mu_b = {max(max(r.mu_b1, r.mu_b2) for r in rows):.2e}")


def test_criterion_6_threshold_landmark(analytic_rows):
    rows, elapsed = analytic_rows
    thr = cs.find_threshold(rows)
    ok = 0.005 / 2 <= thr <= 0.005 * 2 and elapsed < 10.0
    report(6, "synchronization threshold", ok,
           f"|G_c|/kappa = {thr:.4f} (target 0.005 within factor 2), "
           f"{elapsed:.1f}s")


def test_criterion_7_turning_point_and_witness(analytic_rows):
    rows, _ = analytic_rows
    turn = cs.find_turning_point(rows)
    witness = any(a.pi_s < b.pi_s and a.analytic_C > b.analytic_C
                  for a in rows for b in rows)
    ok = 0.013 / 2 <= turn <= 0.013 * 2 and witness
    report(7, "entropy turning point + non-monotonicity", ok,
           f"turning |G|/kappa = {turn:.4f} (target 0.013 within factor 2), "
           f"witness={witness}")


def test_criterion_8_timekeeping(mc_rows):
    rows, elapsed = mc_rows
    g = np.array([r.g_over_kappa for r in rows])
    D = np.array([r.D for r in rows])
    thr = cs.find_threshold(rows)
    plateau = D[(g > 0) & (g <= thr)].mean()
    drop = plateau / D[g >= 0.03].max()
    r2_1 = r_squared(np.abs([r.mu_b1 for r in rows[1:]]),
                     [r.N1 for r in rows[1:]])
    r2_2 = r_squared(np.abs([r.mu_b2 for r in rows[1:]]),
                     [r.N2 for r in rows[1:]])
    consistent = all(abs(r.C - r.analytic_C) <= 0.05 for r in rows)
    ok = drop >= 10.0 and r2_1 >= 0.9 and r2_2 >= 0.9 and consistent \
        and elapsed < 300.0
    report(8, "timekeeping: D collapse and N linearity", ok,
           f"D drop x{drop:.0f}, R2(N1)={r2_1:.3f}, R2(N2)={r2_2:.3f}, "
           f"C consistent={consistent}, {elapsed:.0f}s")


def test_criterion_9_spectra(paper):
    t0 = time.time()
    splits = {}
    for g in (0.002, 0.04):
        p = paper.with_coupling(g)
        dyn = cs.reduced_drift_matrix(p)
        nm = cs.normal_modes_closed_form(p.delta_omega, p.gamma1, p.gamma2,
                                         cs.effective_coupling(p))
        traj = cs.propagate_exact(dyn, 10.0, 1e-5, seed=909)
        keep = traj.times >= burn_in_time(nm)
        peaks = []
        for b in (traj.b1[keep], traj.b2[keep]):
            f, psd = cs.power_spectrum(b, traj.dt)
            peaks.append(f[np.argmax(psd)])
        splits[g] = abs(peaks[0] - peaks[1])
    elapsed = time.time() - t0
    ok = 160.0 <= splits[0.002] <= 240.0 and splits[0.04] <= 40.0 \
        and elapsed < 60.0
    report(9, "spectra: split below, merged above", ok,
           f"split below = {splits[0.002]:.0f} Hz (want 200 +- 40), "
           f"above = {splits[0.04]:.1f} Hz, {elapsed:.0f}s")


def test_criterion_10_transients(paper, transients):
    results, elapsed = transients
    res_04 = results[0.04]
    res_01 = results[0.01]
    tail = slice(int(0.8 * len(res_04.R)), None)
    plateau_04 = float(np.nanmean(res_04.R[tail]))
    plateau_01 = float(np.nanmean(res_01.R[tail]))
    overshoot = (np.nanmax(res_01.R) - plateau_01) / plateau_01
    times = [results[g].transient_time for g in TRANSIENT_GRID]
    decreasing = all(a > b for a, b in zip(times, times[1:]))

    # flux convergence at |G|/kappa = 0.04: final fluxes vs NESS within 3 sigma
    p = paper.with_coupling(0.04)
    dyn = cs.reduced_drift_matrix(p)
    ensemble = cs.run_ensemble(dyn, 600, duration=res_04.times[-1], dt=1e-5,
                               master_seed=TRANSIENT_SEED)
    b1 = np.stack([tr.b1[-1] for tr in ensemble])
    b2 = np.stack([tr.b2[-1] for tr in ensemble])
    d1 = b1 - b1.mean()
    d2 = b2 - b2.mean()
    ness = cs.entropy_rates(cs.steady_state(dyn), p)
    from clocksync.model import sideband_weight
    chi2w = sideband_weight(p)
    q1 = np.abs(d1) ** 2
    q2 = np.abs(d2) ** 2
    qx = np.real(d1 * np.conj(d2))
    qa = 2 * p.kappa * chi2w * (p.G1 ** 2 * q1 + p.G2 ** 2 * q2
                                + 2 * p.G1 * p.G2 * qx)
    n = len(q1)
    flux_ok = True
    for sample, target, scale in [
            (p.gamma1 * (q1 / (p.nth1 + 0.5) - 1), ness.mu_b1, p.gamma1),
            (p.gamma2 * (q2 / (p.nth2 + 0.5) - 1), ness.mu_b2, p.gamma2),
            (qa, ness.mu_a, ness.mu_a)]:
        se = np.std(sample, ddof=1) / np.sqrt(n)
        flux_ok &= abs(np.mean(sample) - target) <= 3 * se

    ok = plateau_04 >= 0.9 and overshoot >= 0.05 and decreasing \
        and flux_ok and elapsed < 300.0
    report(10, "transient dynamics", ok,
           f"plateau(0.04)={plateau_04:.3f}, overshoot(0.01)={overshoot:.1%}, "
           f"times={['%.2fms' % (t*1e3) for t in times]}, flux_3sigma={flux_ok}, "
           f"{elapsed:.0f}s")


def test_criterion_11_determinism(tmp_path, capsys):
    from clocksync.cli import run
    t0 = time.time()
    identical = True
    for args, fname in [
            (["sweep", "--points", "4", "--g-max", "0.01", "--duration",
              "0.3", "--tick-duration", "0.3", "--seed", "13"], "sweep.csv"),
            (["transient", "--g-over-kappa", "0.03", "--n-traj", "60",
              "--seed", "13"], "transient.csv"),
            (["trajectory", "--g-over-kappa", "0.01", "--duration", "0.4",
              "--seed", "13"], "trajectory.csv")]:
        blobs = []
        for sub in ("x", "y"):
            out = tmp_path / (fname + sub)
            assert run(args + ["--out", str(out)]) == 0
            blobs.append((out / fname).read_bytes())
        identical &= blobs[0] == blobs[1]
    elapsed = time.time() - t0
    report(11, "seeded runs byte-identical", identical,
           f"3 commands x 2 runs, {elapsed:.0f}s")
