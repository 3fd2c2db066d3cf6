"""Bit-for-bit oracle for the analytic path's arrays.

The model builds a slice of couplings as arrays with the same functions
that serve one point.  The oracle below is a test-only copy of the
per-point construction those functions replaced (``model.py`` and
``steadystate.py`` at commit 2b545ca): one coupling at a time, in Python
complex and float arithmetic.  Its normal modes take each mode's cavity
damping as -Gamma for equal-sign couplings, as ``normal_modes_closed_form``
does.  Every drift, diffusion, normal mode and sweep row must match it
bit for bit, signed zeros included.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clocksync import ClockSyncError, PhysicalParams, paper_preset
from clocksync import experiments
from clocksync.experiments import (_model_arrays, operating_point,
                                   sweep_coupling)
from clocksync.model import TWO_PI, NormalModes
from clocksync.steadystate import solve_lyapunov


def oracle_point(params, g):
    """(params at g, drift, diffusion, lambda_plus, lambda_minus, sideband
    weight), one coupling evaluated as the package did per point."""
    s1 = np.sign(params.G1) if params.G1 != 0 else 1.0
    s2 = np.sign(params.G2) if params.G2 != 0 else -1.0
    gk = g * params.kappa
    p = dataclasses.replace(params, G1=s1 * gk, G2=s2 * gk)

    def chi_a(w):
        return 1.0 / (p.kappa - 1j * (p.detuning + w))

    chi_c = -1j * (chi_a(p.omega_mid) - np.conj(chi_a(-p.omega_mid)))
    lam = p.G1 * p.G2 * chi_c
    d, G = float(lam.real), float(lam.imag)
    chi_c, lam = complex(chi_c), complex(lam)

    dw = p.delta_omega
    Gs = -G if (lam * chi_c.conjugate()).real > 0 else G  # G1 G2 > 0
    centre = 0.5 * dw - 0.25j * (p.gamma1 + p.gamma2 + 4.0 * Gs)
    root = np.sqrt(0.25 * (dw - 0.5j * (p.gamma1 - p.gamma2)) ** 2
                   + (d + 1j * G) ** 2 + 0j)
    l1, l2 = centre + root, centre - root
    g1, g2 = -2.0 * l1.imag, -2.0 * l2.imag
    if g1 > g2 or (g1 == g2 and l1.real < l2.real):
        l1, l2 = l2, l1

    s1c = (p.G1 ** 2) * chi_c
    s2c = (p.G2 ** 2) * chi_c
    H = np.array([
        [dw + s1c.real - 1j * (0.5 * p.gamma1 - s1c.imag), lam],
        [lam, s2c.real - 1j * (0.5 * p.gamma2 - s2c.imag)],
    ], dtype=complex)
    sw = (abs(chi_a(p.omega_mid)) ** 2 + abs(chi_a(-p.omega_mid)) ** 2)
    D = np.diag([p.gamma1 * (p.nth1 + 0.5),
                 p.gamma2 * (p.nth2 + 0.5)]).astype(complex)
    g_vec = np.array([p.G1, p.G2])
    D += 2.0 * p.kappa * (p.na_in + 0.5) * sw * np.outer(g_vec, g_vec)
    return p, -1j * H, D, complex(l1), complex(l2), sw


def oracle_row(params, g):
    """The analytic sweep row at g, as the package built it per point."""
    p, A, D, lp, lm, sw = oracle_point(params, g)
    V = solve_lyapunov(A, D)
    n1 = V[0, 0].real - 0.5
    n2 = V[1, 1].real - 0.5
    ncr = V[0, 1].real
    na = sw * (p.G1 ** 2 * n1 + p.G2 ** 2 * n2 + 2.0 * p.G1 * p.G2 * ncr)
    n1, n2, na, ncr = float(n1), float(n2), float(na), float(ncr)
    mu1 = p.gamma1 * ((n1 + 0.5) / (p.nth1 + 0.5) - 1.0)
    mu2 = p.gamma2 * ((n2 + 0.5) / (p.nth2 + 0.5) - 1.0)
    mua = 2.0 * p.kappa * na
    gp, gm = -2.0 * lp.imag, -2.0 * lm.imag
    ratio = np.nan if gm == 0 else gp / gm
    C = float(np.clip(ncr / np.sqrt((n1 + 0.5) * (n2 + 0.5)), -1.0, 1.0))
    return [g, math.nan, math.nan, math.nan, math.nan, gp, gm, ratio,
            mu1, mu2, mua, float(mu1 + mu2 + mua), C]


def check_against_oracle(params, grid):
    """Model arrays, operating points and analytic rows of grid equal the
    oracle's bits."""
    want = [oracle_point(params, g) for g in grid]
    G1, G2, A, D, modes = _model_arrays(params, grid)
    assert A.tobytes() == np.array([w[1] for w in want]).tobytes()
    assert D.tobytes() == np.array([w[2] for w in want]).tobytes()
    lam = np.stack([modes.lambda_plus, modes.lambda_minus], axis=-1)
    assert lam.tobytes() == np.array([w[3:5] for w in want]).tobytes()
    assert np.stack([G1, G2], axis=-1).tobytes() == \
        np.array([(w[0].G1, w[0].G2) for w in want]).tobytes()
    dyn, nm = operating_point(params, grid[0])
    assert (dyn.params, nm) == (want[0][0], NormalModes(*want[0][3:5]))
    try:
        rows = [oracle_row(params, g) for g in grid]
    except ClockSyncError as exc:  # the first failing point in grid order
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            sweep_coupling(params, grid=grid, protocol="analytic")
        return
    got = sweep_coupling(params, grid=grid, protocol="analytic")
    assert np.array([dataclasses.astuple(r) for r in got]).tobytes() == \
        np.array(rows).tobytes()


@st.composite
def model_params(draw):
    kappa = TWO_PI * draw(st.floats(1e5, 1e7))
    return PhysicalParams(
        omega1=TWO_PI * draw(st.floats(1e4, 1e6)),
        omega2=TWO_PI * draw(st.floats(1e4, 1e6)),
        gamma1=TWO_PI * draw(st.floats(1.0, 100.0)),
        gamma2=TWO_PI * draw(st.floats(1.0, 100.0)),
        kappa=kappa,
        detuning=kappa * draw(st.floats(-1.0, -0.05)),
        # only the signs reach a sweep: both zero is the (+, -) default
        G1=draw(st.sampled_from([0.0, -0.0, 3.0, -3.0])),
        G2=draw(st.sampled_from([0.0, -0.0, 5.0, -5.0])),
        nth1=draw(st.floats(0.0, 1e10)),
        nth2=draw(st.floats(0.0, 1e10)),
        na_in=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 10.0)))


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(model_params(), st.lists(st.floats(0.0, 0.1), min_size=1,
                                    max_size=40), st.integers(1, 16))
    @example(paper_preset(), [0.0, 0.001, 0.02, 0.05], 3)
    @example(dataclasses.replace(paper_preset(), G1=-3.0, G2=-5.0,
                                 na_in=2.5), [0.0, 0.013, 0.04], 2)
    @example(dataclasses.replace(paper_preset(), G1=-1.0, G2=2.0,
                                 na_in=0.7), [0.03, 0.0, 0.01, 0.02], 1)
    def test_slices_match_per_point_oracle(self, params, grid, size):
        # small slices, so most grids cross a slice boundary
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "ANALYTIC_SLICE", size)
            check_against_oracle(params, grid)

    def test_paper_grid_across_a_slice(self, paper):
        grid = np.linspace(0.0, 0.05, experiments.ANALYTIC_SLICE + 2)
        check_against_oracle(paper, grid.tolist())

    def test_couplings_whose_square_pow_rounds_off(self, paper):
        # G ** 2 is pow(G, 2), which for some G rounds off G * G; on the
        # 10001-point paper grid a few such couplings exist, and each row
        # must keep pow's rounding
        grid = np.linspace(0.0, 0.05, 10001).tolist()
        odd = [g for g in grid
               if (g * paper.kappa) ** 2 != (g * paper.kappa) * (g * paper.kappa)]
        assert odd
        check_against_oracle(paper, odd)
