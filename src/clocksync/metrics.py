"""Observables: synchronization degree, tick statistics, spectra, transients.

All metrics are pure functions over immutable series, except three
streaming reducers that consume a stream of sample blocks piece by piece:
``TickStats`` turns the tick trains of each D window (``d_windows``) into
D and N, ``PearsonStats`` merges the Pearson sums of consecutive pieces
into C, and ``EnsembleMoments`` reduces (members, times, 2) blocks of a
quench ensemble into the per-time moments behind R(t) and the fluxes.
Their memory is bounded by one piece, not by the record.  Ensemble sums
run in member order and every sum has a fixed order, so results are
reproducible bit for bit and do not depend on how a record is split into
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConstantSeriesError, EnsembleError, PlateauError,
                     TickExtractionError)
from .model import PhysicalParams
from .steadystate import bath_fluxes
from .trajectory import Trajectory

# Ticks are only trusted while the envelope has healthy amplitude: below
# ~10% of rms the per-period phase error grows like 1/|b| and its heavy
# tail would dominate (and destabilize) the period-variance estimate.
# The floor trims a fixed ~1% of periods at every operating point.
MAGNITUDE_FLOOR_FRACTION = 0.1
MIN_FLUX_ENSEMBLE = 50
# D averages var(tau) over windows of this length; the offset ramp of
# unsynchronized clocks grows with it, so it is part of D's definition.
D_WINDOW_SECONDS = 0.25
# transient_time: R is smoothed by a moving median over SMOOTH_FRAC of the
# record; the last PLATEAU_FRAC must stay within PLATEAU_TOL of R's range,
# and the transient ends where the smoothed R reaches LEVEL of its maximum.
SMOOTH_FRAC = 0.05
PLATEAU_FRAC = 0.2
PLATEAU_TOL = 0.1
LEVEL = 0.95


@dataclass(frozen=True)
class TickSeries:
    """Tick instants of one clock and the periods between them.

    gaps lists (start, end) times of intervals where the envelope
    magnitude fell below the phase-definition floor; ticks there are kept
    but flagged rather than silently dropped.
    """

    tick_times: np.ndarray
    periods: np.ndarray
    gaps: tuple

    def __post_init__(self):
        if len(self.tick_times) >= 2 and np.min(self.periods) <= 0:
            raise ValueError("tick times must be strictly increasing")


@dataclass(frozen=True)
class SyncMetrics:
    """Deviation D and single-clock accuracies N1, N2 of a clock pair."""

    D: float
    N1: float
    N2: float


@dataclass(frozen=True)
class TransientResult:
    """Quench-ensemble R(t), per-bath fluxes, transient time, record length."""

    times: np.ndarray
    R: np.ndarray
    mu_b1_t: np.ndarray
    mu_b2_t: np.ndarray
    mu_a_t: np.ndarray
    transient_time: float
    duration: float


class PearsonStats:
    """Streaming Pearson correlation of two series fed in consecutive pieces.

    ``update`` takes a piece's means and centred sums of squares and
    products, summed in numpy's fixed pairwise order (a BLAS dot product
    sums in an order that follows its thread count), and merges them into
    the running totals (Chan, Golub & LeVeque, Am. Stat. 37, 242, 1983).
    One update over a whole series is the plain two-pass formula.  The
    deviations of each series are scaled by a power of two fixed by the
    first piece: exact in floating point, and it keeps the squares of
    tiny deviations from underflowing (C is scale free).
    """

    def __init__(self):
        self.n = 0
        self.mean = np.zeros(2)
        self.m = np.zeros(3)  # centred sums of d1 d1, d2 d2, d1 d2

    def update(self, x1, x2):
        x = np.array([x1, x2], dtype=float)
        nb = x.shape[1]
        mean = np.array([x[0].mean(), x[1].mean()])
        d = x - mean[:, None]
        if not self.n:
            # capped so that subnormal deviations get a finite scale
            e = np.frexp(np.max(np.abs(d), axis=1))[1]
            self.scale = np.ldexp(1.0, np.minimum(-e, 1023))
        d *= self.scale[:, None]
        n = self.n + nb
        # the between-piece term vanishes on the first piece
        delta = mean - self.mean
        ds = delta * self.scale * math.sqrt(self.n * nb / n)
        self.m += [_dot(d[0], d[0]) + ds[0] * ds[0],
                   _dot(d[1], d[1]) + ds[1] * ds[1],
                   _dot(d[0], d[1]) + ds[0] * ds[1]]
        self.mean += delta * (nb / n)
        self.n = n
        return self

    def result(self) -> float:
        """C; ConstantSeriesError if either series has zero variance."""
        m11, m22, m12 = self.m
        if m11 == 0.0 or m22 == 0.0:
            raise ConstantSeriesError(
                "correlation of a constant series is undefined")
        return float(np.clip(m12 / math.sqrt(m11 * m22), -1.0, 1.0))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) in numpy's fixed pairwise order; a BLAS dot product
    sums in an order that follows its thread count."""
    return float(np.add.reduce(a * b))


def _unwrapped_angle(b: np.ndarray) -> np.ndarray:
    """np.unwrap(np.angle(b)), bit for bit, with work only at the jumps.

    np.unwrap cumsums a correction that is 0.0 wherever |step| < pi;
    adding 0.0 is exact, so running sums over the jumps alone, held
    constant between them, equal its cumsum.
    """
    p = np.angle(b)
    dd = np.diff(p)
    jumps = np.flatnonzero(~(np.abs(dd) < np.pi))
    step = dd[jumps]
    ddmod = np.mod(step + np.pi, 2 * np.pi) - np.pi
    ddmod[(ddmod == -np.pi) & (step > 0)] = np.pi
    sums = np.concatenate([[0.0], np.cumsum(ddmod - step)])
    p[1:] += np.repeat(sums, np.diff(jumps, prepend=0, append=len(dd)))
    return p


def _runs(idx: np.ndarray):
    """(first, last) of each run of consecutive values in increasing idx."""
    first = np.diff(idx, prepend=idx[:1] - 2) > 1
    last = np.diff(idx, append=idx[-1:] + 2) > 1
    return idx[first], idx[last]


def extract_ticks(traj: Trajectory, clock: int) -> TickSeries:
    """Tick instants of one clock from its envelope record.

    A tick is a crossing of the unwrapped oscillator phase
    phi(t) = reference_frequency * t - arg b(t) through a multiple of
    2*pi (equivalent to one carrier cycle of the displacement), linearly
    interpolated between samples.  TickExtractionError if the phase is
    not advancing or the record holds fewer than 10 ticks.
    """
    b = {1: traj.b1, 2: traj.b2}[clock]
    t = traj.times
    mag = np.abs(b)
    floor = MAGNITUDE_FLOOR_FRACTION * np.sqrt(np.mean(mag ** 2))
    # contiguous low-magnitude runs -> flagged (t_start, t_end) pairs
    first, last = _runs(np.flatnonzero(mag < floor))
    gaps = list(zip(t[first], t[last]))

    # 2.4-4.7 ms per 250 k-sample D window, against 8.5-16 ms for np.unwrap
    phase = traj.reference_frequency * t - _unwrapped_angle(b)
    dphi = np.diff(phase)
    slips = np.flatnonzero(dphi <= 0)
    # median(dphi) <= 0 unless more than half the steps advance (0.1 ms per
    # D window, np.median 3.8-5.3 ms); np.median decides only an exact tie
    if 2 * len(slips) > len(dphi) or (
            2 * len(slips) == len(dphi) and np.median(dphi) <= 0):
        raise TickExtractionError(
            "oscillator phase is not advancing; envelope evolves faster "
            "than the carrier, tick extraction is ill-defined")
    if len(slips):
        # isolated phase slips (envelope swung past the origin): flag the
        # affected intervals as gaps, then clamp so crossings stay defined
        first, last = _runs(slips)
        gaps.extend(zip(t[first], t[last + 1]))
        gaps.sort()
        phase = np.maximum.accumulate(phase)
    m0 = math.floor(phase[0] / (2 * np.pi)) + 1  # first crossing after t=0
    m1 = math.floor(phase[-1] / (2 * np.pi))
    if m1 - m0 + 1 < 10:
        raise TickExtractionError(
            "trajectory too short: fewer than 10 ticks")
    targets = 2 * np.pi * np.arange(m0, m1 + 1)
    hi = np.clip(np.searchsorted(phase, targets), 1, len(phase) - 1)
    lo = hi - 1
    span = phase[hi] - phase[lo]
    frac = np.divide(targets - phase[lo], span, where=span > 0,
                     out=np.zeros_like(span))
    ticks = t[lo] + frac * (t[hi] - t[lo])
    return TickSeries(tick_times=ticks, periods=np.diff(ticks),
                      gaps=tuple(gaps))


def _clean_periods(ticks: TickSeries) -> np.ndarray:
    """Periods not overlapping a flagged gap (phase-undefined stretch)."""
    if not ticks.gaps:
        return ticks.periods
    gaps = np.array(ticks.gaps, dtype=float)
    gaps = gaps[np.argsort(gaps[:, 0])]
    # reach[k]: latest end among the first k gaps by start (-inf for none)
    reach = np.concatenate([[-np.inf], np.maximum.accumulate(gaps[:, 1])])
    starts, ends = ticks.tick_times[:-1], ticks.tick_times[1:]
    # a period overlaps a gap iff some gap starting at or before the
    # period's end ends at or after its start
    n_started = np.searchsorted(gaps[:, 0], ends, side="right")
    return ticks.periods[reach[n_started] < starts]


def _window_samples(dt: float) -> int:
    return max(int(round(D_WINDOW_SECONDS / dt)), 1000)


def min_tick_samples(dt: float) -> int:
    """Fewest samples of spacing dt that make a counted D window."""
    return min(_window_samples(dt), 10000)


def windows(blocks, size: int, min_tail: int = 1):
    """Cut a stream of (m, 2) sample blocks into (size, 2) windows.

    Windows are copied into one reused buffer, so block boundaries never
    show: window j always holds samples j size .. (j + 1) size - 1 of the
    stream.  A trailing partial window is yielded only if it holds
    min_tail samples.
    """
    window, filled = np.empty((size, 2), dtype=complex), 0
    for block in blocks:
        while len(block):
            take = min(size - filled, len(block))
            window[filled:filled + take] = block[:take]
            block = block[take:]
            filled += take
            if filled == size:
                yield window
                filled = 0
    if filled >= min_tail:
        yield window[:filled]


def d_windows(blocks, dt: float):
    """The D windows of a stream of (m, 2) sample blocks of spacing dt:
    D_WINDOW_SECONDS each (at least 1000 samples), and a trailing partial
    window only if it holds min_tick_samples(dt)."""
    return windows(blocks, _window_samples(dt), min_tick_samples(dt))


class TickStats:
    """Streaming deviation D and accuracies N of one clock pair.

    ``update`` takes the two tick trains of one D window, paired by index.
    tau_k, the accumulated period difference, is the offset of the clock
    readings after k ticks; its frequency-mismatch ramp dominates
    unsynchronized clocks.  D is the mean over windows of var(tau) over
    the squared mean period.  N_i = mean(t_i)^2 / var(t_i) uses period
    moments over all windows, centred on the nominal period, without the
    periods that overlap flagged gaps; zero variance gives +inf.
    """

    def __init__(self, nominal_period: float):
        self.t0 = nominal_period
        self.n, self.s1, self.s2 = np.zeros((3, 2))  # per clock
        self.d_vars = []
        self.period_sum = 0.0
        self.period_count = 0

    def update(self, ticks1: TickSeries, ticks2: TickSeries):
        for i, tk in enumerate((ticks1, ticks2)):
            p = _clean_periods(tk) - self.t0
            self.n[i] += len(p)
            self.s1[i] += p.sum()
            self.s2[i] += (p * p).sum()
        p1, p2 = ticks1.periods, ticks2.periods
        m = min(len(p1), len(p2))
        tau = np.cumsum(p2[:m] - p1[:m])
        self.d_vars.append(float(np.var(tau, ddof=1)))
        self.period_sum += float(np.sum(0.5 * (p1[:m] + p2[:m])))
        self.period_count += m

    def result(self) -> SyncMetrics:
        if self.period_count < 10:
            raise EnsembleError("need at least 10 periods per clock")
        mean_period = self.period_sum / self.period_count
        D = float(np.mean(self.d_vars)) / mean_period ** 2
        N = []
        for n, s1, s2 in zip(self.n, self.s1, self.s2):
            if n < 10:
                N.append(math.nan)
                continue
            var = (s2 - s1 ** 2 / n) / (n - 1)
            N.append(math.inf if var <= 0.0 else
                     float((self.t0 + s1 / n) ** 2 / var))
        return SyncMetrics(D=D, N1=N[0], N2=N[1])


def power_spectrum(x, dt: float):
    """Welch PSD (Hann window, 50% overlap, density normalization) over
    segments of 2^floor(log2(n/8)) samples, at least 2.

    Each segment has its mean removed, is windowed and transformed; the
    periodograms are averaged and scaled by dt / sum(window^2) (Welch,
    IEEE Trans. Audio Electroacoust. 15, 70, 1967).  Trailing samples
    that fill no segment are dropped.  Real input gives a one-sided
    spectrum; complex input (envelopes) a two-sided one with frequencies
    relative to the carrier, sorted ascending.  For broadband signals
    sum(psd)*df reproduces the series variance; line features narrower
    than a bin are resolution limited.
    """
    x = np.asarray(x)
    n = len(x)
    nperseg = 2 ** int(np.log2(max(n // 8, 2)))
    if n < 2 * nperseg:
        raise ValueError("series shorter than two Welch segments")
    onesided = not np.iscomplexobj(x)
    # periodic Hann window
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(nperseg) / nperseg)
    starts = range(0, n - nperseg + 1, nperseg // 2)
    fft = np.fft.rfft if onesided else np.fft.fft
    psd = 0.0  # summed in segment order, one segment in memory at a time
    for s in starts:
        segment = x[s:s + nperseg]
        psd += np.abs(fft((segment - segment.mean()) * window)) ** 2
    psd = psd / len(starts) * (dt / np.sum(window ** 2))
    if onesided:
        psd[1:-1] *= 2  # all but DC and Nyquist (nperseg is even)
        return np.fft.rfftfreq(nperseg, dt), psd
    return np.fft.fftshift(np.fft.fftfreq(nperseg, dt)), np.fft.fftshift(psd)


class EnsembleMoments:
    """Per-time ensemble second moments of a stream of member blocks.

    ``update`` takes (B, m, 2) blocks that hold every member's (b1, b2)
    at m consecutive times, removes the across-member mean at each time
    and writes sum_j db1 db2*, sum_j |db1|^2 and sum_j |db2|^2 into
    length-T arrays.  Every sum runs over a (B, k, 2) array along the
    member axis, which numpy adds row by row, in member order, whatever
    k: without the trailing pair axis a one-time block would switch it to
    pairwise summation.  So the moments do not depend on how the times
    are split into blocks.  Each block is reduced in one pass, with
    temporaries a few times its size; fed the engine's chunks, memory is
    O(T + B x chunk) rather than O(B x T).
    """

    def __init__(self, n_times: int):
        self.members = 0
        self.filled = 0
        self.cross = np.empty(n_times, dtype=complex)
        self.var = np.empty((n_times, 2))

    def update(self, block):
        n = block.shape[0]
        if self.members not in (0, n):
            raise EnsembleError("every block must hold the same members")
        self.members = n
        d = block - np.add.reduce(block, axis=0) / n
        t = slice(self.filled, self.filled + block.shape[1])
        cross = (d[..., 0] * np.conj(d[..., 1])).view(float)
        self.cross[t] = np.add.reduce(
            cross.reshape(block.shape), axis=0).view(complex)[:, 0]
        self.var[t] = np.add.reduce(np.abs(d) ** 2, axis=0)
        self.filled = t.stop

    def correlation(self) -> np.ndarray:
        """R(t) = Re sum db1 db2* / sqrt(sum|db1|^2 sum|db2|^2), the
        carrier-cycle average of sum dx1 dx2 / sqrt(sum dx1^2 sum dx2^2);
        nan where either variance vanishes."""
        if self.members < 2:
            raise EnsembleError("need at least 2 trajectories")
        num = np.real(self.cross)
        v1, v2 = self.var.T
        denom = np.sqrt(v1 * v2)
        with np.errstate(invalid="ignore", divide="ignore"):
            R = np.where(denom > 0, num / denom, np.nan)
        return np.clip(R, -1.0, 1.0)

    def fluxes(self, params: PhysicalParams):
        """(mu_b1, mu_b2, mu_a) per time from the effective occupations
        n_bi + 1/2 = <|db_i|^2> and n_cross = Re<db1 db2*>."""
        if self.members < MIN_FLUX_ENSEMBLE:
            raise EnsembleError(
                f"need at least {MIN_FLUX_ENSEMBLE} trajectories, "
                f"got {self.members}")
        n = self.members
        v1, v2 = self.var.T
        ncr = np.real(self.cross / n)
        return bath_fluxes(params, v1 / n - 0.5, v2 / n - 0.5, ncr)[1:]


def ensemble_moments(ensemble: list[Trajectory]) -> EnsembleMoments:
    """``EnsembleMoments`` of a stored ensemble on a common time grid,
    reduced in one pass over the whole record: R(t) is its
    ``correlation()``, the per-bath fluxes its ``fluxes(params)``.  A
    library and test adapter; ``transient_experiment`` streams instead."""
    if not ensemble:
        raise EnsembleError("need at least 1 trajectory")
    t0 = ensemble[0].times
    for tr in ensemble[1:]:
        if tr.times.shape != t0.shape or not np.allclose(tr.times, t0):
            raise EnsembleError("trajectories must share a common time grid")
    moments = EnsembleMoments(len(t0))
    moments.update(np.stack([np.stack([tr.b1, tr.b2], axis=-1)
                             for tr in ensemble]))
    return moments


def transient_time(times, R) -> float:
    """First time the smoothed R reaches LEVEL of its maximum.

    R is smoothed with a moving median of width SMOOTH_FRAC * len(R).
    The last PLATEAU_FRAC of the window must be stationary (spread below
    PLATEAU_TOL of the overall range), otherwise PlateauError suggests a
    longer window.  The crossing is linearly interpolated.
    """
    times = np.asarray(times, dtype=float)
    R = np.asarray(R, dtype=float)
    if len(R) != len(times) or len(R) < 10:
        raise ValueError("need matching series of length >= 10")
    w = max(1, int(round(SMOOTH_FRAC * len(R))))
    from scipy.ndimage import median_filter  # slow to import; deferred
    smoothed = median_filter(R, size=w, mode="nearest") if w > 1 else R

    tail = smoothed[int((1.0 - PLATEAU_FRAC) * len(R)):]
    span = smoothed.max() - smoothed.min()
    if span > 0 and (tail.max() - tail.min()) > PLATEAU_TOL * span:
        raise PlateauError(
            "no plateau in the last "
            f"{PLATEAU_FRAC:.0%} of the window; use a longer record")

    target = LEVEL * smoothed.max()
    idx = int(np.argmax(smoothed >= target))
    if idx == 0:
        return float(times[0])
    lo, hi = smoothed[idx - 1], smoothed[idx]
    frac = 0.0 if hi == lo else (target - lo) / (hi - lo)
    return float(times[idx - 1] + frac * (times[idx] - times[idx - 1]))
