"""Observables: synchronization degree, tick statistics, spectra, transients.

All metrics are pure functions over immutable series, except three
streaming reducers that consume a stream of sample blocks piece by piece:
``TickStats`` turns the clock periods of each D window (``d_windows``)
into D and N, ``PearsonStats`` merges the Pearson sums of consecutive
pieces into C, and ``EnsembleMoments`` reduces (members, times, 2) blocks
of a quench ensemble into the per-time moments behind R(t) and the fluxes.
Their memory is bounded by one piece, not by the record.  Ensemble sums
run in member order and every sum has a fixed order, so results are
reproducible bit for bit and do not depend on how a record is split into
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeriesError, EnsembleError, PlateauError
from .model import PhysicalParams
from .steadystate import bath_fluxes

# Periods are only trusted while the envelope has healthy amplitude: below
# ~10% of rms the per-period phase error grows like 1/|b| and its heavy
# tail would dominate (and destabilize) the period-variance estimate.
# The floor trims a fixed ~1% of periods at every operating point.
MAGNITUDE_FLOOR_FRACTION = 0.1
MIN_FLUX_ENSEMBLE = 50
# D averages var(tau) over windows of this length; the offset ramp of
# unsynchronized clocks grows with it, so it is part of D's definition.
D_WINDOW_SECONDS = 0.25
# The shortest tick record, and the shortest trailing D window that
# counts: 4000 periods of the paper's 2.5 us carrier.
MIN_TICK_SECONDS = 0.01
# transient_time: R is smoothed by a moving median over SMOOTH_FRAC of the
# record; the last PLATEAU_FRAC must stay within PLATEAU_TOL of R's range,
# and the transient ends where the smoothed R reaches LEVEL of its maximum.
SMOOTH_FRAC = 0.05
PLATEAU_FRAC = 0.2
PLATEAU_TOL = 0.1
LEVEL = 0.95


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


def windows(blocks, size: int, min_tail: int = 1, overlap: int = 0):
    """Cut a stream of (m, 2) sample blocks into (size, 2) windows, each
    starting with the last ``overlap`` samples of the one before.

    Windows are copied into one reused buffer, so block boundaries never
    show: window j always holds samples j (size - overlap) ..
    j (size - overlap) + size - 1 of the stream.  A trailing partial
    window is yielded only if it holds min_tail samples past the overlap.
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
                window[:overlap] = window[size - overlap:]
                filled = overlap
    if filled >= overlap + min_tail:
        yield window[:filled]


def _periods_in(seconds: float, period: float) -> int:
    """Whole nominal periods in ``seconds``, rounded as a record's step
    count is, and at least 2 (var(tau) needs two)."""
    return max(int(round(seconds / period)), 2)


def d_windows(states, period: float):
    """The D windows of a stream of (m, 2) states one nominal period
    apart: the end states of D_WINDOW_SECONDS of periods each, so
    consecutive windows share a state, and a trailing partial window only
    if it spans MIN_TICK_SECONDS."""
    return windows(states, _periods_in(D_WINDOW_SECONDS, period) + 1,
                   _periods_in(MIN_TICK_SECONDS, period), overlap=1)


class TickStats:
    """Streaming deviation D and accuracies N of one clock pair.

    ``update`` takes the two clocks' periods of one D window, paired by
    index, and for each clock a mask of the periods that count for N.
    tau_k, the accumulated period difference, is the offset of the clock
    readings after k ticks; its frequency-mismatch ramp dominates
    unsynchronized clocks.  D is the mean over windows of var(tau) over
    the squared mean period.  N_i = mean(t_i)^2 / var(t_i) uses the
    moments of the masked periods over all windows, centred on the
    nominal period; zero variance gives +inf.
    """

    def __init__(self, nominal_period: float):
        self.t0 = nominal_period
        self.n, self.s1, self.s2 = np.zeros((3, 2))  # per clock
        self.d_vars = []
        self.period_sum = 0.0
        self.period_count = 0

    def update(self, p1, p2, keep1, keep2):
        for i, (p, keep) in enumerate(((p1, keep1), (p2, keep2))):
            p = p[keep] - self.t0
            self.n[i] += len(p)
            self.s1[i] += p.sum()
            self.s2[i] += (p * p).sum()
        tau = np.cumsum(p2 - p1)
        self.d_vars.append(float(np.var(tau, ddof=1)))
        self.period_sum += float(np.sum(0.5 * (p1 + p2)))
        self.period_count += len(p1)

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
