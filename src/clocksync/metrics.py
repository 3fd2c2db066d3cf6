"""Observables: synchronization degree, tick statistics, spectra, transients.

All metrics are pure functions over immutable series, except the
streaming reducers that consume a stream of sample blocks piece by piece:
``TickStats`` turns the clock periods of each D window (``d_windows``)
into D and N, ``EnsembleMoments`` reduces (members, times, 2) blocks
into the per-time plain sums about zero behind C, R(t) and the fluxes
and adds the sums of other members (a quench's groups, or a tick
record's D windows), and ``power_spectra`` sums the periodograms of each
Welch segment.  Their memory is bounded by one piece, not by the record.
Ensemble sums run in member order, groups are added in the order they
are given, and every sum has a fixed order, so results are reproducible
bit for bit and do not depend on how a record is split into blocks.
``PearsonStats`` is the plain two-pass Pearson correlation of two whole
series.
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
# moving_median selects over this many copied window elements at a time
MEDIAN_SLICE_ELEMENTS = 2 ** 18


@dataclass(frozen=True)
class SyncMetrics:
    """Deviation D, single-clock accuracies N1, N2 and synchronization
    degree C of a clock pair; C is nan where only periods were seen
    (``TickStats``)."""

    D: float
    N1: float
    N2: float
    C: float = math.nan


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
    """Pearson correlation of two whole series by the two-pass formula.

    ``update`` sums the centred squares and products of two series in
    numpy's fixed pairwise order (a BLAS dot product sums in an order
    that follows its thread count).  The deviations of each series
    are scaled by a power of two: exact in floating point, and it keeps
    the squares of tiny deviations from underflowing (C is scale free).
    """

    def update(self, x1, x2):
        x = np.array([x1, x2], dtype=float)
        d = x - np.array([x[0].mean(), x[1].mean()])[:, None]
        # capped so that subnormal deviations get a finite scale
        e = np.frexp(np.max(np.abs(d), axis=1))[1]
        d *= np.ldexp(1.0, np.minimum(-e, 1023))[:, None]
        self.m = _dot(d[0], d[0]), _dot(d[1], d[1]), _dot(d[0], d[1])
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
    """Cut a stream of (m, k) sample blocks into (size, k) windows, each
    starting with the last ``overlap`` samples of the one before.

    Windows are copied into one reused buffer, of the first block's
    dtype, so block boundaries never show: window j always holds samples
    j (size - overlap) .. j (size - overlap) + size - 1 of the stream.  A
    trailing partial window is yielded only if it holds min_tail samples
    past the overlap.
    """
    window, filled = None, 0
    for block in blocks:
        if window is None:
            window = np.empty((size, block.shape[1]), dtype=block.dtype)
        while len(block):
            take = min(size - filled, len(block))
            window[filled:filled + take] = block[:take]
            block = block[take:]
            filled += take
            if filled == size:
                yield window
                window[:overlap] = window[size - overlap:]
                filled = overlap
    if window is not None and filled >= overlap + min_tail:
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


def power_spectra(blocks, n: int, dt: float):
    """(f, psd): the two-sided Welch PSD (Hann window, 50% overlap,
    density normalization) of each column of a stream of (m, k) sample
    blocks, n samples in all, over segments of 2^floor(log2(n/8))
    samples, at least 2; psd is (segment, k).

    Each segment has its mean removed, is windowed and transformed; the
    periodograms are averaged and scaled by dt / sum(window^2) (Welch,
    IEEE Trans. Audio Electroacoust. 15, 70, 1967).  Segments are the
    ``windows`` of the stream, one in memory at a time, so the record
    need not be; trailing samples that fill no segment are dropped.
    Frequencies are sorted ascending; for an envelope they are offsets
    from its carrier.  For broadband signals sum(psd)*df reproduces the
    series variance; line features narrower than a bin are resolution
    limited.
    """
    nperseg = 2 ** int(np.log2(max(n // 8, 2)))
    if n < 2 * nperseg:
        raise ValueError("series shorter than two Welch segments")
    # periodic Hann window
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(nperseg) / nperseg)
    half = nperseg // 2
    psd, count = 0.0, 0  # summed in segment order
    for segments in windows(blocks, nperseg, nperseg - half, overlap=half):
        # a column at a time: its mean is numpy's pairwise sum
        psd += np.column_stack([
            np.abs(np.fft.fft((col - col.mean()) * window)) ** 2
            for col in segments.T])
        count += 1
    psd = psd / count * (dt / np.sum(window ** 2))
    return (np.fft.fftshift(np.fft.fftfreq(nperseg, dt)),
            np.fft.fftshift(psd, axes=0))


def power_spectrum(x, dt: float):
    """(f, psd) of ``power_spectra`` for one series x."""
    x = np.asarray(x)
    f, psd = power_spectra([x[:, None]], len(x), dt)
    return f, psd[:, 0]


class EnsembleMoments:
    """Per-time second moments about zero of a stream of member blocks.

    ``update`` takes (B, m, 2) blocks of every member's (b1, b2) at m
    consecutive times and writes two plain sums into length-T arrays:
    ``cross`` = Re sum_j b1 b2* and ``squares`` = sum_j |b_i|^2.  Each
    runs along the member axis of a (B, k, 2) array, which numpy adds row
    by row, in member order, whatever k (a one-time block without the
    pair axis would be summed pairwise), so no sum depends on how the
    times are split into blocks, and memory is O(T + B x chunk) rather
    than O(B x T).  ``merge`` adds the sums of other members over the
    same times, as a quench adds its groups.  The moments are about zero:
    every envelope has an exact zero mean (it starts at L zeta, its noise
    is S zeta and its one-step map has no constant term), so they are
    plug-in estimates of the covariance of ``analytic_C`` and the
    occupations of ``bath_fluxes``.  The sampled states of each D window
    of one tick record, taken as the members of one time, give its C
    (``experiments.tick_stats``).
    """

    def __init__(self, n_times: int):
        self.members = 0
        self.filled = 0
        self.cross = np.empty(n_times)
        self.squares = np.empty((n_times, 2))

    def update(self, block):
        n = block.shape[0]
        if self.members not in (0, n):
            raise EnsembleError("every block must hold the same members")
        self.members = n
        t = slice(self.filled, self.filled + block.shape[1])
        # Re of the summed (re, im) pairs of b1 b2*, a product written
        # to memory of its own (see ``trajectory._banded_blocks``)
        cross = (block[..., 0] * np.conj(block[..., 1])).view(float)
        self.cross[t] = np.add.reduce(cross.reshape(block.shape), axis=0)[:, 0]
        del cross
        sq = np.abs(block)
        self.squares[t] = np.add.reduce(np.square(sq, out=sq), axis=0)
        self.filled = t.stop

    def merge(self, other: "EnsembleMoments") -> "EnsembleMoments":
        """Add other's members, in place, and return self.  EnsembleError
        unless both have members over the same times."""
        if (other.filled != self.filled or len(other.cross) != len(self.cross)
                or not (self.members and other.members)):
            raise EnsembleError("merged moments must hold members over the "
                                "same times")
        self.cross += other.cross
        self.squares += other.squares
        self.members += other.members
        return self

    def correlation(self) -> np.ndarray:
        """R(t) = Re sum b1 b2* / (sqrt(sum|b1|^2) sqrt(sum|b2|^2)), the
        carrier-cycle average of sum x1 x2 / sqrt(sum x1^2 sum x2^2);
        nan where either sum vanishes.  Each root is taken on its own, so
        the product of two huge sums cannot overflow."""
        if self.members < 2:
            raise EnsembleError("need at least 2 trajectories")
        denom = np.sqrt(self.squares[:, 0]) * np.sqrt(self.squares[:, 1])
        with np.errstate(invalid="ignore", divide="ignore"):
            R = np.where(denom > 0, self.cross / denom, np.nan)
        return np.clip(R, -1.0, 1.0)

    def fluxes(self, params: PhysicalParams):
        """(mu_b1, mu_b2, mu_a) per time from the effective occupations
        n_bi + 1/2 = <|b_i|^2> and n_cross = Re<b1 b2*>."""
        if self.members < MIN_FLUX_ENSEMBLE:
            raise EnsembleError(
                f"need at least {MIN_FLUX_ENSEMBLE} trajectories, "
                f"got {self.members}")
        n_b = self.squares / self.members - 0.5
        return bath_fluxes(params, *n_b.T, self.cross / self.members)[1:]


def moving_median(x, w: int) -> np.ndarray:
    """Moving median of width w with the ends extended by their edge
    values: ``scipy.ndimage.median_filter(x, size=w, mode="nearest")``.
    Output k takes the element of rank w // 2 (the upper median for even
    w) of x[k - w // 2 .. k - w // 2 + w - 1], selected over a slice of
    rows at a time, so at most about MEDIAN_SLICE_ELEMENTS are copied."""
    x = np.asarray(x, dtype=float)
    rows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, (w // 2, w - 1 - w // 2), mode="edge"), w)
    out = np.empty(len(x))
    step = max(1, MEDIAN_SLICE_ELEMENTS // w)
    for s in range(0, len(x), step):
        out[s:s + step] = np.partition(rows[s:s + step], w // 2,
                                       axis=1)[:, w // 2]
    return out


def transient_time(times, R) -> float:
    """First time the smoothed R reaches LEVEL of its maximum.

    R is smoothed with a moving median of width SMOOTH_FRAC * len(R).
    The last PLATEAU_FRAC of the window must be stationary (spread below
    PLATEAU_TOL of the overall range), otherwise PlateauError suggests a
    longer window.  The crossing is linearly interpolated.  A plateau
    below zero (anti-phase locking) is read on -R.
    """
    times = np.asarray(times, dtype=float)
    R = np.asarray(R, dtype=float)
    if len(R) != len(times) or len(R) < 10:
        raise ValueError("need matching series of length >= 10")
    if np.mean(R[int((1.0 - PLATEAU_FRAC) * len(R)):]) < 0:
        R = -R
    w = max(1, int(round(SMOOTH_FRAC * len(R))))
    smoothed = moving_median(R, w) if w > 1 else R

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
