"""Continuous-phase modulation and the non-coherent receiver front end.

The transmit phase is a superposition of phase pulses; the receiver is
band-limiting, phase extraction with continuation (unwrap), a first
difference over one sample period scaled by 1/(2*pi*h*Td), and a matched
filter for the frequency pulse followed by symbol-rate sampling.
Differential detection makes the receiver invariant to the unknown
carrier phase offset at the cost of f^2-shaped (FM) noise.  Time is in
symbol periods and the symbol energy is 1.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import _box_muller, _check_n0, make_rng


@dataclass(frozen=True)
class CpmParams:
    """Modulation format: alphabet size, index p/q, pulse shape, oversampling."""

    M: int = 4
    h_num: int = 1
    h_den: int = 4
    L_cpm: int = 3
    pulse: str = "LRC"
    N_os: int = 8

    def __post_init__(self):
        if self.M < 2 or self.M % 2:
            raise ValueError("M must be even")
        if self.h_num <= 0 or self.h_den <= 0:
            raise ValueError("modulation index p/q must be positive")
        if math.gcd(self.h_num, self.h_den) != 1:
            raise ValueError("modulation index p/q must be in lowest terms")
        if self.pulse not in ("LRC", "LREC"):
            raise ValueError(f"unsupported pulse {self.pulse!r}")
        if self.L_cpm < 1:
            raise ValueError("frequency pulse must span at least one symbol")
        if self.N_os < 8:
            raise ValueError("need N_os >= 8 samples per symbol")

    @property
    def h_index(self) -> float:
        return self.h_num / self.h_den

    @property
    def dt(self) -> float:
        return 1.0 / self.N_os

    @property
    def alphabet(self) -> np.ndarray:
        return np.arange(-(self.M - 1), self.M, 2)

    def freq_pulse(self, t: np.ndarray) -> np.ndarray:
        """g(t) on arbitrary time points; zero outside [0, L_cpm]."""
        lt = self.L_cpm
        inside = (t >= 0) & (t <= lt)
        if self.pulse == "LRC":
            g = (1.0 - np.cos(2.0 * np.pi * t / lt)) / (2.0 * lt)
        else:  # LREC
            g = np.full_like(t, 1.0 / (2.0 * lt), dtype=np.float64)
        return np.where(inside, g, 0.0)

    def phase_pulse(self, t: np.ndarray) -> np.ndarray:
        """Closed-form q(t): running integral of g, saturating at 1/2."""
        lt = self.L_cpm
        tc = np.clip(t, 0.0, lt)
        if self.pulse == "LRC":
            q = tc / (2.0 * lt) - np.sin(2.0 * np.pi * tc / lt) / (4.0 * np.pi)
        else:  # LREC
            q = tc / (2.0 * lt)
        return q

    def pulse_energy(self) -> float:
        """Closed-form integral of g(t)^2 over its support."""
        lt = self.L_cpm
        if self.pulse == "LRC":
            return 3.0 / (8.0 * lt)
        return 1.0 / (4.0 * lt)


def cpm_modulate(params: CpmParams, symbols, theta0: float = 0.0) -> np.ndarray:
    """Unit-envelope phase modulation of a bipolar M-ary symbol sequence.

    The phase at every sample is the exact superposition of closed-form
    phase pulses: each symbol contributes a[k]*q(t - k), with q
    saturating at 1/2 once its pulse has passed.
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    if not symbols.size:
        raise ValueError("symbols must not be empty")
    if not np.all(np.isin(symbols, params.alphabet)):
        raise ValueError(f"symbols must lie in {{±1..±{params.M - 1}}}")
    n_sym = symbols.size
    nos = params.N_os
    span = params.L_cpm * nos
    n_samples = (n_sym - 1) * nos + span + 1

    # active-pulse part: q(t) minus its saturated tail has finite support
    t_sup = np.arange(span + 1) * params.dt
    r = params.phase_pulse(t_sup)
    r[-1] = 0.0  # the saturation step is accounted for separately
    train = np.zeros((n_sym - 1) * nos + 1)
    train[::nos] = symbols
    phase = np.convolve(train, r)  # n_samples long
    del train

    # saturated part: symbols whose pulse has fully passed hold a[k]/2;
    # symbol k saturates at sample k*nos + span
    hold = np.zeros(n_samples)
    hold[span::nos] = 0.5 * symbols
    np.cumsum(hold, out=hold)
    phase += hold
    del hold

    # exp(1j * (2*pi*h*phase + theta0)), one operation at a time in place
    phase *= 2.0 * np.pi * params.h_index
    phase += theta0
    out = np.empty(n_samples, dtype=complex)
    np.multiply(1j, phase, out=out)
    return np.exp(out, out=out)


def add_waveform_awgn(samples: np.ndarray, params: CpmParams, n0: float,
                      seed) -> np.ndarray:
    """Complex AWGN with per-real-dimension variance N0*N_os/2; the
    samples unchanged when ``n0`` is 0.  The real parts take the first
    ``samples.size`` normals of the stream, the imaginary parts the next."""
    _check_n0(n0)
    if n0 == 0:
        return samples
    sigma = math.sqrt(n0 * params.N_os / 2.0)
    rng = make_rng(*np.atleast_1d(seed))
    noisy = np.empty(samples.size, dtype=complex)
    _box_muller(rng, noisy.real, noisy.imag)
    noisy *= sigma
    noisy += samples
    return noisy


@functools.lru_cache(maxsize=16)
def _lowpass_taps(N_os: int, cutoff: float) -> np.ndarray:
    """The read-only taps of :func:`receive_lowpass`, built once per
    (``N_os``, ``cutoff``) rather than for every block.

    A windowed sinc of ``n = 16 * N_os - 1`` taps, scaled to unit DC
    gain: the taps of ``firwin(n, cutoff, fs=N_os, window="hamming")``
    bit for bit.  That needs the Hamming window as ``0.54 + a1 *
    cos(linspace(-pi, pi, n))`` with ``a1`` formed as ``1 - 0.54``; the
    literal 0.46 and ``np.hamming`` differ in the last bit.  Raises
    ValueError for a cutoff outside (0, N_os/2), as firwin does.
    """
    n = 16 * N_os - 1
    c = cutoff / (0.5 * N_os)
    if not 0.0 < c < 1.0:
        raise ValueError(f"cutoff must lie in (0, {N_os / 2:g}) cycles per "
                         f"symbol, got {cutoff!r}")
    m = np.arange(n, dtype=np.float64) - 0.5 * (n - 1)
    taps = c * np.sinc(c * m)
    taps *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n))
    taps /= np.sum(taps)
    taps.setflags(write=False)
    return taps


def receive_lowpass(samples: np.ndarray, params: CpmParams,
                    cutoff: float) -> np.ndarray:
    """Linear-phase windowed-sinc (Hamming) lowpass, group delay removed.

    ``cutoff`` is the one-sided bandwidth in cycles per symbol (127 taps
    at N_os=8, scaled proportionally with the oversampling factor).
    """
    taps = _lowpass_taps(params.N_os, float(cutoff))
    delay = (taps.size - 1) // 2
    n = samples.size
    # lfilter's samples, bit for bit: the causal FIR over the samples
    # followed by ``delay`` zeros, its first ``delay`` outputs dropped.
    # A view of the convolution: copying it out made this step the peak
    # of the inline calibration (4.2 instead of 3.2 complex waveforms by
    # tracemalloc, 221 instead of 196 MB RSS on cpm.cfg).
    padded = np.concatenate([samples, np.zeros(delay, dtype=complex)])
    return np.convolve(taps, padded)[delay:n + delay]


@functools.lru_cache(maxsize=16)
def b999_bandwidth(params: CpmParams) -> float:
    """One-sided bandwidth containing 99.9% of the signal power.

    Welch estimate over a seeded waveform of 100 000 random symbols:
    periodic Hann segments of 64 symbols at 50% overlap, two-sided,
    not detrended, their periodograms averaged.  It depends only on the
    format, so it is estimated once per ``params``.
    """
    rng = make_rng(20_999)
    idx = (rng.random(100_000) * params.M).astype(np.int64)
    symbols = params.alphabet[idx]
    nper = 64 * params.N_os
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nper) / nper)
    # the waveform is freed once its segments are windowed, and they once
    # transformed: two segment arrays at a time (51 instead of 63 MiB by
    # tracemalloc at N_os = 8)
    segments = np.lib.stride_tricks.sliding_window_view(
        cpm_modulate(params, symbols), nper)[::nper // 2] * win
    spec = np.fft.fft(segments)
    del segments
    pxx = np.mean(spec.real ** 2 + spec.imag ** 2, axis=0)
    pxx /= params.N_os * np.sum(win ** 2)
    f = np.fft.fftshift(np.fft.fftfreq(nper, 1.0 / params.N_os))
    pxx = np.fft.fftshift(pxx)
    order = np.argsort(np.abs(f), kind="stable")
    cum = np.cumsum(pxx[order])
    total = cum[-1]
    k = int(np.searchsorted(cum, 0.999 * total))
    return float(np.abs(f[order][min(k, f.size - 1)]))


def diff_demodulate(rx: np.ndarray, params: CpmParams) -> np.ndarray:
    """Phase extraction, continuation, and scaled first difference.

    Output sample i sits at t = (i + 1/2)*dt and approximates the
    instantaneous superposition sum_k a[k] g(t - k).  Warns when a step
    of the continued phase exceeds pi/2 (undersampling or heavy noise);
    continuation keeps every step within [-pi, pi].
    """
    p = np.angle(rx)
    # np.unwrap(p) (numpy 2.4), each step in place on two buffers
    dd = np.diff(p)
    fix = np.subtract(dd, -np.pi)
    np.mod(fix, 2.0 * np.pi, out=fix)
    fix += -np.pi
    np.copyto(fix, np.pi, where=(fix == -np.pi) & (dd > 0))
    fix -= dd
    np.abs(dd, out=dd)
    np.copyto(fix, 0, where=dd < np.pi)
    np.cumsum(fix, out=fix)
    np.add(p[1:], fix, out=p[1:])
    del fix
    # the first difference of the continued phase, into the freed dd
    step = np.subtract(p[1:], p[:-1], out=dd)
    del p
    if step.size and np.max(np.abs(step)) > np.pi / 2:
        warnings.warn("continued phase step exceeds pi/2; "
                      "phase continuation may be unreliable", stacklevel=2)
    step /= 2.0 * np.pi * params.h_index * params.dt
    return step


def _mf_taps(params: CpmParams) -> np.ndarray:
    """Matched-filter taps: gamma*g sampled at midpoints, times dt.

    Midpoint sampling absorbs the half-sample group delay of the first
    difference, so the cascade lands back on the integer sample grid.
    """
    gamma = 1.0 / math.sqrt(params.pulse_energy())
    j = np.arange(params.L_cpm * params.N_os)
    t = (j + 0.5) * params.dt
    return gamma * params.freq_pulse(t) * params.dt


def matched_filter_downsample(sig, params: CpmParams) -> np.ndarray:
    """Filter the demodulated sequence with gamma*g(-t), sample per symbol.

    The noiseless output equals the symbol sequence convolved with the
    sampled, gamma-scaled pulse autocorrelation (see
    :func:`mdsim.whitening.sampled_pulse_acf`); sampling is aligned to the
    autocorrelation peak of each symbol.
    """
    sig = np.asarray(sig, dtype=np.float64)
    taps = _mf_taps(params)
    z = np.convolve(sig, taps)
    # Symbol k peaks at t = k + L, i.e. z index (k+L)*N_os - 1.
    first = params.L_cpm * params.N_os - 1
    # a copy, so that the convolution is freed
    return z[first:: params.N_os].copy()


def transmit_receive(params: CpmParams, symbols, *, n0: float = 0.0,
                     noise_seed=0, theta0: float = 0.0,
                     cutoff: float | None = None) -> np.ndarray:
    """Full noiseless-or-noisy front end to symbol-spaced matched-filter
    samples; :func:`add_waveform_awgn` adds no noise when ``n0`` is 0."""
    wave = cpm_modulate(params, symbols, theta0)
    wave = add_waveform_awgn(wave, params, n0, noise_seed)
    if cutoff is not None:
        wave = receive_lowpass(wave, params, cutoff)
    y = diff_demodulate(wave, params)
    return matched_filter_downsample(y, params)
