"""Discrete-time post-processing defining the overall ISI seen by the
trellis receivers: sampled pulse autocorrelation, spectral factorization
into a minimum-phase filter, FM-noise autocorrelation estimation,
prediction via the Yule-Walker equations (Levinson-Durbin), and the FIR
noise whitening filter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg as sp_linalg
from scipy import signal as sp_signal

from .channel import make_rng
from .cpm import CpmParams, transmit_receive
from .matched_encoder import IsiResponse

_FINE = 1024  # quadrature grid per symbol for the continuous autocorrelation


def sampled_pulse_acf(params: CpmParams) -> np.ndarray:
    """T-spaced, gamma-scaled autocorrelation of the frequency pulse.

    Returned as the full symmetric sequence over lags -(L-1)..(L-1), the
    exact tap set a noiseless matched-filter chain convolves the symbols
    with.  Full-response pulses (L=1) give a single nonzero lag.
    """
    L = params.L_cpm
    lt = L * params.T
    n = L * _FINE
    dt = lt / n
    t = (np.arange(n) + 0.5) * dt
    g = params.freq_pulse(t)
    gamma = 1.0 / math.sqrt(params.pulse_energy() * params.T)
    lags = np.arange(-(L - 1), L)
    acf = np.empty(lags.size)
    for i, lag in enumerate(lags):
        shift = int(round(lag * params.T / dt))
        if shift >= 0:
            acf[i] = np.sum(g[: n - shift] * g[shift:]) * dt
        else:
            acf[i] = np.sum(g[-shift:] * g[: n + shift]) * dt
    acf *= gamma
    # enforce exact evenness against quadrature round-off
    return 0.5 * (acf + acf[::-1])


@dataclass(frozen=True)
class SpectralFactorization:
    """acf = b (*) reverse(b) with b causal, real, minimum phase, b[0] > 0."""

    acf: np.ndarray
    b: np.ndarray

    @property
    def residual(self) -> float:
        """Largest deviation of ``b (*) reverse(b)`` from ``acf``."""
        return float(np.max(np.abs(np.convolve(self.b, self.b[::-1]) - self.acf)))


def spectral_factorize(acf) -> SpectralFactorization:
    """Factor a symmetric nonnegative-spectrum sequence into its
    minimum-phase root.

    Roots the Laurent polynomial of the autocorrelation, keeps the zeros
    inside (or on) the unit circle, and rescales so the roundtrip
    reconstructs the lag-0 value; reciprocal pairs split by magnitude, so
    unit-circle double roots split one in, one out.
    """
    acf = np.asarray(acf, dtype=np.float64)
    if acf.ndim != 1 or acf.size % 2 == 0:
        raise ValueError("autocorrelation must be an odd-length symmetric sequence")
    m = acf.size // 2
    if not np.allclose(acf, acf[::-1], rtol=0, atol=1e-12 * max(1.0, np.abs(acf).max())):
        raise ValueError("autocorrelation must be symmetric")
    if acf[m] <= 0:
        raise ValueError("lag-0 autocorrelation must be positive")

    omega = np.linspace(0.0, np.pi, 4096)
    spectrum = acf[m] + 2.0 * sum(
        acf[m + el] * np.cos(el * omega) for el in range(1, m + 1))
    if np.min(spectrum) < -1e-10:
        raise ValueError("sampled spectrum dips below zero; not factorizable")

    if m == 0:
        b = np.array([math.sqrt(acf[0])])
        return SpectralFactorization(acf=acf, b=b)

    roots = np.roots(acf)
    order = np.argsort(np.abs(roots), kind="stable")
    inside = roots[order][:m]
    b = np.atleast_1d(np.real(np.poly(inside)))
    scale = math.sqrt(acf[m] / float(np.sum(b * b)))
    b = scale * b
    if b[0] < 0:
        b = -b
    return SpectralFactorization(acf=acf, b=b)


@dataclass(frozen=True)
class WhiteningDesign:
    """Noise statistics and the prediction-error whitening filter.

    ``f[0] = 1`` and ``f[k] = -p[k]``; ``overall`` is the combined ISI
    the equalizers must handle once the whitening filter is in the path,
    set by :meth:`with_overall`.  ``noise_variance`` is measured before
    that filter, at ``calibration_ebn0_db``.
    """

    noise_acf: np.ndarray
    f: np.ndarray
    reflection: np.ndarray
    overall: IsiResponse | None = None
    noise_variance: float = float("nan")
    calibration_ebn0_db: float = float("nan")

    @property
    def p(self) -> np.ndarray:
        """Prediction coefficients p[1..order]."""
        return -self.f[1:]

    @property
    def order(self) -> int:
        return self.f.size - 1

    @property
    def output_noise_variance(self) -> float:
        """Noise variance after the whitening filter at the calibration
        point: ``noise_variance * f'Phi f``."""
        phi, f = self.noise_acf, self.f
        gain = 0.0
        for j in range(f.size):
            for k in range(f.size):
                lag = abs(j - k)
                if lag < phi.size:
                    gain += f[j] * f[k] * phi[lag]
        return self.noise_variance * gain

    def with_overall(self, b) -> "WhiteningDesign":
        return replace(self, overall=overall_isi(b, self.f))


def yule_walker(noise_acf, L_nw: int) -> WhiteningDesign:
    """Prediction coefficients from the noise autocorrelation via
    Levinson-Durbin; the whitening filter is the prediction-error filter.
    """
    phi = np.asarray(noise_acf, dtype=np.float64)
    if L_nw < 0:
        raise ValueError("whitening order must be >= 0")
    if phi.size < L_nw + 1:
        raise ValueError(f"need {L_nw + 1} autocorrelation lags, got {phi.size}")
    if phi[0] <= 0:
        raise ValueError("lag-0 autocorrelation must be positive")
    if L_nw > 0:
        cond = np.linalg.cond(sp_linalg.toeplitz(phi[:L_nw]))
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(f"Toeplitz system ill-conditioned (cond={cond:.3g})")

    f = np.array([1.0])
    err = phi[0]
    refl = np.empty(L_nw)
    for mth in range(1, L_nw + 1):
        k = float(np.dot(f, phi[mth:0:-1])) / err
        refl[mth - 1] = k
        fz = np.concatenate([f, [0.0]])
        f = fz - k * fz[::-1]
        err *= 1.0 - k * k
        if err <= 0:
            raise ValueError("prediction error vanished; ACF not positive definite")
    return WhiteningDesign(noise_acf=phi[: L_nw + 1], f=f, reflection=refl)


def overall_isi(b, f) -> IsiResponse:
    """Combined ISI of the signal-shaping filter and the whitening filter."""
    h = np.convolve(np.asarray(b, dtype=np.float64),
                    np.asarray(f, dtype=np.float64))
    return IsiResponse(h)


def wmf_taps(fact: SpectralFactorization, n_taps: int = 20) -> tuple[np.ndarray, float]:
    """Anti-causal realization of 1/B*(1/z*) truncated to ``n_taps``.

    Returns the taps and the neglected-tail magnitude (sum of the next
    100 impulse-response samples) as the truncation error.
    """
    impulse = np.zeros(n_taps + 100)
    impulse[0] = 1.0
    w_full = sp_signal.lfilter([1.0], fact.b, impulse)
    trunc = float(np.sum(np.abs(w_full[n_taps:])))
    return w_full[:n_taps], trunc


def apply_wmf(d, fact: SpectralFactorization, n_taps: int = 20) -> np.ndarray:
    """Whiten the matched-filter output with respect to additive white noise.

    Realized as a stable anti-causal recursion (truncated to ``n_taps``),
    so the cascade of matched filter and this stage has the causal
    minimum-phase signal response ``fact.b``.
    """
    d = np.asarray(d, dtype=np.float64)
    w, _ = wmf_taps(fact, n_taps)
    c = np.convolve(d, w[::-1])
    return c[w.size - 1: w.size - 1 + d.size]


def apply_whitening(d, f) -> np.ndarray:
    """Causal FIR noise whitening; output k pairs with input k through f[0]=1."""
    d = np.asarray(d, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    return np.convolve(d, f)[: d.size]


def estimate_noise_acf(params: CpmParams, eb_n0_db: float, L_max: int,
                       n_symbols: int, *, cutoff: float | None,
                       fact: SpectralFactorization | None = None,
                       wmf_len: int = 20,
                       seed: int = 77_001) -> tuple[np.ndarray, float]:
    """Measure the residual-noise autocorrelation after the matched filter
    and its white-noise whitening stage.

    Runs the front end on known pilot symbols with and without channel
    noise, subtracts, and estimates the sample autocorrelation of the
    residual at lags 0..L_max.  Returns (acf normalized to lag 0, raw
    lag-0 variance).  Eb = Es for one information bit per modulation
    interval.
    """
    if n_symbols < 10 * L_max * L_max:
        warnings.warn(f"only {n_symbols} samples for {L_max} lags; "
                      "autocorrelation estimate may be unreliable", stacklevel=2)
    if fact is None:
        fact = spectral_factorize(sampled_pulse_acf(params))
    n0 = 10.0 ** (-eb_n0_db / 10.0)
    rng = make_rng(seed)
    idx = (rng.random(n_symbols) * params.M).astype(np.int64)
    symbols = params.alphabet[idx]
    theta0 = float(rng.random() * 2.0 * np.pi)

    d_ref = transmit_receive(params, symbols, cutoff=cutoff)
    d_noisy = transmit_receive(params, symbols, n0=n0, noise_seed=(seed, 1),
                               theta0=theta0, cutoff=cutoff)
    m = min(d_ref.size, d_noisy.size)
    resid = apply_wmf(d_noisy[:m], fact, wmf_len) - apply_wmf(d_ref[:m], fact, wmf_len)
    guard = 4 * params.L_cpm + wmf_len
    resid = resid[guard: resid.size - guard]

    n = resid.size
    acf = np.array([np.dot(resid[: n - k], resid[k:]) / (n - k)
                    for k in range(L_max + 1)])
    var = float(acf[0])
    return acf / var, var


def design_whitening(params: CpmParams, eb_n0_db: float, L_nw: int, *,
                     cutoff: float | None, n_symbols: int = 200_000,
                     wmf_len: int = 20,
                     seed: int = 77_001) -> tuple[WhiteningDesign, SpectralFactorization]:
    """One-stop calibration: pulse ACF, factorization, noise measurement,
    prediction filter, and the combined ISI for the equalizers."""
    fact = spectral_factorize(sampled_pulse_acf(params))
    phi, var = estimate_noise_acf(params, eb_n0_db, L_nw, n_symbols,
                                  cutoff=cutoff, fact=fact, wmf_len=wmf_len,
                                  seed=seed)
    design = yule_walker(phi, L_nw)
    design = replace(design, noise_variance=var, noise_acf=phi,
                     calibration_ebn0_db=eb_n0_db)
    design = design.with_overall(fact.b)
    return design, fact


def save_whitening_design(path, design: WhiteningDesign,
                          fact: SpectralFactorization) -> None:
    """Plain-text key-value serialization so sweeps can reuse calibrations."""
    def fmt(arr):
        return ",".join(f"{v:.17g}" for v in np.asarray(arr, dtype=np.float64))

    lines = [
        f"noise_variance = {design.noise_variance:.17g}",
        f"calibration_ebn0_db = {design.calibration_ebn0_db:.17g}",
        f"acf = {fmt(fact.acf)}",
        f"b = {fmt(fact.b)}",
        f"noise_acf = {fmt(design.noise_acf)}",
        f"f = {fmt(design.f)}",
        f"reflection = {fmt(design.reflection)}",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_whitening_design(path) -> tuple[WhiteningDesign, SpectralFactorization]:
    kv = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()

    def arr(key):
        txt = kv[key]
        return (np.array([float(v) for v in txt.split(",")])
                if txt else np.zeros(0))

    # An array line may be empty (a zero-order predictor has no
    # reflection coefficients), but every line must be there.  Lines of
    # derived values (order, p, overall) in older files are not read.
    for key in ("noise_variance", "calibration_ebn0_db", "acf", "b",
                "noise_acf", "f", "reflection"):
        if key not in kv:
            raise ValueError(f"design file {path} has no {key}; "
                             "re-run `mdsim calibrate` to write it")
    noise_variance = float(kv["noise_variance"])
    cal_db = float(kv["calibration_ebn0_db"])
    if not (0 < noise_variance < math.inf and math.isfinite(cal_db)):
        raise ValueError(f"design file {path}: noise_variance must be finite "
                         f"and positive and calibration_ebn0_db finite, got "
                         f"{noise_variance} and {cal_db}")
    fact = SpectralFactorization(acf=arr("acf"), b=arr("b"))
    design = WhiteningDesign(
        noise_acf=arr("noise_acf"), f=arr("f"), reflection=arr("reflection"),
        noise_variance=noise_variance, calibration_ebn0_db=cal_db)
    return design.with_overall(fact.b), fact
