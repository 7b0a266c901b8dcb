"""Discrete-time post-processing defining the overall ISI seen by the
trellis receivers: sampled pulse autocorrelation, spectral factorization
into a minimum-phase filter, FM-noise autocorrelation estimation,
prediction via the Yule-Walker equations (Levinson-Durbin), and the FIR
noise whitening filter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import make_rng
from .cpm import CpmParams, transmit_receive
from .matched_encoder import IsiResponse

# scipy is imported inside the functions that call it, as in .cpm.

_FINE = 1024  # quadrature grid per symbol for the continuous autocorrelation


def sampled_pulse_acf(params: CpmParams) -> np.ndarray:
    """T-spaced, gamma-scaled autocorrelation of the frequency pulse.

    Returned as the full symmetric sequence over lags -(L-1)..(L-1), the
    exact tap set a noiseless matched-filter chain convolves the symbols
    with.  Full-response pulses (L=1) give a single nonzero lag.
    """
    L = params.L_cpm
    n = L * _FINE
    dt = L / n
    t = (np.arange(n) + 0.5) * dt
    g = params.freq_pulse(t)
    gamma = 1.0 / math.sqrt(params.pulse_energy())
    # lags 0..L-1, mirrored: a lag's products are its negative's swapped
    shifts = (int(round(lag / dt)) for lag in range(L))
    acf = np.array([np.sum(g[: n - s] * g[s:]) * dt for s in shifts]) * gamma
    return np.concatenate([acf[:0:-1], acf])


def spectral_factorize(acf) -> np.ndarray:
    """Factor a symmetric nonnegative-spectrum sequence into its
    minimum-phase root: the causal, real ``b`` with ``b[0] > 0`` and
    ``acf = b (*) reverse(b)``.

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
        return np.array([math.sqrt(acf[0])])

    roots = np.roots(acf)
    order = np.argsort(np.abs(roots), kind="stable")
    inside = roots[order][:m]
    b = np.atleast_1d(np.real(np.poly(inside)))
    scale = math.sqrt(acf[m] / float(np.sum(b * b)))
    b = scale * b
    if b[0] < 0:
        b = -b
    return b


@dataclass(frozen=True)
class WhiteningDesign:
    """The calibration of the CPM chain: the spectral factor ``b``, the
    WMF taps (:func:`wmf_taps`) and their neglected tail, the noise behind
    the WMF at ``calibration_ebn0_db`` (lags 0..L_nw of its ACF over the
    lag-0 ``noise_variance``), the whitening filter ``f`` (``f[0] = 1``)
    and the overall ISI ``b (*) f``."""

    b: np.ndarray
    wmf: np.ndarray
    wmf_tail: float
    noise_acf: np.ndarray
    noise_variance: float
    calibration_ebn0_db: float
    f: np.ndarray
    overall: IsiResponse

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


def yule_walker(noise_acf, L_nw: int) -> np.ndarray:
    """The prediction-error (whitening) filter ``f``, ``f[k] = -p[k]`` for
    the prediction coefficients p of order ``L_nw`` by Levinson-Durbin."""
    phi = np.asarray(noise_acf, dtype=np.float64)
    if L_nw < 0:
        raise ValueError("whitening order must be >= 0")
    if phi.size < L_nw + 1:
        raise ValueError(f"need {L_nw + 1} autocorrelation lags, got {phi.size}")
    if not (np.isfinite(phi).all() and phi[0] > 0):
        raise ValueError(f"noise_acf lags must be finite, lag 0 positive: {phi}")
    if L_nw > 0:
        from scipy import linalg as sp_linalg

        cond = np.linalg.cond(sp_linalg.toeplitz(phi[:L_nw]))
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(f"Toeplitz system ill-conditioned (cond={cond:.3g})")

    f = np.array([1.0])
    err = phi[0]
    for mth in range(1, L_nw + 1):
        k = float(np.dot(f, phi[mth:0:-1])) / err
        fz = np.concatenate([f, [0.0]])
        f = fz - k * fz[::-1]
        err *= 1.0 - k * k
        if err <= 0:
            raise ValueError("prediction error vanished; ACF not positive definite")
    return f


def overall_isi(b, f) -> IsiResponse:
    """Combined ISI of the signal-shaping filter and the whitening filter."""
    h = np.convolve(np.asarray(b, dtype=np.float64),
                    np.asarray(f, dtype=np.float64))
    return IsiResponse(h)


def wmf_taps(b, n_taps: int = 20) -> tuple[np.ndarray, float]:
    """Anti-causal realization of 1/B*(1/z*) truncated to ``n_taps``.

    Returns the taps and the neglected-tail magnitude (sum of the next
    100 impulse-response samples) as the truncation error.
    """
    from scipy import signal as sp_signal

    impulse = np.zeros(n_taps + 100)
    impulse[0] = 1.0
    w_full = sp_signal.lfilter([1.0], b, impulse)
    trunc = float(np.sum(np.abs(w_full[n_taps:])))
    return w_full[:n_taps], trunc


def apply_wmf(d, w) -> np.ndarray:
    """Whiten the matched-filter output with respect to additive white noise.

    ``w`` are the :func:`wmf_taps` of ``b``, so the cascade of matched
    filter and this stage has the causal minimum-phase signal response b.
    """
    d = np.asarray(d, dtype=np.float64)
    c = np.convolve(d, w[::-1])
    return c[w.size - 1: w.size - 1 + d.size]


def apply_whitening(d, f) -> np.ndarray:
    """Causal FIR noise whitening; output k pairs with input k through f[0]=1."""
    d = np.asarray(d, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    return np.convolve(d, f)[: d.size]


def estimate_noise_acf(params: CpmParams, eb_n0_db: float, L_max: int,
                       n_symbols: int, wmf: np.ndarray, *,
                       cutoff: float | None,
                       seed: int = 77_001) -> tuple[np.ndarray, float]:
    """Measure the residual-noise autocorrelation after the matched filter
    and its white-noise whitening stage, the WMF taps ``wmf``.

    Runs the front end on known pilot symbols with and without channel
    noise, subtracts, and estimates the sample autocorrelation of the
    residual at lags 0..L_max.  Returns (acf normalized to lag 0, raw
    lag-0 variance).  Eb = Es for one information bit per modulation
    interval.  Raises ValueError for too few symbols to fill the lags
    between the transient guards at both ends.
    """
    guard = 4 * params.L_cpm + wmf.size
    if n_symbols <= 2 * guard + L_max:
        raise ValueError(f"need more than {2 * guard + L_max} calibration "
                         f"symbols (two {guard}-symbol guards and lags "
                         f"0..{L_max}), got {n_symbols}")
    if n_symbols < 10 * L_max * L_max:
        warnings.warn(f"only {n_symbols} samples for {L_max} lags; "
                      "autocorrelation estimate may be unreliable", stacklevel=2)
    n0 = 10.0 ** (-eb_n0_db / 10.0)
    rng = make_rng(seed)
    idx = (rng.random(n_symbols) * params.M).astype(np.int64)
    symbols = params.alphabet[idx]
    theta0 = float(rng.random() * 2.0 * np.pi)

    d_ref = transmit_receive(params, symbols, cutoff=cutoff)
    d_noisy = transmit_receive(params, symbols, n0=n0, noise_seed=(seed, 1),
                               theta0=theta0, cutoff=cutoff)
    resid = apply_wmf(d_noisy, wmf) - apply_wmf(d_ref, wmf)
    resid = resid[guard: resid.size - guard]

    n = resid.size
    acf = np.array([np.dot(resid[: n - k], resid[k:]) / (n - k)
                    for k in range(L_max + 1)])
    var = float(acf[0])
    return acf / var, var


def design_whitening(params: CpmParams, eb_n0_db: float, L_nw: int, *,
                     cutoff: float | None, n_symbols: int = 200_000,
                     wmf_len: int = 20) -> WhiteningDesign:
    """One-stop calibration: pulse ACF, factorization, WMF, noise
    measurement, prediction filter, and the combined ISI for the
    equalizers."""
    b = spectral_factorize(sampled_pulse_acf(params))
    wmf, tail = wmf_taps(b, wmf_len)
    phi, var = estimate_noise_acf(params, eb_n0_db, L_nw, n_symbols, wmf,
                                  cutoff=cutoff)
    return _from_measurement(b, wmf, tail, phi, L_nw, var, eb_n0_db)


def _from_measurement(b, wmf, wmf_tail: float, noise_acf, L_nw: int,
                      noise_variance: float, eb_n0_db: float) -> WhiteningDesign:
    """The design of spectral factor ``b`` and WMF taps ``wmf``, with the
    whitening of order ``L_nw`` on the first ``L_nw + 1`` lags of a noise
    measurement."""
    with np.errstate(all="ignore"):  # the noise variance per unit N0
        per_n0 = noise_variance / np.power(10.0, -eb_n0_db / 10.0)
    if not 0 < per_n0 < math.inf:
        raise ValueError(f"noise_variance = {noise_variance:g} at "
                         f"calibration_ebn0_db = {eb_n0_db:g} is {per_n0:g} N0,"
                         " not finite and positive")
    f = yule_walker(noise_acf, L_nw)
    return WhiteningDesign(
        b=b, wmf=wmf, wmf_tail=wmf_tail,
        noise_acf=np.asarray(noise_acf, dtype=np.float64)[: L_nw + 1],
        noise_variance=noise_variance, calibration_ebn0_db=eb_n0_db, f=f,
        overall=overall_isi(b, f))


def save_whitening_design(path, design: WhiteningDesign) -> None:
    """Plain-text key-value file of the noise measurement, so sweeps can
    reuse a calibration; everything else follows from the config."""
    lines = [
        f"noise_variance = {design.noise_variance:.17g}",
        f"calibration_ebn0_db = {design.calibration_ebn0_db:.17g}",
        "noise_acf = " + ",".join(f"{v:.17g}" for v in design.noise_acf),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_whitening_design(path, params: CpmParams, L_nw: int,
                          wmf_len: int) -> WhiteningDesign:
    """``design_whitening``'s result for the CPM format ``params``, order
    ``L_nw`` and ``wmf_len`` WMF taps, on a saved noise measurement
    instead of a new one.  Other lines (the derived arrays of older
    files) are not read."""
    kv = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
    for key in ("noise_variance", "calibration_ebn0_db", "noise_acf"):
        if key not in kv:
            raise ValueError(f"design file {path} has no {key}; "
                             "re-run `mdsim calibrate` to write it")
    txt = kv["noise_acf"]
    phi = [float(v) for v in txt.split(",")] if txt else []
    b = spectral_factorize(sampled_pulse_acf(params))
    return _from_measurement(b, *wmf_taps(b, wmf_len), phi, L_nw,
                             float(kv["noise_variance"]),
                             float(kv["calibration_ebn0_db"]))
