"""Synthetic discrete-time channels: FIR ISI plus reproducible AWGN."""

from __future__ import annotations

import math

import numpy as np

from .matched_encoder import IsiResponse


def make_rng(*key: int) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by one or more 64-bit integers.

    The same key always yields the same stream on every platform.
    """
    ss = np.random.SeedSequence(entropy=[int(k) for k in key])
    return np.random.Generator(np.random.Philox(seed=ss))


def normal_from_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via Box-Muller on Philox uniforms.

    Avoids rejection sampling so streams are reproducible bit-for-bit
    across numpy versions and platforms.
    """
    n_pairs = (size + 1) // 2
    out = np.empty(2 * n_pairs)
    _box_muller(rng, out[:n_pairs], out[n_pairs:])
    return out[:size]


def _box_muller(rng: np.random.Generator, cos_out: np.ndarray,
                sin_out: np.ndarray) -> None:
    """Write the ``r * cos(theta)`` and ``r * sin(theta)`` halves of
    ``cos_out.size`` Box-Muller pairs into the two given views.

    The uniforms are turned into ``r`` and ``theta`` in place, so the
    pair needs two temporaries of its size besides the views.
    """
    n_pairs = cos_out.size
    r = rng.random(n_pairs)
    theta = rng.random(n_pairs)
    np.negative(r, out=r)
    np.log1p(r, out=r)  # log1p(-u) keeps u=0 finite
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    np.cos(theta, out=cos_out)
    np.sin(theta, out=sin_out)
    cos_out *= r
    sin_out *= r


def _check_n0(n0: float) -> None:
    """Refuse a noise density that is negative, NaN or infinite."""
    if not 0.0 <= n0 < math.inf:
        raise ValueError(f"n0 must be >= 0 and finite, got {n0}")


def fir_awgn_channel(symbols, h: IsiResponse, n0: float, seed: int) -> np.ndarray:
    """r[k] = sum_i h[i] b[k-i] + n[k], zero-padded edges, one output per
    symbol.  The noise n has variance ``n0 / 2``, drawn from
    ``make_rng(seed)``; none is added when ``n0`` is 0."""
    _check_n0(n0)
    symbols = np.asarray(symbols, dtype=np.float64)
    if not symbols.size:
        raise ValueError("symbols must not be empty")
    clean = np.convolve(symbols, h.taps)[: symbols.size]
    if n0 == 0:
        return clean
    sigma = math.sqrt(n0 / 2.0)
    return clean + sigma * normal_from_uniform(make_rng(seed), symbols.size)
