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
    u1 = rng.random(n_pairs)
    u2 = rng.random(n_pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # log1p(-u) keeps u=0 finite
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return out[:size]


def fir_awgn_channel(symbols, h: IsiResponse, n0: float, seed: int) -> np.ndarray:
    """r[k] = sum_i h[i] b[k-i] + n[k], zero-padded edges, one output per
    symbol.  The noise n has variance ``n0 / 2``, drawn from
    ``make_rng(seed)``; none is added when ``n0`` is 0."""
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    symbols = np.asarray(symbols, dtype=np.float64)
    if not symbols.size:
        raise ValueError("symbols must not be empty")
    clean = np.convolve(symbols, h.taps)[: symbols.size]
    if n0 == 0:
        return clean
    sigma = math.sqrt(n0 / 2.0)
    return clean + sigma * normal_from_uniform(make_rng(seed), symbols.size)
