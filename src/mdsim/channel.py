"""Synthetic discrete-time channels: FIR ISI plus reproducible AWGN."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class NoiseModel:
    """AWGN descriptor; identical seed implies an identical noise sequence."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def sample(self, size: int) -> np.ndarray:
        if self.sigma == 0.0:
            return np.zeros(size)
        rng = make_rng(self.seed)
        return self.sigma * normal_from_uniform(rng, size)


def fir_awgn_channel(symbols, h: IsiResponse, noise: NoiseModel) -> np.ndarray:
    """r[k] = sum_i h[i] b[k-i] + n[k], zero-padded edges, one output per symbol."""
    symbols = np.asarray(symbols, dtype=np.float64)
    clean = np.convolve(symbols, h.taps)[: symbols.size]
    return clean + noise.sample(symbols.size)
