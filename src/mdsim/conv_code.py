"""Binary convolutional encoding and its trellis description.

Generator convention: each generator is an octal integer whose binary
expansion, read MSB first, gives the taps on the current and past input
bits.  ``[5, 7]`` (octal) means taps ``101`` and ``111``: the most
significant bit multiplies the current input ``c[k]``, the least
significant one multiplies ``c[k - nu]``.  Encoder state is the window of
the last ``nu`` input bits with the newest bit in the least significant
position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trellis import TrellisSpec, window_next_state


def parse_octal_generators(text: str) -> list[int]:
    """Parse a comma-separated list of octal generator strings ("5,7")."""
    gens = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        gens.append(int(tok, 8))
    if len(gens) < 2:
        raise ValueError(f"need at least two generators, got {text!r}")
    return gens


@dataclass(frozen=True)
class ConvCode:
    """Rate-1/n binary convolutional code from octal generators."""

    generators: tuple[int, ...]
    n: int = field(init=False)
    nu: int = field(init=False)

    def __init__(self, generators):
        gens = tuple(int(g) for g in generators)
        if len(gens) < 2:
            raise ValueError("need n >= 2 generators")
        if any(g <= 0 for g in gens):
            raise ValueError("generators must be positive integers")
        nu = max(g.bit_length() for g in gens) - 1
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "n", len(gens))
        object.__setattr__(self, "nu", nu)

    @property
    def num_states(self) -> int:
        return 1 << self.nu

    def taps(self, i: int) -> np.ndarray:
        """Tap vector g_i[0..nu] of generator ``i`` (0 = first/MSB branch)."""
        g = self.generators[i]
        return np.array([(g >> (self.nu - j)) & 1 for j in range(self.nu + 1)],
                        dtype=np.int64)

    def taps_lsb_first(self, i: int) -> int:
        """Generator ``i`` re-packed with the tap on c[k-j] at bit j."""
        t = self.taps(i)
        return int(sum(int(t[j]) << j for j in range(self.nu + 1)))


def conv_encode(code: ConvCode, bits) -> np.ndarray:
    """Encode ``bits`` from the all-zero state; returns n output bits per input bit."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1 or not bits.size:
        raise ValueError("bits must be a non-empty 1-D sequence")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0/1")
    out = np.zeros((bits.size, code.n), dtype=np.int64)
    for i in range(code.n):
        g = code.taps(i)
        # v_i[k] = sum_j g_i[j] c[k-j] mod 2, zero history before the block
        out[:, i] = np.convolve(bits, g)[: bits.size] & 1
    return out.reshape(-1)


def _parity(x: np.ndarray) -> np.ndarray:
    """Bitwise parity of each element of an integer array."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def build_conv_trellis(code: ConvCode) -> TrellisSpec:
    """Trellis with 2^nu states; branch label = the n output bits."""
    S = code.num_states
    # w[s, c] = (s << 1) | c: bit m is c[k-m]
    w = np.arange(S << 1, dtype=np.int64).reshape(S, 2, 1)
    g_lsb = np.array([code.taps_lsb_first(i) for i in range(code.n)])
    return TrellisSpec(next_state=window_next_state(2, code.nu),
                       outputs=_parity(w & g_lsb))
