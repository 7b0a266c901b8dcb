"""Joint non-linear trellis encoder merging a binary convolutional code,
the natural PAM mapper, and an M-ary FIR ISI channel.

The merged trellis keeps only binary delay elements: its state is the
window of the last ``nu + L`` input bits (newest bit at the LSB), giving
``2^nu * 2^L`` states instead of the ``2^nu * M^L`` of the joint
code-and-channel super trellis, with identical branch hypotheses.  Each
output bit plane runs through its own binary convolution with the channel
taps; the mod-2 adders are expressed through the floor decomposition
``x mod 2 = x - 2*floor(x/2)`` so the whole chain collapses into one
table of per-branch real hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conv_code import ConvCode, _parity, conv_encode
from .trellis import TrellisSpec, window_next_state


def _msb_weights(M: int) -> np.ndarray:
    """The natural mapper: n = log2(M) code bits, first one most significant,
    form the symbol index x, sent as 2x - (M-1).  Bit sequences hold n bits
    per symbol, flattened; these are the weights of the n bits in x."""
    n = M.bit_length() - 1
    if n < 1 or (1 << n) != M:
        raise ValueError(f"alphabet size M = {M} is not a power of two")
    return 1 << np.arange(n - 1, -1, -1)


def bits_per_symbol(code: ConvCode, M: int) -> int:
    """n = log2(M); raises unless the code emits n bits per step."""
    if code.n != _msb_weights(M).size:
        raise ValueError("need n = log2(M) output bits per step")
    return code.n


def symbol_index(coded_bits, M: int) -> np.ndarray:
    """Symbol indices of a bit sequence."""
    w = _msb_weights(M)
    return np.asarray(coded_bits, dtype=np.int64).reshape(-1, w.size) @ w


def symbol_bits(index, M: int) -> np.ndarray:
    """The bit sequence of symbol indices."""
    w = _msb_weights(M)
    return (np.asarray(index, dtype=np.int64)[..., None] // w % 2).reshape(-1)


def symbol_value(index, M: int):
    """Natural bipolar value of a symbol index: 2*index - (M-1)."""
    return 2 * np.asarray(index, dtype=np.float64) - (M - 1)


@dataclass(frozen=True)
class IsiResponse:
    """FIR channel response h[0..L]; L is the channel memory."""

    taps: np.ndarray

    def __init__(self, taps):
        t = np.array(taps, dtype=np.float64)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("need at least one channel tap")
        if not np.all(np.isfinite(t)):
            raise ValueError("channel taps must be finite")
        if t[0] == 0.0:
            raise ValueError("leading tap h[0] must be nonzero")
        t.setflags(write=False)
        object.__setattr__(self, "taps", t)

    @property
    def L(self) -> int:
        return self.taps.size - 1

    @cached_property
    def minimum_phase(self) -> bool:
        """Every zero of h(z) lies within 1 + 1e-9 of the origin."""
        return bool(np.all(np.abs(np.roots(self.taps)) <= 1.0 + 1e-9))

    def trimmed(self, threshold: float) -> "IsiResponse":
        """Drop trailing taps below threshold*max|taps|.

        Controls the trellis memory when whitening stretches the overall
        response with negligible tail taps; the discarded energy acts as
        a small model mismatch at the receivers.
        """
        if threshold <= 0:
            return self
        mags = np.abs(self.taps)
        keep = np.nonzero(mags >= threshold * mags.max())[0]
        n = int(keep[-1]) + 1 if keep.size else 1
        if n == self.taps.size:
            return self
        return IsiResponse(self.taps[:n])


def offset_constant(h: IsiResponse, M: int) -> float:
    """Constant folding the bipolar shift of the mapper behind the channel sum."""
    return -float(np.sum(h.taps)) * (M - 1)


def state_counts(nu: int, n: int, L: int) -> tuple[int, int, int]:
    """(super-trellis states, merged-trellis states, reduction factor)."""
    if nu < 0 or L < 0 or n < 1:
        raise ValueError("need nu, L >= 0 and n >= 1")
    z_std = 2**nu * 2 ** (n * L)
    z_md = 2**nu * 2**L
    gain = 2 ** (L * (n - 1))
    return z_std, z_md, gain


def edge_offsets(taps, M: int) -> np.ndarray:
    """Start-of-block hypothesis corrections for zero-padded channels.

    A window trellis started in the all-zero state implicitly assumes the
    pre-block symbol history was the all-zero-bits symbol -(M-1); a real
    channel is silent there.  ``offsets[k] = (M-1) * sum(h[k+1:])`` is the
    path-independent difference for the first L steps: encoders add it to
    table lookups, decoders subtract it from the first L observations.
    """
    taps = np.asarray(taps, dtype=np.float64)
    L = taps.size - 1
    # offsets[k] = (M-1) * sum_{l>k} h[l], k = 0..L-1
    return (M - 1) * np.cumsum(taps[:0:-1])[::-1] if L > 0 else np.zeros(0)


def serial_reference(code: ConvCode, h: IsiResponse, M: int, bits) -> np.ndarray:
    """Noiseless encoder -> mapper -> channel chain; one output per input bit.

    This is the plain serial concatenation and serves as the oracle the
    merged trellis is checked against.
    """
    bits_per_symbol(code, M)
    symbols = symbol_value(symbol_index(conv_encode(code, bits), M), M)
    return np.convolve(symbols, h.taps)[: len(bits)]


@dataclass(frozen=True)
class MatchedTrellis:
    """Precomputed joint trellis: 2^(nu+L) bit-window states with real hypotheses."""

    trellis: TrellisSpec
    code: ConvCode
    isi: IsiResponse
    M: int

    @property
    def nu(self) -> int:
        return self.code.nu

    @property
    def L(self) -> int:
        return self.isi.L


def build_matched_trellis(code: ConvCode, h: IsiResponse, M: int,
                          state_cap: int = 1 << 20) -> MatchedTrellis:
    """Merge code, mapper, and channel into one binary trellis.

    The branch hypothesis for bit window w is
    ``2 * sum_i 2^(n-1-i) * sum_l h[l] * v_i[k-l] + C`` where ``v_i`` are
    the mod-2 outputs of generator i over the window and C folds the
    bipolar offset of all taps.  Every branch equals the serial chain
    output for a bit history realizing that window.
    """
    n = bits_per_symbol(code, M)
    nu, L = code.nu, h.L
    mem = nu + L
    S = 1 << mem
    if S > state_cap:
        raise ValueError(
            f"merged trellis would need {S} states (cap {state_cap}); "
            "use a serial receiver or raise the cap")
    C = offset_constant(h, M)

    # Flat enumeration over windows w = (state << 1) | input; bit m = c[k-m].
    w = np.arange(S << 1, dtype=np.int64)
    hyp = np.zeros(w.size, dtype=np.float64)
    for i in range(n):
        g_lsb = code.taps_lsb_first(i)
        u_i = np.zeros(w.size, dtype=np.float64)
        for l in range(L + 1):
            u_i += h.taps[l] * _parity(w & (g_lsb << l))
        hyp += float(1 << (n - 1 - i)) * u_i
    hyp = 2.0 * hyp + C

    spec = TrellisSpec(next_state=window_next_state(2, mem),
                       outputs=hyp.reshape(S, 2))
    return MatchedTrellis(trellis=spec, code=code, isi=h, M=M)


def matched_encode(mt: MatchedTrellis, bits) -> np.ndarray:
    """Walk the joint trellis from the zero state; equals serial_reference."""
    bits = np.asarray(bits, dtype=np.int64)
    mem = mt.nu + mt.L
    # Window integers w[k] = sum_m c[k-m] 2^m are a sliding dot product.
    pow2 = (1 << np.arange(mem + 1)).astype(np.float64)
    w = np.convolve(bits.astype(np.float64), pow2)[: bits.size].astype(np.int64)
    out = mt.trellis.outputs.reshape(-1)[w].copy()
    # First L steps: the table assumes a -(M-1) symbol prehistory, the
    # physical channel is silent; add the path-independent difference.
    offs = edge_offsets(mt.isi.taps, mt.M)
    k = min(mt.L, out.size)
    out[:k] += offs[:k]
    return out
