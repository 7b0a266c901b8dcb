"""Trellis receivers: full Viterbi MLSE, reduced-state sequence estimation
with per-survivor decision feedback, symbol-level DFSE, log-domain BCJR,
and soft-input Viterbi channel decoding.

The four hard-decision receivers share one add-compare-select core
(:func:`_viterbi`): a time loop over a padded predecessor table and one
traceback.  Each receiver supplies only its branch metrics.  The reduced
receivers search a small window trellis (the r newest state bits for
RSSE, the J newest symbols for DFSE) and take the older digits of each
branch hypothesis from the survivor register of the state: an integer
holding that survivor's last decisions, newest in the least significant
digit, zeros before the block (per-survivor processing).  Ties go to the
lower predecessor state, then the lower input.

All decoders use the squared Euclidean metric on real observations and a
shared prehistory convention: trellis tables assume the pre-block symbol
history is the all-zero-index symbol, and callers compensate the first L
observations of a zero-padded channel with
:func:`mdsim.matched_encoder.edge_offsets`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conv_code import ConvCode, build_conv_trellis
from .matched_encoder import IsiResponse, MatchedTrellis, edge_offsets
from .trellis import TrellisSpec, window_next_state


class DecodeResult(NamedTuple):
    bits: np.ndarray
    metric: float


@dataclass(frozen=True)
class PartitionSpec:
    """Hyperstate partition keeping the r newest state bits."""

    kept_bits: int

    def __post_init__(self):
        if self.kept_bits < 0:
            raise ValueError("kept_bits must be >= 0")

    @property
    def num_hyperstates(self) -> int:
        return 1 << self.kept_bits


def compensate_edges(obs, taps, M: int) -> np.ndarray:
    """Subtract the silent-prehistory offsets from the first L observations."""
    obs = np.array(obs, dtype=np.float64)
    offs = edge_offsets(taps, M)
    k = min(offs.size, obs.size)
    obs[:k] -= offs[:k]
    return obs


def _viterbi(trellis: TrellisSpec, steps: int, branch_metrics, *,
             start_state: int = 0, end_state: int | None = 0,
             base: int = 1, memory: int = 0) -> DecodeResult:
    """Add-compare-select over ``trellis`` for ``steps`` steps, then one
    traceback; returns the input sequence and its metric.

    ``branch_metrics(t, reg)`` gives the (num_states, num_inputs) metrics
    of step t.  ``reg[s]`` is the survivor register of state s: its last
    ``memory`` inputs as base-``base`` digits, newest in the least
    significant digit.  Candidates are compared in predecessor-slot order
    and argmin keeps the first minimum, so ties go to the lower
    predecessor state, then the lower input.  With ``end_state=None``
    traceback starts from the best final metric.
    """
    ps, pu, valid = trellis.predecessors
    pad = np.where(valid, 0.0, np.inf)
    S = trellis.num_states
    pm = np.full(S, np.inf)
    pm[start_state] = 0.0
    reg = np.zeros(S, dtype=np.int64)
    modulus = base**memory
    back = np.empty((steps, S), dtype=np.int16)
    rows = np.arange(S)
    for t in range(steps):
        cand = pm[ps] + branch_metrics(t, reg)[ps, pu] + pad
        j = np.argmin(cand, axis=1)
        pm = cand[rows, j]
        back[t] = j
        if memory:
            reg = (reg[ps[rows, j]] * base + pu[rows, j]) % modulus

    s = int(np.argmin(pm)) if end_state is None else int(end_state)
    metric = float(pm[s])
    bits = np.empty(steps, dtype=np.int64)
    for t in range(steps - 1, -1, -1):
        j = back[t, s]
        bits[t] = pu[s, j]
        s = int(ps[s, j])
    return DecodeResult(bits=bits, metric=metric)


def viterbi_mlse(trellis: TrellisSpec, obs, *, start_state: int = 0,
                 end_state: int | None = 0) -> DecodeResult:
    """Minimum squared-distance sequence over a scalar-output trellis.

    Block decoding: known start state, full traceback at the end.  With
    ``end_state=None`` traceback starts from the best final metric.  Ties
    in add-compare-select go to the lower predecessor state index.
    """
    obs = np.asarray(obs, dtype=np.float64)
    hyp = trellis.outputs
    return _viterbi(trellis, obs.size, lambda t, reg: (obs[t] - hyp) ** 2,
                    start_state=start_state, end_state=end_state)


def symbol_value(index, M: int):
    """Natural bipolar value of a symbol index: 2*index - (M-1)."""
    return 2 * np.asarray(index, dtype=np.float64) - (M - 1)


def _past_taps(taps, M: int, windows, lags) -> np.ndarray:
    """Sum over ``lags`` (ascending) of taps[l] times the symbol sent l
    steps back, which is digit l-1 of each M-ary window (newest least
    significant)."""
    acc = np.zeros(np.shape(windows))
    for l in lags:
        acc += taps[l] * symbol_value(windows // M ** (l - 1) % M, M)
    return acc


def build_isi_trellis(h: IsiResponse, M: int, memory: int | None = None,
                      state_cap: int = 1 << 20) -> TrellisSpec:
    """Symbol-level ISI trellis (no code knowledge) over M-ary inputs.

    ``memory`` defaults to the full channel memory L; a smaller value
    truncates the hypotheses to the first memory+1 taps (used by the
    fixed-size BCJR equalizer of the serial receiver).
    """
    L = h.L
    mem = L if memory is None else memory
    if mem < 0 or mem > L:
        raise ValueError("memory must be in [0, L]")
    S = M**mem
    if S > state_cap:
        raise ValueError(
            f"ISI trellis would need {S} states (cap {state_cap}); "
            "reduce memory or raise the cap")
    past = _past_taps(h.taps, M, np.arange(S), range(1, mem + 1))
    outputs = h.taps[0] * symbol_value(np.arange(M), M) + past[:, None]
    return TrellisSpec(num_states=S, num_inputs=M,
                       next_state=window_next_state(M, mem), outputs=outputs)


def build_std_trellis(code: ConvCode, h: IsiResponse, M: int,
                      state_cap: int = 1 << 20) -> TrellisSpec:
    """Joint super trellis: encoder states times M-ary channel windows.

    State id = enc * M^L + window (newest symbol index in the least
    significant M-ary digit).  Serves as the equivalence baseline for the
    merged binary trellis; both describe identical branch hypotheses.
    """
    n = M.bit_length() - 1
    if (1 << n) != M or code.n != n:
        raise ValueError("need n = log2(M) output bits per step")
    L = h.L
    z_enc = code.num_states
    z_cha = M**L
    S = z_enc * z_cha
    if S > state_cap:
        raise ValueError(
            f"super trellis would need {S} states (cap {state_cap}); "
            "use the merged trellis instead")
    code_tr = build_conv_trellis(code)
    weights = 1 << np.arange(n - 1, -1, -1)
    # x_sym[enc, c]: symbol index produced by the code branch
    x_sym = (code_tr.outputs @ weights).astype(np.int64)

    enc = np.repeat(np.arange(z_enc), z_cha)
    win = np.tile(np.arange(z_cha), z_enc)
    past = _past_taps(h.taps, M, win, range(1, L + 1))

    next_state = np.empty((S, 2), dtype=np.int64)
    outputs = np.empty((S, 2), dtype=np.float64)
    for c in (0, 1):
        enc_next = code_tr.next_state[enc, c]
        x = x_sym[enc, c]
        outputs[:, c] = h.taps[0] * symbol_value(x, M) + past
        next_state[:, c] = enc_next * z_cha + (win * M + x) % z_cha
    return TrellisSpec(num_states=S, num_inputs=2,
                       next_state=next_state, outputs=outputs)


def rsse_decode(mt: MatchedTrellis, part: PartitionSpec, obs) -> DecodeResult:
    """Reduced-state Viterbi over the merged trellis with survivor feedback.

    Hyperstates keep the r newest state bits; the older nu+L-r bits of each
    branch hypothesis come from the hyperstate's own survivor register.
    r = nu+L reproduces full MLSE, r = 0 is a pure decision-feedback
    detector.
    """
    mem = mt.nu + mt.L
    r = part.kept_bits
    if r > mem:
        raise ValueError(f"kept_bits {r} exceeds trellis memory {mem}")
    if mt.isi.minimum_phase is not True and r < mem:
        warnings.warn("ISI response not verified minimum phase; "
                      "state truncation loses its distance rationale",
                      stacklevel=2)
    obs = np.asarray(obs, dtype=np.float64)
    H = part.num_hyperstates
    # Branch labels come from the registers, so the window trellis has none.
    window = TrellisSpec(num_states=H, num_inputs=2,
                         next_state=window_next_state(2, r),
                         outputs=np.zeros((H, 2)))
    flat = mt.trellis.outputs.reshape(-1)
    inputs = np.arange(2)

    def metrics(t, reg):
        d = obs[t] - flat[(reg[:, None] << 1) | inputs]
        return d * d

    # Flushed blocks terminate in hyperstate 0.
    return _viterbi(window, obs.size, metrics, base=2, memory=mem)


def dfse_equalize(h: IsiResponse, M: int, kept_symbols: int, obs,
                  *, end_state: int | None = None,
                  window: TrellisSpec | None = None) -> np.ndarray:
    """Reduced-state symbol equalizer: M^J trellis states, survivor feedback
    for the channel taps beyond the kept window.  Returns hard symbol
    indices (natural map order).

    ``window`` is ``build_isi_trellis(h, M, memory=kept_symbols)``, for
    callers that decode many blocks; it is built here when omitted.
    """
    L = h.L
    J = kept_symbols
    if J < 0 or J > L:
        raise ValueError(f"kept_symbols must be in [0, {L}]")
    obs = np.asarray(obs, dtype=np.float64)
    if window is None:
        window = build_isi_trellis(h, M, memory=J)
    elif window.num_inputs != M or window.num_states != M**J:
        raise ValueError(f"window trellis has {window.num_states} states and "
                         f"{window.num_inputs} inputs, not M^J = {M**J} and "
                         f"M = {M}")
    hyp = window.outputs  # (M^J, M) from the first J+1 taps

    def metrics(t, reg):
        fb = _past_taps(h.taps, M, reg, range(J + 1, L + 1))
        return (obs[t] - (hyp + fb[:, None])) ** 2

    return _viterbi(window, obs.size, metrics, end_state=end_state,
                    base=M, memory=L).bits


@dataclass(frozen=True)
class BcjrResult:
    symbol_posteriors: np.ndarray  # (T, M) probabilities
    bit_llrs: np.ndarray           # (T * n,) log P(bit=0) - log P(bit=1)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, rounded as scipy.special.logsumexp
    (1.17) rounds it: the m tied maxima leave the sum, which becomes
    log1p(rest / m) + log(m) + max.  An all -inf slice gives -inf; its
    terms are -inf - -inf = NaN until the maximum mask zeroes them, so
    callers hold ``np.errstate(invalid="ignore")``.
    """
    amax = a.max(axis)
    col = np.expand_dims(amax, axis)
    top = a == col
    terms = np.exp(a - col)
    terms[top] = 0.0
    out = terms.sum(axis)
    m = top.sum(axis)
    out /= m
    out = np.log1p(out)
    out += np.log(m)
    out += amax
    return out


def bcjr_equalize(isi_trellis: TrellisSpec, obs, noise_variance: float,
                  *, start_state: int = 0,
                  end_state: int | None = None) -> BcjrResult:
    """Symbol-by-symbol MAP over an ISI trellis, log domain, exact log-sum-exp.

    The forward and backward recursions are independent, so one time loop
    runs both on a stacked (2, S, M) array; this needs M predecessors per
    state, as in every window trellis.  Symbol posteriors are marginalized
    to bit LLRs through the natural map (MSB first), one LLR per coded bit.
    """
    obs = np.asarray(obs, dtype=np.float64)
    T = obs.size
    S, M = isi_trellis.num_states, isi_trellis.num_inputs
    n = M.bit_length() - 1
    hyp = isi_trellis.outputs
    nxt = isi_trellis.next_state
    ps, pu, valid = isi_trellis.predecessors
    if not valid.all():
        raise ValueError("BCJR needs num_inputs predecessors per state")
    into = ps * M + pu  # flat (state, input) index of each incoming branch
    inv2v = -0.5 / float(noise_variance)

    gammas = inv2v * (obs[:, None, None] - hyp[None, :, :]) ** 2  # (T, S, M)
    flat = gammas.reshape(T, S * M)

    alpha = np.full((T + 1, S), -np.inf)
    alpha[0, start_state] = 0.0
    beta = np.full((T + 1, S), -np.inf)
    if end_state is None:
        beta[T] = 0.0
    else:
        beta[T, end_state] = 0.0
    step = np.empty((2, S, M))
    # The posteriors go through T in chunks of about 4096 branches, so that
    # gammas stays the only full (T, S, M) array.
    chunk = max(1, 4096 // (S * M))
    with np.errstate(invalid="ignore"):
        for t in range(T):
            b = T - 1 - t
            np.add(alpha[t][ps], flat[t][into], out=step[0])
            np.add(gammas[b], beta[b + 1][nxt], out=step[1])
            both = _logsumexp(step, 2)
            both -= both.max(1)[:, None]
            alpha[t + 1], beta[b] = both

        post = np.empty((T, M))
        for t0 in range(0, T, chunk):
            t1 = min(t0 + chunk, T)
            joint = alpha[t0:t1, :, None] + gammas[t0:t1]
            joint += beta[t0 + 1:t1 + 1][:, nxt]
            log_pu = _logsumexp(joint, 1)
            log_pu -= _logsumexp(log_pu, 1)[:, None]
            post[t0:t1] = np.exp(log_pu)

        llrs = np.empty((T, n))
        log_post = np.log(np.maximum(post, 1e-300))
        u = np.arange(M)
        for i in range(n):
            bit = (u >> (n - 1 - i)) & 1
            llrs[:, i] = (_logsumexp(log_post[:, bit == 0], 1)
                          - _logsumexp(log_post[:, bit == 1], 1))
    return BcjrResult(symbol_posteriors=post, bit_llrs=llrs.reshape(-1))


def soft_viterbi_decode(code: ConvCode, llrs, *,
                        end_state: int | None = 0,
                        trellis: TrellisSpec | None = None) -> np.ndarray:
    """Max-correlation Viterbi over the code trellis from per-bit LLRs.

    LLR convention: positive favors bit 0.  One LLR per coded bit,
    n per trellis step.  ``trellis`` is ``build_conv_trellis(code)``, for
    callers that decode many blocks; it is built here when omitted.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.size % code.n:
        raise ValueError("need one LLR per coded bit")
    llrs = llrs.reshape(-1, code.n)
    tr = build_conv_trellis(code) if trellis is None else trellis
    if tr.outputs.shape != (code.num_states, 2, code.n):
        raise ValueError(f"trellis outputs {tr.outputs.shape} do not fit a "
                         f"{code.num_states}-state rate-1/{code.n} code")
    signs = 2.0 * tr.outputs - 1.0  # (S, 2, n); minimize sum((2v-1)*llr)
    return _viterbi(tr, llrs.shape[0], lambda t, reg: signs @ llrs[t],
                    end_state=end_state).bits
