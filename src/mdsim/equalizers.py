"""Trellis receivers: full Viterbi MLSE, reduced-state sequence estimation
with per-survivor decision feedback, symbol-level DFSE, log-domain BCJR,
and soft-input Viterbi channel decoding.

The four hard-decision receivers share one add-compare-select core
(:func:`_viterbi`): a time loop over a predecessor table of the states
that have a predecessor, and one traceback.  Each receiver supplies only
its branch metrics.  The reduced receivers search a small window trellis
(the r newest state bits for RSSE, the J newest symbols for DFSE) and
take the older digits of each branch hypothesis from the survivor
register of the state: an integer holding that survivor's last
decisions, newest in the least significant digit, zeros before the
block (per-survivor processing).  Ties go to the lower predecessor
state, then the lower input.

All decoders use the squared Euclidean metric on real observations and a
shared prehistory convention: trellis tables assume the pre-block symbol
history is the all-zero-index symbol, and callers compensate the first L
observations of a zero-padded channel with
:func:`mdsim.matched_encoder.edge_offsets`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .conv_code import ConvCode, build_conv_trellis
from .matched_encoder import (
    IsiResponse,
    MatchedTrellis,
    bits_per_symbol,
    edge_offsets,
    symbol_bits,
    symbol_index,
    symbol_value,
)
from .trellis import TrellisSpec, window_next_state


class DecodeResult(NamedTuple):
    bits: np.ndarray  # (T,), or (B, T) for a batch
    metric: float | np.ndarray  # (B,) for a batch


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

    @cached_property
    def window(self) -> TrellisSpec:
        """The hyperstate trellis: a binary window of the r newest bits.
        Branch labels come from the survivor registers, so it has none."""
        return TrellisSpec(next_state=window_next_state(2, self.kept_bits),
                           outputs=np.zeros((self.num_hyperstates, 2)))


def compensate_edges(obs, taps, M: int) -> np.ndarray:
    """Subtract the silent-prehistory offsets from the first L observations."""
    obs = np.array(obs, dtype=np.float64)
    offs = edge_offsets(taps, M)
    k = min(offs.size, obs.size)
    obs[:k] -= offs[:k]
    return obs


def _as_blocks(obs) -> np.ndarray:
    """``obs`` as a float (B, T) array: a (T,) block is a batch of one."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim not in (1, 2):
        raise ValueError(f"need a (T,) block or a (B, T) batch, not shape {obs.shape}")
    return obs.reshape(-1, obs.shape[-1])


def _pointer_dtype(fan_in: int):
    """Smallest signed dtype of a traceback pointer (a predecessor slot)."""
    return np.int8 if fan_in <= 127 else np.int32


def _stepped(fan_in: np.ndarray, start_state: int,
             end_state: int | None) -> np.ndarray:
    """Mask of the states the add-compare-select steps, by each state's
    fan-in: those with a predecessor, and the start and end states.  Any
    other state is never entered, so its metric is +inf after step 0."""
    step = fan_in > 0
    step[start_state] = True
    if end_state is not None:
        step[end_state] = True
    return step


def viterbi_bytes(trellis: TrellisSpec, steps: int) -> int:
    """Bytes per block that :func:`_viterbi` holds over ``steps`` steps
    from state 0 to state 0: one traceback pointer per stepped state and
    step, and three 8-byte values per step (the block's observations,
    traceback indices and decisions)."""
    fan_in = np.bincount(trellis.next_state.reshape(-1),
                         minlength=trellis.num_states)
    rows = int(np.count_nonzero(_stepped(fan_in, 0, 0)))
    pointer = np.dtype(_pointer_dtype(int(fan_in.max()))).itemsize
    return steps * (rows * pointer + 24)


class _Slots(NamedTuple):
    """The add-compare-select table of one trellis and start and end
    state: a row for each of the R states it steps, in ascending state
    order, holding that state's predecessor slots in the order of
    ``trellis.predecessors``.  A slot is live when
    it is a branch from a stepped state; the others (padding, and branches
    from never-entered states) are masked to +inf."""

    ps: np.ndarray    # (R, P) predecessor state of each slot
    pu: np.ndarray    # (R, P) input of each slot
    pred: np.ndarray  # (R, P) row of each live slot's predecessor, else 0
    live: np.ndarray  # (R, P) bool
    start: int        # row of the start state
    end: int | None   # row of the end state, None for a free end


def _slots(trellis: TrellisSpec, start_state: int = 0,
           end_state: int | None = 0) -> _Slots:
    """The table :func:`_viterbi` steps; receivers read each slot's branch
    hypothesis from its ``ps`` and ``pu``."""
    ps, pu, valid = trellis.predecessors
    step = _stepped(valid.sum(1), start_state, end_state)
    rows = np.flatnonzero(step)
    row_of = np.cumsum(step) - 1
    ps, pu = ps[rows], pu[rows]
    live = valid[rows] & step[ps]
    return _Slots(ps, pu, np.where(live, row_of[ps], 0), live,
                  int(row_of[start_state]),
                  None if end_state is None else int(row_of[end_state]))


def _copies(index: np.ndarray, size: int, blocks: int) -> np.ndarray:
    """``index`` into a table of ``size`` entries, for each of ``blocks``
    copies of the table laid end to end: a (blocks, *index.shape) array."""
    return index + size * np.arange(blocks).reshape(-1, *[1] * index.ndim)


def _viterbi(slots: _Slots, blocks: int, steps: int, branch_metrics,
             *, base: int = 1, memory: int = 0) -> DecodeResult:
    """Add-compare-select over the table ``slots`` for ``steps`` steps on
    ``blocks`` independent blocks, then one traceback; returns the (B, T)
    input sequences and their (B,) metrics.

    Only the R stepped states have rows, so a step evaluates the trellis
    branches and the padding of states with a smaller fan-in, not the
    never-entered states.  The B blocks run as one block-diagonal table
    of B*R rows: block b's copy of row i is row b*R + i, and its
    predecessors are offset by b*R, so each numpy call of a step serves
    every block.  ``branch_metrics(t, prev)`` gives the (B, R, P) metrics
    of step t on the slots of ``slots``.  ``prev`` holds, in the same
    shape, the survivor register of each slot's predecessor: its last
    ``memory`` inputs as base-``base`` digits, newest in the least
    significant digit (None without registers).  Candidates are compared
    in slot order and argmin keeps the first minimum, so ties go to the
    lower predecessor state, then the lower input.  With a free end each
    block's traceback starts from its best final metric.
    """
    R, P = slots.pred.shape
    rows = blocks * R
    by_block = _copies(slots.pred, R, blocks)  # (B, R, P)
    ps = by_block.reshape(rows, P)
    pad = np.tile(np.where(slots.live, 0.0, np.inf), (blocks, 1))
    ps_flat, pu_flat = ps.reshape(-1), np.tile(slots.pu.reshape(-1), blocks)
    slot0 = np.arange(rows) * P  # flat index of each row's first slot
    pm = np.full(rows, np.inf)
    pm[slots.start::R] = 0.0
    reg = np.zeros(rows, dtype=np.int64)
    modulus = base**memory
    back = np.empty((steps, rows), dtype=_pointer_dtype(P))
    for t in range(steps):
        prev = reg.take(by_block) if memory else None
        cand = pm.take(ps)
        cand += branch_metrics(t, prev).reshape(rows, P)
        cand += pad
        j = cand.argmin(1)
        back[t] = j
        k = slot0 + j
        pm = cand.take(k)
        if memory:
            reg = (prev.take(k) * base + pu_flat.take(k)) % modulus

    pm = pm.reshape(blocks, R)
    s = (np.argmin(pm, axis=1) if slots.end is None
         else np.full(blocks, slots.end, dtype=np.int64))
    metric = pm[np.arange(blocks), s]
    s = s + R * np.arange(blocks)
    picked = np.empty((steps, blocks), dtype=np.int64)
    for t in range(steps - 1, -1, -1):
        k = s * P + back[t].take(s)
        picked[t] = k
        s = ps_flat.take(k)
    return DecodeResult(bits=pu_flat.take(picked.T), metric=metric)


def _unbatch(obs, x):
    """``x`` of a (B, T) batch ``obs``, or its block 0 for a (T,) block."""
    return x if np.ndim(obs) == 2 else x[0]


def viterbi_mlse(trellis: TrellisSpec, obs, *, start_state: int = 0,
                 end_state: int | None = 0) -> DecodeResult:
    """Minimum squared-distance sequence over a scalar-output trellis.

    Block decoding: known start state, full traceback at the end.  With
    ``end_state=None`` traceback starts from the best final metric.  Ties
    in add-compare-select go to the lower predecessor state index.
    ``obs`` is one (T,) block, or a (B, T) batch decoded at once; a batch
    gives (B, T) bits and (B,) metrics.
    """
    blocks = _as_blocks(obs)
    cols = np.ascontiguousarray(blocks.T)[:, :, None, None]  # (T, B, 1, 1)
    slots = _slots(trellis, start_state, end_state)
    hyp = trellis.outputs[slots.ps, slots.pu]  # (R, P) candidate hypotheses
    res = _viterbi(slots, *blocks.shape, lambda t, reg: (cols[t] - hyp) ** 2)
    return DecodeResult(*(_unbatch(obs, x) for x in res))


def _past_taps(taps, M: int, windows, lags) -> np.ndarray:
    """Sum over ``lags`` (ascending) of taps[l] times the symbol sent l
    steps back, which is digit l-1 of each M-ary window (newest least
    significant)."""
    levels = symbol_value(np.arange(M), M)
    acc = np.zeros(np.shape(windows))
    for l in lags:
        acc += taps[l] * levels[windows // M ** (l - 1) % M]
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
    return TrellisSpec(next_state=window_next_state(M, mem), outputs=outputs)


def build_std_trellis(code: ConvCode, h: IsiResponse, M: int,
                      state_cap: int = 1 << 20) -> TrellisSpec:
    """Joint super trellis: encoder states times M-ary channel windows.

    State id = enc * M^L + window (newest symbol index in the least
    significant M-ary digit).  Serves as the equivalence baseline for the
    merged binary trellis; both describe identical branch hypotheses.
    """
    bits_per_symbol(code, M)
    L = h.L
    z_enc = code.num_states
    z_cha = M**L
    S = z_enc * z_cha
    if S > state_cap:
        raise ValueError(
            f"super trellis would need {S} states (cap {state_cap}); "
            "use the merged trellis instead")
    code_tr = build_conv_trellis(code)
    # x_sym[enc, c]: symbol index produced by the code branch
    x_sym = symbol_index(code_tr.outputs, M).reshape(z_enc, 2)

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
    return TrellisSpec(next_state=next_state, outputs=outputs)


def rsse_decode(mt: MatchedTrellis, part: PartitionSpec, obs) -> DecodeResult:
    """Reduced-state Viterbi over the merged trellis with survivor feedback.

    Hyperstates keep the r newest state bits; the older nu+L-r bits of each
    branch hypothesis come from the hyperstate's own survivor register.
    r = nu+L reproduces full MLSE, r = 0 is a pure decision-feedback
    detector.  ``obs`` is one (T,) block or a (B, T) batch.
    """
    mem = mt.nu + mt.L
    r = part.kept_bits
    if r > mem:
        raise ValueError(f"kept_bits {r} exceeds trellis memory {mem}")
    if r < mem and not mt.isi.minimum_phase:
        warnings.warn("ISI response not minimum phase; "
                      "state truncation loses its distance rationale",
                      stacklevel=2)
    blocks = _as_blocks(obs)
    slots = _slots(part.window)
    cols = np.ascontiguousarray(blocks.T)[:, :, None, None]  # (T, B, 1, 1)
    flat = mt.trellis.outputs.reshape(-1)

    def metrics(t, prev):
        d = cols[t] - flat.take((prev << 1) | slots.pu)
        return d * d

    # Flushed blocks terminate in hyperstate 0.
    res = _viterbi(slots, *blocks.shape, metrics, base=2, memory=mem)
    return DecodeResult(*(_unbatch(obs, x) for x in res))


def build_dfse_feedback(h: IsiResponse, M: int, kept_symbols: int,
                        state_cap: int = 1 << 20) -> np.ndarray:
    """Feedback of the taps beyond a DFSE window of ``kept_symbols``: entry
    i is the sum over lags J+1..L of taps[l] times the symbol sent l steps
    back, for the older register digits ``reg // M**J == i``.  It has
    M^(L-J) entries, bounded by ``state_cap`` as the trellises are."""
    L, J = h.L, kept_symbols
    if J < 0 or J > L:
        raise ValueError(f"kept_symbols must be in [0, {L}]")
    n = M ** (L - J)
    if n > state_cap:
        raise ValueError(
            f"DFSE feedback table would need {n} entries (cap {state_cap}); "
            "keep more symbols or raise the cap")
    return _past_taps(h.taps, M, np.arange(n) * M**J, range(J + 1, L + 1))


def dfse_equalize(h: IsiResponse, M: int, kept_symbols: int, obs,
                  *, end_state: int | None = None,
                  window: TrellisSpec | None = None,
                  feedback: np.ndarray | None = None) -> np.ndarray:
    """Reduced-state symbol equalizer: M^J trellis states, survivor feedback
    for the channel taps beyond the kept window.  Returns hard symbol
    indices (natural map order), (T,) for one block or (B, T) for a batch.

    ``window`` is ``build_isi_trellis(h, M, memory=kept_symbols)`` and
    ``feedback`` is ``build_dfse_feedback(h, M, kept_symbols)``, for
    callers that decode many blocks; each is built here when omitted.
    """
    L = h.L
    J = kept_symbols
    if J < 0 or J > L:
        raise ValueError(f"kept_symbols must be in [0, {L}]")
    blocks = _as_blocks(obs)
    if window is None:
        window = build_isi_trellis(h, M, memory=J)
    elif window.num_inputs != M or window.num_states != M**J:
        raise ValueError(f"window trellis has {window.num_states} states and "
                         f"{window.num_inputs} inputs, not M^J = {M**J} and "
                         f"M = {M}")
    if feedback is None:
        feedback = build_dfse_feedback(h, M, J)
    elif np.shape(feedback) != (M ** (L - J),):
        raise ValueError(f"feedback table has shape {np.shape(feedback)}, "
                         f"not (M^(L-J),) = ({M ** (L - J)},)")
    slots = _slots(window, end_state=end_state)
    hyp = window.outputs[slots.ps, slots.pu]  # (M^J, P) from the first J+1 taps
    cols = np.ascontiguousarray(blocks.T)[:, :, None, None]  # (T, B, 1, 1)
    older = M**J

    def metrics(t, prev):
        return (cols[t] - (hyp + feedback.take(prev // older))) ** 2

    res = _viterbi(slots, *blocks.shape, metrics, base=M, memory=L)
    return _unbatch(obs, res.bits)


@dataclass(frozen=True)
class BcjrResult:
    symbol_posteriors: np.ndarray  # (T, M) probabilities; (B, T, M) batched
    bit_llrs: np.ndarray           # (T * n,) log P(bit=0) - log P(bit=1); (B, T * n)


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


def bcjr_bytes(isi_trellis: TrellisSpec, steps: int) -> int:
    """Bytes per block of the largest arrays :func:`bcjr_equalize` holds:
    the (T, S, M) branch metrics and the forward and backward metrics."""
    S, M = isi_trellis.num_states, isi_trellis.num_inputs
    return 8 * (steps * S * M + 2 * (steps + 1) * S)


def bcjr_equalize(isi_trellis: TrellisSpec, obs, noise_variance: float,
                  *, start_state: int = 0,
                  end_state: int | None = None) -> BcjrResult:
    """Symbol-by-symbol MAP over an ISI trellis, log domain, exact log-sum-exp.

    The forward and backward recursions are independent, so one time loop
    runs both, for every block of a (B, T) batch, on a stacked (2, B, S, M)
    array; this needs M predecessors per state, as in every window trellis.
    Symbol posteriors are marginalized to bit LLRs through the natural map
    (MSB first), one LLR per coded bit.
    """
    blocks = _as_blocks(obs)
    B, T = blocks.shape
    S, M = isi_trellis.num_states, isi_trellis.num_inputs
    hyp = isi_trellis.outputs
    nxt = isi_trellis.next_state
    ps, pu, valid = isi_trellis.predecessors
    if not valid.all():
        raise ValueError("BCJR needs num_inputs predecessors per state")
    into = ps * M + pu  # flat (state, input) index of each incoming branch
    inv2v = -0.5 / float(noise_variance)

    # (T, B, S, M), C-ordered and built in place
    gammas = np.ascontiguousarray(blocks.T)[:, :, None, None] - hyp
    gammas **= 2
    gammas *= inv2v
    flat = gammas.reshape(T, B * S * M)
    # The tables for the B copies of the trellis in a flat (B, S) row.
    ps, nxt, into = _copies(ps, S, B), _copies(nxt, S, B), _copies(into, S * M, B)

    alpha = np.full((T + 1, B, S), -np.inf)
    alpha[0, :, start_state] = 0.0
    beta = np.full((T + 1, B, S), -np.inf)
    if end_state is None:
        beta[T] = 0.0
    else:
        beta[T, :, end_state] = 0.0
    step = np.empty((2, B, S, M))
    # The posteriors go through T in chunks of about 4096 branches, so that
    # gammas stays the only full (T, B, S, M) array.
    chunk = max(1, 4096 // (B * S * M))
    with np.errstate(invalid="ignore"):
        for t in range(T):
            b = T - 1 - t
            np.add(alpha[t].take(ps), flat[t].take(into), out=step[0])
            np.add(gammas[b], beta[b + 1].take(nxt), out=step[1])
            both = _logsumexp(step, 3)
            both -= both.max(2)[..., None]
            alpha[t + 1], beta[b] = both

        post = np.empty((T, B, M))
        for t0 in range(0, T, chunk):
            t1 = min(t0 + chunk, T)
            joint = alpha[t0:t1, :, :, None] + gammas[t0:t1]
            joint += beta[t0 + 1:t1 + 1].reshape(t1 - t0, -1)[:, nxt]
            log_pu = _logsumexp(joint, 2)
            log_pu -= _logsumexp(log_pu, 2)[..., None]
            post[t0:t1] = np.exp(log_pu)

        log_post = np.log(np.maximum(post, 1e-300))
        bits = symbol_bits(np.arange(M), M).reshape(M, -1)  # [u, i]: bit i of u
        llrs = np.stack([_logsumexp(log_post[..., bit == 0], 2)
                         - _logsumexp(log_post[..., bit == 1], 2)
                         for bit in bits.T], axis=2)  # (T, B, n)
    post = post.transpose(1, 0, 2)
    llrs = llrs.transpose(1, 0, 2).reshape(B, -1)
    return BcjrResult(symbol_posteriors=_unbatch(obs, post),
                      bit_llrs=_unbatch(obs, llrs))


def soft_viterbi_decode(code: ConvCode, llrs, *,
                        end_state: int | None = 0,
                        trellis: TrellisSpec | None = None) -> np.ndarray:
    """Max-correlation Viterbi over the code trellis from per-bit LLRs.

    LLR convention: positive favors bit 0.  One LLR per coded bit,
    n per trellis step, in a (T * n,) block or a (B, T * n) batch.
    ``trellis`` is ``build_conv_trellis(code)``, for callers that decode
    many blocks; it is built here when omitted.
    """
    blocks = _as_blocks(llrs)
    B, n = blocks.shape[0], code.n
    if blocks.shape[1] % n:
        raise ValueError("need one LLR per coded bit")
    tr = build_conv_trellis(code) if trellis is None else trellis
    if tr.outputs.shape != (code.num_states, 2, n):
        raise ValueError(f"trellis outputs {tr.outputs.shape} do not fit a "
                         f"{code.num_states}-state rate-1/{n} code")
    slots = _slots(tr, end_state=end_state)
    # Minimize sum((2v-1)*llr) over the n code bits v of a branch.  The
    # (T, B, 2^n) sums of every n-bit word are formed once, their terms
    # added in bit order, so a block's metric is the same at any B; each
    # step then picks the word of every candidate branch.
    words = 1 << n
    signs = 2.0 * symbol_bits(np.arange(words), words).reshape(words, n) - 1.0
    steps = blocks.shape[1] // n
    per_step = np.ascontiguousarray(blocks.reshape(B, steps, n).transpose(1, 0, 2))
    sums = per_step[..., :1] * signs[:, 0]
    for i in range(1, n):
        sums += per_step[..., i:i + 1] * signs[:, i]
    word = symbol_index(tr.outputs[slots.ps, slots.pu], words)  # (R*P,)

    def metrics(t, reg):
        return sums[t].take(word, axis=1)

    bits = _viterbi(slots, B, steps, metrics).bits
    return _unbatch(llrs, bits)
