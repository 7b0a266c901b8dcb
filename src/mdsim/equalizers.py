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
    _msb_weights,
    bits_per_symbol,
    edge_offsets,
    symbol_bits,
    symbol_index,
    symbol_value,
)
from .trellis import STATE_CAP, TrellisSpec, check_size, window_next_state


class DecodeResult(NamedTuple):
    bits: np.ndarray  # uint8 (T,), or (B, T) for a batch
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
    """Subtract the silent-prehistory offsets from the first L observations
    of a (T,) block, or of each block of a (B, T) batch."""
    obs = np.array(obs, dtype=np.float64)
    offs = edge_offsets(taps, M)
    k = min(offs.size, obs.shape[-1])
    obs[..., :k] -= offs[:k]
    return obs


def _as_blocks(obs) -> np.ndarray:
    """``obs`` as a float (B, T) array: a (T,) block is a batch of one.
    A block needs a step and a batch a block, and every value is finite."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim not in (1, 2) or obs.size == 0:
        raise ValueError("need a (T,) block or a (B, T) batch with T, B >= 1, "
                         f"not shape {obs.shape}")
    if not np.isfinite(obs).all():
        raise ValueError("need finite values in every block, not NaN or inf")
    return obs.reshape(-1, obs.shape[-1])


def _columns(obs) -> np.ndarray:
    """The (T, B, 1) columns of a (T,) block or (B, T) batch ``obs``:
    step t's observations of every block, against the (P, B, R)
    hypotheses of a step."""
    return np.ascontiguousarray(_as_blocks(obs).T)[:, :, None]


def _pointer_bits(fan_in: int) -> int:
    """Bits of a packed traceback pointer (a predecessor slot below
    ``fan_in``): the fewest of 1, 2, 4 or 8 that hold it, so that a byte
    holds a whole number of pointers."""
    for bits in (1, 2, 4, 8):
        if fan_in <= 1 << bits:
            return bits
    raise ValueError(f"a fan-in of {fan_in} does not fit a traceback "
                     "pointer of 8 bits")


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
    from state 0 to state 0: the traceback pointers of every stepped state
    and step, packed ``8 // _pointer_bits(fan-in)`` to a byte (8 for a
    fan-in of 2, 4 for a fan-in of 4), and nine bytes per step (the
    block's 8-byte observation and its uint8 decision).  Left out, since
    they do not grow with ``steps``: the chunk of ``POINTER_CHUNK``
    unpacked steps, the padding of the last packed chunk to a whole chunk
    (less than one packed chunk), and the buffers every step reuses, the
    (P, B*R) predecessor table and, on the R_live rows that a step forms,
    the (P, B, R_live) candidates, the predecessor table of the gather
    and the receiver's metrics and tiled tables: a few times ``8 * P *
    R`` bytes a block (about 50 KB for the STD of pam.cfg).  It counts the
    fan-in from ``next_state``: a sweep builds no predecessor table
    before a block."""
    fan_in = np.bincount(trellis.next_state.reshape(-1),
                         minlength=trellis.num_states)
    rows = int(np.count_nonzero(_stepped(fan_in, 0, 0)))
    per_byte = 8 // _pointer_bits(int(fan_in.max()))
    return -(-steps // per_byte) * rows + 9 * steps


class _Slots(NamedTuple):
    """The add-compare-select table of one trellis and start and end
    state: a row for each of the R states it steps, holding that state's
    predecessor slots in the order of ``trellis.predecessors``.  A slot
    is live when it is a branch from a stepped state; the others
    (padding, and branches from never-entered states) are masked to
    +inf.  The ``live_rows`` rows that have a live slot or hold the start
    state come first, then the others, each part in ascending state
    order, so that a step forms the candidates and branch metrics of the
    first ``live_rows`` rows only."""

    state: np.ndarray  # (R,) the state of each row
    ps: np.ndarray     # (R, P) predecessor state of each slot
    pu: np.ndarray     # (R, P) input of each slot
    # (R, P) row of each live slot's predecessor, else the row of the
    # lowest stepped state
    pred: np.ndarray
    live: np.ndarray   # (R, P) bool
    live_rows: int     # rows with a live slot, and the start row
    start: int         # row of the start state
    end: int | None    # row of the end state, None for a free end


def _check_states(num_states: int, start_state: int,
                  end_state: int | None) -> None:
    """Raise a ValueError naming a start or end state that is not one of
    the ``num_states`` states (``end_state`` None is a free end)."""
    for name, state in (("start_state", start_state), ("end_state", end_state)):
        if state is not None and not 0 <= state < num_states:
            raise ValueError(f"{name} must be a state in 0..{num_states - 1}, "
                             f"not {state}")


def _slots(trellis: TrellisSpec, start_state: int = 0,
           end_state: int | None = 0) -> _Slots:
    """The table :func:`_viterbi` steps; receivers read each slot's branch
    hypothesis from its ``ps`` and ``pu``.  A stable sort of the stepped
    states puts those with a live slot, and the start state, first and
    keeps each part in state order.  Any other row is +inf from the start
    and keeps the slot-0 pointer of a row of +inf candidates, so a step
    forms no candidate for it.  The start row is formed even without a
    live slot, so that its metric turns +inf at step 0."""
    _check_states(trellis.num_states, start_state, end_state)
    ps, pu, valid = trellis.predecessors
    step = _stepped(valid.sum(1), start_state, end_state)
    live = valid & step[ps]
    live_row = live.any(1)
    live_row[start_state] = True
    state = np.flatnonzero(step)
    state = state[np.argsort(~live_row[state], kind="stable")]
    row_of = np.zeros(trellis.num_states, dtype=np.int64)
    row_of[state] = np.arange(state.size)
    ps, pu, live = ps[state], pu[state], live[state]
    pred = np.where(live, row_of[ps], row_of[state.min()])
    return _Slots(state, ps, pu, pred, live,
                  int(np.count_nonzero(live_row)),
                  int(row_of[start_state]),
                  None if end_state is None else int(row_of[end_state]))


def _tiled(table: np.ndarray, blocks: int, dtype=None) -> np.ndarray:
    """The (R, P) slot table ``table`` in the (P, B, R) layout of a step,
    one copy per block, contiguous.  Made once per call, so that a step's
    operations on it run over whole arrays, not over rows of R."""
    R, P = table.shape
    return np.array(np.broadcast_to(table.T[:, None, :], (P, blocks, R)),
                    dtype=dtype, order="C")


# Formed rows (blocks times R_live) from which a fan-in of 4 selects by a
# pairwise tournament: on few rows one argmin costs less than the
# tournament's nine calls.  On pam.cfg blocks at 10 dB (median of 21
# interleaved calls), the tournament took 1.20 of argmin's time per
# DFSE(2) call at 64 rows (B = 4), 0.92 at 512 and 0.74 at 1024, and per
# STD call 1.01 at 512 rows, 0.86 at 768 and 0.78 at 1024.  The crossover
# lies below 1024, but moving it is a speed change of its own.
TOURNAMENT_ROWS = 1024


def _select(cand: np.ndarray, out: np.ndarray, pm: np.ndarray) -> None:
    """The first minimum over the P slots of the (P, ...) candidates
    ``cand``, in which each slot is one contiguous array: writes its slot
    into the pointers ``out`` (bool for a fan-in of 2, else uint8) and its
    value into ``pm``, both of the shape of one slot and either of them
    may be a strided view.

    A fan-in of 2 compares the two slots with a strict ``<`` and keeps
    their ``np.minimum``; a fan-in of 4 over ``TOURNAMENT_ROWS`` rows or
    more plays the pairs (0, 1) and (2, 3) that way, then the pair winners
    with ``m23 < m01``, and merges the pointers in uint8: ``j23 = (c3 <
    c2) | 2`` replaces ``out`` where ``m23 < m01`` by ``out ^= (j23 ^ out)
    * won``.  Its pair minima go into the candidate slots 0 and 2.  Any
    other table takes ``argmin`` and ``np.minimum.reduce``.  Each gives
    argmin's slot: the earlier of two equal candidates wins, +inf ones
    included, so on ``m23 == m01`` the pair (0, 1) wins.
    """
    P = len(cand)
    if P == 2:
        c0, c1 = cand[0], cand[1]  # unpacking cand is 4x slower
        np.less(c1, c0, out=out)
        np.minimum(c0, c1, out=pm)
    elif P == 4 and cand[0].size >= TOURNAMENT_ROWS:
        c0, c1, c2, c3 = cand[0], cand[1], cand[2], cand[3]
        np.less(c1, c0, out=out.view(bool))
        j23 = np.less(c3, c2).view(np.uint8)
        m01 = np.minimum(c0, c1, out=c0)
        m23 = np.minimum(c2, c3, out=c2)
        j23 |= 2
        j23 ^= out
        j23 *= np.less(m23, m01).view(np.uint8)
        out ^= j23
        np.minimum(m01, m23, out=pm)
    else:
        out[...] = cand.argmin(0)
        np.minimum.reduce(cand, axis=0, out=pm)


# Steps of traceback pointers that the add-compare-select writes unpacked,
# and the traceback unpacks at a time: a multiple of 8, so that a chunk
# packs into whole bytes at every pointer width.
POINTER_CHUNK = 64


def _viterbi(slots: _Slots, steps: int, blocks: int, branch_metrics,
             *, memory: int = 0) -> DecodeResult:
    """Add-compare-select over the table ``slots`` for ``steps`` steps on
    ``blocks`` independent blocks, then one traceback; returns the (B, T)
    uint8 input sequences and their (B,) metrics.

    Only the R stepped states have rows, so a step evaluates the trellis
    branches and the padding of states with a smaller fan-in, not the
    never-entered states.  The B blocks run as one block-diagonal table
    of B*R rows: block b's copy of row i is row b*R + i, and its
    predecessors are offset by b*R, so each numpy call of a step serves
    every block.  Only the first R_live = ``slots.live_rows`` rows of
    each block are formed: a step gathers their predecessors' path
    metrics into one reused (P, B, R_live) candidate array, slot-major
    (each slot contiguous), adds ``branch_metrics(t, idx)`` in place, the
    (P, B, R_live) metrics of step t on those rows, +inf on a slot that
    is not live, and :func:`_select` writes the minima and pointers into
    (B, R_live) views of the path metrics and of the pointer chunk.  The
    other rows keep their +inf metric and slot-0 pointer; they keep their
    rows in the path metrics, the pointers and the traceback, so no state
    is pruned.  ``branch_metrics`` may return the same buffer at every
    step.  ``idx`` holds, in the (P, B, R) layout, each slot's hypothesis
    index: the survivor register of the slot's predecessor (its last
    ``memory`` inputs as base-P digits, newest in the least significant
    digit) with the slot's input appended as the newest digit (None
    without registers).  A state's new register is the index of the slot
    it keeps, less its oldest digit.  Registers are used only on window
    trellises (RSSE, DFSE), where every row is live and the fan-in P is
    the number of inputs: 2 for RSSE, M for DFSE.
    :func:`_select` compares the candidates in slot order and keeps the
    first minimum, so ties go to the lower predecessor state, then the
    lower input.  With a free end each block's traceback starts from its
    best final metric, the first in state order.

    The pointers of C = ``POINTER_CHUNK`` steps go into one reused
    (C, B, R) chunk, bool for a fan-in of 2, else uint8.  When its steps
    are done, the chunk is stored packed into fields of ``bits =
    _pointer_bits(P)`` bits, ``per = 8 // bits`` steps to a byte,
    step-strided: with G = C / per, step ``i * G + g`` of the chunk goes
    in bits ``i * bits`` of byte row ``g``.  Packing is one multiply by
    ``2**(i * bits)`` and one ``bitwise_or.reduce`` over the first axis
    of a (per, G, B*R) view of the chunk; unpacking is one ``right_shift``
    and a mask back into that view.  Every chunk, the last included, is
    packed, and the traceback unpacks each into the chunk as it enters
    it.  Each step of the traceback writes its decisions, the inputs of
    the kept slots, straight into a (T, B) uint8 array, which is
    returned transposed.

    ``P**memory`` must be a power of two: the register wrap is a mask.
    """
    R, P = slots.pred.shape
    live = slots.live_rows
    rows = blocks * R
    bits = _pointer_bits(P)
    per = 8 // bits
    shifts = (bits * np.arange(per, dtype=np.uint8))[:, None, None]
    # packing multiplies by 2**shift: numpy's uint8 left_shift is ten
    # times slower than its multiply
    weights = np.uint8(1) << shifts
    # (P, B, R): the flat row of each slot's predecessor
    by_block = _tiled(slots.pred, blocks)
    by_block += R * np.arange(blocks)[:, None]
    ps_flat = by_block.reshape(-1)
    # a trellis of I inputs has a state of fan-in I or more, and
    # _pointer_bits holds the fan-in to 256, so every input fits a uint8
    pu8 = _tiled(slots.pu, blocks, np.uint8).reshape(-1)
    slot_off = rows * np.arange(P)  # flat offset of each slot in (P, B*R)
    cand = np.empty((P, blocks, live))
    live_ps = np.ascontiguousarray(by_block[:, :, :live])  # a copy if live < R
    pm = np.full((blocks, R), np.inf)
    pm[:, slots.start] = 0.0
    pm_live = pm[:, :live]
    idx = None
    if memory:  # every row is live
        pu = _tiled(slots.pu, blocks)
        idx = np.empty((P, blocks, R), dtype=np.int64)
        if P == 2:
            idx0, idx1 = idx
        row = np.arange(rows).reshape(blocks, R)
        reg = np.zeros((blocks, R), dtype=np.int64)
    wrap = P**memory - 1  # drops a register's oldest digit
    chunk = np.zeros((POINTER_CHUNK, blocks, R),
                     dtype=bool if P == 2 else np.uint8)
    strided = chunk.view(np.uint8).reshape(per, -1, rows)  # (per, G, B*R)
    starts = range(0, steps, POINTER_CHUNK)
    packed = np.empty((len(starts), *strided.shape[1:]), dtype=np.uint8)

    for c, t0 in enumerate(starts):
        for t, back in zip(range(t0, steps), chunk[:, :, :live]):
            if memory:
                reg.take(by_block, out=idx, mode="wrap")
                idx *= P
                idx += pu
            pm.take(live_ps, out=cand, mode="wrap")  # "raise" buffers
            cand += branch_metrics(t, idx)
            _select(cand, back, pm_live)
            if memory:
                if P == 2:
                    reg = np.where(back, idx1, idx0)
                else:
                    k = slot_off.take(back)
                    k += row
                    idx.take(k, out=reg, mode="wrap")
                reg &= wrap
        # the steps past the block's end in its last chunk hold stale
        # pointers, which the multiply keeps out of the fields before them
        strided *= weights
        np.bitwise_or.reduce(strided, axis=0, out=packed[c])

    if slots.end is None:  # the first best state in state order
        by_state = np.argsort(slots.state)
        s = by_state[np.argmin(pm[:, by_state], axis=1)]
    else:
        s = np.full(blocks, slots.end, dtype=np.int64)
    metric = pm[np.arange(blocks), s]
    s = s + R * np.arange(blocks)
    decided = np.empty((steps, blocks), dtype=np.uint8)
    for c, t0 in reversed(list(enumerate(starts))):
        np.right_shift(packed[c], shifts, out=strided)
        strided &= (1 << bits) - 1
        t1 = min(t0 + POINTER_CHUNK, steps)
        for back, out in zip(chunk[t1 - t0 - 1::-1], decided[t0:t1][::-1]):
            k = slot_off.take(back.take(s))
            k += s
            pu8.take(k, out=out, mode="wrap")
            s = ps_flat.take(k)
    return DecodeResult(bits=decided.T, metric=metric)


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
    gives (B, T) uint8 bits and (B,) metrics.
    """
    cols = _columns(obs)
    slots = _slots(trellis, start_state, end_state)
    # (P, B, R_live) hypotheses of the live rows; +inf on a slot that is
    # not live gives its candidate +inf
    hyp = _tiled(np.where(slots.live, trellis.outputs[slots.ps, slots.pu],
                          np.inf)[:slots.live_rows], cols.shape[1])
    d = np.empty(hyp.shape)

    def metrics(t, idx):
        np.subtract(cols[t], hyp, out=d)
        return np.multiply(d, d, out=d)

    res = _viterbi(slots, *cols.shape[:2], metrics)
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
                      state_cap: int = STATE_CAP) -> TrellisSpec:
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
    check_size("ISI trellis", S, state_cap, "reduce memory or raise the cap")
    past = _past_taps(h.taps, M, np.arange(S), range(1, mem + 1))
    outputs = h.taps[0] * symbol_value(np.arange(M), M) + past[:, None]
    return TrellisSpec(next_state=window_next_state(M, mem), outputs=outputs)


def build_std_trellis(code: ConvCode, h: IsiResponse, M: int,
                      state_cap: int = STATE_CAP) -> TrellisSpec:
    """Joint super trellis: the product of the code trellis and the M-ary
    ISI trellis (Forney, IEEE Trans. Inf. Theory, 1972).

    State id = enc * M^L + window, the window being the ISI trellis state
    (newest symbol index in the least significant M-ary digit).  Input c
    moves the encoder along its code branch, whose n bits are one symbol
    x, and the window along x; the branch output is the ISI trellis's for
    (window, x).  Serves as the equivalence baseline for the merged binary
    trellis; both describe identical branch hypotheses.
    """
    bits_per_symbol(code, M)
    z_cha = M**h.L
    check_size("super trellis", code.num_states * z_cha, state_cap,
               "use the merged trellis instead")
    code_tr = build_conv_trellis(code)
    isi = build_isi_trellis(h, M, state_cap=state_cap)
    # x[enc, 0, c]: symbol index of the code branch; w[window, 0]
    x = symbol_index(code_tr.outputs, M).reshape(-1, 1, 2)
    w = np.arange(z_cha)[:, None]
    # (enc, window, c) tables, flattened to (enc * M^L + window, c)
    next_state = code_tr.next_state[:, None] * z_cha + isi.next_state[w, x]
    return TrellisSpec(next_state=next_state.reshape(-1, 2),
                       outputs=isi.outputs[w, x].reshape(-1, 2))


def rsse_decode(mt: MatchedTrellis, part: PartitionSpec, obs) -> DecodeResult:
    """Reduced-state Viterbi over the merged trellis with survivor feedback.

    Hyperstates keep the r newest state bits; the older nu+L-r bits of each
    branch hypothesis come from the hyperstate's own survivor register.
    r = nu+L reproduces full MLSE, r = 0 is a pure decision-feedback
    detector.  ``obs`` is one (T,) block or a (B, T) batch; the bits are
    uint8.
    """
    mem = mt.nu + mt.L
    r = part.kept_bits
    if r > mem:
        raise ValueError(f"kept_bits {r} exceeds trellis memory {mem}")
    if r < mem and not mt.isi.minimum_phase:
        warnings.warn("ISI response not minimum phase; "
                      "state truncation loses its distance rationale",
                      stacklevel=2)
    cols = _columns(obs)
    slots = _slots(part.window)
    # a hypothesis index is a merged state's nu+L bits and its input bit:
    # the flat index of that branch's output
    flat = mt.trellis.outputs.reshape(-1)
    R, P = slots.pred.shape
    d = np.empty((P, cols.shape[1], R))

    def metrics(t, idx):
        flat.take(idx, out=d, mode="wrap")
        np.subtract(cols[t], d, out=d)
        return np.multiply(d, d, out=d)

    # Flushed blocks terminate in hyperstate 0.
    res = _viterbi(slots, *cols.shape[:2], metrics, memory=mem)
    return DecodeResult(*(_unbatch(obs, x) for x in res))


def build_dfse_feedback(h: IsiResponse, M: int, kept_symbols: int,
                        state_cap: int = STATE_CAP) -> np.ndarray:
    """Feedback of the taps beyond a DFSE window of ``kept_symbols``: entry
    i is the sum over lags J+1..L of taps[l] times the symbol sent l steps
    back, for the older register digits ``reg // M**J == i``.  It has
    M^(L-J) entries, bounded by ``state_cap`` as the trellises are."""
    L, J = h.L, kept_symbols
    if J < 0 or J > L:
        raise ValueError(f"kept_symbols must be in [0, {L}]")
    n = M ** (L - J)
    check_size("DFSE feedback table", n, state_cap,
               "keep more symbols or raise the cap", unit="entries")
    return _past_taps(h.taps, M, np.arange(n) * M**J, range(J + 1, L + 1))


def dfse_equalize(h: IsiResponse, M: int, kept_symbols: int, obs,
                  *, end_state: int | None = None,
                  window: TrellisSpec | None = None,
                  feedback: np.ndarray | None = None) -> np.ndarray:
    """Reduced-state symbol equalizer: M^J trellis states, survivor feedback
    for the channel taps beyond the kept window.  Returns hard symbol
    indices (natural map order) as uint8, (T,) for one block or (B, T)
    for a batch.

    ``window`` is ``build_isi_trellis(h, M, memory=kept_symbols)`` and
    ``feedback`` is ``build_dfse_feedback(h, M, kept_symbols)``, for
    callers that decode many blocks; each is built here when omitted.
    """
    L = h.L
    J = kept_symbols
    if J < 0 or J > L:
        raise ValueError(f"kept_symbols must be in [0, {L}]")
    _msb_weights(M)  # the survivor registers wrap by a mask
    cols = _columns(obs)
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
    # (P, B, M^J) hypotheses from the first J+1 taps
    hyp = _tiled(window.outputs[slots.ps, slots.pu], cols.shape[1])
    older = M ** (J + 1)  # the hypothesis index's digits past the window
    past = np.empty(hyp.shape, dtype=np.int64)
    d = np.empty(hyp.shape)

    def metrics(t, idx):
        np.floor_divide(idx, older, out=past)
        feedback.take(past, out=d, mode="wrap")
        np.add(d, hyp, out=d)
        np.subtract(cols[t], d, out=d)
        return np.multiply(d, d, out=d)

    res = _viterbi(slots, *cols.shape[:2], metrics, memory=L)
    return _unbatch(obs, res.bits)


@dataclass(frozen=True)
class BcjrResult:
    symbol_posteriors: np.ndarray  # (T, M) probabilities; (B, T, M) batched
    bit_llrs: np.ndarray           # (T * n,) log P(bit=0) - log P(bit=1); (B, T * n)


def _contiguous_sum(t: np.ndarray, axis: int) -> np.ndarray:
    """The sum of ``t`` over ``axis``, rounded as numpy rounds the sum of
    a contiguous axis: an outer ``axis`` of 8 terms or more is summed on a
    C-order copy in which it is the last.  Over an outer axis numpy adds
    the slices in order, and over a contiguous one of 8 terms or more it
    adds them pairwise, so the two round differently from 8 terms on;
    below 8 both add in order.  The last axis is summed as it lies, as
    the scipy loop sums it on the same layout (a boolean selection of
    the last axis, as the LLRs take, leaves it outer in memory)."""
    if t.shape[axis] < 8 or axis in (-1, t.ndim - 1):
        return t.sum(axis)
    return np.ascontiguousarray(np.moveaxis(t, axis, -1)).sum(-1)


def _logsumexp(a: np.ndarray, axis: int, *, in_order: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, rounded as scipy.special.logsumexp
    (1.17) rounds it: the m tied maxima leave the sum, which becomes
    log1p(rest / m) + log(m) + max.  The terms are summed as numpy sums
    a contiguous axis (:func:`_contiguous_sum`, pairwise from 8 terms
    on) or, with ``in_order``, as it sums an outer one (slice by slice),
    wherever ``axis`` lies in ``a``.  Without a tied
    maximum m is 1, and the division and log(m) are skipped: they change
    no bit.  An all -inf slice gives -inf; its terms are -inf - -inf =
    NaN until the maximum mask zeroes them, so callers hold
    ``np.errstate(invalid="ignore")``.
    """
    amax = a.max(axis, keepdims=True)
    top = a == amax
    terms = np.subtract(a, amax)
    np.exp(terms, out=terms)
    np.copyto(terms, 0.0, where=top)
    out = terms.sum(axis) if in_order else _contiguous_sum(terms, axis)
    if np.count_nonzero(top) > out.size:
        m = top.sum(axis)
        out /= m
        np.log1p(out, out=out)
        out += np.log(m)
    else:
        np.log1p(out, out=out)
    out += amax.reshape(out.shape)
    return out


# Branches of a chunk of steps, over every block of a batch (at least one
# step): the recursions form the forward and the backward branch metrics
# of a chunk as they reach it, and the posteriors the joint metrics of a
# chunk, so that no array but the forward and backward metrics grows with
# the block.
BCJR_CHUNK = 1 << 14


def bcjr_bytes(isi_trellis: TrellisSpec, steps: int) -> int:
    """Bytes per block of the largest arrays :func:`bcjr_equalize` holds:
    the (T + 1, S) forward and backward metrics.  It forms the branch
    and posterior metrics in chunks of ``BCJR_CHUNK`` branches over the
    whole batch (at least one step), so they add a constant to a call,
    not bytes per block."""
    return 16 * (steps + 1) * isi_trellis.num_states


def bcjr_equalize(isi_trellis: TrellisSpec, obs,
                  noise_variance: float | np.ndarray,
                  *, start_state: int = 0,
                  end_state: int | None = None) -> BcjrResult:
    """Symbol-by-symbol MAP over an ISI trellis, log domain, exact log-sum-exp.

    The forward and backward recursions are independent, so one time loop
    runs both, for every block of a (B, T) batch, on a stacked (2, M, B, S)
    array: slot j of state s holds the branch from its j-th predecessor
    (forward) or on input j (backward), so a step's log-sum-exp reduces M
    contiguous (B, S) slices.  This needs M predecessors per state, as in
    every window trellis.  The posterior joint metrics are (S, T, B, M),
    reduced over the states.  Symbol posteriors are marginalized to bit
    LLRs through the natural map (MSB first), one LLR per coded bit.
    ``noise_variance`` is one variance for the batch or a (B,) array of
    one per block; each block's branch metrics are scaled by its own
    ``-0.5 / variance``, so a block decodes as it does alone at its
    variance.
    """
    cols = np.ascontiguousarray(_as_blocks(obs).T)  # (T, B)
    T, B = cols.shape
    S, M = isi_trellis.num_states, isi_trellis.num_inputs
    _check_states(S, start_state, end_state)
    var = np.asarray(noise_variance, dtype=np.float64)
    if var.shape not in ((), (B,)):
        raise ValueError(f"noise_variance must be a scalar or one per block "
                         f"({B}), not shape {var.shape}")
    if not (np.isfinite(var).all() and (var > 0).all()):
        raise ValueError(f"noise_variance must be finite and positive, "
                         f"not {noise_variance!r}")
    hyp = isi_trellis.outputs
    nxt = isi_trellis.next_state
    ps, pu, valid = isi_trellis.predecessors
    if not valid.all():
        raise ValueError("BCJR needs num_inputs predecessors per state")
    inv2v = np.broadcast_to(-0.5 / var, (B,))[:, None]  # (B, 1)

    def branch_metrics(y, h):
        g = y - h
        g **= 2
        g *= inv2v
        return g

    # Step layouts: [0, j, b, s] forward over the j-th predecessor of s,
    # [1, u, b, s] backward over input u.  ``slot_hyp`` holds each slot's
    # hypothesis, ``into`` the flat index of the metric each slot adds to
    # in the (2, B, S) stack of alpha[t] and beta[t + 1].
    slot_hyp = np.stack([hyp[ps, pu].T, hyp.T])[:, :, None, :]  # (2, M, 1, S)
    rows = S * np.arange(B)[:, None]  # (B, 1)
    into = np.stack([ps.T[:, None, :] + rows, B * S + nxt.T[:, None, :] + rows])

    alpha = np.full((T + 1, B, S), -np.inf)
    alpha[0, :, start_state] = 0.0
    beta = np.full((T + 1, B, S), -np.inf)
    if end_state is None:
        beta[T] = 0.0
    else:
        beta[T, :, end_state] = 0.0
    cur = np.stack([alpha[0], beta[T]])  # (2, B, S): alpha[t], beta[T - t]
    step = np.empty((2, M, B, S))
    chunk = max(1, BCJR_CHUNK // (B * S * M))
    reverse = cols[::-1]
    with np.errstate(invalid="ignore"):
        for t0 in range(0, T, chunk):
            t1 = min(t0 + chunk, T)
            # [k, 0]: forward step t0 + k; [k, 1]: backward step T-1-t0-k
            ys = np.stack([cols[t0:t1], reverse[t0:t1]], axis=1)
            g = branch_metrics(ys[:, :, None, :, None], slot_hyp)
            for k in range(t1 - t0):
                cur.take(into, out=step, mode="wrap")  # "raise" would buffer
                step += g[k]
                cur = _logsumexp(step, 1)
                cur -= cur.max(2, keepdims=True)
                alpha[t0 + k + 1], beta[T - 1 - t0 - k] = cur
        if end_state is not None and alpha[T, 0, end_state] == -np.inf:
            raise ValueError(f"no path of {T} step(s) joins start_state "
                             f"{start_state} to end_state {end_state}")

        # Joint [s, t, b, u] = alpha[t, b, s] + g + beta[t + 1, b, nxt[s, u]],
        # added in that order, reduced over s in order.
        beta_at = (np.arange(chunk)[:, None, None] * (B * S) + rows
                   + nxt[:, None, None, :])  # (S, chunk, B, M) into beta[t0 + 1:]
        post = np.empty((T, B, M))
        for t0 in range(0, T, chunk):
            t1 = min(t0 + chunk, T)
            joint = alpha[t0:t1].transpose(2, 0, 1)[..., None] + branch_metrics(
                cols[t0:t1, :, None], hyp[:, None, None, :])
            joint += beta[t0 + 1:t1 + 1].take(beta_at[:, :t1 - t0])
            log_pu = _logsumexp(joint, 0, in_order=True)
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
    n per trellis step, in a (T * n,) block or a (B, T * n) batch; the
    decoded bits are uint8, (T,) or (B, T).
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
    # (C, P, B, R) metrics of every candidate branch are formed C steps at
    # a time, C such that a chunk holds no more values than POINTER_CHUNK
    # steps of the 2^n word sums would.  Their terms are added in bit
    # order, so a block's metric is the same at any B and C.
    # (n, P, 1, R) signs 2v-1 of the code bits of each candidate branch
    branch = (2.0 * tr.outputs[slots.ps, slots.pu] - 1.0).T[:, :, None, :]
    steps = blocks.shape[1] // n
    per_step = blocks.reshape(B, steps, n)
    span = max(1, POINTER_CHUNK * 2**n // slots.pred.size)
    chunk = None

    def metrics(t, reg):
        nonlocal chunk
        i = t % span
        if not i:
            # (n, C, 1, B, 1) LLRs of the chunk's steps
            x = per_step[:, t:t + span].transpose(2, 1, 0)[:, :, None, :, None]
            chunk = x[0] * branch[0]
            for b in range(1, n):
                chunk += x[b] * branch[b]
        return chunk[i]

    bits = _viterbi(slots, steps, B, metrics).bits
    return _unbatch(llrs, bits)
