"""Decoder correctness: brute-force optimality on short blocks, the
merged-vs-super trellis decision equivalence, reduced-state behavior, and
the MAP equalizer against exhaustive posterior enumeration."""

import re
import warnings
from itertools import product

import numpy as np
import pytest

from mdsim.channel import make_rng, normal_from_uniform
from mdsim.conv_code import ConvCode, build_conv_trellis, conv_encode
from mdsim.equalizers import (
    BCJR_CHUNK,
    PartitionSpec,
    _contiguous_sum,
    bcjr_equalize,
    build_isi_trellis,
    build_std_trellis,
    compensate_edges,
    dfse_equalize,
    rsse_decode,
    soft_viterbi_decode,
    viterbi_mlse,
)
from mdsim.matched_encoder import (
    IsiResponse,
    build_matched_trellis,
    serial_reference,
    symbol_index,
    symbol_value,
)

CODE = ConvCode([0o5, 0o7])
H = IsiResponse([1.0, 0.5, 0.25])
MT = build_matched_trellis(CODE, H, 4)
STD = build_std_trellis(CODE, H, 4)


def tx_block(bits, code=CODE, h=H):
    flush = np.zeros(code.nu + h.L, dtype=np.int64)
    return np.concatenate([np.asarray(bits, dtype=np.int64), flush])


def noisy_obs(tx, sigma, seed, code=CODE, h=H):
    ref = serial_reference(code, h, 4, tx)
    obs = ref + sigma * normal_from_uniform(make_rng(seed), ref.size)
    return compensate_edges(obs, h.taps, 4)


def brute_force_ml(obs, n_bits, code=CODE, h=H):
    """Exhaustive minimum distance over all inputs (flush appended)."""
    best, best_metric = None, np.inf
    for word in range(1 << n_bits):
        cand = tx_block([(word >> (n_bits - 1 - i)) & 1 for i in range(n_bits)],
                        code, h)
        ref = compensate_edges(serial_reference(code, h, 4, cand), h.taps, 4)
        metric = float(np.sum((obs - ref) ** 2))
        if metric < best_metric:
            best, best_metric = cand, metric
    return best, best_metric


class TestViterbi:
    def test_noiseless_recovery(self):
        bits = (make_rng(0).random(300) < 0.5).astype(np.int64)
        tx = tx_block(bits)
        obs = noisy_obs(tx, 0.0, 0)
        res = viterbi_mlse(MT.trellis, obs, end_state=0)
        np.testing.assert_array_equal(res.bits, tx)
        assert res.metric < 1e-18

    @pytest.mark.parametrize("seed", range(25))
    def test_brute_force_optimality(self, seed):
        bits = (make_rng(100 + seed).random(8) < 0.5).astype(np.int64)
        tx = tx_block(bits)
        obs = noisy_obs(tx, 1.2, 200 + seed)
        want, want_metric = brute_force_ml(obs, 8)
        for trellis in (MT.trellis, STD):
            got = viterbi_mlse(trellis, obs, end_state=0)
            np.testing.assert_array_equal(got.bits, want)
            assert abs(got.metric - want_metric) < 1e-9

    def test_md_std_identical_decisions(self):
        for seed in range(40):
            bits = (make_rng(300 + seed).random(200) < 0.5).astype(np.int64)
            obs = noisy_obs(tx_block(bits), 0.9, 500 + seed)
            r_md = viterbi_mlse(MT.trellis, obs, end_state=0)
            r_std = viterbi_mlse(STD, obs, end_state=0)
            np.testing.assert_array_equal(r_md.bits, r_std.bits)
            assert abs(r_md.metric - r_std.metric) < 1e-9

    def test_metric_shift_invariance(self):
        # adding a constant to observations and hypotheses preserves decisions
        bits = (make_rng(7).random(64) < 0.5).astype(np.int64)
        obs = noisy_obs(tx_block(bits), 1.0, 77)
        base = viterbi_mlse(MT.trellis, obs, end_state=0)
        shifted_tr = build_matched_trellis(
            CODE, IsiResponse(H.taps), 4)
        from mdsim.trellis import TrellisSpec
        tr = TrellisSpec(next_state=MT.trellis.next_state.copy(),
                         outputs=MT.trellis.outputs + 5.0)
        moved = viterbi_mlse(tr, obs + 5.0, end_state=0)
        np.testing.assert_array_equal(base.bits, moved.bits)


class TestNeverEnteredStates:
    """The add-compare-select steps only the states with a predecessor,
    state 0 and the end state, and masks branches out of any other state.
    On a trellis with fan-in 0 to 3 it is still the minimum over every
    input sequence, for a start state (0) and end states without a
    predecessor too."""

    from mdsim.trellis import TrellisSpec

    # fan-in of states 0..7: 0, 3, 3, 1, 0, 3, 3, 3; the branches out of
    # state 4 enter states 1 and 6
    NEXT = np.array([[5, 6], [1, 2], [1, 7], [2, 5],
                     [6, 1], [7, 3], [2, 5], [6, 7]])
    TR = TrellisSpec(next_state=NEXT, outputs=normal_from_uniform(
        make_rng(11), 16).reshape(8, 2)[[1, 0, 2, 3, 4, 5, 6, 7]])
    STEPS = 9

    @classmethod
    def obs(cls):
        return np.stack([normal_from_uniform(make_rng(20 + b), cls.STEPS)
                         for b in range(5)])

    @classmethod
    def brute_force(cls, obs, end):
        """Best input sequence from state 0 to ``end`` (None: any state),
        its metric summed in step order; (None, inf) without one."""
        best, best_metric = None, np.inf
        for inputs in product((0, 1), repeat=cls.STEPS):
            s, metric = 0, 0.0
            for y, u in zip(obs, inputs):
                metric += (y - cls.TR.outputs[s, u]) ** 2
                s = cls.NEXT[s, u]
            if (end is None or s == end) and metric < best_metric:
                best, best_metric = np.array(inputs), metric
        return best, best_metric

    @pytest.mark.parametrize("end", [1, 3, None, 4, 0])
    def test_brute_force_optimality(self, end):
        obs = self.obs()
        batch = viterbi_mlse(self.TR, obs, end_state=end)
        for k, row in enumerate(obs):
            want, want_metric = self.brute_force(row, end)
            got = viterbi_mlse(self.TR, row, end_state=end)
            assert got.metric == pytest.approx(want_metric, rel=1e-12)
            if want is not None:
                np.testing.assert_array_equal(got.bits, want)
            np.testing.assert_array_equal(batch.bits[k], got.bits)
            assert batch.metric[k] == got.metric

    # Bits and metrics of obs().  With end 4 or 0 no path ends there, so
    # the traceback follows the pointers of +inf candidates: the first
    # slot, whose predecessor is state 0 when it is not live.
    PINNED = {
        4: ([[0] * 9] * 5, [np.inf] * 5),
        0: ([[0] * 9] * 5, [np.inf] * 5),
        None: ([[1, 1, 1, 1, 0, 1, 1, 1, 1], [0, 1, 1, 1, 0, 0, 1, 0, 0],
                [0, 1, 1, 0, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 0, 0, 1, 0],
                [0, 1, 0, 0, 0, 1, 0, 0, 0]],
               [8.559204378862004, 5.8261155309888135, 5.71873341860016,
                5.556667935176927, 4.222052461052433])}

    @pytest.mark.parametrize("end", [4, 0, None])
    def test_pinned_without_finite_path(self, end):
        """The decisions where the brute force finds no path (end 4 and
        0) and at a free end stay pinned."""
        bits, metric = self.PINNED[end]
        got = viterbi_mlse(self.TR, self.obs(), end_state=end)
        np.testing.assert_array_equal(got.bits, bits)
        np.testing.assert_array_equal(got.metric, metric)

    def test_pam_cfg_super_trellis_steps_every_branch_once(self):
        """STD of examples_cfg/pam.cfg: 512 of its 1024 states have no
        predecessor and 512 have 4, so the ACS steps 512 rows of 4 slots,
        each a branch of the trellis (no padding), and the CSV still reads
        1024 states.  The 1024 branches out of the never-entered states are
        not live, and 256 rows have no live slot: they come after the 256
        rows with 4 live slots each, both parts in ascending state order."""
        from mdsim.equalizers import _slots

        h = IsiResponse([1, 0.6, 0.36, 0.216, 0.1296])
        std = build_std_trellis(CODE, h, 4)
        slots = _slots(std)
        assert std.num_states == 1024
        assert slots.ps.shape == (512, 4)
        assert len(set(zip(slots.ps.flat, slots.pu.flat))) == 2048
        assert np.count_nonzero(~slots.live) == 1024
        assert slots.live_rows == 256
        assert slots.live[:256].all() and not slots.live[256:].any()
        for part in (slots.state[:256], slots.state[256:]):
            assert (np.diff(part) > 0).all()


class TestCompareSelect:
    """The ACS picks each row's first minimum by comparisons in slot order
    (fan-in 2 always, fan-in 4 from TOURNAMENT_ROWS rows), or by argmin:
    both give argmin's slot and value, with ties, +inf slots and rows of
    +inf.  The candidates are slot-major: ``_select`` reads the (rows, P)
    table transposed, as a contiguous (P, rows) array, writes the pointers
    and minima into its outputs and returns nothing."""

    @staticmethod
    def select(cand, P):
        """``_select`` on the (rows, P) candidates ``cand``: the pointers,
        the kept values, and the (P, rows) candidates after the call."""
        from mdsim.equalizers import _select

        rows = len(cand)
        out = np.empty(rows, dtype=bool if P == 2 else np.uint8)
        pm = np.empty(rows)
        slot_major = np.ascontiguousarray(cand.T)
        assert _select(slot_major, out, pm) is None
        return out, pm, slot_major

    @staticmethod
    def candidates(rows, P, seed):
        """Small integers, so many candidates tie; every 7th row +inf, and
        about one slot in five +inf."""
        rng = make_rng(seed)
        cand = np.floor(rng.random((rows, P)) * 4)
        cand[rng.random((rows, P)) < 0.2] = np.inf
        cand[::7] = np.inf
        return cand

    @pytest.mark.parametrize("P", [2, 3, 4])
    @pytest.mark.parametrize("side", [-1, 0])
    def test_first_minimum(self, P, side):
        from mdsim.equalizers import TOURNAMENT_ROWS

        rows = TOURNAMENT_ROWS + side
        cand = self.candidates(rows, P, 90 + P)
        want = cand.argmin(1)
        assert np.count_nonzero(cand == cand.min(1, keepdims=True)) > rows
        out, pm, _ = self.select(cand, P)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(pm, cand[np.arange(rows), want])

    @pytest.mark.parametrize("case", ["m23 == m01", "c2 == c3 < m01",
                                      "all +inf"])
    def test_tournament_ties(self, case):
        """Rows that tie at the tournament's last match, or in its pair
        (2, 3), or are +inf throughout, at TOURNAMENT_ROWS rows: the
        earlier slot wins, as argmin's does."""
        from mdsim.equalizers import TOURNAMENT_ROWS

        rows = TOURNAMENT_ROWS
        pattern, slot = {
            "m23 == m01": ([[1, 2, 1, 3], [2, 1, 3, 1], [5, 5, 5, 5],
                            [1, 1, 1, 1], [3, 2, 2, 3]], [0, 1, 0, 0, 1]),
            "c2 == c3 < m01": ([[3, 4, 2, 2], [9, 8, 1, 1], [2, 2, 0, 0],
                                [np.inf, np.inf, 7, 7]], [2, 2, 2, 2]),
            "all +inf": ([[np.inf] * 4], [0])}[case]
        reps = -(-rows // len(pattern))
        cand = np.tile(np.array(pattern, dtype=float), (reps, 1))[:rows]
        want = np.tile(slot, reps)[:rows]
        out, pm, after = self.select(cand, 4)
        # the tournament, not argmin: its pair minima are in slots 0 and 2
        np.testing.assert_array_equal(after[::2],
                                      np.minimum(cand[:, ::2], cand[:, 1::2]).T)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(pm, cand[np.arange(rows), want])
        if case == "all +inf":
            assert np.isposinf(pm).all()

    @pytest.mark.parametrize("tournament", [False, True])
    def test_tournament_decodes_as_argmin(self, monkeypatch, tournament):
        """Fan-in 4 without registers (STD) and with them (DFSE(2)) gives
        the same bits and metrics on either side of the crossover."""
        import mdsim.equalizers as eq

        obs = TestBatchedEqualsPerBlock.obs()
        h = TestBatchedEqualsPerBlock.H3
        std = build_std_trellis(CODE, h, 4)
        assert eq._slots(std).pred.shape[1] == 4
        decode = {
            "STD": lambda: tuple(viterbi_mlse(std, obs, end_state=None)),
            "DFSE(2)": lambda: (dfse_equalize(h, 4, 2, obs),)}
        want = {k: f() for k, f in decode.items()}
        monkeypatch.setattr(eq, "TOURNAMENT_ROWS",
                            1 if tournament else 1 << 30)
        for k, f in decode.items():
            for got, w in zip(f(), want[k]):
                np.testing.assert_array_equal(got, w)

    def test_selects_on_live_rows_only(self, monkeypatch):
        """On pam.cfg's chain, STD's compare-select gets the (4, B, 256)
        candidates of the rows with a live slot, not of its 512 stepped
        rows, and MD's the (2, B, 64) candidates of all its rows."""
        import mdsim.equalizers as eq

        h = IsiResponse([1, 0.6, 0.36, 0.216, 0.1296])
        shapes = []
        select = eq._select

        def spy(cand, out, pm):
            shapes.append(cand.shape)
            assert out.shape == pm.shape == cand.shape[1:]
            return select(cand, out, pm)

        monkeypatch.setattr(eq, "_select", spy)
        obs = TestBatchedEqualsPerBlock.obs(3)[:, :12]
        for tr, want in ((build_std_trellis(CODE, h, 4), (4, 3, 256)),
                         (build_matched_trellis(CODE, h, 4).trellis,
                          (2, 3, 64))):
            viterbi_mlse(tr, obs)
            assert set(shapes) == {want}
            shapes.clear()

    def test_only_super_trellis_tables_mask_slots(self, monkeypatch):
        """The ACS adds no padding: a slot that is not live must get a +inf
        branch metric.  The metrics are (P, B, R_live), on the rows with a
        live slot only.  The RSSE, DFSE and code-trellis tables are fully
        live; viterbi_mlse on a trellis with masked slots gives them +inf
        hypotheses, so +inf metrics."""
        import mdsim.equalizers as eq

        seen = {}
        core = eq._viterbi

        def spy(slots, steps, blocks, branch_metrics, *, memory=None):
            R, P = slots.pred.shape
            live = slots.live[:slots.live_rows]
            prev = (None if memory is None
                    else np.zeros((P, blocks, R), dtype=np.int64))
            metrics = branch_metrics(0, prev)
            assert metrics.shape == (P, blocks, slots.live_rows)
            seen[caller] = (live.T[:, None, :], metrics)
            return core(slots, steps, blocks, branch_metrics, memory=memory)

        monkeypatch.setattr(eq, "_viterbi", spy)
        batched, never = TestBatchedEqualsPerBlock, TestNeverEnteredStates
        obs, h = batched.obs()[:2], batched.H3
        decoders = {
            "RSSE": [lambda r=r: rsse_decode(batched.MT3, PartitionSpec(r), obs)
                     for r in range(CODE.nu + h.L + 1)],
            "DFSE": [lambda J=J, end=end: dfse_equalize(h, 4, J, obs,
                                                        end_state=end)
                     for J in range(h.L + 1) for end in (0, None)],
            "soft VA": [lambda code=code, end=end: soft_viterbi_decode(
                            code, batched.llrs(code), end_state=end)
                        for code in (CODE, ConvCode([0o5, 0o7, 0o3]))
                        for end in (0, None)],
            "MD": [lambda: viterbi_mlse(batched.MT3.trellis, obs)],
            "masked": [lambda: viterbi_mlse(never.TR, never.obs(),
                                            end_state=1)]}
        for caller, calls in decoders.items():
            for decode in calls:
                decode()
                live, metrics = seen.pop(caller)
                assert live.all() == (caller != "masked"), caller
                np.testing.assert_array_equal(
                    np.isposinf(metrics), np.broadcast_to(~live, metrics.shape))


class TestPackedPointers:
    """The ACS writes each step's pointers into one chunk of POINTER_CHUNK
    steps and, when the next chunk starts, stores it packed, 8 // bits
    pointers to a byte (bits = 1, 2, 4 or 8 by fan-in); the traceback
    starts in the last chunk, which is never packed, and unpacks each
    earlier chunk as it enters it.  At every width, on blocks of one
    chunk or more whose last chunk is partial or full, decisions and
    metrics are those of an unpacked (steps, states) pointer table,
    block by block and in a batch.  The blocks are integer-rounded, so
    many candidates tie."""

    @staticmethod
    def reference(tr, obs, end):
        """Viterbi over every state of ``tr`` from state 0 with one
        unpacked pointer per state and step: each state keeps its first
        minimum in predecessor-slot order, each candidate summed as
        ``pm[pred] + (y - hyp) ** 2``; the traceback starts from ``end``
        or, for None, from the first best final metric."""
        ps, pu, valid = tr.predecessors
        hyp = np.where(valid, tr.outputs[ps, pu], np.inf)
        pm = np.full(tr.num_states, np.inf)
        pm[0] = 0.0
        back = np.empty((obs.size, tr.num_states), dtype=np.int64)
        for t, y in enumerate(obs):
            cand = pm[ps] + (y - hyp) ** 2
            back[t] = cand.argmin(1)
            pm = cand[np.arange(tr.num_states), back[t]]
        s = int(np.argmin(pm)) if end is None else end
        metric, bits = pm[s], np.empty(obs.size, dtype=np.int64)
        for t in range(obs.size - 1, -1, -1):
            j = back[t, s]
            bits[t], s = pu[s, j], ps[s, j]
        return bits, metric

    @staticmethod
    def trellis(fan_in):
        """A merged trellis for a fan-in of 2, else a symbol window of
        ``fan_in`` inputs; every state has ``fan_in`` predecessors."""
        if fan_in == 2:
            return build_matched_trellis(CODE, IsiResponse([1.0, 0.5, 0.25,
                                                            0.25]), 4).trellis
        return build_isi_trellis(IsiResponse([1.0, 0.5, 0.25]), fan_in,
                                 memory=1 if fan_in > 4 else 2)

    @pytest.mark.parametrize(("fan_in", "bits"),
                             [(2, 1), (4, 2), (8, 4), (32, 8)])
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("end", [0, None])
    def test_decodes_as_unpacked(self, fan_in, bits, steps, end):
        from mdsim.equalizers import POINTER_CHUNK, _pointer_bits, _slots

        tr = self.trellis(fan_in)
        assert _slots(tr).pred.shape[1] == fan_in
        assert _pointer_bits(fan_in) == bits and POINTER_CHUNK == 64
        scale = np.abs(tr.outputs).max()
        obs = np.round(scale * (2 * make_rng(steps + fan_in).random((3, steps))
                                - 1))
        batch = viterbi_mlse(tr, obs, end_state=end)
        for k, row in enumerate(obs):
            want_bits, want_metric = self.reference(tr, row, end)
            got = viterbi_mlse(tr, row, end_state=end)
            np.testing.assert_array_equal(got.bits, want_bits)
            assert got.metric == want_metric
            np.testing.assert_array_equal(batch.bits[k], want_bits)
            assert batch.metric[k] == want_metric

    @pytest.mark.parametrize(("fan_in", "per_byte"),
                             [(2, 8), (3, 4), (4, 4), (8, 2), (32, 1)])
    def test_bytes_count_packed_pointers(self, fan_in, per_byte):
        """A stepped state holds ceil(steps / per_byte) bytes of pointers,
        and a step 9 bytes: its 8-byte observation and uint8 decision."""
        from mdsim.equalizers import _slots, viterbi_bytes

        tr = (build_isi_trellis(IsiResponse([1.0, 0.5]), 3) if fan_in == 3
              else self.trellis(fan_in))
        rows = len(_slots(tr).pred)
        for steps in (1, 63, 64, 65, 1006):
            assert viterbi_bytes(tr, steps) == (-(-steps // per_byte) * rows
                                                + 9 * steps)

    def test_fan_in_256_fits_8_bits(self):
        """Pointers up to 255: a window of 256 inputs and memory 1, whose
        pointer at a step is the symbol decided a step before."""
        tr = build_isi_trellis(IsiResponse([1.0, 0.5]), 256, memory=1)
        obs = np.round(300 * (2 * make_rng(5).random(6) - 1))
        got = viterbi_mlse(tr, obs, end_state=None)
        want_bits, want_metric = self.reference(tr, obs, None)
        np.testing.assert_array_equal(got.bits, want_bits)
        assert got.metric == want_metric
        assert got.bits[:-1].max() >= 128

    def test_rejects_fan_in_past_8_bits(self):
        """A fan-in of 257 needs a pointer of 9 bits: the byte count and
        the decoder name it.  257 states of one input, all into state 0,
        make a table of 257 by 257 slots and allocate no pointers."""
        from mdsim.equalizers import viterbi_bytes
        from mdsim.trellis import TrellisSpec

        tr = TrellisSpec(next_state=np.zeros((257, 1), dtype=np.int64),
                         outputs=np.zeros((257, 1)))
        with pytest.raises(ValueError, match="fan-in of 257"):
            viterbi_bytes(tr, 10)
        with pytest.raises(ValueError, match="fan-in of 257"):
            viterbi_mlse(tr, np.zeros(3))


def std_reference(code, h, M):
    """The super trellis tables written out state by state: every
    (encoder state, channel window) pair, one code input at a time."""
    code_tr = build_conv_trellis(code)
    z_enc, z_cha = code.num_states, M**h.L
    x_sym = symbol_index(code_tr.outputs, M).reshape(z_enc, 2)
    enc = np.repeat(np.arange(z_enc), z_cha)
    win = np.tile(np.arange(z_cha), z_enc)
    levels = symbol_value(np.arange(M), M)
    past = np.zeros(win.size)
    for l in range(1, h.L + 1):
        past += h.taps[l] * levels[win // M ** (l - 1) % M]
    next_state = np.empty((z_enc * z_cha, 2), dtype=np.int64)
    outputs = np.empty((z_enc * z_cha, 2), dtype=np.float64)
    for c in (0, 1):
        x = x_sym[enc, c]
        outputs[:, c] = h.taps[0] * symbol_value(x, M) + past
        next_state[:, c] = (code_tr.next_state[enc, c] * z_cha
                            + (win * M + x) % z_cha)
    return next_state, outputs


class TestStdTrellis:
    @pytest.mark.parametrize("gens, taps, M", [
        ((0o5, 0o7), (1, 0.6, 0.36, 0.216, 0.1296), 4),  # examples_cfg/pam.cfg
        ((0o5, 0o7), (1, 0.5), 4),
        ((0o5, 0o7), (1.0,), 4),
        ((0o133, 0o171), (1, 0.5, 0.25), 4),
        ((0o5, 0o7, 0o3), (1, -0.4, 0.3), 8),
    ])
    def test_product_tables_bit_exact(self, gens, taps, M):
        code, h = ConvCode(gens), IsiResponse(taps)
        tr = build_std_trellis(code, h, M)
        next_state, outputs = std_reference(code, h, M)
        for got, want in ((tr.next_state, next_state), (tr.outputs, outputs)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_state_counts(self):
        assert STD.num_states == 64
        assert build_std_trellis(CODE, IsiResponse([1.0]), 4).num_states == 4

    def test_state_cap(self):
        big = IsiResponse(np.ones(12))
        with pytest.raises(ValueError, match="cap"):
            build_std_trellis(CODE, big, 4, state_cap=1 << 10)

    def test_branch_labels_match_serial_reference(self):
        """Walk the super trellis along random inputs and compare outputs."""
        rng = make_rng(8)
        bits = (rng.random(300) < 0.5).astype(np.int64)
        ref = serial_reference(CODE, H, 4, bits)
        s = 0
        out = np.empty(bits.size)
        for k, c in enumerate(bits):
            out[k] = STD.outputs[s, c]
            s = int(STD.next_state[s, c])
        offs = compensate_edges(np.zeros(bits.size), H.taps, 4)
        np.testing.assert_allclose(out + (-offs), ref, atol=1e-12)


# pam.cfg's chain and random non-dyadic taps, whose sums round
EXACT_CASES = [
    ((0o5, 0o7), (1, 0.6, 0.36, 0.216, 0.1296)),  # examples_cfg/pam.cfg
    ((0o5, 0o7), tuple(np.r_[1.0, 2.0 * make_rng(21).random(3) - 1.0])),
    ((0o133, 0o171), tuple(np.r_[1.0, 2.0 * make_rng(22).random(2) - 1.0])),
]


@pytest.mark.parametrize("gens, taps", EXACT_CASES,
                         ids=["pam_cfg", "57_random", "133_171_random"])
class TestMergedIsSuperTrellis:
    """The merged trellis holds the super trellis's floats, so MD and STD
    tie on equal metrics, not just within a rounding error."""

    def test_each_branch_is_the_super_trellis_float(self, gens, taps):
        code, h = ConvCode(gens), IsiResponse(taps)
        mt = build_matched_trellis(code, h, 4)
        std = build_std_trellis(code, h, 4)
        # window w holds c[k-m] at bit m: walk the super trellis from state
        # 0 along the window's older bits, oldest first, then take c[k]
        w = np.arange(2 * mt.trellis.num_states)
        s = np.zeros_like(w)
        for m in range(code.nu + h.L, 0, -1):
            s = std.next_state[s, (w >> m) & 1]
        assert np.array_equal(mt.trellis.outputs.reshape(-1),
                              std.outputs[s, w & 1])

    def test_md_and_std_metrics_are_equal(self, gens, taps):
        code, h = ConvCode(gens), IsiResponse(taps)
        mt = build_matched_trellis(code, h, 4)
        std = build_std_trellis(code, h, 4)
        bits = (make_rng(23).random((40, 200)) < 0.5).astype(np.int64)
        obs = np.stack([noisy_obs(tx_block(b, code, h), 0.8, 24 + i,
                                  code=code, h=h)
                        for i, b in enumerate(bits)])
        r_md = viterbi_mlse(mt.trellis, obs, end_state=0)
        r_std = viterbi_mlse(std, obs, end_state=0)
        np.testing.assert_array_equal(r_md.bits, r_std.bits)
        assert np.array_equal(r_md.metric, r_std.metric)


class TestRsse:
    def test_full_partition_equals_mlse(self):
        for seed in range(20):
            bits = (make_rng(900 + seed).random(150) < 0.5).astype(np.int64)
            obs = noisy_obs(tx_block(bits), 0.8, 950 + seed)
            full = rsse_decode(MT, PartitionSpec(CODE.nu + H.L), obs)
            ref = viterbi_mlse(MT.trellis, obs, end_state=0)
            np.testing.assert_array_equal(full.bits, ref.bits)

    def test_r0_is_decision_feedback(self):
        bits = (make_rng(12).random(400) < 0.5).astype(np.int64)
        tx = tx_block(bits)
        obs = noisy_obs(tx, 0.0, 0)
        res = rsse_decode(MT, PartitionSpec(0), obs)
        np.testing.assert_array_equal(res.bits, tx)

    def test_memoryless_trellis(self):
        """RSSE(0) on a merged trellis of no state bits (a code of nu = 0
        over a 1-tap channel) reads its 0-digit registers, which are 0."""
        code, h = ConvCode([0o1, 0o1]), IsiResponse([1.0])
        mt = build_matched_trellis(code, h, 4)
        assert mt.trellis.num_states == 1
        tx = (make_rng(13).random(200) < 0.5).astype(np.int64)
        obs = noisy_obs(tx, 0.0, 0, code=code, h=h)
        res = rsse_decode(mt, PartitionSpec(0), obs)
        np.testing.assert_array_equal(res.bits, tx)
        assert res.metric == 0.0

    def test_full_state_metric_dominates(self):
        # the full-state decoder attains the global minimum metric
        for seed in range(15):
            bits = (make_rng(40 + seed).random(120) < 0.5).astype(np.int64)
            obs = noisy_obs(tx_block(bits), 1.0, 60 + seed)
            m_full = viterbi_mlse(MT.trellis, obs, end_state=0).metric
            for r in range(CODE.nu + H.L):
                m_r = rsse_decode(MT, PartitionSpec(r), obs).metric
                assert m_full <= m_r + 1e-9

    def test_refinement_improves_error_counts(self):
        # Per-block metric nesting does not hold for survivor-feedback
        # truncation (refinement can flip individual survivor decisions);
        # the operative ordering is statistical: aggregate bit errors are
        # non-increasing in the kept-bit count on common noise.
        errs = {r: 0 for r in range(CODE.nu + H.L + 1)}
        for seed in range(60):
            bits = (make_rng(70 + seed).random(120) < 0.5).astype(np.int64)
            tx = tx_block(bits)
            obs = noisy_obs(tx, 1.0, 90 + seed)
            for r in errs:
                dec = rsse_decode(MT, PartitionSpec(r), obs).bits
                errs[r] += int(np.count_nonzero(dec[:120] != bits))
        counts = [errs[r] for r in sorted(errs)]
        assert counts[0] > counts[-1]  # truncation costs errors overall
        for lo, hi in zip(counts[1:], counts[:-1]):
            assert lo <= hi + max(3, int(0.15 * hi))  # slack for MC noise

    def test_warns_without_minimum_phase_flag(self):
        # warns for a maximum-phase response, not for a minimum-phase one
        obs = np.zeros(8)
        mt = build_matched_trellis(CODE, IsiResponse([0.3, 1.0]), 4)
        with pytest.warns(UserWarning, match="minimum phase"):
            rsse_decode(mt, PartitionSpec(1), obs)
        mt = build_matched_trellis(CODE, IsiResponse([1.0, 0.5]), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rsse_decode(mt, PartitionSpec(1), obs)

    def test_rejects_oversized_partition(self):
        with pytest.raises(ValueError):
            rsse_decode(MT, PartitionSpec(CODE.nu + H.L + 1), np.zeros(4))


class TestDfse:
    def make_symbols(self, n, seed):
        idx = (make_rng(seed).random(n) * 4).astype(np.int64)
        return idx, (2 * idx - 3).astype(np.float64)

    def test_noiseless_exact(self):
        idx, sym = self.make_symbols(300, 3)
        obs = compensate_edges(np.convolve(sym, H.taps)[: sym.size], H.taps, 4)
        for J in (0, 1, 2):
            np.testing.assert_array_equal(dfse_equalize(H, 4, J, obs), idx)

    def test_full_window_equals_mlse(self):
        idx, sym = self.make_symbols(120, 5)
        obs = np.convolve(sym, H.taps)[: sym.size]
        obs += 0.6 * normal_from_uniform(make_rng(6), obs.size)
        obs = compensate_edges(obs, H.taps, 4)
        got = dfse_equalize(H, 4, H.L, obs)
        tr = build_isi_trellis(H, 4)
        res = viterbi_mlse(tr, obs, end_state=None)
        np.testing.assert_array_equal(got, res.bits)

    def test_state_budgets(self):
        assert build_isi_trellis(H, 4, memory=1).num_states == 4
        assert build_isi_trellis(H, 4, memory=2).num_states == 16

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            dfse_equalize(H, 4, H.L + 1, np.zeros(4))

    def test_rejects_alphabet_not_power_of_two(self):
        """The survivor registers wrap by a mask, so M = 3 is refused."""
        with pytest.raises(ValueError, match="M = 3"):
            dfse_equalize(H, 3, 1, np.zeros(8))

    def test_memoryless_channel(self):
        """DFSE(0) on a 1-tap channel reads its 0-digit registers."""
        idx, sym = self.make_symbols(200, 14)
        h = IsiResponse([1.0])
        np.testing.assert_array_equal(dfse_equalize(h, 4, 0, sym), idx)

    def test_prebuilt_trellis(self):
        idx, sym = self.make_symbols(200, 8)
        obs = np.convolve(sym, H.taps)[: sym.size]
        obs += 0.6 * normal_from_uniform(make_rng(9), obs.size)
        full = build_isi_trellis(H, 4)
        np.testing.assert_array_equal(
            dfse_equalize(H, 4, 1, obs, trellis=full),
            dfse_equalize(H, 4, 1, obs))
        # a truncated trellis, and the full trellis of another alphabet
        for M, tr in ((4, build_isi_trellis(H, 4, memory=1)),
                      (2, full)):
            with pytest.raises(ValueError, match="full ISI trellis"):
                dfse_equalize(H, M, 1, obs, trellis=tr)

    def test_window_built_once(self, monkeypatch):
        """Calls of one window depth search one cached window trellis, so
        its predecessor table is built once, not per call."""
        import mdsim.equalizers as eq
        from mdsim.trellis import window_trellis

        assert window_trellis(4, 2) is window_trellis(4, 2)
        tables = []
        slots = eq._slots

        def spy(trellis, end_state=0):
            tables.append(trellis.predecessors)
            return slots(trellis, end_state)

        monkeypatch.setattr(eq, "_slots", spy)
        obs = self.make_symbols(20, 15)[1]
        for _ in range(2):
            dfse_equalize(H, 4, 2, obs)
        assert len(tables) == 2 and tables[0] is tables[1]

    @staticmethod
    def factored_dfse(h, M, J, obs, end_state):
        """DFSE by the factored metric: the output of the M^J-state
        window trellis (taps 0..J) plus the feedback of taps J+1..L, read
        from a table of M^(L-J) entries at the register index's digits
        past the window, ``feedback[idx // M^(J+1)]``."""
        import mdsim.equalizers as eq

        L = h.L
        levels = symbol_value(np.arange(M), M)
        window = build_isi_trellis(h, M, memory=J)
        older = np.arange(M ** (L - J)) * M**J
        feedback = np.zeros(older.size)
        for l in range(J + 1, L + 1):
            feedback += h.taps[l] * levels[older // M ** (l - 1) % M]
        cols = eq._columns(obs)
        slots = eq._slots(window, end_state=end_state)
        hyp = eq._tiled(window.outputs[slots.ps, slots.pu], cols.shape[1])

        def metrics(t, idx):
            d = feedback[idx // M ** (J + 1)] + hyp
            return (cols[t] - d) ** 2

        return eq._viterbi(slots, *cols.shape[:2], metrics, memory=L).bits

    @pytest.mark.parametrize("dyadic", [False, True])
    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_matches_factored_metric(self, M, L, dyadic):
        """Reading the full ISI trellis at the register index decides as
        the window output plus the feedback of the older taps, on every
        window depth and both ends.  Every third block is rounded to
        integers; on taps in eighths its metrics tie."""
        rng = make_rng(1000 * M + 10 * L + dyadic)
        taps = rng.random(L) - 0.5
        if dyadic:
            taps = np.round(8 * taps) / 8
        h = IsiResponse(np.concatenate([[1.0], taps]))
        T, B = 24, 6
        idx = (rng.random((B, T)) * M).astype(np.int64)
        sym = symbol_value(idx, M)
        obs = np.stack([np.convolve(s, h.taps)[:T] for s in sym])
        obs += 0.4 * M * normal_from_uniform(rng, obs.size).reshape(B, T)
        obs[::3] = np.round(obs[::3])
        for J in range(L + 1):
            for end in (0, None):
                np.testing.assert_array_equal(
                    dfse_equalize(h, M, J, obs, end_state=end),
                    self.factored_dfse(h, M, J, obs, end))


class TestBcjr:
    def test_noiseless_llr_signs(self):
        idx, sym = self.make_block(50, 21)
        obs = compensate_edges(np.convolve(sym, H.taps)[: sym.size], H.taps, 4)
        tr = build_isi_trellis(H, 4)
        res = bcjr_equalize(tr, obs, 1e-6)
        hard = (res.bit_llrs < 0).astype(np.int64).reshape(-1, 2)
        want = np.stack([(idx >> 1) & 1, idx & 1], axis=1)
        np.testing.assert_array_equal(hard, want)

    def make_block(self, n, seed):
        idx = (make_rng(seed).random(n) * 4).astype(np.int64)
        return idx, (2 * idx - 3).astype(np.float64)

    def test_posteriors_normalized(self):
        idx, sym = self.make_block(40, 22)
        obs = np.convolve(sym, H.taps)[: sym.size]
        obs += 0.7 * normal_from_uniform(make_rng(23), obs.size)
        obs = compensate_edges(obs, H.taps, 4)
        res = bcjr_equalize(build_isi_trellis(H, 4), obs, 0.49)
        np.testing.assert_allclose(res.symbol_posteriors.sum(axis=1), 1.0,
                                   atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_posterior_oracle(self, seed):
        T, sigma2 = 6, 0.5
        idx, sym = self.make_block(T, 30 + seed)
        obs = np.convolve(sym, H.taps)[:T]
        obs += np.sqrt(sigma2) * normal_from_uniform(make_rng(60 + seed), T)
        obs = compensate_edges(obs, H.taps, 4)
        tr = build_isi_trellis(H, 4)
        res = bcjr_equalize(tr, obs, sigma2)

        logw = np.zeros(4**T)
        seqs = np.array(list(product(range(4), repeat=T)), dtype=np.int64)
        s = np.zeros(len(seqs), dtype=np.int64)
        for t in range(T):
            u = seqs[:, t]
            logw += -((obs[t] - tr.outputs[s, u]) ** 2) / (2 * sigma2)
            s = tr.next_state[s, u]
        w = np.exp(logw - logw.max())
        post = np.zeros((T, 4))
        for t in range(T):
            np.add.at(post[t], seqs[:, t], w)
        post /= post.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(res.symbol_posteriors, post, atol=1e-6)

    def test_rejects_uneven_fan_in(self):
        from mdsim.trellis import TrellisSpec
        # state 0 has three incoming branches, state 1 one
        tr = TrellisSpec(next_state=np.array([[0, 0], [0, 1]]),
                         outputs=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="predecessors"):
            bcjr_equalize(tr, np.zeros(3), 1.0)

    def test_rejects_end_state_out_of_reach(self):
        """From state 0 = (0, 0) of a 16-state window one step reaches only
        states 0..3, so no path joins state 15; without the check every
        posterior and LLR was NaN.  Two steps reach it."""
        tr = build_isi_trellis(IsiResponse([1, 0.5, 0.25, 0.125]), 4,
                               memory=2)
        for obs in (np.zeros(1), np.zeros((3, 1))):
            with pytest.raises(ValueError, match="state 0 to end_state 15"):
                bcjr_equalize(tr, obs, 1.0, end_state=15)
        res = bcjr_equalize(tr, np.zeros(2), 1.0, end_state=15)
        assert np.isfinite(res.bit_llrs).all()

    @pytest.mark.parametrize("var", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_noise_variance(self, var):
        """0 would divide by zero, -1 flip the sign of every LLR and nan
        make every LLR NaN."""
        with pytest.raises(ValueError, match="noise_variance"):
            bcjr_equalize(build_isi_trellis(H, 4, memory=1), np.zeros(5), var)

    @pytest.mark.parametrize("n", [*range(1, 34), 64, 100, 128, 129, 200, 513])
    def test_contiguous_sum_rounds_as_numpy(self, n):
        """The sum over an outer axis, in the order numpy sums a contiguous
        one: pairwise with 8 running sums from 8 terms, halved above 128."""
        rows = np.exp(make_rng(n).random((500, n)) * 40.0 - 20.0)
        want = rows.sum(1)
        outer = np.ascontiguousarray(rows.T)
        np.testing.assert_array_equal(_contiguous_sum(outer, 0), want)
        middle = np.ascontiguousarray(outer.reshape(n, 20, 25).transpose(1, 0, 2))
        np.testing.assert_array_equal(_contiguous_sum(middle, 1),
                                      want.reshape(20, 25))
        if n >= 8:
            assert not np.array_equal(outer.sum(0), want)


@pytest.mark.parametrize("state", [-1, 16])
@pytest.mark.parametrize("name", ["end_state"])
def test_rejects_states_outside_the_trellis(name, state):
    """-1 would mean the last state, and 16 raise a bare IndexError."""
    tr = build_isi_trellis(H, 4)  # 16 states
    obs = np.zeros(6)
    decoders = [lambda kw: viterbi_mlse(tr, obs, **kw),
                lambda kw: bcjr_equalize(tr, obs, 1.0, **kw),
                lambda kw: dfse_equalize(H, 4, 2, obs, **kw),
                lambda kw: soft_viterbi_decode(CODE, obs, **kw)]
    for decode in decoders:
        with pytest.raises(ValueError, match=name):
            decode({name: state})


@pytest.mark.parametrize("build, message", [
    (lambda: build_isi_trellis(IsiResponse(np.ones(6)), 4, state_cap=512),
     "ISI trellis would need 1024 states (cap 512); "
     "reduce memory or raise the cap"),
    (lambda: build_std_trellis(CODE, IsiResponse(np.ones(6)), 4, state_cap=512),
     "super trellis would need 4096 states (cap 512); "
     "use the merged trellis instead"),
    (lambda: build_matched_trellis(CODE, IsiResponse(np.ones(9)), 4,
                                   state_cap=512),
     "merged trellis would need 1024 states (cap 512); "
     "use a serial receiver or raise the cap"),
], ids=["isi", "std", "merged"])
def test_size_check_messages(build, message):
    # STD's 1024 channel windows are over the cap too: its own check
    # comes before the ISI trellis is built
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


# every decoder that takes observations (or LLRs), on one argument
DECODERS = {
    "viterbi_mlse": lambda obs: viterbi_mlse(STD, obs),
    "rsse": lambda obs: rsse_decode(MT, PartitionSpec(2), obs),
    "dfse": lambda obs: dfse_equalize(H, 4, 1, obs),
    "bcjr": lambda obs: bcjr_equalize(build_isi_trellis(H, 4), obs, 1.0),
    "soft_viterbi": lambda obs: soft_viterbi_decode(CODE, obs),
}


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5)])
@pytest.mark.parametrize("receiver", DECODERS)
def test_rejects_empty_input(receiver, shape):
    """A block with no step or a batch with no block is refused by name,
    not by a reshape error or a division by zero."""
    with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
        DECODERS[receiver](np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("receiver", DECODERS)
def test_rejects_non_finite_input(receiver, value):
    """A NaN or infinite observation is refused, not decoded to all-zero
    bits or NaN LLRs; one bad value in a batch is enough."""
    obs = np.zeros((2, 12))
    obs[1, 5] = value
    with pytest.raises(ValueError, match="finite"):
        DECODERS[receiver](obs)


@pytest.mark.parametrize("taps", ["1,0.5", "1,0.5,0.25", "1,0.6,0.36,0.216,0.1296"])
def test_compensate_edges_per_block(taps):
    """Each block of a (B, T) batch gets its own first L samples
    compensated, as a (T,) call does; a block shorter than L gets all of
    its T.  Only the first block was compensated, and over all its
    samples, or the shapes did not broadcast."""
    taps = [float(v) for v in taps.split(",")]
    for steps in (3, 4, 6):
        obs = np.round(4 * make_rng(steps).random((3, steps)))
        got = compensate_edges(obs, taps, 4)
        assert got.shape == obs.shape
        for row, want in zip(got, obs):
            np.testing.assert_array_equal(row, compensate_edges(want, taps, 4))
    np.testing.assert_array_equal(compensate_edges(np.zeros((3, 4)), [1, 0.5], 4),
                                  np.tile([-1.5, 0, 0, 0], (3, 1)))


def test_decisions_are_uint8():
    """Every Viterbi receiver returns one uint8 per step and block."""
    obs = np.round(4 * make_rng(3).random((2, 70)) - 2)
    llrs = np.round(4 * make_rng(4).random((2, 140)) - 2)
    for got in (viterbi_mlse(STD, obs).bits, viterbi_mlse(MT.trellis, obs[0]).bits,
                rsse_decode(MT, PartitionSpec(2), obs).bits,
                dfse_equalize(H, 4, 1, obs), soft_viterbi_decode(CODE, llrs)):
        assert got.dtype == np.uint8 and got.shape[-1] == 70


class TestSoftViterbi:
    def test_clean_llrs(self):
        bits = (make_rng(70).random(100) < 0.5).astype(np.int64)
        tx = np.concatenate([bits, np.zeros(CODE.nu, dtype=np.int64)])
        llrs = 10.0 * (1 - 2 * conv_encode(CODE, tx))
        np.testing.assert_array_equal(soft_viterbi_decode(CODE, llrs), tx)

    def test_equal_magnitudes_match_hard_viterbi(self):
        # equal |llr| reduces the metric to Hamming distance
        rng = make_rng(71)
        bits = (rng.random(60) < 0.5).astype(np.int64)
        tx = np.concatenate([bits, np.zeros(CODE.nu, dtype=np.int64)])
        coded = conv_encode(CODE, tx)
        flipped = coded.copy()
        pos = (rng.random(6) * flipped.size).astype(int)
        flipped[pos] ^= 1
        dec = soft_viterbi_decode(CODE, 1.0 - 2.0 * flipped)
        # brute-force Hamming-minimum over all short-block candidates
        assert dec.size == tx.size
        np.testing.assert_array_equal(dec, tx)

    @pytest.mark.parametrize("seed", range(10))
    def test_brute_force_ml(self, seed):
        rng = make_rng(80 + seed)
        bits = (rng.random(8) < 0.5).astype(np.int64)
        tx = np.concatenate([bits, np.zeros(CODE.nu, dtype=np.int64)])
        llrs = (1.0 - 2.0 * conv_encode(CODE, tx))
        llrs += 1.1 * normal_from_uniform(make_rng(90 + seed), llrs.size)
        got = soft_viterbi_decode(CODE, llrs)
        best, best_score = None, np.inf
        for word in range(1 << 8):
            cand = np.concatenate([
                np.array([(word >> (7 - i)) & 1 for i in range(8)]),
                np.zeros(CODE.nu, dtype=np.int64)])
            score = float(np.sum((2.0 * conv_encode(CODE, cand) - 1.0)
                                 * llrs.reshape(-1)))
            if score < best_score:
                best, best_score = cand, score
        np.testing.assert_array_equal(got, best)

    @pytest.mark.parametrize("gens", [(0o5, 0o7), (0o133, 0o171),
                                      (0o5, 0o7, 0o3)])
    def test_chunked_metrics_match_reference(self, gens):
        """The branch metrics go in chunks of 32 steps for 5,7, 2 for the
        64-state 133,171 and 64 for 5,7,3; over 150 steps a batch decodes
        as a Viterbi with each step's metrics formed on their own."""
        code = ConvCode(list(gens))
        tr = build_conv_trellis(code)
        ps, pu, valid = tr.predecessors
        signs = 2.0 * tr.outputs[ps, pu] - 1.0  # (S, P, n)
        llrs = np.round(4 * normal_from_uniform(make_rng(len(gens)), 3 * 150
                                                * code.n)).reshape(3, -1)
        got = soft_viterbi_decode(code, llrs, end_state=None)
        for row, bits in zip(llrs, got):
            x = row.reshape(-1, code.n)
            pm = np.full(tr.num_states, np.inf)
            pm[0] = 0.0
            back = np.empty((len(x), tr.num_states), dtype=np.int64)
            for t, y in enumerate(x):
                metric = y[0] * signs[..., 0]
                for i in range(1, code.n):
                    metric = metric + y[i] * signs[..., i]
                cand = np.where(valid, pm[ps] + metric, np.inf)
                back[t] = cand.argmin(1)
                pm = cand[np.arange(tr.num_states), back[t]]
            s, want = int(np.argmin(pm)), np.empty(len(x), dtype=np.int64)
            for t in range(len(x) - 1, -1, -1):
                j = back[t, s]
                want[t], s = pu[s, j], ps[s, j]
            np.testing.assert_array_equal(bits, want)

    def test_rejects_partial_llrs(self):
        with pytest.raises(ValueError):
            soft_viterbi_decode(CODE, np.zeros(5))

    def test_prebuilt_trellis(self):
        llrs = normal_from_uniform(make_rng(4), 2 * 60)
        np.testing.assert_array_equal(
            soft_viterbi_decode(CODE, llrs, trellis=build_conv_trellis(CODE)),
            soft_viterbi_decode(CODE, llrs))
        other = build_conv_trellis(ConvCode([0o133, 0o171]))
        with pytest.raises(ValueError, match="trellis"):
            soft_viterbi_decode(CODE, llrs, trellis=other)


class TestBatchedEqualsPerBlock:
    """A (B, T) batch decodes each block exactly as a (T,) call does: bits,
    metrics, posteriors and LLRs bit for bit.  The blocks are integer-
    rounded observations over dyadic taps, as in the decoder golden, so
    many candidates tie exactly; the batch sizes do not divide the block
    count."""

    H3 = IsiResponse([1.0, 0.5, 0.25, 0.25])
    MT3 = build_matched_trellis(CODE, H3, 4)
    BLOCKS = 7

    @classmethod
    def obs(cls, blocks=BLOCKS):
        rows = []
        for b in range(blocks):
            bits = (make_rng(40 + b).random(60) < 0.5).astype(np.int64)
            tx = tx_block(bits, h=cls.H3)
            rows.append(np.round(noisy_obs(tx, 1.2, 50 + b, h=cls.H3)))
        return np.stack(rows)

    @classmethod
    def llrs(cls, code=CODE, scale=1.0):
        """Integer-rounded LLRs times ``scale``.  On a 0.1 grid the float
        sum of three LLRs depends on the order of its terms."""
        rows = []
        for b in range(cls.BLOCKS):
            bits = (make_rng(60 + b).random(60) < 0.5).astype(np.int64)
            coded = conv_encode(code, tx_block(bits, code, IsiResponse([1.0])))
            rows.append(scale * np.round(2.0 * (1 - 2 * coded) + 1.5
                                         * normal_from_uniform(
                                             make_rng(70 + b), coded.size)))
        return np.stack(rows)

    def check(self, decode, batch, inputs):
        """``decode`` on chunks of ``batch`` blocks against block by block."""
        single = [decode(row) for row in inputs]
        for i in range(0, len(inputs), batch):
            got = decode(inputs[i:i + batch])
            for k, want in enumerate(single[i:i + batch]):
                for g, w in zip(got, want):
                    g, w = np.asarray(g)[k], np.asarray(w)
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)

    def test_ties_are_present(self):
        obs = self.obs()
        assert np.array_equal(obs, np.round(obs))
        assert len(np.unique(obs)) < obs.size // 20

    @pytest.mark.parametrize("batch", [2, 3, 4])
    @pytest.mark.parametrize("end", [0, None])
    def test_viterbi_mlse(self, batch, end):
        std = build_std_trellis(CODE, self.H3, 4)
        for tr in (self.MT3.trellis, std):
            self.check(lambda x: viterbi_mlse(tr, x, end_state=end),
                       batch, self.obs())

    @pytest.mark.parametrize("batch", [2, 3])
    def test_rsse(self, batch):
        for r in range(CODE.nu + self.H3.L + 1):
            self.check(lambda x: rsse_decode(self.MT3, PartitionSpec(r), x),
                       batch, self.obs())

    @pytest.mark.parametrize("batch", [2, 3])
    @pytest.mark.parametrize("end", [0, None])
    def test_dfse(self, batch, end):
        for J in range(self.H3.L + 1):
            self.check(lambda x: (dfse_equalize(self.H3, 4, J, x,
                                                end_state=end),),
                       batch, self.obs())

    @pytest.mark.parametrize("batch", [2, 3, 4])
    @pytest.mark.parametrize("end", [0, None])
    @pytest.mark.parametrize(("code", "scale"), [
        (CODE, 1.0), (ConvCode([0o5, 0o7, 0o3]), 0.1)], ids=["5,7", "5,7,3"])
    def test_soft_viterbi(self, batch, end, code, scale):
        self.check(lambda x: (soft_viterbi_decode(code, x, end_state=end),),
                   batch, self.llrs(code, scale))

    @pytest.mark.parametrize(("M", "memory", "batch"), [
        (M, memory, batch) for M, memory in ((4, 2), (8, 1))
        for batch in (2, 3, 4, 8)],
        ids=["2", "3", "4", "8", "M8-2", "M8-3", "M8-4", "M8-8"])
    @pytest.mark.parametrize("end", [0, None])
    def test_bcjr(self, M, memory, batch, end):
        """At batch 8 (S * M = 64 both ways) the recursions and posteriors
        go in chunks of BCJR_CHUNK / 512 = 32 steps, the last one partial,
        each forming its branch metrics anew.  M = 8 sums each step's
        slots in numpy's pairwise order."""
        tr = build_isi_trellis(self.H3, M, memory=memory)
        obs = self.obs(max(self.BLOCKS, batch + 1))
        if batch == 8:
            chunk = BCJR_CHUNK // (batch * tr.num_states * M)
            assert obs.shape[1] > chunk and obs.shape[1] % chunk
        for var in (0.5, 2.0):
            self.check(lambda x: (lambda r: (r.symbol_posteriors, r.bit_llrs))(
                bcjr_equalize(tr, x, var, end_state=end)), batch, obs)

    @pytest.mark.parametrize("end", [0, None])
    def test_bcjr_per_block_noise_variance(self, end):
        """A batch of blocks at three noise variances, as a sweep's call
        that carries the blocks of three Eb/N0 points, gives each block
        the posteriors and LLRs of its own call at its own variance."""
        tr = build_isi_trellis(self.H3, 4, memory=2)
        obs = self.obs()
        var = np.array([0.5, 0.5, 2.0, 2.0, 2.0, 0.3, 0.3])
        got = bcjr_equalize(tr, obs, var, end_state=end)
        for k, row in enumerate(obs):
            want = bcjr_equalize(tr, row, var[k], end_state=end)
            for g, w in ((got.symbol_posteriors[k], want.symbol_posteriors),
                         (got.bit_llrs[k], want.bit_llrs)):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bcjr_rejects_a_bad_block_variance(self, bad):
        tr = build_isi_trellis(self.H3, 4, memory=1)
        var = np.ones(self.BLOCKS)
        var[3] = bad
        with pytest.raises(ValueError, match="noise_variance"):
            bcjr_equalize(tr, self.obs(), var)
        with pytest.raises(ValueError, match="noise_variance"):
            bcjr_equalize(tr, self.obs(), np.ones(self.BLOCKS - 1))

    def test_one_block_shapes(self):
        obs = self.obs()
        res = viterbi_mlse(self.MT3.trellis, obs[0])
        assert res.bits.shape == obs[0].shape and isinstance(res.metric, float)
        res = viterbi_mlse(self.MT3.trellis, obs[:3])
        assert res.bits.shape == obs[:3].shape and res.metric.shape == (3,)
        with pytest.raises(ValueError, match="batch"):
            viterbi_mlse(self.MT3.trellis, obs[None])
