import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsim.channel import make_rng
from mdsim.conv_code import ConvCode
from mdsim.matched_encoder import (
    IsiResponse,
    bits_per_symbol,
    build_matched_trellis,
    matched_encode,
    offset_constant,
    serial_reference,
    state_counts,
    symbol_bits,
    symbol_index,
    symbol_value,
)

CODE_57 = ConvCode([0o5, 0o7])
CODE_133_171 = ConvCode([0o133, 0o171])


def natural_map(code_bits, M):
    return symbol_value(symbol_index(code_bits, M), M).tolist()


class TestNaturalMap:
    def test_examples(self):
        assert natural_map([1, 0], 4) == [1]
        assert natural_map([0, 0], 4) == [-3]
        assert natural_map([1], 2) == [1]
        assert natural_map([0], 2) == [-1]

    def test_bijection(self):
        for M in (2, 4, 8):
            n = M.bit_length() - 1
            vals = natural_map([(x >> (n - 1 - i)) & 1
                                for x in range(M) for i in range(n)], M)
            assert sorted(vals) == list(range(-(M - 1), M, 2))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            symbol_index([1, 0], 6)
        with pytest.raises(ValueError):
            symbol_bits([1], 6)
        with pytest.raises(ValueError, match="log2"):
            bits_per_symbol(CODE_57, 8)

    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_round_trip(self, M):
        n = M.bit_length() - 1
        bits = (make_rng(M).random(30 * n) < 0.5).astype(np.int64)
        assert np.array_equal(symbol_bits(symbol_index(bits, M), M), bits)
        assert np.array_equal(symbol_index(symbol_bits(np.arange(M), M), M),
                              np.arange(M))


def test_build_matched_trellis_respects_state_cap():
    h = IsiResponse([1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="16 states"):
        build_matched_trellis(CODE_57, h, 4, state_cap=8)
    assert build_matched_trellis(CODE_57, h, 4, state_cap=16).trellis.num_states == 16


def test_offset_constant():
    assert offset_constant(IsiResponse([1, 0.5, 0.25]), 4) == -5.25
    assert offset_constant(IsiResponse([1.0]), 2) == -1.0
    assert offset_constant(IsiResponse([1, 1, 1]), 4) == -9.0


def test_state_counts_table():
    # [5,7]: L = 0..4
    expect = [(4, 4, 1), (16, 8, 2), (64, 16, 4), (256, 32, 8), (1024, 64, 16)]
    for L, row in enumerate(expect):
        assert state_counts(2, 2, L) == row
    # [133,171]: formula-derived values
    assert state_counts(6, 2, 3) == (4096, 512, 8)
    assert state_counts(6, 2, 4) == (16384, 1024, 16)
    # no ISI, no gain
    for nu in range(5):
        assert state_counts(nu, 2, 0)[2] == 1


class TestSerialReference:
    def test_all_zero_steady_state(self):
        h = IsiResponse([1, 0.5, 0.25])
        out = serial_reference(CODE_57, h, 4, np.zeros(10, dtype=int))
        np.testing.assert_allclose(out[:2], [-3.0, -4.5])
        np.testing.assert_allclose(out[2:], -5.25)

    def test_single_one_transient(self):
        h = IsiResponse([1, 0.5, 0.25])
        bits = np.zeros(20, dtype=int)
        bits[0] = 1
        out = serial_reference(CODE_57, h, 4, bits)
        settle = CODE_57.nu + h.L
        np.testing.assert_allclose(out[settle + 1:], -5.25)
        assert not np.allclose(out[:settle], -5.25)

    def test_rejects_mismatched_alphabet(self):
        with pytest.raises(ValueError):
            serial_reference(CODE_57, IsiResponse([1.0]), 8, [1, 0])


class TestMatchedTrellis:
    def test_state_counts(self):
        h2 = IsiResponse([1, 0.5, 0.25])
        assert build_matched_trellis(CODE_57, h2, 4).trellis.num_states == 16
        h0 = IsiResponse([1.0])
        assert build_matched_trellis(CODE_57, h0, 4).trellis.num_states == 4

    def test_l0_hypotheses_are_scaled_symbols(self):
        mt = build_matched_trellis(CODE_57, IsiResponse([0.7]), 4)
        symbols = {-3 * 0.7, -1 * 0.7, 1 * 0.7, 3 * 0.7}
        assert set(np.round(mt.trellis.outputs.reshape(-1), 12)) <= {
            round(s, 12) for s in symbols}

    def test_every_branch_matches_oracle(self):
        """Exhaustive: each (state, input) hypothesis equals the serial chain
        on a bit history realizing that state."""
        h = IsiResponse([1, -0.4, 0.3])
        mt = build_matched_trellis(CODE_57, h, 4)
        mem = CODE_57.nu + h.L
        for w in range(1 << (mem + 1)):
            # history (oldest first) realizing window w, then the new input
            hist = [(w >> j) & 1 for j in range(mem, -1, -1)]
            ref = serial_reference(CODE_57, h, 4, hist)
            state, c = w >> 1, w & 1
            assert abs(mt.trellis.outputs[state, c] - ref[-1]) < 1e-12

    def test_rejects_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            build_matched_trellis(CODE_57, IsiResponse([1.0]), 8)


class TestEncodeOracle:
    def test_random_long_block(self):
        h = IsiResponse([1, 0.5, 0.25])
        mt = build_matched_trellis(CODE_57, h, 4)
        bits = (make_rng(2).random(10_000) < 0.5).astype(np.int64)
        ref = serial_reference(CODE_57, h, 4, bits)
        enc = matched_encode(mt, bits)
        np.testing.assert_allclose(enc, ref, atol=1e-12)

    def test_big_code_random_taps(self):
        rng = make_rng(3)
        taps = np.concatenate([[1.0], rng.random(3) - 0.5])
        h = IsiResponse(taps)
        mt = build_matched_trellis(CODE_133_171, h, 4)
        assert mt.trellis.num_states == 2 ** (6 + 3)
        bits = (rng.random(2000) < 0.5).astype(np.int64)
        np.testing.assert_allclose(matched_encode(mt, bits),
                                   serial_reference(CODE_133_171, h, 4, bits),
                                   atol=1e-12)

    def test_all_zero_settles_at_offset(self):
        h = IsiResponse([1, 0.5, 0.25])
        mt = build_matched_trellis(CODE_57, h, 4)
        out = matched_encode(mt, np.zeros(10, dtype=int))
        np.testing.assert_allclose(out[h.L:], offset_constant(h, 4))

    def test_generalizes_beyond_two_bit_planes(self):
        # M = 8 (three generators, weights 4/2/1 on the bit planes)
        code = ConvCode([0o5, 0o7, 0o3])
        h = IsiResponse([1.0, -0.3, 0.15])
        mt = build_matched_trellis(code, h, 8)
        bits = (make_rng(5).random(3000) < 0.5).astype(np.int64)
        np.testing.assert_allclose(matched_encode(mt, bits),
                                   serial_reference(code, h, 8, bits),
                                   atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_property_random_code_and_channel(self, seed, n_taps):
        rng = make_rng(seed)
        taps = np.concatenate([[1.0], 2.0 * rng.random(n_taps - 1) - 1.0])
        h = IsiResponse(taps)
        code = CODE_57 if seed % 2 else CODE_133_171
        mt = build_matched_trellis(code, h, 4)
        assert mt.trellis.num_states == 2 ** (code.nu + h.L)
        bits = (rng.random(500) < 0.5).astype(np.int64)
        np.testing.assert_allclose(matched_encode(mt, bits),
                                   serial_reference(code, h, 4, bits),
                                   atol=1e-12)


def test_trellis_dump_matches_golden():
    from pathlib import Path

    mt = build_matched_trellis(CODE_57, IsiResponse([1.0, 0.5]), 4)
    golden = Path(__file__).parent / "golden" / "trellis_dump_57_h2.txt"
    assert mt.trellis.dump() == golden.read_text()


def test_isi_response_validation():
    with pytest.raises(ValueError):
        IsiResponse([])
    with pytest.raises(ValueError):
        IsiResponse([0.0, 1.0])
    with pytest.raises(ValueError):
        IsiResponse([1.0, np.nan])
    assert IsiResponse([1.0, 0.3]).minimum_phase is True
    assert IsiResponse([0.3, 1.0]).minimum_phase is False
    assert IsiResponse([2.0]).minimum_phase is True


def test_isi_tail_trimming():
    h = IsiResponse([1.0, 0.5, 0.2, 0.0004, 0.00001])
    t = h.trimmed(1e-3)
    np.testing.assert_array_equal(t.taps, [1.0, 0.5, 0.2])
    assert t.minimum_phase is True
    assert h.trimmed(0.0).taps.size == 5  # disabled
    # threshold is relative to the largest tap, not the first
    h2 = IsiResponse([0.001, 1.0, 0.0005])
    assert h2.trimmed(1e-3).taps.size == 2
