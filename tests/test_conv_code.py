import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsim.conv_code import (
    ConvCode,
    build_conv_trellis,
    conv_encode,
    parse_octal_generators,
)

CODE_57 = ConvCode([0o5, 0o7])
CODE_133_171 = ConvCode([0o133, 0o171])


def test_code_metadata():
    assert CODE_57.nu == 2
    assert CODE_57.n == 2
    assert CODE_57.num_states == 4
    assert CODE_133_171.nu == 6
    assert CODE_133_171.num_states == 64


def test_tap_convention():
    # octal 5 -> binary 101: current-input tap first
    np.testing.assert_array_equal(CODE_57.taps(0), [1, 0, 1])
    np.testing.assert_array_equal(CODE_57.taps(1), [1, 1, 1])
    np.testing.assert_array_equal(CODE_133_171.taps(0), [1, 0, 1, 1, 0, 1, 1])
    np.testing.assert_array_equal(CODE_133_171.taps(1), [1, 1, 1, 1, 0, 0, 1])


def test_encode_hand_trace():
    out = conv_encode(CODE_57, [1, 0, 1, 1])
    np.testing.assert_array_equal(out, [1, 1, 0, 1, 0, 0, 1, 0])


def test_encode_all_zero():
    out = conv_encode(CODE_57, np.zeros(10, dtype=int))
    assert not out.any()


def test_encode_impulse_gives_taps():
    impulse = np.zeros(CODE_57.nu + 1, dtype=int)
    impulse[0] = 1
    out = conv_encode(CODE_57, impulse).reshape(-1, 2)
    np.testing.assert_array_equal(out[:, 0], CODE_57.taps(0))
    np.testing.assert_array_equal(out[:, 1], CODE_57.taps(1))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=64),
       st.lists(st.integers(0, 1), min_size=1, max_size=64))
def test_linearity_over_gf2(a, b):
    n = min(len(a), len(b))
    a = np.array(a[:n])
    b = np.array(b[:n])
    lhs = conv_encode(CODE_57, a ^ b)
    rhs = conv_encode(CODE_57, a) ^ conv_encode(CODE_57, b)
    np.testing.assert_array_equal(lhs, rhs)


def test_trellis_shape_and_examples():
    tr = build_conv_trellis(CODE_57)
    assert tr.num_states == 4
    assert tr.num_inputs == 2
    assert build_conv_trellis(CODE_133_171).num_states == 64

    # memoryless [1,1] code: one state, outputs duplicate the input
    memless = build_conv_trellis(ConvCode([0o1, 0o1]))
    assert memless.num_states == 1
    np.testing.assert_array_equal(memless.outputs[0, 0], [0, 0])
    np.testing.assert_array_equal(memless.outputs[0, 1], [1, 1])


def test_trellis_walk_reproduces_encoder():
    tr = build_conv_trellis(CODE_57)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 200)
    ref = conv_encode(CODE_57, bits).reshape(-1, 2)
    s = 0
    for k, c in enumerate(bits):
        np.testing.assert_array_equal(tr.outputs[s, c], ref[k])
        s = int(tr.next_state[s, c])
    assert s == 2 * bits[-2] + bits[-1]


def test_every_branch_label_matches_encoder():
    for code in (CODE_57, CODE_133_171, ConvCode([0o5, 0o7, 0o3])):
        tr = build_conv_trellis(code)
        for s in range(code.num_states):
            for c in (0, 1):
                # the nu bits of state s, oldest first, then the input
                history = [(s >> j) & 1 for j in range(code.nu - 1, -1, -1)] + [c]
                np.testing.assert_array_equal(
                    tr.outputs[s, c], conv_encode(code, history)[-code.n:])


def test_state_is_last_nu_bits():
    tr = build_conv_trellis(CODE_57)

    def walk(bits):
        s = 0
        for b in bits:
            s = int(tr.next_state[s, b])
        return s

    # newest bit in the least significant position
    assert walk([1, 0, 1, 1, 0, 1]) == 0b01
    assert walk([1, 1]) == 0b11


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ConvCode([0o5])
    with pytest.raises(ValueError):
        conv_encode(CODE_57, [0, 2, 1])


def test_rejects_empty_bits():
    """An empty sequence is refused by name, not by np.convolve."""
    with pytest.raises(ValueError, match="bits"):
        conv_encode(CODE_57, [])


def test_parse_octal_generators():
    assert parse_octal_generators("5,7") == [0o5, 0o7]
    assert parse_octal_generators("133, 171") == [0o133, 0o171]
    with pytest.raises(ValueError):
        parse_octal_generators("5")
