import numpy as np
import pytest

from mdsim.channel import fir_awgn_channel, make_rng, normal_from_uniform
from mdsim.matched_encoder import IsiResponse


def test_identity_channel():
    sym = np.array([1.0, -3.0, 3.0, -1.0])
    out = fir_awgn_channel(sym, IsiResponse([1.0]), 0.0, 0)
    np.testing.assert_array_equal(out, sym)


def test_noiseless_equals_convolution():
    rng = make_rng(4)
    sym = 2.0 * (rng.random(500) * 4).astype(int) - 3.0
    h = IsiResponse([1.0, -0.5, 0.2])
    out = fir_awgn_channel(sym, h, 0.0, 0)
    np.testing.assert_allclose(out, np.convolve(sym, h.taps)[: sym.size])


def test_noise_variance_within_bounds():
    # n0=0.5 (variance 0.25) over 1e6 samples: sample variance inside
    # the 3-sigma band
    n = 1_000_000
    sym = np.zeros(n)
    out = fir_awgn_channel(sym, IsiResponse([1.0]), 0.5, 9)
    v = np.var(out)
    assert 0.2475 < v < 0.2525


def test_reproducibility():
    sym = np.ones(1000)
    h = IsiResponse([1.0, 0.3])
    a = fir_awgn_channel(sym, h, 2.0, 42)
    b = fir_awgn_channel(sym, h, 2.0, 42)
    np.testing.assert_array_equal(a, b)
    c = fir_awgn_channel(sym, h, 2.0, 43)
    assert not np.array_equal(a, c)


def test_normal_from_uniform_moments():
    x = normal_from_uniform(make_rng(11), 200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    assert np.isfinite(x).all()


def test_noise_model_validation():
    with pytest.raises(ValueError, match="n0"):
        fir_awgn_channel(np.ones(4), IsiResponse([1.0]), -1.0, 0)


def test_rejects_empty_symbols():
    """An empty sequence is refused by name, not by np.convolve."""
    with pytest.raises(ValueError, match="symbols"):
        fir_awgn_channel([], IsiResponse([1.0, 0.5]), 0.1, 1)
