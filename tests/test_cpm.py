"""Waveform-level checks: pulse normalization, constant envelope, the
differential receiver inverting the modulator, and FM-noise shape."""

import math
import warnings

import numpy as np
import pytest
from scipy import signal as sp_signal
from scipy import stats

from mdsim.channel import make_rng, normal_from_uniform
from mdsim.cpm import (
    CpmParams,
    _lowpass_taps,
    _mf_taps,
    add_waveform_awgn,
    b999_bandwidth,
    cpm_modulate,
    diff_demodulate,
    matched_filter_downsample,
    receive_lowpass,
    transmit_receive,
)
from mdsim.whitening import sampled_pulse_acf

P3RC = CpmParams(M=4, h_num=1, h_den=4, L_cpm=3, pulse="LRC", N_os=8)

# frozen after the first computation (seeded Welch estimate, N_os=8)
B999_3RC_M4_H14 = 0.6875


def sampled_freq_pulse(params):
    """g at t = i*dt for i = 0..L_cpm*N_os, both ends of its support
    included."""
    return params.freq_pulse(np.arange(params.L_cpm * params.N_os + 1)
                             * params.dt)


def random_symbols(params, n, seed):
    idx = (make_rng(seed).random(n) * params.M).astype(np.int64)
    return params.alphabet[idx]


class TestPulse:
    def test_q_saturates_at_half(self):
        lt = P3RC.L_cpm
        q = P3RC.phase_pulse(np.array([lt, 2 * lt]))
        assert np.all(np.abs(q - 0.5) < 1e-9)

    def test_lrc_starts_at_zero(self):
        g = sampled_freq_pulse(P3RC)
        assert g[0] == 0.0
        assert g[-1] == 0.0

    def test_area_is_half(self):
        g = sampled_freq_pulse(P3RC)
        area = np.trapezoid(g, dx=P3RC.dt)
        assert abs(area - 0.5) < 1e-9

    def test_rejects_low_oversampling(self):
        with pytest.raises(ValueError):
            CpmParams(N_os=4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CpmParams(M=3)
        with pytest.raises(ValueError):
            CpmParams(h_num=2, h_den=4)
        with pytest.raises(ValueError):
            CpmParams(pulse="GMSK")


class TestModulator:
    def test_constant_envelope(self):
        w = cpm_modulate(P3RC, random_symbols(P3RC, 200, 1), theta0=0.37)
        dev = np.abs(np.abs(w) - 1.0)
        assert dev.max() < 1e-12

    def test_phase_continuity(self):
        w = cpm_modulate(P3RC, random_symbols(P3RC, 100, 2))
        steps = np.abs(np.diff(np.unwrap(np.angle(w))))
        # overlapping pulses stack: sum_k g(t-kT) = 1/(2T), so the
        # instantaneous frequency never exceeds h*(M-1)/2
        bound = 2 * np.pi * P3RC.h_index * (P3RC.M - 1) * 0.5 * P3RC.dt
        assert steps.max() <= bound * 1.01

    def test_msk_phase_ramp(self):
        msk = CpmParams(M=2, h_num=1, h_den=2, L_cpm=1, pulse="LREC", N_os=8)
        w = cpm_modulate(msk, [1])
        phase = np.unwrap(np.angle(w))
        assert abs((phase[msk.N_os] - phase[0]) - np.pi / 2) < 1e-12

    def test_final_phase_tracks_symbol_sum(self):
        sym = random_symbols(P3RC, 30, 3)
        w = cpm_modulate(P3RC, sym, theta0=0.0)
        phase_end = np.angle(w[-1])
        want = 2 * np.pi * P3RC.h_index * 0.5 * sym.sum()
        diff = (phase_end - want + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-9

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            cpm_modulate(P3RC, [2])

    def test_rejects_an_empty_sequence(self):
        """An empty sequence is a ValueError naming ``symbols``; the front
        end failed on it deep in numpy ("a cannot be empty")."""
        with pytest.raises(ValueError, match="symbols"):
            cpm_modulate(P3RC, [])
        with pytest.raises(ValueError, match="symbols"):
            transmit_receive(P3RC, [])


class TestBandwidth:
    def test_golden_value(self):
        assert abs(b999_bandwidth(P3RC) - B999_3RC_M4_H14) < 1e-9

    def test_power_fraction_at_b(self):
        B = b999_bandwidth(P3RC)
        w = cpm_modulate(P3RC, random_symbols(P3RC, 100_000, 999))
        f, pxx = sp_signal.welch(w, fs=P3RC.N_os,
                                 nperseg=64 * P3RC.N_os,
                                 return_onesided=False, detrend=False)
        frac = pxx[np.abs(f) <= B].sum() / pxx.sum()
        assert abs(frac - 0.999) < 5e-4


def scipy_b999(params):
    """:func:`b999_bandwidth` on scipy's Welch estimate of the same
    waveform."""
    w = cpm_modulate(params, random_symbols(params, 100_000, 20_999))
    f, pxx = sp_signal.welch(w, fs=params.N_os, nperseg=64 * params.N_os,
                             return_onesided=False, detrend=False)
    f = np.fft.fftshift(f)
    pxx = np.fft.fftshift(pxx)
    order = np.argsort(np.abs(f), kind="stable")
    cum = np.cumsum(pxx[order])
    k = int(np.searchsorted(cum, 0.999 * cum[-1]))
    return float(np.abs(f[order][min(k, f.size - 1)]))


@pytest.mark.slow
@pytest.mark.parametrize("h_den", [4, 2])
@pytest.mark.parametrize("L_cpm", [1, 2, 3])
@pytest.mark.parametrize("M", [2, 4, 8])
@pytest.mark.parametrize("pulse", ["LRC", "LREC"])
def test_b999_is_the_scipy_welch_frequency(pulse, M, L_cpm, h_den):
    """The numpy Welch estimate differs from scipy's in the last bits of
    the PSD, but the bandwidth is a frequency of the FFT grid, and it is
    the one scipy's estimate gives."""
    params = CpmParams(M=M, h_den=h_den, L_cpm=L_cpm, pulse=pulse)
    assert b999_bandwidth(params) == scipy_b999(params)


@pytest.mark.parametrize("N_os", [2, 4, 8, 16, 32])
def test_lowpass_taps_are_firwins_bits(N_os):
    """The numpy taps are scipy's firwin taps bit for bit, at cutoffs
    across the band."""
    fixed = [c for c in (0.75, 1.1, B999_3RC_M4_H14) if c < N_os / 2]
    for cutoff in [*np.linspace(0.0, N_os / 2, 65)[1:-1], *fixed]:
        want = sp_signal.firwin(16 * N_os - 1, cutoff, fs=N_os,
                                window="hamming")
        assert_same_bits(_lowpass_taps(N_os, float(cutoff)), want)


@pytest.mark.parametrize("N_os", [8, 16])
def test_lowpass_cutoff_range_is_firwins(N_os):
    """A cutoff must lie in (0, N_os/2), both ends excluded, as firwin
    requires; one just inside either end gives firwin's taps."""
    half = N_os / 2
    for cutoff in (0.0, -0.0, half, -1.0, 100.0, math.nan):
        with pytest.raises(ValueError, match="cutoff"):
            _lowpass_taps(N_os, cutoff)
    for cutoff in (1e-300, np.nextafter(half, 0.0)):
        want = sp_signal.firwin(16 * N_os - 1, cutoff, fs=N_os,
                                window="hamming")
        assert_same_bits(_lowpass_taps(N_os, cutoff), want)
    # a cutoff whose ratio to N_os/2 rounds to 0 is outside for both
    with pytest.raises(ValueError, match="cutoff"):
        _lowpass_taps(N_os, 5e-324)
    with pytest.raises(ValueError):
        sp_signal.firwin(16 * N_os - 1, 5e-324, fs=N_os, window="hamming")


class TestDemodulator:
    def test_constant_phase_gives_zero(self):
        w = np.exp(1j * 0.8) * np.ones(256)
        np.testing.assert_allclose(diff_demodulate(w, P3RC), 0.0, atol=1e-12)

    def test_inverts_modulator(self):
        """Noiseless output matches the instantaneous pulse superposition
        within a fraction of a percent of its peak."""
        sym = random_symbols(P3RC, 100, 4)
        w = cpm_modulate(P3RC, sym, theta0=2.1)
        y = diff_demodulate(w, P3RC)
        g = sampled_freq_pulse(P3RC)
        train = np.zeros((sym.size - 1) * P3RC.N_os + 1)
        train[:: P3RC.N_os] = sym
        ref_grid = np.convolve(train, g)  # on integer grid
        # y[i] sits at the midpoint (i+1/2)dt; compare on midpoint averages
        ref_mid = 0.5 * (ref_grid[1:] + ref_grid[:-1])
        n = min(y.size, ref_mid.size)
        err = np.abs(y[:n] - ref_mid[:n]).max()
        assert err < 0.01 * (P3RC.M - 1) * g.max()

    def test_superposition(self):
        # demodulator output is linear in the symbols (discretization aside)
        s1 = random_symbols(P3RC, 60, 5).astype(float)
        s2 = random_symbols(P3RC, 60, 6).astype(float)
        combo = s1 + s2 - np.clip(s1 + s2, -(P3RC.M - 1), P3RC.M - 1) * 0
        y1 = diff_demodulate(cpm_modulate(P3RC, s1, 0.3), P3RC)
        y2 = diff_demodulate(cpm_modulate(P3RC, s2, 1.1), P3RC)
        # modulate the sum through phase addition: multiply waveforms
        w1 = cpm_modulate(P3RC, s1, 0.3)
        w2 = cpm_modulate(P3RC, s2, 1.1)
        w12 = w1 * w2
        y12 = diff_demodulate(w12, P3RC)
        scale = (P3RC.M - 1) * (1.0 / 3.0)
        assert np.abs(y12 - (y1 + y2)).max() < 0.01 * 2 * scale

    def test_phase_offset_invariance(self):
        sym = random_symbols(P3RC, 80, 7)
        y0 = diff_demodulate(cpm_modulate(P3RC, sym, 0.0), P3RC)
        y1 = diff_demodulate(cpm_modulate(P3RC, sym, 4.711), P3RC)
        np.testing.assert_allclose(y0, y1, atol=1e-9)

    def test_wraparound_handling(self):
        # phase crossing +-pi repeatedly: unwrap must not leave spikes
        t = np.arange(4000) * P3RC.dt
        phase = 2.4 * np.pi * np.sin(0.05 * t) + 3.0 * t
        w = np.exp(1j * phase)
        y = diff_demodulate(w, P3RC)
        ref = np.diff(phase) / (2 * np.pi * P3RC.h_index * P3RC.dt)
        np.testing.assert_allclose(y, ref, atol=1e-9)

    def test_undersampling_warning(self):
        w = np.exp(1j * np.pi * 0.8 * np.arange(64))
        with pytest.warns(UserWarning, match="phase step"):
            diff_demodulate(w, P3RC)

    def test_warns_only_on_a_step_above_half_pi(self):
        """Unit-envelope samples whose phase steps are at most 0.3*pi,
        apart from one largest step: 0.49*pi does not warn, -0.51*pi
        does."""
        steps = 0.3 * np.pi * (2.0 * make_rng(12).random(200) - 1.0)
        steps[77] = 0.49 * np.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diff_demodulate(np.exp(1j * (0.4 + np.cumsum(steps))), P3RC)
        steps[77] = -0.51 * np.pi
        with pytest.warns(UserWarning, match="phase step"):
            diff_demodulate(np.exp(1j * (0.4 + np.cumsum(steps))), P3RC)

    def test_noisy_block_is_the_scaled_continued_step(self):
        """On a noisy block whose continued phase slips, the output is the
        first difference of the continued phase, scaled, bit for bit."""
        w = cpm_modulate(P3RC, random_symbols(P3RC, 1000, 13))
        rx = receive_lowpass(add_waveform_awgn(w, P3RC, 3.0, seed=14), P3RC,
                             b999_bandwidth(P3RC))
        with pytest.warns(UserWarning, match="phase step"):
            y = diff_demodulate(rx, P3RC)
        np.testing.assert_array_equal(
            y, np.diff(np.unwrap(np.angle(rx)))
            / (2 * np.pi * P3RC.h_index * P3RC.dt))


class TestMatchedFilter:
    def test_isolated_symbol_traces_acf(self):
        # feed the filter the demodulated image of one unit symbol: the
        # frequency pulse on the midpoint grid (the alphabet itself has no
        # zero symbol, so isolation is tested at the filter input)
        k0, L = 4, P3RC.L_cpm
        n = 12 * P3RC.N_os
        t = (np.arange(n) + 0.5) * P3RC.dt
        y = P3RC.freq_pulse(t - k0)
        d = matched_filter_downsample(y, P3RC)
        acf = sampled_pulse_acf(P3RC)
        got = d[k0 - (L - 1): k0 + L]
        np.testing.assert_allclose(got, acf, atol=1e-4)
        # symmetric with support 2L-1
        assert acf.size == 2 * L - 1
        np.testing.assert_allclose(acf, acf[::-1], atol=1e-12)
        assert np.abs(d[: k0 - (L - 1)]).max() < 1e-12

    def test_all_zero_signal(self):
        d = matched_filter_downsample(np.zeros(400), P3RC)
        np.testing.assert_array_equal(d, 0.0)

    def test_chain_matches_convolution_oracle(self):
        sym = random_symbols(P3RC, 300, 8).astype(float)
        d = transmit_receive(P3RC, sym, theta0=0.9)
        acf = sampled_pulse_acf(P3RC)
        L = P3RC.L_cpm
        ref = np.convolve(sym, acf)[L - 1: L - 1 + sym.size]
        n = min(d.size, ref.size)
        assert np.abs(d[:n] - ref[:n]).max() < 1e-2


class TestNoise:
    def test_awgn_seed_reproducible(self):
        w = cpm_modulate(P3RC, random_symbols(P3RC, 50, 9))
        a = add_waveform_awgn(w, P3RC, 0.1, seed=5)
        b = add_waveform_awgn(w, P3RC, 0.1, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_a_negative_n0(self):
        """A negative noise density is a ValueError, as on the PAM chain
        (``channel.fir_awgn_channel``); it added no noise."""
        sym = random_symbols(P3RC, 50, 9)
        with pytest.raises(ValueError, match="n0 must be >= 0"):
            add_waveform_awgn(cpm_modulate(P3RC, sym), P3RC, -1.0, 0)
        with pytest.raises(ValueError, match="n0 must be >= 0"):
            transmit_receive(P3RC, sym, n0=-1.0)

    @pytest.mark.parametrize("n0", [math.nan, math.inf])
    def test_rejects_a_non_finite_n0(self, n0):
        """A NaN or infinite noise density is refused by name, as a
        negative one is; it gave NaN or infinite samples."""
        w = cpm_modulate(P3RC, random_symbols(P3RC, 50, 9))
        with pytest.raises(ValueError, match="n0 must be >= 0 and finite"):
            add_waveform_awgn(w, P3RC, n0, 1)

    def test_fm_noise_psd_rises_with_frequency(self):
        """Differential detection of a noisy carrier: noise PSD grows with
        |f| up to the lowpass edge (the f^2 shape)."""
        B = b999_bandwidth(P3RC)
        carrier = np.ones(200_000, dtype=complex)
        noisy = add_waveform_awgn(carrier, P3RC, 10 ** (-1.2), seed=33)
        y = diff_demodulate(receive_lowpass(noisy, P3RC, B), P3RC)
        f, pxx = sp_signal.welch(y, fs=P3RC.N_os, nperseg=1024)
        keep = (f > 0) & (f <= B)
        rho, pval = stats.spearmanr(f[keep], pxx[keep])
        assert rho > 0.8
        assert pval < 0.01


def test_lowpass_group_delay_compensated():
    sym = random_symbols(P3RC, 120, 10).astype(float)
    w = cpm_modulate(P3RC, sym, theta0=0.5)
    lp = receive_lowpass(w, P3RC, b999_bandwidth(P3RC))
    assert lp.size == w.size
    skip = 16 * P3RC.N_os
    a = w[skip:-skip]
    b = lp[skip:-skip]
    # delay compensation: cross-correlation peaks at zero lag
    lags = range(-3, 4)
    corr = [np.abs(np.vdot(a[3 + lag: -3 + lag or None], b[3:-3]))
            for lag in lags]
    assert int(np.argmax(corr)) == 3
    # in-band distortion stays small
    assert np.abs(b - a).max() < 0.15


@pytest.mark.parametrize("params", [
    P3RC, CpmParams(L_cpm=1, pulse="LREC"),
    CpmParams(M=2, L_cpm=2, N_os=16)], ids=["3RC", "1REC", "2RC-M2-Nos16"])
def test_lowpass_is_the_causal_fir_bit_for_bit(params):
    """The lowpass convolves with numpy, and gives lfilter's samples (taps
    over 1.0, the group delay dropped) bit for bit on noisy blocks, so the
    CPM golden and sweeps keep every bit."""
    from mdsim.cpm import _lowpass_taps

    for seed in range(5):
        w = add_waveform_awgn(cpm_modulate(params, random_symbols(
            params, 300, seed)), params, 0.3, seed)
        for cutoff in (0.6, 1.1):
            taps = _lowpass_taps(params.N_os, cutoff)
            delay = (taps.size - 1) // 2
            padded = np.concatenate([w, np.zeros(delay, dtype=complex)])
            want = sp_signal.lfilter(taps, 1.0, padded)[delay:]
            got = receive_lowpass(w, params, cutoff)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


# The front end's plain numpy expressions, each a whole-array temporary
# at a time: the oracle of the in-place steps of mdsim.cpm.

def plain_modulate(params, symbols, theta0):
    symbols = np.asarray(symbols, dtype=np.float64)
    nos, span = params.N_os, params.L_cpm * params.N_os
    n_samples = (symbols.size - 1) * nos + span + 1
    r = params.phase_pulse(np.arange(span + 1) * params.dt)
    r[-1] = 0.0
    train = np.zeros((symbols.size - 1) * nos + 1)
    train[::nos] = symbols
    hold = np.zeros(n_samples)
    hold[span::nos] = 0.5 * symbols
    phase = np.convolve(train, r)[:n_samples] + np.cumsum(hold)
    return np.exp(1j * (2 * np.pi * params.h_index * phase + theta0))


def plain_normals(rng, size):
    n_pairs = (size + 1) // 2
    u1 = rng.random(n_pairs)
    u2 = rng.random(n_pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:size]


def plain_awgn(samples, params, n0, seed):
    sigma = math.sqrt(n0 * params.N_os / 2.0)
    n = samples.size
    noise = plain_normals(make_rng(*np.atleast_1d(seed)), 2 * n)
    return samples + sigma * (noise[:n] + 1j * noise[n:])


def plain_lowpass(samples, params, cutoff):
    taps = _lowpass_taps(params.N_os, cutoff)
    delay = (taps.size - 1) // 2
    padded = np.concatenate([samples, np.zeros(delay, dtype=complex)])
    return np.convolve(taps, padded)[delay:padded.size].copy()


def plain_diff(rx, params):
    return (np.diff(np.unwrap(np.angle(rx)))
            / (2 * np.pi * params.h_index * params.dt))


def plain_matched_filter(sig, params):
    z = np.convolve(sig, _mf_taps(params))
    return z[params.L_cpm * params.N_os - 1:: params.N_os]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def diff_and_warned(rx, params):
    """diff_demodulate's output, and whether it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        y = diff_demodulate(rx, params)
    return y, any("phase step" in str(w.message) for w in caught)


FORMATS = [CpmParams(M=m, h_num=1, h_den=m, L_cpm=lc, pulse=pulse, N_os=nos)
           for pulse in ("LRC", "LREC") for m in (2, 4, 8)
           for lc in (1, 2, 3) for nos in (8, 16)]


@pytest.mark.parametrize("params", FORMATS, ids=[
    f"{p.L_cpm}{p.pulse[1:]}-M{p.M}-Nos{p.N_os}" for p in FORMATS])
def test_front_end_is_the_plain_expressions_bit_for_bit(params):
    """Each in-place step of the front end gives the bits of its plain
    expression, on short blocks (5 and 25 symbols, shorter than the
    lowpass taps at 5) and on a longer one, without noise and with it; and
    diff_demodulate warns exactly when a continued step exceeds pi/2."""
    for n_sym, seed in ((5, 1), (25, 2), (300, 3)):
        sym = random_symbols(params, n_sym, seed)
        theta0 = 0.3 * seed
        w = cpm_modulate(params, sym, theta0)
        assert_same_bits(w, plain_modulate(params, sym, theta0))
        for n0 in (0.0, 0.5):
            wn = add_waveform_awgn(w, params, n0, (seed, 1))
            if n0:
                assert_same_bits(wn, plain_awgn(w, params, n0, (seed, 1)))
            else:
                assert wn is w
            lp = receive_lowpass(wn, params, 1.1)
            assert_same_bits(lp, plain_lowpass(wn, params, 1.1))
            y, warned = diff_and_warned(lp, params)
            want = plain_diff(lp, params)
            assert_same_bits(y, want)
            assert warned == bool(np.max(np.abs(
                want * (2 * np.pi * params.h_index * params.dt))) > np.pi / 2)
            d = matched_filter_downsample(y, params)
            assert_same_bits(d, plain_matched_filter(y, params))
            assert d.base is None  # the convolution is not kept alive
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # its rule is checked above
                chain = transmit_receive(params, sym, n0=n0,
                                         noise_seed=(seed, 1),
                                         theta0=theta0, cutoff=1.1)
            assert_same_bits(chain, d)


def test_normals_are_the_plain_box_muller():
    """The PAM chain's normals, odd counts included, are the bits of the
    plain Box-Muller expressions."""
    for size in (1, 2, 7, 1006):
        assert_same_bits(normal_from_uniform(make_rng(size), size),
                         plain_normals(make_rng(size), size))


def test_exact_half_turn_steps_continue_as_np_unwrap():
    """Steps of exactly +pi and -pi (the boundary that np.unwrap keeps at
    the sign of the raw step), of exactly 2*pi, and small ones, give
    np.unwrap's continuation bit for bit; the inputs are left as they
    were."""
    rx = np.array([1, -1, 1, -1, complex(-1, -0.0), 1j, -1j, 1, -1, -1,
                   0.6 + 0.8j, 0.8 + 0.6j, -1, 1j, 1j, -1j, 1])
    before = rx.copy()
    phase = np.angle(rx)
    assert np.pi in np.diff(phase) and -np.pi in np.diff(phase)
    y, warned = diff_and_warned(rx, P3RC)
    assert warned
    assert_same_bits(y, plain_diff(rx, P3RC))
    assert_same_bits(rx, before)
