"""Pulse ACF, spectral factorization, Levinson prediction, and the
whitening filters, including the Monte-Carlo noise-measurement path."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sp_linalg

from mdsim.channel import make_rng, normal_from_uniform
from mdsim.cpm import CpmParams, b999_bandwidth, transmit_receive
from mdsim.matched_encoder import IsiResponse
from mdsim.whitening import (
    WhiteningDesign,
    apply_whitening,
    apply_wmf,
    design_whitening,
    estimate_noise_acf,
    load_whitening_design,
    overall_isi,
    sampled_pulse_acf,
    save_whitening_design,
    spectral_factorize,
    wmf_taps,
    yule_walker,
)

GOLDEN = Path(__file__).parent / "golden"
P3RC = CpmParams(M=4, h_num=1, h_den=4, L_cpm=3, pulse="LRC", N_os=8)
B3RC = spectral_factorize(sampled_pulse_acf(P3RC))
WMF3RC, _ = wmf_taps(B3RC)


def residual(b, acf) -> float:
    """Largest deviation of ``b (*) reverse(b)`` from ``acf``."""
    return float(np.max(np.abs(np.convolve(b, b[::-1]) - acf)))


def random_min_phase(rng, n_taps):
    """Random real minimum-phase filter via roots inside the unit disk."""
    n_roots = n_taps - 1
    roots = []
    while len(roots) < n_roots:
        if n_roots - len(roots) >= 2 and rng.random() < 0.5:
            r = 0.9 * np.sqrt(rng.random())
            ang = np.pi * rng.random()
            roots += [r * np.exp(1j * ang), r * np.exp(-1j * ang)]
        else:
            roots.append(0.9 * (2 * rng.random() - 1))
    b = np.real(np.poly(roots))
    return b / abs(b[0]) * (0.5 + rng.random())


class TestSampledAcf:
    def test_3rc_has_five_lags(self):
        acf = sampled_pulse_acf(P3RC)
        assert acf.size == 5
        assert (np.abs(acf) > 1e-6).all()
        assert acf[2] == acf.max()

    def test_symmetry_exact(self):
        acf = sampled_pulse_acf(P3RC)
        np.testing.assert_array_equal(acf, acf[::-1])

    def test_full_response_is_nyquist(self):
        p = CpmParams(M=2, h_num=1, h_den=2, L_cpm=1, pulse="LREC", N_os=8)
        acf = sampled_pulse_acf(p)
        assert acf.size == 1
        assert acf[0] > 0


class TestSpectralFactorize:
    def test_textbook_example(self):
        b = spectral_factorize([0.5, 1.25, 0.5])
        np.testing.assert_allclose(b, [1.0, 0.5], atol=1e-12)

    def test_white_identity(self):
        b = spectral_factorize([1.0])
        np.testing.assert_allclose(b, [1.0])
        assert residual(b, [1.0]) == 0.0

    def test_3rc_acf(self):
        acf = sampled_pulse_acf(P3RC)
        b = spectral_factorize(acf)
        assert residual(b, acf) < 1e-8 * acf[acf.size // 2]
        roots = np.roots(b)
        assert np.all(np.abs(roots) <= 1 + 1e-9)
        assert b[0] > 0

    def test_rejects_invalid_spectrum(self):
        with pytest.raises(ValueError, match="below zero"):
            spectral_factorize([0.9, 1.0, 0.9])  # spectrum dips negative
        with pytest.raises(ValueError, match="symmetric"):
            spectral_factorize([0.5, 1.0, 0.4])

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_roundtrip_recovers_min_phase_root(self, seed, n_taps):
        b_true = random_min_phase(make_rng(seed), n_taps)
        acf = np.convolve(b_true, b_true[::-1])
        b = spectral_factorize(acf)
        sign = np.sign(b_true[0])
        np.testing.assert_allclose(b, sign * b_true, atol=1e-6)
        assert residual(b, acf) < 1e-8 * acf[n_taps - 1]


class TestYuleWalker:
    def test_single_tap_predictor(self):
        f = yule_walker([1.0, 0.5], 1)
        np.testing.assert_allclose(-f[1:], [0.5], atol=1e-12)
        np.testing.assert_allclose(f, [1.0, -0.5], atol=1e-12)

    def test_ar1_consistent_acf(self):
        f = yule_walker([1.0, 0.5, 0.25], 2)
        np.testing.assert_allclose(-f[1:], [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(f, [1.0, -0.5, 0.0], atol=1e-12)

    def test_sign_relation(self):
        phi = np.array([1.0, -0.55, 0.1, -0.02])
        f = yule_walker(phi, 3)
        assert f.size == 4
        assert f[0] == 1.0

    def test_reflection_magnitudes(self):
        """Every reflection coefficient has |k_m| < 1 exactly when the
        prediction-error filter is minimum phase."""
        phi, _ = _measured_noise_acf()
        assert IsiResponse(yule_walker(phi, 10)).minimum_phase

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_levinson_equals_dense_solve(self, seed, order):
        # positive-definite ACF synthesized from a random filter
        rng = make_rng(seed)
        w = rng.random(order + 1) + 0.2
        full = np.convolve(w, w[::-1])
        phi = full[order:] / full[order]
        f = yule_walker(phi, order)
        dense = np.linalg.solve(sp_linalg.toeplitz(phi[:order]), phi[1: order + 1])
        np.testing.assert_allclose(-f[1:], dense, atol=1e-10)

    def test_prediction_error_monotone_in_order(self):
        phi, _ = _measured_noise_acf()
        errs = []
        for order in range(0, 11):
            # the prediction error variance, phi[0] - sum_k p[k] phi[k]
            errs.append(float(np.dot(yule_walker(phi, order), phi[:order + 1])))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_rejects_short_acf(self):
        with pytest.raises(ValueError):
            yule_walker([1.0, 0.5], 4)

    def test_rejects_singular_system(self):
        with pytest.raises(ValueError):
            yule_walker([1.0, 1.0, 1.0], 2)


def test_overall_isi():
    b = np.array([1.0, 0.4])
    f = np.array([1.0, -0.3, 0.1])
    h = overall_isi(b, f)
    assert h.taps.size == b.size + f.size - 1
    np.testing.assert_allclose(h.taps, np.convolve(b, f))
    assert h.minimum_phase is True
    np.testing.assert_allclose(overall_isi(b, [1.0]).taps, b)


class TestWmf:
    def test_white_is_identity(self):
        w, _ = wmf_taps(spectral_factorize([1.0]))
        x = normal_from_uniform(make_rng(1), 64)
        np.testing.assert_allclose(apply_wmf(x, w), x, atol=1e-12)

    def test_cascade_gives_causal_b(self):
        sym = P3RC.alphabet[(make_rng(2).random(300) * 4).astype(int)].astype(float)
        d = transmit_receive(P3RC, sym, theta0=0.4)
        out = apply_wmf(d, WMF3RC)
        ref = np.convolve(sym, B3RC)[: sym.size]
        n = min(out.size, ref.size)
        assert np.abs(out[:n] - ref[:n]).max() < 1e-2

    def test_whitens_substitute_awgn(self):
        """White noise colored by b (the matched-filter noise model) comes
        out white again: lag>=1 correlations vanish within 3-sigma."""
        n = 200_000
        wn = normal_from_uniform(make_rng(3), n)
        colored = np.convolve(wn, B3RC)[:n]
        out = apply_wmf(colored, WMF3RC)[: n - 50]
        out -= out.mean()
        var = np.dot(out, out) / out.size
        for lag in range(1, 6):
            c = np.dot(out[:-lag], out[lag:]) / (out.size - lag) / var
            assert abs(c) < 3.5 / np.sqrt(out.size)

    def test_truncation_reported(self):
        w20, err20 = wmf_taps(B3RC, 20)
        _, err10 = wmf_taps(B3RC, 10)
        assert w20.size == 20
        assert 0 <= err20 < err10


class TestApplyWhitening:
    def test_identity_and_impulse(self):
        x = normal_from_uniform(make_rng(4), 32)
        np.testing.assert_array_equal(apply_whitening(x, [1.0]), x)
        imp = np.zeros(8)
        imp[0] = 1.0
        f = np.array([1.0, -0.4, 0.2])
        np.testing.assert_allclose(apply_whitening(imp, f)[:3], f)

    @pytest.mark.slow
    def test_reduces_lag1_correlation(self):
        phi, f = _measured_design()
        resid = _fresh_residual(seed=5150)
        before = _acf(resid, f.size - 1)
        after = _acf(np.convolve(resid, f)[: resid.size], f.size - 1)
        assert abs(after[1]) < abs(before[1])
        assert np.abs(after[1:]).sum() < np.abs(before[1:]).sum()


_CACHE = {}


def _measured_noise_acf():
    if "phi" not in _CACHE:
        B = b999_bandwidth(P3RC)
        _CACHE["phi"] = estimate_noise_acf(P3RC, 12.5, 10, 100_000, WMF3RC,
                                           cutoff=B)
        _CACHE["B"] = B
    return _CACHE["phi"]


def _measured_design():
    phi, _ = _measured_noise_acf()
    return phi, yule_walker(phi, 10)


def _fresh_residual(seed):
    B = _CACHE["B"]
    sym = P3RC.alphabet[(make_rng(seed).random(100_000) * 4).astype(int)]
    d_ref = transmit_receive(P3RC, sym, cutoff=B)
    d_noisy = transmit_receive(P3RC, sym, n0=10 ** (-1.25),
                               noise_seed=(seed, 1), theta0=0.3, cutoff=B)
    n = min(d_ref.size, d_noisy.size)
    resid = apply_wmf(d_noisy[:n], WMF3RC) - apply_wmf(d_ref[:n], WMF3RC)
    return resid[40:-40]


def _acf(x, lags):
    x = x - x.mean()
    out = np.array([np.dot(x[: x.size - k], x[k:]) / (x.size - k)
                    for k in range(lags + 1)])
    return out / out[0]


class TestNoiseMeasurement:
    def test_normalization_and_sign(self):
        phi, var = _measured_noise_acf()
        assert phi[0] == 1.0
        assert phi[1] < 0  # differential detection anti-correlates lag 1
        assert var > 0

    @pytest.mark.slow
    def test_matches_golden_within_statistics(self):
        golden = np.loadtxt(GOLDEN / "noise_acf_3rc_m4_h14.txt")
        B = b999_bandwidth(P3RC)
        phi, _ = estimate_noise_acf(P3RC, 12.5, 10, 200_000, WMF3RC,
                                    cutoff=B, seed=31_337)
        # 0.015 covers ~4x the measured across-seed spread at 2e5 symbols
        np.testing.assert_allclose(phi, golden, atol=0.015)

    def test_warns_on_few_samples(self):
        B = _measured_noise_acf() and _CACHE["B"]
        with pytest.warns(UserWarning, match="samples"):
            estimate_noise_acf(P3RC, 12.5, 10, 600, WMF3RC, cutoff=B)


def test_design_save_load_roundtrip(tmp_path):
    phi, f = _measured_design()
    wmf, tail = wmf_taps(B3RC, 20)
    design = WhiteningDesign(
        b=B3RC, wmf=wmf, wmf_tail=tail, noise_acf=phi, noise_variance=0.3,
        calibration_ebn0_db=12.5, f=f, overall=overall_isi(B3RC, f))
    path = tmp_path / "design.txt"
    save_whitening_design(path, design)
    loaded = load_whitening_design(path, P3RC, 10, 20)
    assert (loaded.noise_variance, loaded.calibration_ebn0_db) == (0.3, 12.5)
    np.testing.assert_array_equal(loaded.noise_acf, design.noise_acf)
    np.testing.assert_array_equal(loaded.f, design.f)
    np.testing.assert_array_equal(loaded.b, B3RC)
    np.testing.assert_array_equal(loaded.wmf, wmf)
    assert loaded.wmf_tail == tail
    np.testing.assert_array_equal(loaded.overall.taps, design.overall.taps)
    assert loaded.output_noise_variance == design.output_noise_variance
    assert loaded.overall.minimum_phase is True
    # a lower order uses the first lags of the file
    low = load_whitening_design(path, P3RC, 3, 20)
    np.testing.assert_array_equal(low.f, yule_walker(phi, 3))


@pytest.mark.slow
def test_design_whitening_end_to_end():
    B = b999_bandwidth(P3RC)
    design = design_whitening(P3RC, 12.5, 4, cutoff=B, n_symbols=100_000)
    assert design.f.size == 5
    assert design.overall.taps.size == design.b.size + 4
    assert design.overall.minimum_phase is True
    assert np.isfinite(design.noise_variance)
