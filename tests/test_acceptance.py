"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured margin (run with `pytest -s` to see them).

Criteria at a glance:
  1  state-count table via the CLI            6  whitening taps vs reference
  2  merged-encoder oracle equivalence        7  factorization roundtrip
  3  merged vs super trellis decisions        8  CPM waveform invariants
  4  brute-force optimality (VA, BCJR)        9  RSSE/serial BER orderings
  5  Yule-Walker / Levinson correctness      10  sweep determinism
"""

import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sp_linalg
from scipy import signal as sp_signal
from scipy import stats

from mdsim.channel import make_rng, normal_from_uniform
from mdsim.cli import main
from mdsim.conv_code import ConvCode
from mdsim.cpm import CpmParams, b999_bandwidth, cpm_modulate, transmit_receive
from mdsim.equalizers import (
    bcjr_equalize,
    build_isi_trellis,
    build_std_trellis,
    compensate_edges,
    viterbi_mlse,
)
from mdsim.harness import (
    SchemeSpec,
    SimConfig,
    run_ber_sweep,
    wilson_interval,
    write_csv,
)
from mdsim.matched_encoder import (
    IsiResponse,
    build_matched_trellis,
    matched_encode,
    serial_reference,
)
from mdsim.whitening import (
    design_whitening,
    sampled_pulse_acf,
    spectral_factorize,
    yule_walker,
)

GOLDEN = Path(__file__).parent / "golden"
P3RC = CpmParams(M=4, h_num=1, h_den=4, L_cpm=3, pulse="LRC", N_os=8)


def report(num, name, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({detail})")


# --------------------------------------------------------------------------
def test_criterion_01_state_count_table(capsys):
    t0 = time.time()
    assert main(["trellis", "--code", "5,7", "--L", "0..4"]) == 0
    out57 = capsys.readouterr().out.strip().splitlines()
    assert out57 == [
        "L=0 Z_STD=4 Z_MD=4 G=1",
        "L=1 Z_STD=16 Z_MD=8 G=2",
        "L=2 Z_STD=64 Z_MD=16 G=4",
        "L=3 Z_STD=256 Z_MD=32 G=8",
        "L=4 Z_STD=1024 Z_MD=64 G=16",
    ]
    assert main(["trellis", "--code", "133,171", "--L", "0..4"]) == 0
    out133 = capsys.readouterr().out.strip().splitlines()
    assert out133 == [
        "L=0 Z_STD=64 Z_MD=64 G=1",
        "L=1 Z_STD=256 Z_MD=128 G=2",
        "L=2 Z_STD=1024 Z_MD=256 G=4",
        "L=3 Z_STD=4096 Z_MD=512 G=8",
        "L=4 Z_STD=16384 Z_MD=1024 G=16",
    ]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "state-count table", f"{elapsed:.2f} s")


# --------------------------------------------------------------------------
def test_criterion_02_encoder_oracle_equivalence(capsys):
    t0 = time.time()
    codes = [ConvCode([0o5, 0o7]), ConvCode([0o133, 0o171])]
    rng = make_rng(2024)
    worst = 0.0
    for trial in range(1000):
        code = codes[trial % 2]
        n_taps = 1 + trial % 4
        taps = np.concatenate([[1.0], 2.0 * rng.random(n_taps - 1) - 1.0])
        h = IsiResponse(taps)
        mt = build_matched_trellis(code, h, 4)
        bits = (rng.random(1000) < 0.5).astype(np.int64)
        err = np.abs(matched_encode(mt, bits)
                     - serial_reference(code, h, 4, bits)).max()
        worst = max(worst, float(err))
        assert err <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        report(2, "encoder oracle equivalence",
               f"1000 cases, worst |err| = {worst:.2e}, {elapsed:.1f} s")


# --------------------------------------------------------------------------
def test_criterion_03_md_std_identical_decisions(capsys):
    t0 = time.time()
    code = ConvCode([0o5, 0o7])
    channels = [IsiResponse([1.0, 0.5]), IsiResponse([1.0, 0.5, 0.25])]
    n_blocks, n_info = 200, 300
    e_sym = (4 * 4 - 1) / 3.0
    worst_gap = 0.0
    for h, ebn0 in product(channels, (6.0, 10.0, 14.0)):
        mt = build_matched_trellis(code, h, 4)
        std = build_std_trellis(code, h, 4)
        eb = e_sym * float(np.sum(h.taps**2))
        sigma = np.sqrt(eb * 10 ** (-ebn0 / 10) / 2)
        for blk in range(n_blocks):
            seed = hash((h.L, ebn0, blk)) & 0xFFFFFFFF
            bits = (make_rng(seed).random(n_info) < 0.5).astype(np.int64)
            tx = np.concatenate([bits, np.zeros(code.nu + h.L, dtype=np.int64)])
            ref = serial_reference(code, h, 4, tx)
            obs = ref + sigma * normal_from_uniform(make_rng(seed, 1), ref.size)
            obs = compensate_edges(obs, h.taps, 4)
            r_md = viterbi_mlse(mt.trellis, obs, end_state=0)
            r_std = viterbi_mlse(std, obs, end_state=0)
            assert np.array_equal(r_md.bits, r_std.bits)
            gap = abs(r_md.metric - r_std.metric)
            worst_gap = max(worst_gap, gap)
            assert gap < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        report(3, "merged == super trellis decisions",
               f"1200 blocks identical, max metric gap {worst_gap:.1e}, "
               f"{elapsed:.0f} s")


# --------------------------------------------------------------------------
def test_criterion_04_brute_force_optimality(capsys):
    t0 = time.time()
    code = ConvCode([0o5, 0o7])
    h = IsiResponse([1.0, 0.5, 0.25])
    mt = build_matched_trellis(code, h, 4)
    std = build_std_trellis(code, h, 4)
    n_bits = 8
    flush = code.nu + h.L

    # all 2^8 candidate transmissions, referenced once
    words = np.arange(1 << n_bits)
    cand_bits = ((words[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1)
    refs = np.empty((words.size, n_bits + flush))
    for w in words:
        tx = np.concatenate([cand_bits[w], np.zeros(flush, dtype=np.int64)])
        refs[w] = compensate_edges(serial_reference(code, h, 4, tx), h.taps, 4)

    for seed in range(500):
        bits = (make_rng(3000 + seed).random(n_bits) < 0.5).astype(np.int64)
        tx = np.concatenate([bits, np.zeros(flush, dtype=np.int64)])
        obs = serial_reference(code, h, 4, tx)
        obs += 1.1 * normal_from_uniform(make_rng(4000 + seed), obs.size)
        obs = compensate_edges(obs, h.taps, 4)
        metrics = np.sum((refs - obs) ** 2, axis=1)
        best = int(np.argmin(metrics))
        for trellis in (mt.trellis, std):
            got = viterbi_mlse(trellis, obs, end_state=0)
            assert np.array_equal(got.bits[:n_bits], cand_bits[best])
            assert abs(got.metric - metrics[best]) < 1e-9

    # MAP equalizer vs exhaustive enumeration over all 4^8 symbol sequences
    tr = build_isi_trellis(h, 4)
    T, sigma2 = 8, 0.5
    seqs = np.array(list(product(range(4), repeat=T)), dtype=np.int64)
    worst = 0.0
    for seed in range(500):
        idx = (make_rng(5000 + seed).random(T) * 4).astype(np.int64)
        sym = (2 * idx - 3).astype(np.float64)
        obs = np.convolve(sym, h.taps)[:T]
        obs += np.sqrt(sigma2) * normal_from_uniform(make_rng(6000 + seed), T)
        obs = compensate_edges(obs, h.taps, 4)
        res = bcjr_equalize(tr, obs, sigma2)
        logw = np.zeros(len(seqs))
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
        dev = np.abs(post - res.symbol_posteriors).max()
        worst = max(worst, float(dev))
        assert dev < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        report(4, "brute-force optimality",
               f"500 VA blocks exact, 500 BCJR blocks, worst posterior "
               f"dev {worst:.1e}, {elapsed:.0f} s")


# --------------------------------------------------------------------------
def test_criterion_05_yule_walker(capsys):
    f, _ = yule_walker([1.0, 0.5], 1)
    assert np.abs(f - [1.0, -0.5]).max() < 1e-12
    f, _ = yule_walker([1.0, 0.5, 0.25], 2)
    assert np.abs(f - [1.0, -0.5, 0.0]).max() < 1e-12

    rng = make_rng(55)
    worst = 0.0
    for trial in range(100):
        order = 1 + trial % 12
        w = rng.random(order + 1) + 0.2
        full = np.convolve(w, w[::-1])
        phi = full[order:] / full[order]
        f, _ = yule_walker(phi, order)
        dense = np.linalg.solve(sp_linalg.toeplitz(phi[:order]),
                                phi[1: order + 1])
        dev = np.abs(-f[1:] - dense).max()
        worst = max(worst, float(dev))
        assert dev < 1e-10
    with capsys.disabled():
        report(5, "Yule-Walker / Levinson",
               f"analytic cases exact, 100 dense-solve checks, worst "
               f"dev {worst:.1e}")


# --------------------------------------------------------------------------
def test_criterion_06_whitening_taps_vs_reference(capsys):
    t0 = time.time()
    target = np.loadtxt(GOLDEN / "whitening_taps_3rc_m4_h14_lnw10.txt")
    cutoff = b999_bandwidth(P3RC)
    # default protocol: calibration at the midpoint of the 5..20 dB sweep
    design = design_whitening(P3RC, 12.5, 10, cutoff=cutoff,
                              n_symbols=200_000)
    dev = np.abs(design.f - target)
    elapsed = time.time() - t0
    assert dev.max() <= 0.1
    assert elapsed < 600.0
    with capsys.disabled():
        report(6, "whitening taps vs reference",
               f"max |f - ref| = {dev.max():.3f} (tol 0.1), {elapsed:.0f} s")


# --------------------------------------------------------------------------
def test_criterion_07_spectral_factorization_roundtrip(capsys):
    rng = make_rng(77)
    worst = 0.0
    for trial in range(100):
        n_taps = 2 + trial % 5  # length <= 6
        n_roots = n_taps - 1
        roots = []
        while len(roots) < n_roots:
            if n_roots - len(roots) >= 2 and rng.random() < 0.5:
                r = 0.9 * np.sqrt(rng.random())
                ang = np.pi * rng.random()
                roots += [r * np.exp(1j * ang), r * np.exp(-1j * ang)]
            else:
                roots.append(0.9 * (2 * rng.random() - 1))
        b_true = np.real(np.poly(roots)) * (0.5 + rng.random())
        b = spectral_factorize(np.convolve(b_true, b_true[::-1]))
        dev = np.abs(b - np.sign(b_true[0]) * b_true).max()
        worst = max(worst, float(dev))
        assert dev < 1e-6

    acf = sampled_pulse_acf(P3RC)
    b = spectral_factorize(acf)
    residual = np.abs(np.convolve(b, b[::-1]) - acf).max()
    assert residual < 1e-8
    assert np.all(np.abs(np.roots(b)) <= 1 + 1e-9)
    with capsys.disabled():
        report(7, "factorization roundtrip",
               f"100 cases, worst tap dev {worst:.1e}; 3-RC residual "
               f"{residual:.1e}")


# --------------------------------------------------------------------------
def test_criterion_08_cpm_waveform_invariants(capsys):
    # constant envelope
    rng = make_rng(88)
    sym = P3RC.alphabet[(rng.random(300) * 4).astype(np.int64)]
    wave = cpm_modulate(P3RC, sym, theta0=1.0)
    env_dev = np.abs(np.abs(wave) - 1.0).max()
    assert env_dev < 1e-12

    # noiseless chain vs the sampled-autocorrelation convolution oracle
    acf = sampled_pulse_acf(P3RC)
    L = P3RC.L_cpm
    sym = P3RC.alphabet[(make_rng(89).random(500) * 4).astype(np.int64)]
    d = transmit_receive(P3RC, sym, theta0=0.37)
    ref = np.convolve(sym.astype(float), acf)[L - 1: L - 1 + sym.size]
    n = min(d.size, ref.size)
    err = np.abs(d[:n] - ref[:n]).max()
    peak = np.abs(ref).max()
    assert err < 0.01 * peak
    assert err < 1e-2

    # FM-noise PSD rises with |f| (monotone trend, p < 0.01)
    from mdsim.cpm import add_waveform_awgn, diff_demodulate, receive_lowpass

    B = b999_bandwidth(P3RC)
    carrier = np.ones(200_000, dtype=complex)
    noisy = add_waveform_awgn(carrier, P3RC, 10 ** (-1.2), seed=333)
    y = diff_demodulate(receive_lowpass(noisy, P3RC, B), P3RC)
    f, pxx = sp_signal.welch(y, fs=P3RC.N_os, nperseg=1024)
    keep = (f > 0) & (f <= B)
    rho, pval = stats.spearmanr(f[keep], pxx[keep])
    assert rho > 0
    assert pval < 0.01
    with capsys.disabled():
        report(8, "CPM waveform invariants",
               f"envelope {env_dev:.1e}, chain err {err / peak * 100:.2f}% "
               f"of peak, PSD trend rho={rho:.2f} p={pval:.1e}")


# --------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_09_rsse_and_serial_orderings(capsys):
    """Desk-scale orderings at BER ~ 1e-3 (paper-curve overlay is out of
    scope; unstated front-end details shift absolute curves).

    Configuration: the 4-state code over a 5-tap geometric channel, the
    1024-state super trellis vs a 64-state merged trellis (the largest
    state-count row of the reduction table) and its hyperstate ladder.
    """
    t0 = time.time()
    base = dict(chain="pam_isi", generators=(0o5, 0o7), M=4,
                taps=(1.0, 0.6, 0.36, 0.216, 0.1296),
                block_bits=1000, seed=909)
    rsse = [SchemeSpec("rsse", r) for r in (3, 4, 5, 6)]

    # point A: full-ordering regime (joint decoders near 1e-3)
    cfg_a = SimConfig(**base, schemes=tuple(rsse) + (SchemeSpec("std"),),
                      ebn0_db=(10.0,), min_errors=200, max_bits=300_000)
    rec_a = {r.scheme: r for r in run_ber_sweep(cfg_a)}

    # (i) BER non-increasing in RSSE state count (within 95% confidence)
    bers = [rec_a[f"MD-RSSE({1 << r})"].ber for r in (3, 4, 5, 6)]
    cis = [wilson_interval(rec_a[f"MD-RSSE({1 << r})"].errors,
                           rec_a[f"MD-RSSE({1 << r})"].bits)
           for r in (3, 4, 5, 6)]
    for k in range(3):
        assert cis[k + 1][0] <= cis[k][1], "refinement increased BER"

    # (ii) the 64-state reduced decoder matches the 1024-state super
    # trellis (identical observations, so full-memory hyperstates give
    # identical decisions and counts)
    r64, std = rec_a["MD-RSSE(64)"], rec_a["STD"]
    lo1, hi1 = wilson_interval(r64.errors, r64.bits)
    lo2, hi2 = wilson_interval(std.errors, std.bits)
    assert lo1 <= hi2 and lo2 <= hi1, "RSSE(64) and STD intervals disjoint"

    # point B: where the serial DFSE(16)+VA receiver reaches ~1e-3
    cfg_b = SimConfig(**base,
                      schemes=tuple(rsse) + (SchemeSpec("dfse_va", 2),),
                      ebn0_db=(14.0,), min_errors=200, max_bits=500_000)
    rec_b = {r.scheme: r for r in run_ber_sweep(cfg_b)}
    serial = rec_b["DFSE(2)+VA"]
    assert 5e-4 < serial.ber < 5e-3, "serial receiver not near 1e-3"
    lo_s, _ = wilson_interval(serial.errors, serial.bits)
    # (iii) every reduced joint decoder with >= 8 states beats it, CI-separated
    for r in (3, 4, 5, 6):
        rec = rec_b[f"MD-RSSE({1 << r})"]
        _, hi_r = wilson_interval(rec.errors, rec.bits)
        assert hi_r < lo_s, f"RSSE({1 << r}) not separated below serial"

    elapsed = time.time() - t0
    assert elapsed < 3600.0
    with capsys.disabled():
        report(9, "RSSE/serial orderings",
               f"A@10dB rsse bers {['%.1e' % b for b in bers]}, "
               f"STD {std.ber:.1e}; B@14dB serial {serial.ber:.1e} vs "
               f"RSSE(8) {rec_b['MD-RSSE(8)'].ber:.1e}; {elapsed:.0f} s")


# --------------------------------------------------------------------------
def test_criterion_10_sweep_determinism(tmp_path, capsys):
    cfg = SimConfig(chain="pam_isi", generators=(0o5, 0o7), M=4,
                    taps=(1.0, 0.5, 0.25),
                    schemes=(SchemeSpec("md"), SchemeSpec("rsse", 2)),
                    ebn0_db=(8.0, 10.0), min_errors=30, max_bits=30_000,
                    block_bits=500, seed=12321)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, run_ber_sweep(cfg))
    write_csv(p2, run_ber_sweep(cfg))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    with capsys.disabled():
        report(10, "sweep determinism", f"{len(b1)} bytes byte-identical")
