"""Sweep determinism, stop rules, state accounting, and config parsing."""

import re
from pathlib import Path

import numpy as np
import pytest

from mdsim.harness import (
    _CONFIG_KEYS,
    _build_receivers,
    ConfigError,
    SchemeSpec,
    SimConfig,
    parse_config,
    parse_scheme,
    resolve_chain,
    run_ber_sweep,
    wilson_interval,
    write_csv,
    CSV_HEADER,
)

PAM_CFG = SimConfig(
    chain="pam_isi", generators=(0o5, 0o7), M=4, taps=(1.0, 0.5, 0.25),
    schemes=(SchemeSpec("md"), SchemeSpec("std"), SchemeSpec("rsse", 3)),
    ebn0_db=(8.0, 11.0), min_errors=40, max_bits=60_000,
    block_bits=500, seed=3)


class TestSchemeParsing:
    def test_round_trips(self):
        assert parse_scheme("STD") == SchemeSpec("std")
        assert parse_scheme("md") == SchemeSpec("md")
        assert parse_scheme("RSSE(4)") == SchemeSpec("rsse", 4)
        assert parse_scheme("DFSE(2)+VA") == SchemeSpec("dfse_va", 2)
        assert parse_scheme("BCJR+VA") == SchemeSpec("bcjr_va", None)

    def test_labels(self):
        assert SchemeSpec("rsse", 5).label() == "MD-RSSE(32)"
        assert SchemeSpec("dfse_va", 2).label() == "DFSE(2)+VA"

    def test_rejects_garbage(self):
        # only the README's spellings parse; a spec holds no other scheme
        for text in ("turbo", "RSSE", "MD-RSSE(6)", "BCJR(3)+VA", "STD(5)",
                     "MD+VA", "RSSE(3)+VA", "DFSE(2)"):
            with pytest.raises(ValueError):
                parse_scheme(text)
        with pytest.raises(ValueError):
            SchemeSpec("bcjr_va", 3)


def test_states_column_counts_built_receivers():
    # 4-state code, L = 1, M = 4: joint trellises multiply, serial
    # receivers add; BCJR's default memory 2 is capped at the channel's 1
    cfg = parse_config("taps = 1,0.5\nschemes = MD,STD,RSSE(2),DFSE(1)+VA,"
                       "BCJR+VA\nebn0_db = 10\nmax_bits = 500\n"
                       "block_bits = 500\n")
    states = {r.scheme: r.states for r in run_ber_sweep(cfg)}
    assert states == {"MD": 8, "STD": 16, "MD-RSSE(4)": 4,
                      "DFSE(1)+VA": 4 + 4, "BCJR+VA": 4 + 4}


def test_bcjr_batch_counts_only_its_recursions():
    """BCJR forms its branch metrics as it steps, so its bytes per block are
    the (T + 1, S) forward and backward metrics alone, and BCJR+VA on
    examples_cfg/pam.cfg decodes 8 blocks per call."""
    from mdsim.equalizers import bcjr_bytes, build_isi_trellis
    from mdsim.matched_encoder import IsiResponse

    for memory, steps in ((1, 10), (2, 1006), (3, 1006)):
        window = build_isi_trellis(IsiResponse([1, 0.6, 0.36, 0.216]), 4,
                                   memory=memory)
        assert bcjr_bytes(window, steps) == 16 * (steps + 1) * 4**memory
    cfg = parse_config((Path(__file__).parents[1] / "examples_cfg"
                        / "pam.cfg").read_text())
    batch = {r.scheme.label(): r.batch for r in _build_receivers(
        resolve_chain(cfg, print), cfg, print)}
    assert batch["BCJR+VA"] == 8


def test_pam_cfg_batches_hold_a_bit_capped_point():
    """Traceback pointers are packed, 4 to a byte for STD's fan-in of 4, so
    STD on examples_cfg/pam.cfg decodes at least 15 blocks per call.  The
    bench's pam-viterbi workload caps each point at 15 blocks, so each of
    its points takes one STD call, not four.  BCJR+VA's bytes are mostly
    its forward and backward metrics, which packing leaves as they were,
    so it stays at 8."""
    cfg = parse_config((Path(__file__).parents[1] / "examples_cfg"
                        / "pam.cfg").read_text())
    batch = {r.scheme.label(): r.batch for r in _build_receivers(
        resolve_chain(cfg, print), cfg, print)}
    assert batch["STD"] >= 15
    assert batch["BCJR+VA"] == 8


def test_cpm_cfg_md_batch_takes_the_bench_point_in_two_calls():
    """The traceback writes one uint8 decision per step and block, so MD on
    examples_cfg/cpm.cfg (32 states, 4 bytes of pointers per step) decodes
    at least 150 blocks per call: the bench's bit-capped cpm-md point of
    300 blocks goes out in two rounds.  A short calibration leaves the
    chain's ISI length, and so the batch, as it is."""
    cfg = parse_config((Path(__file__).parents[1] / "examples_cfg"
                        / "cpm.cfg").read_text() + "calibration_symbols = 20000\n")
    batch = {r.scheme.label(): r.batch for r in _build_receivers(
        resolve_chain(cfg, print), cfg, print)}
    assert batch["MD"] >= 150


def test_cpm_bandwidth_is_estimated_once_per_format(monkeypatch):
    """A CPM config without a cutoff takes the B99.9 bandwidth, whose
    Welch estimate modulates 100 000 symbols; a second sweep set-up of
    the same format reuses the first estimate."""
    from mdsim import cpm

    modulate = cpm.cpm_modulate
    estimates = []

    def counting(params, symbols, *args, **kwargs):
        if np.size(symbols) == 100_000:
            estimates.append(params)
        return modulate(params, symbols, *args, **kwargs)

    monkeypatch.setattr(cpm, "cpm_modulate", counting)
    cpm.b999_bandwidth.cache_clear()
    cfg = parse_config("chain = cpm\ncalibration_symbols = 2000\n"
                       "schemes = MD\n")
    first = resolve_chain(cfg, lambda msg: None)
    second = resolve_chain(cfg, lambda msg: None)
    assert estimates == [cfg.cpm_params()]
    assert second.cutoff == first.cutoff


def test_pam_cfg_calls_peak_within_twice_batch_bytes():
    """One decode call of each examples_cfg/pam.cfg receiver, at its sweep
    batch of 10 dB blocks, allocates at its peak (by tracemalloc) less
    than 2 * BATCH_BYTES.  The byte estimates leave out what does not
    grow with the block (the chunk of unpacked pointers, a step's
    candidates), so a call peaks above BATCH_BYTES; but (B, T) arrays of
    8-byte values, such as the traceback's old int64 indices and bits,
    would take MD and RSSE past the bound at their batches."""
    import tracemalloc

    from mdsim.harness import BATCH_BYTES, _make_block

    cfg = parse_config((Path(__file__).parents[1] / "examples_cfg"
                        / "pam.cfg").read_text())
    ctx = resolve_chain(cfg, print)
    n0 = 10.0 ** (-10.0 / 10.0)
    peaks = {}
    for r in _build_receivers(ctx, cfg, print):
        obs = np.stack([_make_block(ctx, cfg, n0, 1, i)[1]
                        for i in range(r.batch)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            r.decode(obs, n0)
            peaks[r.scheme.label()] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert set(peaks) == {"MD", "STD", "MD-RSSE(8)", "MD-RSSE(16)",
                          "DFSE(2)+VA", "BCJR+VA"}
    assert max(peaks.values()) < 2 * BATCH_BYTES, peaks


@pytest.mark.parametrize("M", [2, 4, 8])
def test_hard_llrs_match_symbol_bits(M):
    """The DFSE(K)+VA receiver's table map from symbol decisions to LLRs
    gives, bit for bit, ``1 - 2 * symbol_bits`` of the decisions."""
    from mdsim.harness import _hard_llrs
    from mdsim.matched_encoder import symbol_bits

    sym = np.random.default_rng(M).integers(0, M, (3, 40)).astype(np.uint8)
    want = 1.0 - 2.0 * symbol_bits(sym, M).reshape(len(sym), -1)
    got = _hard_llrs(M)(sym)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_wilson_interval():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(10, 1000)
    assert lo < 10 / 1000 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo0, hi0 = wilson_interval(0, 1000)
    assert lo0 < 1e-12 and hi0 > 0


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config("chain = pam_isi\ncode = 5,7\ntaps = 1,0.5\n"
                           "ebn0_db = 4,6\nschemes = MD,STD\n")
        assert cfg.generators == (0o5, 0o7)
        assert cfg.taps == (1.0, 0.5)
        assert cfg.schemes == (SchemeSpec("md"), SchemeSpec("std"))

    def test_h_index(self):
        cfg = parse_config("chain = cpm\nh_index = 1/4\nebn0_db = 5,7\n")
        assert (cfg.h_num, cfg.h_den) == (1, 4)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("bogus = 1\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="ebn0_db"):
            parse_config("ebn0_db = 5,4\n")
        with pytest.raises(ConfigError, match="schemes"):
            parse_config("schemes = quantum\n")

    @pytest.mark.parametrize("chain", ["pam_isi", "cpm"])
    def test_empty_grid_names_key(self, chain):
        # pam_isi wrote a header-only CSV; cpm failed picking the
        # calibration midpoint of the grid
        with pytest.raises(ConfigError, match="'ebn0_db'"):
            SimConfig(chain=chain, ebn0_db=())

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_isi_trim_key(self):
        assert parse_config("isi_trim = 0.01\n").isi_trim == 0.01
        assert parse_config("").isi_trim == 1e-3

    def test_every_key(self):
        text = """chain = cpm
code = 133,171
M = 4
taps = 1,0.25
pulse = LREC
h_index = 3/8
L_cpm = 2
N_os = 12
L_nw = 2
schemes = MD,STD,RSSE(3),DFSE(1)+VA,BCJR+VA
ebn0_db = 4,5.5
min_errors = 7
max_bits = 9000
block_bits = 300
seed = 11
output = out.csv
whitening_file = design.txt
calibration_ebn0_db = 4.75
calibration_symbols = 1234
bcjr_memory = 3
state_cap = 4096
cutoff = 0.6
wmf_len = 15
isi_trim = 0.002
"""
        assert {ln.partition(" =")[0] for ln in text.splitlines()} \
            == set(_CONFIG_KEYS)
        assert parse_config(text) == SimConfig(
            chain="cpm", generators=(0o133, 0o171), M=4, taps=(1.0, 0.25),
            pulse="LREC", h_num=3, h_den=8, L_cpm=2, N_os=12, L_nw=2,
            schemes=(SchemeSpec("md"), SchemeSpec("std"),
                     SchemeSpec("rsse", 3), SchemeSpec("dfse_va", 1),
                     SchemeSpec("bcjr_va")),
            ebn0_db=(4.0, 5.5), min_errors=7, max_bits=9000, block_bits=300,
            seed=11, output="out.csv", whitening_file="design.txt",
            calibration_ebn0_db=4.75, calibration_symbols=1234,
            bcjr_memory=3, state_cap=4096, cutoff=0.6, wmf_len=15,
            isi_trim=0.002)

    def test_last_duplicate_wins(self):
        assert parse_config("seed = 2\nseed = 5\n").seed == 5

    def test_code_must_fit_alphabet(self):
        with pytest.raises(ConfigError, match="'M'"):
            parse_config("M = 8\ncode = 5,7\n")
        assert parse_config("M = 8\ncode = 5,7,3\n").generators == (5, 7, 3)

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = readme.split("## Configuration files", 1)[1].splitlines()
        head = next(i for i, ln in enumerate(lines) if ln.startswith("|"))
        keys = set()
        for row in lines[head + 2:]:  # below the header and rule rows
            if not row.startswith("|"):
                break
            keys.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
        assert keys == set(_CONFIG_KEYS)


class TestSweep:
    def test_deterministic_csv(self, tmp_path):
        rec1 = run_ber_sweep(PAM_CFG)
        rec2 = run_ber_sweep(PAM_CFG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, rec1)
        write_csv(p2, rec2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == CSV_HEADER

    def test_md_equals_std_counts(self):
        recs = run_ber_sweep(PAM_CFG)
        by = {(r.scheme, r.ebn0_db): r for r in recs}
        for ebn0 in PAM_CFG.ebn0_db:
            md = by[("MD", ebn0)]
            std = by[("STD", ebn0)]
            assert md.errors == std.errors
            assert md.bits == std.bits

    def test_noiseless_point_is_error_free(self):
        cfg = SimConfig(chain="pam_isi", taps=(1.0, 0.4),
                        schemes=(SchemeSpec("md"),),
                        ebn0_db=(200.0,), min_errors=10, max_bits=4000,
                        block_bits=500, seed=5)
        recs = run_ber_sweep(cfg)
        assert recs[0].errors == 0
        assert recs[0].ber == 0.0

    def test_records_sorted_and_complete(self):
        recs = run_ber_sweep(PAM_CFG)
        keys = [(r.scheme, r.ebn0_db) for r in recs]
        assert keys == sorted(keys)
        assert len(recs) == len(PAM_CFG.schemes) * len(PAM_CFG.ebn0_db)

    def test_error_counts_conserved(self):
        """Recompute errors with an independent comparator: re-run the
        decoder on re-generated blocks and diff transmitted vs decoded."""
        from mdsim.equalizers import viterbi_mlse
        from mdsim.harness import _make_block
        from mdsim.matched_encoder import build_matched_trellis

        cfg = SimConfig(chain="pam_isi", taps=(1.0, 0.5, 0.25),
                        schemes=(SchemeSpec("md"),),
                        ebn0_db=(8.0,), min_errors=25, max_bits=20_000,
                        block_bits=500, seed=3)
        recs = run_ber_sweep(cfg)
        ctx = resolve_chain(cfg, log=lambda msg: None)
        mt = build_matched_trellis(ctx.code, ctx.isi, 4)
        # Eb = mean symbol energy (M^2 - 1)/3 times the ISI energy
        n0 = 5.0 * (1.0 + 0.25 + 0.0625) * 10.0 ** (-8.0 / 10.0)
        errors = 0
        bits = 0
        bi = 0
        while bits < recs[0].bits:
            info, obs = _make_block(ctx, cfg, n0, 0, bi)
            dec = viterbi_mlse(mt.trellis, obs, end_state=0).bits
            errors += int(np.count_nonzero(dec[: info.size] != info))
            bits += info.size
            bi += 1
        assert errors == recs[0].errors
        assert bits == recs[0].bits

    def test_state_cap_disables_scheme_without_aborting(self):
        cfg = SimConfig(chain="pam_isi", taps=tuple([1.0] + [0.3] * 9),
                        schemes=(SchemeSpec("std"), SchemeSpec("rsse", 3)),
                        ebn0_db=(10.0,), min_errors=5, max_bits=2000,
                        block_bits=500, seed=1, state_cap=1 << 12)
        msgs = []
        recs = run_ber_sweep(cfg, log=msgs.append)
        assert any("STD disabled" in m for m in msgs)
        assert [r.scheme for r in recs] == ["MD-RSSE(8)"]

    def test_state_cap_bounds_merged_trellis(self):
        # nu + L = 3 state bits: MD and RSSE need the 8-state merged table,
        # DFSE the 4-state ISI trellis of L = 1
        cfg = parse_config("taps = 1,0.5\n"
                           "schemes = MD,RSSE(2),DFSE(1)+VA\nstate_cap = 4\n"
                           "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n")
        msgs = []
        recs = run_ber_sweep(cfg, log=msgs.append)
        for label in ("MD", "MD-RSSE(4)"):
            assert (f"scheme {label} disabled: merged trellis would need "
                    "8 states (cap 4)") in " ".join(msgs)
        assert [r.scheme for r in recs] == ["DFSE(1)+VA"]

    @pytest.mark.parametrize("schemes", ["MD,RSSE(4)", "MD,DFSE(2)+VA"])
    def test_scheme_beyond_memory_is_config_error(self, schemes):
        # nu + L = 3 state bits, L = 1 symbol of channel memory
        cfg = parse_config(f"taps = 1,0.5\nschemes = {schemes}\n")
        with pytest.raises(ConfigError, match="'schemes'"):
            run_ber_sweep(cfg)

    def test_serial_trellises_built_once_per_sweep(self, monkeypatch):
        import mdsim.conv_code
        import mdsim.equalizers
        import mdsim.harness

        calls = {"build_conv_trellis": 0, "build_isi_trellis": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (mdsim.conv_code, mdsim.equalizers, mdsim.harness):
            for name in calls:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        cfg = parse_config("taps = 1,0.5,0.25\n"
                           "schemes = DFSE(1)+VA,DFSE(2)+VA,BCJR+VA\n"
                           "ebn0_db = 4,6\nmin_errors = 100000\n"
                           "max_bits = 1500\nblock_bits = 500\n")
        recs = run_ber_sweep(cfg)
        assert sum(r.bits for r in recs) == 6 * 1500
        # one code trellis per sweep, one ISI trellis per depth: both
        # DFSE and BCJR (bcjr_memory = 2 = L) read the full one
        assert calls == {"build_conv_trellis": 1, "build_isi_trellis": 1}

    MIXED = ("taps = 1,0.5,0.25\nschemes = MD,STD,RSSE(2),DFSE(1)+VA,BCJR+VA\n"
             "ebn0_db = 6,8\nmin_errors = 60\nmax_bits = 20000\n"
             "block_bits = 200\nseed = 4\n")

    def test_rounds_match_block_by_block(self, monkeypatch, tmp_path):
        """Batched rounds give the CSV of one block per decoder call, also
        where a point stops on min_errors in the middle of a round."""
        import mdsim.harness as harness

        cfg = parse_config(self.MIXED)
        batched, counted_blocks, calls = self.sweep_calls(monkeypatch,
                                                          tmp_path, cfg)
        sizes = [sum(call.values()) for per_scheme in calls.values()
                 for call in per_scheme]
        assert max(sizes) > 1
        assert sum(sizes) > counted_blocks  # blocks past a stop were discarded
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        csv, blocks, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert (csv, blocks) == (batched, counted_blocks)
        sizes = [sum(call.values()) for per_scheme in calls.values()
                 for call in per_scheme]
        assert set(sizes) == {1}
        assert sum(sizes) == counted_blocks

    def test_error_stopped_sweep_makes_each_block_once(self, monkeypatch):
        """Every live scheme decodes its point's whole round, so no block is
        made twice: each point makes its blocks 0, 1, ... once each, as
        far as its neediest scheme counts."""
        from collections import Counter

        import mdsim.harness as harness

        cfg = parse_config(self.MIXED)
        made = Counter()
        make_block = harness._make_block

        def spy(ctx, cfg, n0, point, block):
            made[point, block] += 1
            return make_block(ctx, cfg, n0, point, block)

        monkeypatch.setattr(harness, "_make_block", spy)
        records = run_ber_sweep(cfg)
        assert set(made.values()) == {1}
        for point, ebn0 in enumerate(cfg.ebn0_db):
            blocks = sorted(b for p, b in made if p == point)
            assert blocks == list(range(len(blocks)))
            assert len(blocks) >= max(r.bits // cfg.block_bits
                                      for r in records if r.ebn0_db == ebn0)

    @staticmethod
    def sweep_calls(monkeypatch, tmp_path, cfg):
        """The sweep's CSV bytes, the blocks its records count, and per
        scheme its decoder calls in call order, each as {point index:
        blocks} over the points whose blocks the call carries."""
        from collections import Counter
        from dataclasses import replace

        import mdsim.harness as harness

        calls = {}

        def counted(receiver):
            def decode(obs, n0):
                assert np.shape(n0) == (len(obs),)
                calls.setdefault(receiver.scheme.label(), []).append(
                    Counter(n0.tolist()))
                return receiver.decode(obs, n0)
            return replace(receiver, decode=decode)

        monkeypatch.setattr(harness, "_build_receivers", lambda *args: [
            counted(r) for r in _build_receivers(*args)])
        path = tmp_path / "out.csv"
        records = run_ber_sweep(cfg)
        write_csv(path, records)
        # a point's blocks are sent at its own N0, which falls as Eb/N0 rises
        n0s = sorted({n0 for per_scheme in calls.values()
                      for call in per_scheme for n0 in call}, reverse=True)
        calls = {label: [{n0s.index(n0): k for n0, k in call.items()}
                         for call in per_scheme]
                 for label, per_scheme in calls.items()}
        return (path.read_bytes(), sum(r.bits for r in records) // cfg.block_bits,
                calls)

    def test_bit_capped_rounds_start_at_full_batches(self, monkeypatch,
                                                     tmp_path):
        """No tally can stop on errors before block ceil(min_errors /
        block_bits), so a bit-capped point skips the 2, 4, 8 ramp: its
        blocks go out in one round of the largest batch.  The points of a
        bit-capped sweep run one after another, so no call carries two
        points, each decoder is called ceil(blocks / batch) times per
        point, and the CSV is that of one block per call."""
        import mdsim.harness as harness
        from mdsim.conv_code import ConvCode
        from mdsim.equalizers import build_std_trellis, viterbi_bytes
        from mdsim.matched_encoder import IsiResponse, build_matched_trellis
        from mdsim.trellis import window_trellis

        cfg = parse_config("taps = 1,0.5,0.25\nschemes = MD,STD,RSSE(2)\n"
                           "ebn0_db = 6,8\nmin_errors = 1000000\n"
                           "max_bits = 2400\nblock_bits = 200\nseed = 4\n")
        blocks, steps = 12, 204
        code, isi = ConvCode(cfg.generators), IsiResponse(np.array(cfg.taps))
        block_bytes = {
            "MD": viterbi_bytes(build_matched_trellis(code, isi, 4).trellis,
                                steps),
            "STD": viterbi_bytes(build_std_trellis(code, isi, 4), steps),
            "MD-RSSE(4)": viterbi_bytes(window_trellis(2, 2), steps)}
        # the smallest receiver takes all 12 blocks of a point in one call
        monkeypatch.setattr(harness, "BATCH_BYTES",
                            blocks * min(block_bytes.values()))
        batch = {k: harness.BATCH_BYTES // v for k, v in block_bytes.items()}
        assert 1 < batch["STD"] < batch["MD"] < blocks == batch["MD-RSSE(4)"]

        csv, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert set(calls) == set(batch)
        for label, per_scheme in calls.items():
            b = batch[label]
            sizes = [b] * (blocks // b) + [blocks % b] * (blocks % b > 0)
            assert per_scheme == [{0: k} for k in sizes] + \
                [{1: k} for k in sizes]
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        one_by_one, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert [len(per_scheme) for per_scheme in calls.values()] == \
            [2 * blocks] * 3
        assert {sum(call.values()) for per_scheme in calls.values()
                for call in per_scheme} == {1}
        assert one_by_one == csv

    def test_error_stopped_points_open_with_two_blocks(self, monkeypatch,
                                                       tmp_path):
        """With min_errors <= block_bits one block could stop a point, so
        every point opens with a round of twice that, 2 blocks, then 4,
        8, ... all in the same decoder calls, until the blocks left before
        max_bits hold the round; the CSV is that of one block per call."""
        import mdsim.harness as harness

        cfg = parse_config("taps = 1,0.5,0.25\nschemes = MD,STD\n"
                           "ebn0_db = 12,14\nmin_errors = 150\n"
                           "max_bits = 3000\nblock_bits = 200\n")
        csv, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert self.counted_blocks(csv, cfg) == {
            12.0: {"MD": 15, "STD": 15}, 14.0: {"MD": 15, "STD": 15}}
        rounds = [{0: k, 1: k} for k in (2, 4, 8, 1)]
        assert calls == {"MD": rounds, "STD": rounds}
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        one_by_one, _, _ = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert one_by_one == csv

    @staticmethod
    def counted_blocks(csv, cfg):
        """Per Eb/N0 and scheme, the blocks that the CSV ``csv`` counts."""
        blocks = {}
        for row in csv.decode().splitlines()[1:]:
            scheme, _, ebn0, bits = row.split(",")[:4]
            blocks.setdefault(float(ebn0), {})[scheme] = (
                int(bits) // cfg.block_bits)
        return blocks

    @staticmethod
    def rounds_of(calls, point):
        """Per scheme, the blocks of point ``point`` in each call that
        carries some."""
        return {label: [call[point] for call in per_scheme if point in call]
                for label, per_scheme in calls.items()}

    SERIAL = ("taps = 1,0.5,0.25\nschemes = DFSE(1)+VA,BCJR+VA\n"
              "min_errors = 60\nmax_bits = 20000\nblock_bits = 200\n"
              "seed = 4\n")

    def test_serial_points_open_together(self, monkeypatch, tmp_path):
        """The serial receivers pay per call, so the points' rounds go out
        side by side: each serial receiver's first call carries the two
        opening blocks of both points, and the CSV is that of one block
        per call."""
        import mdsim.harness as harness

        cfg = parse_config(self.SERIAL + "ebn0_db = 6,8\n")
        csv, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert {label: per_scheme[0] for label, per_scheme in calls.items()} \
            == {"DFSE(1)+VA": {0: 2, 1: 2}, "BCJR+VA": {0: 2, 1: 2}}
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        one_by_one, _, _ = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert one_by_one == csv

    def test_a_scheme_near_its_stop_does_not_shrink_the_round(
            self, monkeypatch, tmp_path):
        """The error-rate cap of a round is the largest need of the live
        schemes, and every live scheme decodes the whole round.  At 8 dB,
        after the opening 2 blocks, DFSE(1)+VA needs 3 more (it stops at
        block 4), while BCJR+VA needs at least 4, so the round is 4, twice
        the last one: with the smallest need as the cap, it would have
        been 3.  DFSE(1)+VA decodes the round of 4 too, and drops the blocks
        past its stop.  The counts are those of one block per call."""
        import mdsim.harness as harness

        cfg = parse_config(self.SERIAL + "ebn0_db = 6,8\n")
        csv, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert self.rounds_of(calls, 1) == {"DFSE(1)+VA": [2, 4],
                                            "BCJR+VA": [2, 4, 8, 1]}
        assert self.counted_blocks(csv, cfg)[8.0] == {"DFSE(1)+VA": 4,
                                                      "BCJR+VA": 15}
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        one_by_one, _, _ = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert one_by_one == csv

    def test_a_scheme_short_of_its_stop_decodes_the_round_of_another(
            self, monkeypatch, tmp_path):
        """The serial receivers of pam.cfg at seed 2: BCJR+VA's error rate
        asks for one block too few at some point, but DFSE(2)+VA's need
        holds the round, and BCJR+VA decodes all of it.  Taking only its
        own need, it made a fourth call for that block (6, 7, 3 and 1
        blocks)."""
        text = (Path(__file__).parents[1] / "examples_cfg" / "pam.cfg"
                ).read_text()
        cfg = parse_config(text + "schemes = DFSE(2)+VA,BCJR+VA\n"
                           "ebn0_db = 8,10,12\nmin_errors = 200\n"
                           "max_bits = 300000\nseed = 2\n")
        _, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert [sum(call.values()) for call in calls["BCJR+VA"]] == [6, 7, 8]

    def test_three_serial_points_share_calls(self, monkeypatch, tmp_path):
        """Three points side by side: each serial receiver's first call
        carries the opening blocks of every point, it makes fewer calls
        than the three points swept one at a time, and the CSV is that of
        one block per call."""
        import mdsim.harness as harness

        cfg = parse_config(self.SERIAL + "ebn0_db = 6,7,8\n")
        csv, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        for per_scheme in calls.values():
            assert per_scheme[0] == {0: 2, 1: 2, 2: 2}
        alone = {}
        for ebn0 in cfg.ebn0_db:
            _, _, one = self.sweep_calls(monkeypatch, tmp_path, parse_config(
                self.SERIAL + f"ebn0_db = {ebn0}\n"))
            for label, per_scheme in one.items():
                alone[label] = alone.get(label, 0) + len(per_scheme)
        assert all(len(calls[label]) < alone[label] for label in alone), \
            (calls, alone)
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        one_by_one, _, _ = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert one_by_one == csv

    def test_rounds_below_the_floor_are_the_batch(self):
        """One live tally whose batch (30) is below a third of the floor
        (100 blocks): every round up to and past the floor is that batch,
        though the blocks left before the floor (100 - first) outgrow
        twice the last round."""
        from types import SimpleNamespace

        from mdsim.harness import _Tally, _round_size

        cfg = SimConfig(min_errors=1000, max_bits=10**7, block_bits=10)
        tally = _Tally(SimpleNamespace(batch=30))
        first = last = 0
        rounds = []
        while first < 150:
            tally.errors = first  # one error a block: a need of 1000 - first
            last = _round_size(cfg, [tally], first, last)
            rounds.append(last)
            first += last
        assert rounds == [30] * 5

    def test_stop_rule_respected(self):
        recs = run_ber_sweep(PAM_CFG)
        for r in recs:
            assert r.errors >= PAM_CFG.min_errors or r.bits >= PAM_CFG.max_bits


@pytest.mark.slow
@pytest.mark.parametrize("l_nw", [0, 1])
def test_cpm_chain_md_equals_std_counts(l_nw):
    """Full non-coherent chain (4-state code, 3-RC, M=4, h=1/4): the
    merged and super trellis report identical error counts per point for
    both whitening orders."""
    cfg = SimConfig(
        chain="cpm", generators=(0o5, 0o7), M=4,
        pulse="LRC", h_num=1, h_den=4, L_cpm=3, N_os=8, L_nw=l_nw,
        schemes=(SchemeSpec("md"), SchemeSpec("std")),
        ebn0_db=(10.0, 13.0), min_errors=50, max_bits=60_000,
        block_bits=1000, seed=77, calibration_symbols=50_000)
    recs = run_ber_sweep(cfg)
    by = {(r.scheme, r.ebn0_db): r for r in recs}
    for ebn0 in cfg.ebn0_db:
        md, std = by[("MD", ebn0)], by[("STD", ebn0)]
        assert md.errors == std.errors
        assert md.bits == std.bits
        assert md.errors > 0  # the point actually exercised the decoders


def test_csv_timing_column(tmp_path):
    recs = run_ber_sweep(SimConfig(
        chain="pam_isi", taps=(1.0,), schemes=(SchemeSpec("md"),),
        ebn0_db=(30.0,), min_errors=1, max_bits=1000, block_bits=500, seed=2))
    p = tmp_path / "t.csv"
    write_csv(p, recs, with_timing=False)
    row = p.read_text().splitlines()[1]
    assert row.endswith(",0.000")
    write_csv(p, recs, with_timing=True)
    row = p.read_text().splitlines()[1]
    assert not row.endswith(",0.000")


def test_call_seconds_are_shared_by_blocks(monkeypatch):
    """A call's seconds go to its blocks' records, each block an equal
    share: on a clock that each call moves by its blocks, every record
    holds a whole number of seconds, at least the blocks it counts, and
    a scheme's records add up to the blocks of its calls."""
    from dataclasses import replace
    from types import SimpleNamespace

    import mdsim.harness as harness

    clock, calls = [0.0], {}

    def timed(receiver):
        def decode(obs, n0):
            clock[0] += len(obs)
            calls[receiver.scheme.label()] = (
                calls.get(receiver.scheme.label(), 0) + len(obs))
            return receiver.decode(obs, n0)
        return replace(receiver, decode=decode)

    monkeypatch.setattr(harness, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(harness, "_build_receivers", lambda *args: [
        timed(r) for r in _build_receivers(*args)])
    cfg = parse_config("taps = 1,0.5,0.25\nschemes = MD,DFSE(1)+VA,BCJR+VA\n"
                       "ebn0_db = 6,8\nmin_errors = 60\nmax_bits = 4000\n"
                       "block_bits = 200\nseed = 4\n")
    records = run_ber_sweep(cfg)
    seconds = {}
    for r in records:
        assert r.seconds == int(r.seconds) >= r.bits // cfg.block_bits
        seconds[r.scheme] = seconds.get(r.scheme, 0) + r.seconds
    assert seconds == calls


@pytest.mark.slow
def test_whitening_file_reuse_reproduces_inline_calibration(tmp_path):
    """A sweep given a saved design file must match the sweep that
    calibrates inline with the same protocol."""
    from mdsim.cpm import b999_bandwidth
    from mdsim.whitening import design_whitening, save_whitening_design

    base = dict(chain="cpm", generators=(0o5, 0o7), M=4, pulse="LRC",
                h_num=1, h_den=4, L_cpm=3, N_os=8, L_nw=1,
                schemes=(SchemeSpec("md"), SchemeSpec("bcjr_va")),
                ebn0_db=(10.0, 13.0),
                min_errors=25, max_bits=20_000, block_bits=1000, seed=55,
                calibration_symbols=50_000)
    cfg_inline = SimConfig(**base)

    params = cfg_inline.cpm_params()
    cutoff = b999_bandwidth(params)
    design = design_whitening(params, 11.5, 1, cutoff=cutoff,
                              n_symbols=50_000)
    path = tmp_path / "design.txt"
    save_whitening_design(path, design)
    cfg_file = SimConfig(**base, whitening_file=str(path))

    rec_inline = run_ber_sweep(cfg_inline)
    rec_file = run_ber_sweep(cfg_file)
    assert [(r.scheme, r.ebn0_db, r.bits, r.errors) for r in rec_inline] == \
           [(r.scheme, r.ebn0_db, r.bits, r.errors) for r in rec_file]


def test_inline_calibration_runs_each_stage_once(monkeypatch):
    import mdsim.harness
    import mdsim.whitening

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((mdsim.harness, "b999_bandwidth"),
                      (mdsim.whitening, "spectral_factorize"),
                      (mdsim.whitening, "estimate_noise_acf")):
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    resolve_chain(SimConfig(chain="cpm", calibration_symbols=3000),
                  log=lambda msg: None)
    assert sorted(calls) == ["b999_bandwidth", "estimate_noise_acf",
                             "spectral_factorize"]


def test_sweep_builds_wmf_taps_once(monkeypatch):
    # calibration and every block use the taps of the one design record
    import mdsim.whitening

    calls = []
    wmf_taps = mdsim.whitening.wmf_taps

    def counted(*args, **kwargs):
        calls.append(args)
        return wmf_taps(*args, **kwargs)

    monkeypatch.setattr(mdsim.whitening, "wmf_taps", counted)
    run_ber_sweep(SimConfig(chain="cpm", cutoff=0.75, calibration_symbols=3000,
                            schemes=(SchemeSpec("md"),), ebn0_db=(12.0,),
                            max_bits=2000, block_bits=500))
    assert len(calls) == 1
