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
        # nu + L = 4 state bits: MD and RSSE need the 16-state merged table
        cfg = parse_config("taps = 1,0.5,0.25\n"
                           "schemes = MD,RSSE(2),DFSE(1)+VA\nstate_cap = 8\n"
                           "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n")
        msgs = []
        recs = run_ber_sweep(cfg, log=msgs.append)
        for label in ("MD", "MD-RSSE(4)"):
            assert (f"scheme {label} disabled: merged trellis would need "
                    "16 states (cap 8)") in " ".join(msgs)
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
        # one code trellis per sweep, one ISI trellis per window depth:
        # DFSE(2) and BCJR (bcjr_memory = 2) share theirs
        assert calls == {"build_conv_trellis": 1, "build_isi_trellis": 2}

    def test_rounds_match_block_by_block(self, monkeypatch, tmp_path):
        """Batched rounds give the CSV of one block per decoder call, also
        where a point stops on min_errors in the middle of a round."""
        import mdsim.harness as harness

        cfg = parse_config("taps = 1,0.5,0.25\nschemes = MD,STD,RSSE(2),"
                           "DFSE(1)+VA,BCJR+VA\nebn0_db = 6,8\n"
                           "min_errors = 60\nmax_bits = 20000\n"
                           "block_bits = 200\nseed = 4\n")
        batched, counted_blocks, calls = self.sweep_calls(monkeypatch,
                                                          tmp_path, cfg)
        sizes = [n for per_point in calls.values() for n in per_point]
        assert max(sizes) > 1
        assert sum(sizes) > counted_blocks  # blocks past a stop were discarded
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        csv, blocks, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert (csv, blocks) == (batched, counted_blocks)
        sizes = [n for per_point in calls.values() for n in per_point]
        assert set(sizes) == {1}
        assert sum(sizes) == counted_blocks

    @staticmethod
    def sweep_calls(monkeypatch, tmp_path, cfg):
        """The sweep's CSV bytes, the blocks its records count, and per
        (scheme, point) the blocks of each decoder call in call order."""
        from dataclasses import replace

        import mdsim.harness as harness

        calls = {}

        def counted(receiver):
            def decode(obs, n0):
                calls.setdefault((receiver.scheme.label(), n0),
                                 []).append(len(obs))
                return receiver.decode(obs, n0)
            return replace(receiver, decode=decode)

        monkeypatch.setattr(harness, "_build_receivers", lambda *args: [
            counted(r) for r in _build_receivers(*args)])
        path = tmp_path / "out.csv"
        records = run_ber_sweep(cfg)
        write_csv(path, records)
        return (path.read_bytes(), sum(r.bits for r in records) // cfg.block_bits,
                calls)

    def test_bit_capped_rounds_start_at_full_batches(self, monkeypatch,
                                                     tmp_path):
        """No tally can stop on errors before block ceil(min_errors /
        block_bits), so a bit-capped point skips the 1, 2, 4 ramp: its
        blocks go out in one round of the largest batch, each decoder is
        called ceil(blocks / batch) times, and the CSV is that of one
        block per call."""
        import mdsim.harness as harness
        from mdsim.conv_code import ConvCode
        from mdsim.equalizers import (
            PartitionSpec,
            build_std_trellis,
            viterbi_bytes,
        )
        from mdsim.matched_encoder import IsiResponse, build_matched_trellis

        cfg = parse_config("taps = 1,0.5,0.25\nschemes = MD,STD,RSSE(2)\n"
                           "ebn0_db = 6,8\nmin_errors = 1000000\n"
                           "max_bits = 2400\nblock_bits = 200\nseed = 4\n")
        blocks, steps = 12, 204
        code, isi = ConvCode(cfg.generators), IsiResponse(np.array(cfg.taps))
        block_bytes = {
            "MD": viterbi_bytes(build_matched_trellis(code, isi, 4).trellis,
                                steps),
            "STD": viterbi_bytes(build_std_trellis(code, isi, 4), steps),
            "MD-RSSE(4)": viterbi_bytes(PartitionSpec(2).window, steps)}
        # the smallest receiver takes all 12 blocks of a point in one call
        monkeypatch.setattr(harness, "BATCH_BYTES",
                            blocks * min(block_bytes.values()))
        batch = {k: harness.BATCH_BYTES // v for k, v in block_bytes.items()}
        assert 1 < batch["STD"] < batch["MD"] < blocks == batch["MD-RSSE(4)"]

        csv, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert len(calls) == 3 * 2
        for (label, _), sizes in calls.items():
            b = batch[label]
            assert sizes == [b] * (blocks // b) + [blocks % b] * (blocks % b > 0)
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        one_by_one, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert set(map(tuple, calls.values())) == {(1,) * blocks}
        assert one_by_one == csv

    def test_error_stopped_rounds_open_with_one_block(self, monkeypatch,
                                                      tmp_path):
        """With min_errors <= block_bits one block could stop a point, so
        every point still opens with a one-block round, then 2, 4, ..."""
        cfg = parse_config("taps = 1,0.5,0.25\nschemes = MD,STD\n"
                           "ebn0_db = 12,14\nmin_errors = 150\n"
                           "max_bits = 3000\nblock_bits = 200\n")
        _, _, calls = self.sweep_calls(monkeypatch, tmp_path, cfg)
        assert len(calls) == 2 * 2
        for sizes in calls.values():
            assert sizes[:3] == [1, 2, 4]

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
