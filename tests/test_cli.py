import numpy as np
import pytest

from mdsim.cli import main


def test_trellis_single_row(capsys):
    assert main(["trellis", "--code", "5,7", "--n", "2", "--L", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "Z_STD=1024 Z_MD=64 G=16"


def test_trellis_range(capsys):
    assert main(["trellis", "--code", "5,7", "--n", "2", "--L", "0..4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "L=0 Z_STD=4 Z_MD=4 G=1",
        "L=1 Z_STD=16 Z_MD=8 G=2",
        "L=2 Z_STD=64 Z_MD=16 G=4",
        "L=3 Z_STD=256 Z_MD=32 G=8",
        "L=4 Z_STD=1024 Z_MD=64 G=16",
    ]


def test_trellis_big_code(capsys):
    assert main(["trellis", "--code", "133,171", "--n", "2", "--L", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Z_STD=4096 Z_MD=512 G=8"


def test_sweep_missing_config_fails():
    assert main(["sweep", "--config", "/nonexistent/cfg"]) == 1


def test_sweep_bad_key_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 42\n")
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_sweep_runs_small_config(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(
        "chain = pam_isi\ncode = 5,7\ntaps = 1,0.5\nschemes = MD,RSSE(2)\n"
        "ebn0_db = 9\nmin_errors = 10\nmax_bits = 5000\nblock_bits = 500\n"
        f"seed = 4\noutput = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scheme,states")
    assert len(lines) == 3


def test_sweep_without_runnable_scheme_is_config_error(tmp_path, capsys):
    # STD (16 states) is above the cap, which disables it
    cfg = tmp_path / "none.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text("chain = pam_isi\ntaps = 1,0.5\nschemes = STD\n"
                   f"state_cap = 8\noutput = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "'schemes'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rsse_beyond_memory_is_config_error(tmp_path, capsys):
    # RSSE(9) keeps more bits than the merged trellis has (nu + L = 3);
    # the sweep must fail instead of writing the MD rows alone
    cfg = tmp_path / "rsse9.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text("chain = pam_isi\ntaps = 1,0.5\nschemes = MD,RSSE(9)\n"
                   "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n"
                   f"output = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "'schemes'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_code_alphabet_mismatch_is_config_error(tmp_path, capsys):
    # a 2-output code cannot drive 8-ary symbols, not even behind DFSE
    cfg = tmp_path / "m8.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text("chain = pam_isi\nM = 8\ncode = 5,7\n"
                   f"schemes = MD,DFSE(1)+VA\noutput = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "'M'" in capsys.readouterr().err
    assert not out.exists()


def _sweep_with_design_lacking(key, tmp_path):
    """Exit code of a cpm sweep whose design file lacks ``key``."""
    from mdsim.whitening import (
        save_whitening_design,
        spectral_factorize,
        yule_walker,
    )

    fact = spectral_factorize([0.25, 1.0, 0.25])
    design = yule_walker([1.0, 0.3], 1).with_overall(fact.b)
    path = tmp_path / "design.txt"
    save_whitening_design(path, design, fact)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(ln for ln in lines
                              if not ln.startswith(key + " ")))
    cfg = tmp_path / "cpm.cfg"
    cfg.write_text(f"chain = cpm\ncutoff = 0.75\nwhitening_file = {path}\n"
                   "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n"
                   f"output = {tmp_path / 'out.csv'}\n")
    return main(["sweep", "--config", str(cfg)])


def test_sweep_rejects_design_file_without_calibration_point(tmp_path, capsys):
    assert _sweep_with_design_lacking("calibration_ebn0_db", tmp_path) == 1
    err = capsys.readouterr().err
    assert "'whitening_file'" in err
    assert "mdsim calibrate" in err


def test_sweep_rejects_design_file_without_order(tmp_path, capsys):
    assert _sweep_with_design_lacking("order", tmp_path) == 1
    err = capsys.readouterr().err
    assert "'whitening_file'" in err
    assert "has no order" in err


@pytest.mark.parametrize("key", ["f", "p", "noise_acf", "reflection", "acf",
                                 "b", "overall"])
def test_sweep_rejects_design_file_without_array(tmp_path, capsys, key):
    assert _sweep_with_design_lacking(key, tmp_path) == 1
    err = capsys.readouterr().err
    assert "'whitening_file'" in err
    assert f"has no {key};" in err


@pytest.mark.parametrize("chain, line, key", [
    ("cpm", "L_nw = -1", "L_nw"),
    ("cpm", "wmf_len = 0", "wmf_len"),
    ("pam_isi", "bcjr_memory = -1", "bcjr_memory"),
    ("cpm", "N_os = 4", "N_os"),
])
def test_sweep_out_of_range_value_is_config_error(tmp_path, capsys,
                                                  chain, line, key):
    out = tmp_path / "out.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"chain = {chain}\n{line}\nschemes = MD,BCJR+VA\n"
                   "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n"
                   "cutoff = 0.75\ncalibration_symbols = 2000\n"
                   f"output = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_selftest(capsys):
    assert main(["selftest", "--seeds", "6"]) == 0
    assert "passed" in capsys.readouterr().out


def test_calibrate_requires_cpm_chain(tmp_path):
    cfg = tmp_path / "pam.cfg"
    cfg.write_text("chain = pam_isi\nebn0_db = 5,7\n")
    assert main(["calibrate", "--config", str(cfg),
                 "--output", str(tmp_path / "d.txt")]) == 1


@pytest.mark.slow
def test_calibrate_writes_design(tmp_path):
    cfg = tmp_path / "cpm.cfg"
    cfg.write_text(
        "chain = cpm\ncode = 5,7\npulse = LRC\nh_index = 1/4\nL_cpm = 3\n"
        "N_os = 8\nL_nw = 2\nebn0_db = 10,15\ncalibration_symbols = 50000\n")
    design_path = tmp_path / "design.txt"
    assert main(["calibrate", "--config", str(cfg),
                 "--output", str(design_path)]) == 0
    from mdsim.whitening import load_whitening_design

    design, fact = load_whitening_design(design_path)
    assert design.f.size == 3
    assert design.overall is not None
    np.testing.assert_allclose(design.f[0], 1.0)
