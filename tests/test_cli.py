import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdsim
from mdsim.cli import main
from mdsim.harness import SimConfig, parse_config


def test_trellis_single_row(capsys):
    assert main(["trellis", "--code", "5,7", "--L", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "Z_STD=1024 Z_MD=64 G=16"


def test_trellis_range(capsys):
    assert main(["trellis", "--code", "5,7", "--L", "0..4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "L=0 Z_STD=4 Z_MD=4 G=1",
        "L=1 Z_STD=16 Z_MD=8 G=2",
        "L=2 Z_STD=64 Z_MD=16 G=4",
        "L=3 Z_STD=256 Z_MD=32 G=8",
        "L=4 Z_STD=1024 Z_MD=64 G=16",
    ]


def test_trellis_big_code(capsys):
    assert main(["trellis", "--code", "133,171", "--L", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Z_STD=4096 Z_MD=512 G=8"


@pytest.mark.parametrize("code, L, flag", [
    ("5,0", "2", "--code"), ("9", "2", "--code"), ("5,7", "x", "--L"),
    ("5,7", "-1", "--L"), ("5,7", "3..1", "--L"), ("5,7", "1..", "--L"),
])
def test_trellis_bad_flag_is_error(capsys, code, L, flag):
    assert main(["trellis", "--code", code, "--L", L]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag}:")


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


def test_pam_sweep_imports_no_scipy(tmp_path):
    """Only the CPM chain calls scipy, so a process that sweeps a PAM
    chain from the CLI never imports scipy.signal or scipy.linalg."""
    cfg = tmp_path / "pam.cfg"
    cfg.write_text(
        "chain = pam_isi\ncode = 5,7\ntaps = 1,0.5\n"
        "schemes = MD,STD,RSSE(2),DFSE(1)+VA,BCJR+VA\nebn0_db = 9\n"
        "min_errors = 10\nmax_bits = 2000\nblock_bits = 500\nseed = 4\n"
        f"output = {tmp_path / 'out.csv'}\n")
    script = ("import sys\nfrom mdsim.cli import main\n"
              f"assert main(['sweep', '--config', {str(cfg)!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(mdsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    assert "scipy.signal" not in loaded and "scipy.linalg" not in loaded


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


@pytest.mark.parametrize("schemes", ["MD,MD", "BCJR(3)+VA"])
def test_sweep_scheme_outside_grammar_is_config_error(tmp_path, capsys,
                                                       schemes):
    # a scheme listed twice would write each of its rows twice, and
    # BCJR(m)+VA would set the BCJR memory beside bcjr_memory
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(f"chain = pam_isi\ntaps = 1,0.5\nschemes = {schemes}\n"
                   "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n"
                   f"output = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "'schemes'" in capsys.readouterr().err
    assert not out.exists()


def _sweep_with_design(tmp_path, edit=lambda lines: lines, L_nw=1):
    """Exit code of a cpm sweep at ``L_nw`` reading a saved two-lag noise
    measurement whose lines went through ``edit``; the sweep writes
    ``tmp_path / "out.csv"``."""
    from types import SimpleNamespace

    from mdsim.whitening import save_whitening_design

    path = tmp_path / "design.txt"
    save_whitening_design(path, SimpleNamespace(noise_acf=[1.0, 0.3],
                                                noise_variance=0.5,
                                                calibration_ebn0_db=10.0))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    cfg = tmp_path / "cpm.cfg"
    cfg.write_text(f"chain = cpm\ncutoff = 0.75\nL_nw = {L_nw}\n"
                   f"whitening_file = {path}\n"
                   "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n"
                   f"output = {tmp_path / 'out.csv'}\n")
    return main(["sweep", "--config", str(cfg)])


def _sweep_with_design_lacking(key, tmp_path):
    """Exit code of a cpm sweep whose design file lacks ``key``."""
    return _sweep_with_design(tmp_path, lambda lines: [
        ln for ln in lines if not ln.startswith(key + " ")])


def _older_format(lines, **edits):
    """Design-file lines in the older formats, which also stored the arrays
    now derived from the config: the pulse autocorrelation ``acf`` and its
    factor ``b``, the whitening filter ``f`` and its ``reflection``
    coefficients, ``order``, ``p`` and ``overall``.  Their values are the
    ones derived for the default 3RC config at order 1, or ``edits``."""
    from mdsim.whitening import sampled_pulse_acf, spectral_factorize, yule_walker

    def fmt(arr):
        return ",".join(f"{v:.17g}" for v in arr)

    kv = dict(ln.split(" = ") for ln in lines)
    acf = sampled_pulse_acf(SimConfig(chain="cpm").cpm_params())
    b = spectral_factorize(acf)
    phi = [float(v) for v in kv["noise_acf"].split(",")]
    f = yule_walker(phi, 1)
    kv.update(order="1", acf=fmt(acf), b=fmt(b), p=fmt(-f[1:]), f=fmt(f),
              reflection=fmt([phi[1] / phi[0]]),  # the order-1 coefficient
              overall=fmt(np.convolve(b, f)))
    kv.update(edits)
    return [f"{key} = {kv[key]}" for key in (
        "order", "noise_variance", "calibration_ebn0_db", "acf", "b",
        "noise_acf", "p", "f", "reflection", "overall")]


def test_sweep_rejects_design_file_without_calibration_point(tmp_path, capsys):
    assert _sweep_with_design_lacking("calibration_ebn0_db", tmp_path) == 1
    err = capsys.readouterr().err
    assert "'whitening_file'" in err
    assert "mdsim calibrate" in err


@pytest.mark.parametrize("key", ["noise_acf"])
def test_sweep_rejects_design_file_without_array(tmp_path, capsys, key):
    assert _sweep_with_design_lacking(key, tmp_path) == 1
    err = capsys.readouterr().err
    assert "'whitening_file'" in err
    assert f"has no {key};" in err


@pytest.mark.parametrize("line", ["noise_variance = nan", "noise_variance = 0",
                                  "calibration_ebn0_db = nan",
                                  "noise_acf = 1,nan"])
def test_sweep_rejects_design_file_value(tmp_path, capsys, line):
    key = line.split()[0]
    assert _sweep_with_design(tmp_path, lambda lines: [
        line if ln.startswith(key + " ") else ln for ln in lines]) == 1
    err = capsys.readouterr().err
    assert "'whitening_file'" in err
    assert key in err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_decodes_with_derived_overall_isi(tmp_path):
    # edited acf, b, f and overall lines of an older file are not read
    assert _sweep_with_design(tmp_path) == 0
    derived = (tmp_path / "out.csv").read_text()
    assert _sweep_with_design(tmp_path, lambda lines: _older_format(
        lines, acf="0.5,1,0.5", b="1,0.5", f="1,-0.9",
        overall="1,0.5")) == 0
    assert (tmp_path / "out.csv").read_text() == derived


def test_sweep_reads_older_format_design_file(tmp_path):
    # a file holds the measurement alone; files with the derived arrays
    # still load, to the same CSV
    assert _sweep_with_design(tmp_path) == 0
    new = (tmp_path / "out.csv").read_text()
    keys = [ln.partition("=")[0].strip()
            for ln in (tmp_path / "design.txt").read_text().splitlines()]
    assert keys == ["noise_variance", "calibration_ebn0_db", "noise_acf"]
    assert _sweep_with_design(tmp_path, _older_format) == 0
    assert (tmp_path / "out.csv").read_text() == new


def test_sweep_rejects_design_file_with_too_few_lags(tmp_path, capsys):
    # the file's two noise lags cannot make a whitening filter of order 2
    assert _sweep_with_design(tmp_path, L_nw=2) == 1
    err = capsys.readouterr().err
    assert "'whitening_file'" in err
    assert "need 3 autocorrelation lags, got 2" in err
    assert not (tmp_path / "out.csv").exists()


def test_design_file_sweeps_at_config_order(tmp_path):
    """A file calibrated at L_nw = 3 sweeps an L_nw = 1 config to the CSV
    of an inline calibration at L_nw = 1; at order 3 the row differs."""
    base = ("chain = cpm\ncutoff = 0.75\ncalibration_symbols = 3000\n"
            "schemes = MD\nebn0_db = 12\nmax_bits = 1000\nblock_bits = 1000\n")
    cfg, out, design = (tmp_path / n for n in ("c.cfg", "out.csv", "d.txt"))

    def sweep(lines):
        cfg.write_text(base + lines)
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        return out.read_text()

    cfg.write_text(base + "L_nw = 3\n")
    assert main(["calibrate", "--config", str(cfg), "--output", str(design)]) == 0
    inline = sweep("L_nw = 1\n")
    assert sweep(f"L_nw = 1\nwhitening_file = {design}\n") == inline
    assert sweep(f"L_nw = 3\nwhitening_file = {design}\n") != inline


@pytest.mark.parametrize("command", ["sweep", "calibrate"])
@pytest.mark.parametrize("symbols", [0, -5, 60])
def test_too_few_calibration_symbols_is_config_error(tmp_path, capsys,
                                                     command, symbols):
    # two 32-symbol guards at L_cpm = 3, wmf_len = 20 leave no noise lag
    out = tmp_path / "out.txt"
    cfg = tmp_path / "cpm.cfg"
    cfg.write_text("chain = cpm\nL_cpm = 3\nwmf_len = 20\ncutoff = 0.75\n"
                   f"calibration_symbols = {symbols}\nschemes = MD\n"
                   "ebn0_db = 12\nmax_bits = 500\nblock_bits = 500\n")
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    assert "'calibration_symbols'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("chain, line, key", [
    ("cpm", "L_nw = -1", "L_nw"),
    ("cpm", "wmf_len = 0", "wmf_len"),
    ("pam_isi", "bcjr_memory = -1", "bcjr_memory"),
    ("cpm", "N_os = 4", "N_os"),
    ("cpm", "h_index = 1/0", "h_index"),
    ("cpm", "h_index = 0", "h_index"),
    ("pam_isi", "ebn0_db = nan", "ebn0_db"),
    ("pam_isi", "ebn0_db = -4000", "ebn0_db"),  # N0 beyond float range
    ("cpm", "calibration_ebn0_db = nan", "calibration_ebn0_db"),
    ("cpm", "calibration_ebn0_db = 4000", "calibration_ebn0_db"),  # N0 = 0
    ("cpm", "calibration_ebn0_db = -4000", "calibration_ebn0_db"),
    ("cpm", "isi_trim = 2", "isi_trim"),
    ("pam_isi", "isi_trim = -1", "isi_trim"),
    ("pam_isi", "taps = 0,1", "taps"),
    ("pam_isi", "taps = 1,nan", "taps"),
    ("pam_isi", "code = 5,0", "code"),
    ("pam_isi", "seed = -1", "seed"),
    ("cpm", "cutoff = 0", "cutoff"),
    ("cpm", "cutoff = -1", "cutoff"),
    ("cpm", "cutoff = 100", "cutoff"),
    ("cpm", "cutoff = nan", "cutoff"),
])
def test_sweep_out_of_range_value_is_config_error(tmp_path, capsys,
                                                  chain, line, key):
    # the line under test comes last, so it overrides a default above
    out = tmp_path / "out.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"chain = {chain}\nschemes = MD,BCJR+VA\n"
                   "ebn0_db = 10\nmax_bits = 500\nblock_bits = 500\n"
                   "cutoff = 0.75\ncalibration_symbols = 2000\n"
                   f"output = {out}\n{line}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_selftest(capsys):
    assert main(["selftest", "--seeds", "6"]) == 0
    assert "passed" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_selftest_without_trials_is_error(capsys, seeds):
    assert main(["selftest", "--seeds", seeds]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --seeds:")


@pytest.mark.parametrize("command", ["sweep", "calibrate"])
def test_unwritable_output_is_runtime_error(tmp_path, capsys, monkeypatch,
                                            command):
    # the output is checked before any calibration or decoding runs
    import mdsim.harness
    import mdsim.whitening

    ran = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            ran.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((mdsim.whitening, "estimate_noise_acf"),
                      (mdsim.harness, "viterbi_mlse")):
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    cfg = tmp_path / "cpm.cfg"
    cfg.write_text("chain = cpm\ncutoff = 0.75\ncalibration_symbols = 2000\n"
                   "schemes = MD\nebn0_db = 12\nmax_bits = 500\n"
                   "block_bits = 500\n")
    out = tmp_path / "missing" / "out.txt"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert ran == []


def test_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch):
    def no_memory(cfg, log):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr("mdsim.cli.run_ber_sweep", no_memory)
    cfg = tmp_path / "pam.cfg"
    cfg.write_text(f"chain = pam_isi\noutput = {tmp_path / 'out.csv'}\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"


@pytest.mark.parametrize("command", ["sweep", "calibrate"])
def test_output_check_leaves_no_file_behind(tmp_path, command):
    # a config error after the output check leaves no output file
    cfg = tmp_path / "cpm.cfg"
    cfg.write_text("chain = cpm\ncutoff = 0.75\ncalibration_symbols = 20\n")
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    assert not out.exists()


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

    keys = [ln.partition("=")[0].strip()
            for ln in design_path.read_text().splitlines()]
    assert keys == ["noise_variance", "calibration_ebn0_db", "noise_acf"]
    params = parse_config(cfg.read_text()).cpm_params()
    design = load_whitening_design(design_path, params, 2, 20)
    assert design.f.size == 3
    assert design.overall is not None
    np.testing.assert_allclose(design.f[0], 1.0)
