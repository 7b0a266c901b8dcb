"""Command-line interface: BER sweeps, whitening calibration, trellis
state accounting, and a decoder-equivalence self test.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .channel import make_rng, normal_from_uniform
from .conv_code import ConvCode, parse_octal_generators
from .equalizers import build_std_trellis, compensate_edges, viterbi_mlse
from .harness import (
    ConfigError,
    SimConfig,
    parse_config,
    resolve_chain,
    run_ber_sweep,
    write_csv,
)
from .matched_encoder import (
    IsiResponse,
    build_matched_trellis,
    matched_encode,
    serial_reference,
    state_counts,
)
from .whitening import save_whitening_design


def _cmd_trellis(args) -> int:
    try:
        code = ConvCode(parse_octal_generators(args.code))
    except ValueError as exc:
        raise ConfigError(f"--code: {exc}") from exc
    try:
        lo, sep, hi = args.L.partition("..")
        ls = range(int(lo), int(hi if sep else lo) + 1)
        if not ls:
            raise ValueError(f"empty range {args.L}")
        rows = [(L, *state_counts(code.nu, code.n, L)) for L in ls]
    except ValueError as exc:
        raise ConfigError(f"--L: {exc}") from exc
    for L, z_std, z_md, gain in rows:
        prefix = f"L={L} " if len(rows) > 1 else ""
        print(f"{prefix}Z_STD={z_std} Z_MD={z_md} G={gain}")
    return 0


def _load_config(path) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _check_writable(path) -> None:
    """Raise OSError if ``path`` cannot be written, before the work whose
    result goes there; no file is left where there was none."""
    existed = os.path.lexists(path)
    open(path, "a", encoding="ascii").close()
    if not existed:
        os.remove(path)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    out = args.output or cfg.output
    _check_writable(out)
    records = run_ber_sweep(cfg, log=_log)
    write_csv(out, records, with_timing=args.timing)
    _log(f"wrote {len(records)} records to {out}")
    return 0


def _cmd_calibrate(args) -> int:
    """Calibrate as a sweep of the config does when it has no
    ``whitening_file``, and save the noise measurement."""
    cfg = _load_config(args.config)
    if cfg.chain != "cpm":
        raise ConfigError("config key 'chain': calibration needs chain = cpm")
    _check_writable(args.output)
    ctx = resolve_chain(replace(cfg, whitening_file=None), _log)
    save_whitening_design(args.output, ctx.whitening)
    _log(f"wrote whitening design to {args.output}")
    return 0


def _cmd_selftest(args) -> int:
    """Decoder-equivalence suite: merged-trellis encoder vs the serial
    chain, and identical decisions of the merged and super trellises."""
    if args.seeds < 1:
        raise ConfigError(f"--seeds: need at least 1 trial, got {args.seeds}")
    rng = make_rng(123)
    code = ConvCode(parse_octal_generators("5,7"))
    failures = 0
    for trial in range(args.seeds):
        taps = np.array([1.0]) if trial % 5 == 0 else None
        if taps is None:
            L = 1 + trial % 2
            taps = np.concatenate([[1.0], 0.6 * (rng.random(L) - 0.3)])
        isi = IsiResponse(taps)
        mt = build_matched_trellis(code, isi, 4)
        std = build_std_trellis(code, isi, 4)
        bits = (rng.random(200) < 0.5).astype(np.int64)
        flush = np.zeros(code.nu + isi.L, dtype=np.int64)
        tx = np.concatenate([bits, flush])
        ref = serial_reference(code, isi, 4, tx)
        enc = matched_encode(mt, tx)
        if np.max(np.abs(ref - enc)) > 1e-12:
            print(f"FAIL trial {trial}: encoder mismatch", file=sys.stderr)
            failures += 1
            continue
        sigma = 0.8
        obs = ref + sigma * normal_from_uniform(make_rng(1000 + trial), ref.size)
        obs = compensate_edges(obs, isi.taps, 4)
        r_md = viterbi_mlse(mt.trellis, obs, end_state=0)
        r_std = viterbi_mlse(std, obs, end_state=0)
        if not np.array_equal(r_md.bits, r_std.bits):
            print(f"FAIL trial {trial}: MD/STD decisions differ", file=sys.stderr)
            failures += 1
        elif abs(r_md.metric - r_std.metric) > 1e-9:
            print(f"FAIL trial {trial}: metric mismatch", file=sys.stderr)
            failures += 1
    if failures:
        print(f"selftest: {failures}/{args.seeds} trials failed", file=sys.stderr)
        return 2
    print(f"selftest: {args.seeds} trials passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdsim",
        description="Matched decoding over ISI channels: trellis state "
                    "accounting, whitening calibration, and BER sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trellis", help="print super/merged trellis state counts")
    p.add_argument("--code", required=True, help="octal generators, e.g. 5,7")
    p.add_argument("--L", required=True, help="channel memory (int or a..b)")
    p.set_defaults(func=_cmd_trellis)

    p = sub.add_parser("sweep", help="run a Monte-Carlo BER sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="override config output path")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds in the CSV "
                        "(breaks byte-for-byte reproducibility)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="measure noise and design whitening")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="design file to write")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("selftest", help="run the decoder-equivalence suite")
    p.add_argument("--seeds", type=int, default=25)
    p.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
