#!/usr/bin/env python3
"""Receiver calls of one BER sweep, per scheme.

    python3 tools/sweep_calls.py --config examples_cfg/pam.cfg

Runs ``mdsim.harness.run_ber_sweep`` on ``--config`` with the library in
``src/`` of the checkout that holds this script, wrapping each
receiver's ``decode``, and prints one line per scheme: its decoder
calls, the blocks those calls decoded, the blocks its CSV rows count
(decoded minus counted were discarded past a stop) and the blocks of
each call in call order.  The CSV is not written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mdsim import harness  # noqa: E402


def sweep_calls(cfg) -> tuple[dict[str, list[int]], dict[str, int]]:
    """Per scheme, the blocks of each decoder call and the blocks that
    the sweep's records count."""
    calls: dict[str, list[int]] = {}
    build = harness._build_receivers

    def counted(receiver):
        sizes = calls.setdefault(receiver.scheme.label(), [])

        def decode(obs, n0):
            sizes.append(len(obs))
            return receiver.decode(obs, n0)
        return replace(receiver, decode=decode)

    harness._build_receivers = lambda *args: [counted(r) for r in build(*args)]
    try:
        records = harness.run_ber_sweep(cfg)
    finally:
        harness._build_receivers = build
    blocks: dict[str, int] = {}
    for r in records:
        blocks[r.scheme] = blocks.get(r.scheme, 0) + r.bits // cfg.block_bits
    return calls, blocks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="sweep config file")
    args = ap.parse_args(argv)
    cfg = harness.parse_config(Path(args.config).read_text(encoding="utf-8"))
    calls, counted = sweep_calls(cfg)
    print("scheme,calls,decoded,counted,call_sizes")
    for label, sizes in calls.items():
        print(f"{label},{len(sizes)},{sum(sizes)},{counted[label]},"
              + " ".join(map(str, sizes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
