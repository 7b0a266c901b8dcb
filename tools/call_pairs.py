#!/usr/bin/env python3
"""Parent-versus-change time of one receiver call, in one process.

    python3 tools/call_pairs.py --parent 8ef9ed4 --scheme STD --batch 15,17
    python3 tools/call_pairs.py --parent HEAD~ --scheme "RSSE(8)" --batch sweep,15
    python3 tools/call_pairs.py --parent HEAD~ --scheme MD \
        --config examples_cfg/cpm.cfg

Both sides are exported with ``git archive`` into one temporary
directory, as ``tools/bench_pairs.py`` exports them: the parent side is
the revision ``--parent``, the change side the checkout that holds this
script, as it stands.  Both packages are loaded into this process,
under the names ``mdsim_parent`` and ``mdsim_change``, and each builds
the receivers of ``--config`` (default ``examples_cfg/pam.cfg``) with
its own harness.  The blocks are the sweep's blocks at 10 dB for a PAM
chain and at 14 dB for a CPM chain (point 0 of a one-point config, the
whitening of a CPM chain calibrated where the config's own grid puts
it), made by the change's harness, so both sides decode the same
observations.  On ``examples_cfg/cpm.cfg`` those are the blocks of the
bench's cpm-md workload at seed 1.

``--scheme`` names one receiver as the CSV does, with or without its
``MD-`` prefix (``STD``, ``MD``, ``RSSE(8)``, ``DFSE(2)+VA``,
``BCJR+VA``).  ``--batch`` lists the blocks per call; ``sweep`` is the
receiver's batch in the config's sweep.  Per batch, one untimed call of
each side checks that they give the same bits and, for the Viterbi
receivers, the same metrics; then ``--pairs`` pairs of timed calls
follow, alternating which side runs first.  The output is one line per
batch: each side's median ms per call, and the median and quartiles of
the per-pair ratio change / parent.  The exit status is 1 when the sides
differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, change_commit, export, git  # noqa: E402

# the Eb/N0 of the blocks, by chain: on pam.cfg the point between the
# pam-viterbi workload's two, on cpm.cfg the cpm-md workload's point
EBN0_DB = {"pam_isi": 10.0, "cpm": 14.0}
# the harness functions whose DecodeResult carries a metric
VITERBI = ("viterbi_mlse", "rsse_decode")


def load(src: Path, name: str):
    """The ``mdsim`` package under ``src``, imported as ``name``; returns
    its harness module."""
    init = src / "mdsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{name}.harness")


def receiver(harness, cfg, label: str):
    """The receiver of ``cfg``'s scheme ``label``, built by ``harness``."""
    ctx = harness.resolve_chain(cfg, lambda msg: None)
    built = harness._build_receivers(ctx, cfg, lambda msg: None)
    for r in built:
        if r.scheme.label().removeprefix("MD-") == label.removeprefix("MD-"):
            return r
    raise SystemExit(f"no scheme {label!r} in the config: "
                     + ", ".join(r.scheme.label() for r in built))


def checked_call(harness, rec, obs, n0):
    """One call of ``rec``: its bits, and the metrics of every Viterbi
    decode it made (seen by wrapping the harness's decoders)."""
    seen = []
    saved = {name: getattr(harness, name) for name in VITERBI}
    for name, f in saved.items():
        setattr(harness, name,
                lambda *a, f=f, **k: seen.append(f(*a, **k)) or seen[-1])
    try:
        bits = rec.decode(obs, n0)
    finally:
        for name, f in saved.items():
            setattr(harness, name, f)
    return bits, [res.metric for res in seen]


def same_results(parent, change) -> bool:
    """Whether two ``checked_call`` results hold equal bits and metrics."""
    return (np.array_equal(parent[0], change[0])
            and len(parent[1]) == len(change[1])
            and all(map(np.array_equal, parent[1], change[1])))


def timed_pairs(recs: dict, obs, n0, pairs: int) -> dict[str, list[float]]:
    """Milliseconds of ``pairs`` calls of each side's receiver on ``obs``,
    alternating which side runs first."""
    ms = {side: [] for side in recs}
    for i in range(pairs):
        for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
            t0 = time.perf_counter()
            recs[side].decode(obs, n0)
            ms[side].append(1e3 * (time.perf_counter() - t0))
    return ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent git revision")
    ap.add_argument("--scheme", required=True, help="e.g. STD, MD, RSSE(8)")
    ap.add_argument("--batch", default="sweep",
                    help="comma-separated blocks per call, or 'sweep'")
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("--config", default="examples_cfg/pam.cfg",
                    help="sweep config, relative to the repository root")
    args = ap.parse_args(argv)
    if args.pairs < 2:  # the quartiles of the ratios need two
        ap.error("--pairs must be at least 2")

    differ = False
    commits = {"parent": git("rev-parse", args.parent),
               "change": change_commit()}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, commit in commits.items():
            export(commit, Path(tmp) / side)
            sides[side] = load(Path(tmp) / side / "src", f"mdsim_{side}")
        change = sides["change"]
        cfg = change.parse_config((ROOT / args.config)
                                  .read_text(encoding="utf-8"))
        ebn0_db = EBN0_DB[cfg.chain]
        if cfg.chain == "cpm" and cfg.calibration_ebn0_db is None:
            cfg = dataclasses.replace(cfg, calibration_ebn0_db=0.5 * (
                cfg.ebn0_db[0] + cfg.ebn0_db[-1]))
        cfg = dataclasses.replace(cfg, ebn0_db=(ebn0_db,))
        recs = {side: receiver(h, cfg, args.scheme)
                for side, h in sides.items()}
        ctx = change.resolve_chain(cfg, lambda msg: None)
        n0 = ctx.eb * 10.0 ** (-ebn0_db / 10.0)
        print(f"{recs['change'].scheme.label()}, {args.config} at "
              f"{ebn0_db:g} dB, "
              f"{args.pairs} pairs; ms per call, change / parent")
        for item in args.batch.split(","):
            batch = recs["change"].batch if item == "sweep" else int(item)
            obs = np.stack([change._make_block(ctx, cfg, n0, 0, i)[1]
                            for i in range(batch)])
            same = same_results(*(checked_call(sides[side], rec, obs, n0)
                                  for side, rec in recs.items()))
            differ |= not same
            ms = timed_pairs(recs, obs, n0, args.pairs)
            ratios = [c / p for p, c in zip(ms["parent"], ms["change"])]
            q1, med, q3 = statistics.quantiles(ratios, n=4,
                                               method="inclusive")
            print(f"B = {batch}: parent {statistics.median(ms['parent']):.2f}"
                  f" ms, change {statistics.median(ms['change']):.2f} ms, "
                  f"ratio {med:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
                  + ("same bits and metrics" if same else "RESULTS DIFFER"),
                  flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
