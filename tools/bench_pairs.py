#!/usr/bin/env python3
"""Parent-versus-change benchmark pairs, written to a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent 07c3992 --out BENCH_pr6.json \
        --workloads cpm-md,pam-viterbi,pam-serial,cpm-md:5

Both sides are exported with ``git archive`` into one temporary
directory, so that each holds exactly one commit's files and both run
from the same kind of place: the parent side is the revision
``--parent``; the change side is the checkout that holds this script,
as it stands, by the commit ``git stash create`` makes of its tracked
changes (its HEAD when it has none).  An untracked file under ``src/``,
``bench/`` or ``tools/`` would be left out of that export, so the
script stops on one.  Each side runs its own ``bench/run.py`` in a fresh
process.  For every workload the runs go in pairs, alternating which
side runs first, and every pair uses the same seed and the run length
``run_seconds`` of BENCHMARK.json.  There are ``PAIRS`` pairs.

The output holds, per workload and seed and per end-to-end metric of
BENCHMARK.json, each side's runs, median and quartiles and the number of
pairs the change won (ties count for neither side), as well as the
seeds, the failed counts, each run's probed and timed sweeps, and the
environment each side's bench reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` under ``dest``."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                       stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def change_commit() -> str:
    """The commit of the checkout as it stands: the one ``git stash
    create`` makes of its tracked changes, without touching the working
    tree, or HEAD when it has none.  Stops, naming the file, when an
    untracked file under a directory that a bench or call run reads its
    code from would be left out of its export."""
    for line in git("status", "--porcelain").splitlines():
        if line.startswith("?? ") and line[3:].startswith(
                ("src/", "bench/", "tools/")):
            raise SystemExit(f"error: untracked file {line[3:]} would be "
                             "left out of the change side; add or remove it")
    return git("stash", "create") or git("rev-parse", "HEAD")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its result line, reported environment,
    and from its detail record the sweeps it timed and how many of them
    took a host-speed probe (an unprobed sweep reports raw wall time)."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")),
               None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    detail = next((Path(ln.rpartition("detail in ")[2]) for ln in lines
                   if "detail in " in ln), None)
    sweeps = (json.loads(detail.read_text(encoding="utf-8"))["sweeps"]
              if detail and detail.is_file() else [])
    if proc.returncode:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"exit": proc.returncode, "env": env, "sweeps": len(sweeps),
            "probed_sweeps": sum(s["probes"] > 0 for s in sweeps), **result}


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent git revision")
    ap.add_argument("--out", required=True, help="BENCH_*.json to write")
    ap.add_argument("--workloads", default="cpm-md,pam-viterbi,pam-serial",
                    help="comma-separated WORKLOAD or WORKLOAD:SEED; the "
                         "default seed is that of the workload's reference "
                         "digest in bench/reference.json")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    reference = json.loads((ROOT / "bench" / "reference.json")
                           .read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    commits = {"parent": git("rev-parse", args.parent),
               "change": change_commit()}
    out = {
        "parent": {"rev": args.parent, "commit": commits["parent"]},
        "change": {"head": git("rev-parse", "HEAD"),
                   "commit": commits["change"]},
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds:g}",
        "pairs": PAIRS,
        "seeds": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(commit, sides[side])
        for item in args.workloads.split(","):
            workload, _, seed = item.partition(":")
            seed = int(seed) if seed else reference[workload]["seed"]
            key = f"{workload} seed {seed}"
            out["seeds"][key] = seed
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    t0 = time.perf_counter()
                    runs[side].append(bench(sides[side], workload, seed,
                                            seconds))
                    print(f"{key} pair {i + 1}/{PAIRS} {side}: "
                          f"{time.perf_counter() - t0:.0f} s, "
                          f"{json.dumps(runs[side][-1]['metrics'])}",
                          file=sys.stderr, flush=True)
            out["workloads"][key] = report(runs, metrics)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n",
                              encoding="utf-8")
    return 0


def report(runs: dict[str, list[dict]], metrics: dict[str, dict]) -> dict:
    """Per-metric summaries and win counts of one workload's pairs."""
    row = {side: {"failed": sum(r["failed"] for r in rs),
                  "attempted": sum(r["attempted"] for r in rs),
                  "incorrect_runs": sum(not r["correct"] for r in rs),
                  "probed_sweeps": [f"{r['probed_sweeps']}/{r['sweeps']}"
                                    for r in rs],
                  "env": rs[0]["env"]}
           for side, rs in runs.items()}
    row["metrics"] = {}
    for name, m in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in rs
                         if name in r["metrics"]]
                  for side, rs in runs.items()}
        if not all(values.values()):
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        row["metrics"][name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": summary(values["parent"]),
            "change": summary(values["change"]),
            "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "pairs": len(pairs),
        }
    return row


if __name__ == "__main__":
    sys.exit(main())
