#!/usr/bin/env python3
"""Run the benchmark twice over ten seeds and summarise each metric.

    python3 bench/baseline.py --out bench/baseline.json

For every workload in BENCHMARK.json this runs ``bench/run.py`` once per
seed in SEEDS with ``--trace 0``, one run at a time, and once more at
the first seed with ``--trace 1``; then it runs the untraced set again.
It prints every end-to-end metric by name with its unit, sample count,
median, quartiles and spread (interquartile range over median) next to
the metric's bound, and how far the second set's median lies from the
first's.  It exits 1 if any run failed its output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORK, environment

SEEDS = tuple(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    detail = WORK / f"{workload}-seed{seed}-trace{trace}" / "detail.json"
    samples = {}
    if detail.is_file():
        samples = {k: m["n"] for k, m in
                   json.loads(detail.read_text())["metrics"].items()}
    return {"seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": time.perf_counter() - t0, "samples": samples, **result}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write runs and summary as JSON here")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    report = {"run_seconds": seconds, "seeds": list(SEEDS),
              "env": environment(), "sets": []}
    ok = True
    for k in range(SETS):
        sets = {}
        for name in names:
            runs = [run_once(name, s, seconds, 0) for s in SEEDS]
            if k == 0:
                runs.append(run_once(name, SEEDS[0], seconds, 1))
            ok &= all(r["exit"] == 0 and r["correct"] for r in runs)
            attempted = sum(r.get("attempted", 0) for r in runs)
            failed = sum(r.get("failed", 0) for r in runs)
            print(f"set {k + 1}, {name}: {len(runs)} runs, "
                  f"{sum(not r['correct'] for r in runs)} not correct, "
                  f"failed_share {failed / max(attempted, 1):g} "
                  f"({failed} of {attempted} sweeps)", flush=True)
            summary = {}
            for m in spec["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r in runs
                        if r["trace"] == 0 and m["name"] in r["metrics"]]
                if len(vals) < 2:
                    continue
                s = summary[m["name"]] = summarise(vals)
                flag = ("steady" if s["spread"] < m["bound"] / 3 else
                        "within bound" if s["spread"] <= m["bound"] else "WIDE")
                if k:
                    first = report["sets"][0][name]["summary"][m["name"]]
                    s["vs_set1"] = s["median"] / first["median"] - 1
                    flag += f", median {s['vs_set1']:+.3f} vs set 1"
                per_run = statistics.median(r["samples"].get(m["name"], 0)
                                            for r in runs if r["trace"] == 0)
                print(f"  {m['name']:<12} {s['median']:>12.6g} {m['unit']:<3} "
                      f"runs={s['n']:<3} samples/run={per_run:<4g} "
                      f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                      f"spread={s['spread']:.3f} bound={m['bound']} {flag}",
                      flush=True)
            sets[name] = {"summary": summary, "runs": runs}
        report["sets"].append(sets)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
