#!/usr/bin/env python3
"""mdsim benchmark: timed Monte-Carlo BER sweeps with output checks.

    python3 bench/run.py --workload pam-viterbi --seed 7 --seconds 30 --trace 0

Each run calls ``mdsim.harness.run_ber_sweep`` on a generated config,
in this process, as often as ``--seconds`` allows, and checks every
sweep's CSV.  With ``--trace 0`` it reports the end-to-end metrics named
in ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and
traced sweeps of one config and reports the per-layer metrics from the
spans of ``bench/tracer.py``.  The library is imported from ``src/`` of
the checkout that holds this file; without it the run fails.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted`` counts ``run_ber_sweep`` calls (set-up probes included) and
``failed`` the calls that raised or whose output check failed; the run
exits 1 when any failed.

The host's speed drifts, so end-to-end times are wall seconds with the
speed probes (``speed_probe``) left out, scaled to the host speed at
which one probe takes ``PROBE_REF_S``.  A detail record (environment,
samples, unscaled times, slowdowns, digests) and, for traced runs, the
spans go to ``.bench_build/mdsim-bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "mdsim-bench"

# The chain of examples_cfg/pam.cfg: 4-state code over a 5-tap ISI channel.
PAM_CHAIN = """chain = pam_isi
code = 5,7
M = 4
taps = 1,0.6,0.36,0.216,0.1296
block_bits = 1000
"""

# The chain of examples_cfg/cpm.cfg, with its whitening calibrated inline
# at the midpoint of that file's grid (11 dB).
CPM_CHAIN = """chain = cpm
code = 5,7
M = 4
pulse = LRC
h_index = 1/4
L_cpm = 3
N_os = 8
L_nw = 1
calibration_ebn0_db = 11
block_bits = 1000
"""


@dataclass(frozen=True)
class Workload:
    body: str  # config text without seed and output
    bit_capped: bool = False  # every point must stop on max_bits


# Why each workload exists, and which layers it stresses and bypasses,
# is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    # The paper's state ladder, MD(64) / STD(1024) / RSSE(8) / RSSE(16),
    # over identical blocks; min_errors is unreachable, so both points do
    # equal work and every decoded block is counted.
    "pam-viterbi": Workload(PAM_CHAIN + """schemes = MD,STD,RSSE(3),RSSE(4)
ebn0_db = 10,12
min_errors = 1000000000
max_bits = 15000
""", bit_capped=True),
    # The serial receivers of pam.cfg at its grid and stop rule: every
    # point stops on 200 errors after a few blocks, and at seed 7 the rows
    # equal those of pam.cfg.
    "pam-serial": Workload(PAM_CHAIN + """schemes = DFSE(2)+VA,BCJR+VA
ebn0_db = 8,10,12
min_errors = 200
max_bits = 300000
"""),
    # The only workload with the CPM front end, WMF, whitening and inline
    # calibration.
    "cpm-md": Workload(CPM_CHAIN + """schemes = MD
ebn0_db = 14
min_errors = 1000000000
max_bits = 300000
""", bit_capped=True),
}

FRONT_END = {
    "conv_code.conv_encode", "channel.fir_awgn_channel",
    "equalizers.compensate_edges", "cpm.transmit_receive", "cpm.cpm_modulate",
    "cpm.add_waveform_awgn", "cpm.receive_lowpass", "cpm.diff_demodulate",
    "cpm.matched_filter_downsample", "whitening.apply_wmf",
    "whitening.apply_whitening",
}
ROOT_SPAN = "harness.run_ber_sweep"
# Set-up probes run between sweeps, so that they sample the whole run:
# about this share of the median sweep's time, at least one per gap, and
# in the time left when no further sweep fits.
SETUP_SHARE = 0.15
MAX_SETUP_PROBES = 100
MAX_SWEEPS = 1000
# The host's speed drifts by up to 1.4x within seconds, which moved the
# unscaled sweep times of ten runs by 10-20% (interquartile range over
# median).  Untraced sweeps therefore run a fixed speed probe at the start
# of a block at most every PROBE_GAP_S, counting from the first block,
# leave its time out of the sweep, and report times scaled to the host
# speed at which one probe takes PROBE_REF_S: a sweep's time is divided
# by its mean probe time over PROBE_REF_S, and set-up times by the mean
# over all sweeps of the run.  Probes next to set-up read slow after the
# large-array work of the CPM calibration, so set-up has none of its own.
PROBE_GAP_S = 0.1
PROBE_REF_S = 0.003


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreted and small-array numpy
    work, the instruction mix of the trellis loops.  It allocates no
    object the garbage collector tracks, so its time does not depend on
    the program's heap."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(16000):
        acc += i * i % 7
    a = np.zeros(64)
    b = np.arange(64.0)
    for _ in range(800):
        a = np.minimum(a + b, a[::-1])
    return time.perf_counter() - t0


def scheme_key(label: str) -> str:
    """CSV scheme label as a metric-name part: MD-RSSE(8) -> MD-RSSE8."""
    return label.replace("(", "").replace(")", "").replace("+", "-")


class _SetupDone(Exception):
    """Ends a set-up probe at the first block."""


@dataclass
class Sweep:
    seed: int
    setup_s: float = float("nan")  # wall seconds
    sweep_s: float = float("nan")  # wall seconds, speed probes left out
    probes: list[float] = field(default_factory=list)  # speed-probe seconds
    records: list = field(default_factory=list)
    csv_blocks: int = 0  # blocks the CSV counts, over schemes and points
    csv: bytes = b""
    problems: list[str] = field(default_factory=list)

    def slowdown(self) -> float:
        """Mean probe time over PROBE_REF_S."""
        return statistics.fmean(self.probes) / PROBE_REF_S if self.probes else 1.0


class Runner:
    """Runs sweeps of one workload and collects their samples."""

    def __init__(self, name: str, workload: Workload, harness, run_dir: Path):
        self.name = name
        self.workload = workload
        self.harness = harness
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []

    def config(self, seed: int):
        path = self.run_dir / f"seed{seed}.cfg"
        path.write_text(self.workload.body + f"seed = {seed}\n"
                        f"output = {self.run_dir / f'seed{seed}.csv'}\n",
                        encoding="ascii")
        return self.harness.parse_config(path.read_text(encoding="ascii"))

    def sweep(self, seed: int, *, setup_only: bool = False,
              tracer=None) -> Sweep:
        """One run_ber_sweep call; set-up ends at the first conv_encode.
        Untraced full sweeps run speed probes (see PROBE_GAP_S)."""
        h = self.harness
        out = Sweep(seed)
        self.attempted += 1
        inner = h.conv_encode
        probing = tracer is None
        first_block: list[float] = []
        last_probe = [0.0]

        def per_block(*args, **kwargs):
            now = time.perf_counter()
            if not first_block:
                first_block.append(now)
                last_probe[0] = now
                if setup_only:
                    raise _SetupDone
            elif probing and now - last_probe[0] >= PROBE_GAP_S:
                out.probes.append(speed_probe())
                last_probe[0] = time.perf_counter()
            return inner(*args, **kwargs)

        try:
            cfg = self.config(seed)
            logs: list[str] = []
            h.conv_encode = per_block
            root = tracer.begin(ROOT_SPAN) if tracer else None
            t0 = time.perf_counter()
            try:
                out.records = h.run_ber_sweep(cfg, log=logs.append)
            except _SetupDone:
                pass
            finally:
                t1 = time.perf_counter()
                if tracer:
                    tracer.end(root)
                h.conv_encode = inner
            if not first_block:
                raise RuntimeError("the sweep decoded no block: " + "; ".join(logs))
            out.setup_s = first_block[0] - t0
            out.sweep_s = t1 - t0 - sum(out.probes)
            if not setup_only:
                h.write_csv(cfg.output, out.records)
                out.csv = Path(cfg.output).read_bytes()
                out.csv_blocks = sum(r.bits // cfg.block_bits for r in out.records)
                out.problems = check_csv(self.workload, cfg, out.records)
        except Exception:  # a failed sweep is counted, not fatal
            out.problems.append(traceback.format_exc())
        if out.problems:
            self.failed += 1
            for p in out.problems:
                print(f"check failed ({self.name}, seed {seed}): {p}",
                      file=sys.stderr)
        elif probing:
            self.setups.append(out.setup_s)
        return out

    def probe_setup(self, seed: int, budget: float) -> None:
        """Set-up probes for at most ``budget`` seconds, at least one."""
        t0 = time.perf_counter()
        for i in range(1, MAX_SETUP_PROBES + 1):
            if self.sweep(seed, setup_only=True).problems:
                break
            spent = time.perf_counter() - t0
            if spent + spent / i > budget:
                break


def check_csv(w: Workload, cfg, records) -> list[str]:
    """Problems with one sweep's records; an empty list means correct."""
    problems = []
    labels = [s.label() for s in cfg.schemes]
    got = sorted((r.scheme, r.ebn0_db) for r in records)
    want = sorted((lab, e) for lab in labels for e in cfg.ebn0_db)
    if got != want:
        problems.append(f"rows {got} differ from schemes x points {want}")
    errors = {}
    for r in records:
        errors[r.scheme, r.ebn0_db] = r.errors
        if r.seed != cfg.seed:
            problems.append(f"{r.scheme} at {r.ebn0_db:g} dB: seed {r.seed}")
        if not (0 <= r.errors <= r.bits and r.bits > 0
                and r.bits % cfg.block_bits == 0):
            problems.append(f"{r.scheme} at {r.ebn0_db:g} dB: "
                            f"{r.errors} errors in {r.bits} bits")
        if r.errors < cfg.min_errors and r.bits < cfg.max_bits:
            problems.append(f"{r.scheme} at {r.ebn0_db:g} dB stopped early")
        if w.bit_capped and r.bits != cfg.max_bits:
            problems.append(f"{r.scheme} at {r.ebn0_db:g} dB: {r.bits} bits, "
                            f"not the cap {cfg.max_bits}")
    # Acceptance 03 in sweep form: MD and STD make identical decisions.
    for e in cfg.ebn0_db:
        if ("MD", e) in errors and ("STD", e) in errors \
                and errors["MD", e] != errors["STD", e]:
            problems.append(f"MD and STD differ at {e:g} dB: "
                            f"{errors['MD', e]} vs {errors['STD', e]} errors")
    return problems


def check_set(sweeps: list[Sweep], reference: dict) -> int:
    """Sweeps of one seed must give one CSV, and the default seed's must
    match the committed digest.  Returns the number of sweeps that fail
    only these checks."""
    failed = 0
    first: dict[int, bytes] = {}
    for s in sweeps:
        if not s.csv:
            continue
        problems = []
        if first.setdefault(s.seed, s.csv) != s.csv:
            problems.append("CSV differs from the first sweep of this seed")
        if s.seed == reference["seed"] and \
                hashlib.sha256(s.csv).hexdigest() != reference["sha256"]:
            problems.append("CSV digest differs from bench/reference.json")
        failed += bool(problems) and not s.problems
        s.problems += problems
        for p in problems:
            print(f"check failed (seed {s.seed}): {p}", file=sys.stderr)
    return failed


def us_per_bit(sweeps: list[Sweep]) -> dict[str, float]:
    """Decode microseconds per information bit per scheme, pooled over
    the sweeps' points, each sweep's time scaled by its speed probes."""
    secs: dict[str, float] = {}
    bits: dict[str, int] = {}
    for s in sweeps:
        slowdown = s.slowdown()
        for r in s.records:
            key = scheme_key(r.scheme)
            secs[key] = secs.get(key, 0.0) + r.seconds / slowdown
            bits[key] = bits.get(key, 0) + r.bits
    return {k: 1e6 * secs[k] / bits[k] for k in secs}


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=30,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def run_untraced(runner: Runner, seed: int, seconds: float):
    """Sweeps of one config, with set-up probes between them."""
    t0 = time.perf_counter()
    runner.sweep(seed, setup_only=True)  # warm-up, not a sample
    runner.setups.clear()
    sweeps: list[Sweep] = []
    while len(sweeps) < MAX_SWEEPS and not runner.failed:
        typical = statistics.median(s.sweep_s for s in sweeps) if sweeps else 0.0
        left = seconds - (time.perf_counter() - t0)
        if sweeps and typical > left:
            runner.probe_setup(seed, left)  # no sweep fits in what is left
            break
        runner.probe_setup(seed, SETUP_SHARE * typical)
        sweeps.append(runner.sweep(seed))
    ok = [s for s in sweeps if not s.problems]
    metrics = {}
    if ok and runner.setups:
        run_probes = Sweep(seed, probes=[p for s in ok for p in s.probes])
        metrics = {
            "sweep_s": (statistics.median(s.sweep_s / s.slowdown() for s in ok),
                        len(ok)),
            "setup_s": (statistics.median(runner.setups)
                        / run_probes.slowdown(), len(runner.setups)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, 1),
            # Summed over schemes: the cost of one bit through each receiver.
            "us_per_bit": (sum(us_per_bit(ok).values()), len(ok)),
        }
    return sweeps, metrics, None


def run_traced(runner: Runner, seed: int, seconds: float, wanted: list[dict]):
    """Untraced and traced sweeps of one config, alternating."""
    from tracer import Tracer

    t0 = time.perf_counter()
    runner.sweep(seed, setup_only=True)  # warm-up
    tracer = Tracer()
    plain: list[Sweep] = []
    traced: list[Sweep] = []
    while len(plain) < MAX_SWEEPS and not runner.failed:
        if plain and time.perf_counter() - t0 + plain[-1].sweep_s \
                + traced[-1].sweep_s > seconds:
            break
        plain.append(runner.sweep(seed))
        with tracer:
            traced.append(runner.sweep(seed, tracer=tracer))
    spans = tracer.records()
    sweeps = plain + traced
    metrics = {}
    if not runner.failed:
        metrics = layer_metrics(wanted, spans, plain, traced)
    return sweeps, metrics, spans


def layer_metrics(wanted, spans, plain: list[Sweep], traced: list[Sweep]):
    """Per-layer metrics from the spans of the traced sweeps.

    Counts and self times are per traced sweep.  A metric of a span that
    did not run on this workload reads 0, as does ``ms_p90`` of a span
    with fewer than 100 calls per sweep.
    """
    n = len(traced)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    roots = {i for i, s in enumerate(spans) if s["name"] == ROOT_SPAN}
    traced_s = sum(s.sweep_s for s in traced)
    csv_blocks = sum(s.csv_blocks for s in traced)
    decoded = sum(s["blocks"] for s in spans)
    front = sum(s["self_s"] for s in spans if s["name"] in FRONT_END)
    upb = us_per_bit(plain)

    def stat(name: str) -> float:
        span, _, kind = name.rpartition(".")
        if span == "us_per_bit":
            return upb.get(kind, 0.0)
        if name == "harness.blocks":
            return sum(1 for s in by_name.get("conv_code.conv_encode", ())
                       if s["parent"] in roots) / n
        if name == "harness.useful_decode_ratio":
            return csv_blocks / decoded
        if name == "harness.frontend_share":
            return front / traced_s
        if name == "trace.overhead_s":
            return (statistics.fmean(s.sweep_s for s in traced)
                    - statistics.fmean(s.sweep_s for s in plain))
        calls = by_name.get(span, [])
        ms = sorted(1e3 * (s["end"] - s["start"]) for s in calls)
        if kind == "calls":
            return len(calls) / n
        if kind == "self_s":
            return sum(s["self_s"] for s in calls) / n
        if kind == "ms_p50":
            return statistics.median(ms) if ms else 0.0
        if kind == "ms_p90":
            return statistics.quantiles(ms, n=10)[8] if len(ms) >= 100 * n else 0.0
        if kind == "ns_per_branch":
            branches = sum(s["branches"] for s in calls)
            return 1e9 * sum(s["self_s"] for s in calls) / branches if branches else 0.0
        raise ValueError(f"no rule computes per-layer metric {name!r}")

    return {m["name"]: (stat(m["name"]), n) for m in wanted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "mdsim" / "__init__.py").is_file():
        print(f"error: no mdsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mdsim.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(src):
        print(f"error: mdsim imported from {harness.__file__}, not {src}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, workload, harness, run_dir)
    if args.trace:
        sweeps, metrics, spans = run_traced(runner, args.seed, args.seconds,
                                            spec["per_layer"])
        wanted = spec["per_layer"]
    else:
        sweeps, metrics, spans = run_untraced(runner, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    runner.failed += check_set(sweeps, reference[args.workload])
    units = {m["name"]: m["unit"] for m in wanted}
    if metrics and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not "
              "both computed and listed in BENCHMARK.json", file=sys.stderr)
        return 2
    correct = runner.failed == 0 and bool(metrics)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k], "n": n}
                    for k, (v, n) in metrics.items()},
        "setup_samples_s": runner.setups,
        "sweeps": [{"seed": s.seed, "sweep_s": s.sweep_s, "setup_s": s.setup_s,
                    "probes": len(s.probes), "slowdown": s.slowdown(),
                    "csv_sha256": hashlib.sha256(s.csv).hexdigest(),
                    "problems": s.problems} for s in sweeps],
    }
    (run_dir / "detail.json").write_text(json.dumps(detail, indent=1))
    if spans is not None:
        (run_dir / "spans.json").write_text(json.dumps(spans))
    print("env: " + json.dumps(detail["env"]))
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} sweeps attempted, {runner.failed} failed "
          f"(failed_share {runner.failed / max(runner.attempted, 1):g}); "
          f"detail in {run_dir / 'detail.json'}")
    for k, (v, n) in metrics.items():
        print(f"  {k:<48} {v:>14.6g} {units[k]:<6} n={n}")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
