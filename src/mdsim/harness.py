"""Monte-Carlo BER sweeps, receiver complexity accounting, and CSV output.

All schemes at a given Eb/N0 point decode the same seeded observation
blocks (common random numbers), so receivers that make identical
decisions produce identical error counts.  Every random quantity derives
from the base seed; a sweep is a pure function of its configuration.
"""

from __future__ import annotations

import functools
import math
import re
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import fir_awgn_channel, make_rng
from .conv_code import (
    ConvCode,
    build_conv_trellis,
    conv_encode,
    parse_octal_generators,
)
from .cpm import CpmParams, _lowpass_taps, b999_bandwidth, transmit_receive
from .equalizers import (
    PartitionSpec,
    bcjr_bytes,
    bcjr_equalize,
    build_dfse_feedback,
    build_isi_trellis,
    build_std_trellis,
    compensate_edges,
    dfse_equalize,
    rsse_decode,
    soft_viterbi_decode,
    viterbi_bytes,
    viterbi_mlse,
)
from .matched_encoder import (
    IsiResponse,
    build_matched_trellis,
    symbol_bits,
    symbol_index,
    symbol_value,
)
from .trellis import STATE_CAP
from .whitening import (
    WhiteningDesign,
    apply_whitening,
    apply_wmf,
    design_whitening,
    load_whitening_design,
)

CSV_HEADER = "scheme,states,ebn0_db,bits,errors,ber,ci_lo,ci_hi,seed,seconds"


class ConfigError(ValueError):
    """Raised for malformed simulation configs; message names the key."""


@dataclass(frozen=True)
class SchemeSpec:
    """One receiver scheme: its kind, and the kept bits of RSSE or the kept
    symbols of DFSE, which no other kind takes."""

    kind: str  # std | md | rsse | dfse_va | bcjr_va
    param: int | None = None

    def __post_init__(self):
        if self.kind not in ("std", "md", "rsse", "dfse_va", "bcjr_va"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if (self.param is None) == (self.kind in ("rsse", "dfse_va")):
            raise ValueError(f"scheme {self.kind} with parameter "
                             f"{self.param}: rsse and dfse_va need one, "
                             "no other kind takes one")

    def label(self) -> str:
        if self.kind == "std":
            return "STD"
        if self.kind == "md":
            return "MD"
        if self.kind == "rsse":
            return f"MD-RSSE({1 << self.param})"
        if self.kind == "dfse_va":
            return f"DFSE({self.param})+VA"
        return "BCJR+VA"


# The README's scheme grammar, one spelling per scheme; the group that
# matches is named after the SchemeSpec kind.
_SCHEME_RE = re.compile(r"(?P<md>MD)|(?P<std>STD)|RSSE\((?P<rsse>\d+)\)"
                        r"|DFSE\((?P<dfse_va>\d+)\)\+VA|(?P<bcjr_va>BCJR)\+VA",
                        re.IGNORECASE)


def parse_scheme(text: str) -> SchemeSpec:
    m = _SCHEME_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"unknown scheme {text!r}; the schemes are MD, STD, "
                         "RSSE(r), DFSE(J)+VA and BCJR+VA")
    kind = m.lastgroup
    return SchemeSpec(kind, int(m[kind]) if m[kind].isdigit() else None)


@dataclass(frozen=True)
class SimConfig:
    chain: str = "pam_isi"
    generators: tuple[int, ...] = (0o5, 0o7)
    M: int = 4
    taps: tuple[float, ...] = (1.0, 0.5)
    pulse: str = "LRC"
    h_num: int = 1
    h_den: int = 4
    L_cpm: int = 3
    N_os: int = 8
    L_nw: int = 0
    schemes: tuple[SchemeSpec, ...] = (SchemeSpec("md"), SchemeSpec("std"))
    ebn0_db: tuple[float, ...] = (6.0, 8.0, 10.0)
    min_errors: int = 200
    max_bits: int = 10_000_000
    block_bits: int = 1000
    seed: int = 1
    output: str = "ber.csv"
    whitening_file: str | None = None
    calibration_ebn0_db: float | None = None
    calibration_symbols: int = 200_000
    bcjr_memory: int = 2
    state_cap: int = STATE_CAP
    cutoff: float | None = None
    wmf_len: int = 20
    isi_trim: float = 1e-3

    def __post_init__(self):
        if self.chain not in ("pam_isi", "cpm"):
            raise ConfigError(f"config key 'chain': unknown chain {self.chain!r}")
        if not self.ebn0_db:
            raise ConfigError("config key 'ebn0_db': the grid is empty")
        cal = () if self.calibration_ebn0_db is None else (self.calibration_ebn0_db,)
        for key, dbs in (("ebn0_db", self.ebn0_db), ("calibration_ebn0_db", cal)):
            # N0 = 10^(-Eb/N0 / 10) per unit Eb leaves the float range near -3080 dB
            if not all(-3000.0 <= db < math.inf for db in dbs):
                raise ConfigError(f"config key {key!r}: values must be finite "
                                  "and at least -3000 dB")
        if any(b <= a for a, b in zip(self.ebn0_db, self.ebn0_db[1:])):
            raise ConfigError("config key 'ebn0_db': grid must be strictly increasing")
        if self.cutoff is not None and not math.isfinite(self.cutoff):
            raise ConfigError("config key 'cutoff': must be finite")
        if self.min_errors <= 0 or self.max_bits <= 0 or self.block_bits <= 0:
            raise ConfigError("config key 'min_errors'/'max_bits'/'block_bits': "
                              "stop rule must be positive")
        if self.M != 1 << len(self.generators):
            raise ConfigError(f"config key 'M': {self.M} is not 2^n for the "
                              f"rate-1/n code, n = {len(self.generators)}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError("config key 'schemes': each scheme may be "
                              "listed once")
        for key, low in (("L_nw", 0), ("wmf_len", 1), ("bcjr_memory", 0),
                         ("seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"config key {key!r}: must be at least {low}")
        if not 0 <= self.isi_trim < 1:
            raise ConfigError("config key 'isi_trim': must be in [0, 1)")
        # The run-time objects that validate a value, built once here so
        # that a bad value is a config error naming its key.
        builds = [("'code'", lambda: ConvCode(self.generators))]
        if self.chain == "pam_isi":
            builds.append(("'taps'", lambda: IsiResponse(self.taps)))
        else:
            builds.append(("'pulse'/'h_index'/'L_cpm'/'N_os'", self.cpm_params))
            if self.cutoff is not None:  # the receive lowpass's own rule
                builds.append(("'cutoff'", lambda: _lowpass_taps(
                    self.N_os, float(self.cutoff))))
        for keys, build in builds:
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"config key {keys}: {exc}") from exc

    def cpm_params(self) -> CpmParams:
        return CpmParams(M=self.M, h_num=self.h_num, h_den=self.h_den,
                         L_cpm=self.L_cpm, pulse=self.pulse, N_os=self.N_os)


def _floats(txt: str) -> tuple[float, ...]:
    return tuple(float(v) for v in txt.split(","))


def _h_index(txt: str) -> dict:
    num, _, den = txt.partition("/")
    return {"h_num": int(num), "h_den": int(den or "1")}


# Config key -> parser of its value.  A parser returns the SimConfig field
# of the same name, or a dict of fields for a key that names none.
_CONFIG_KEYS: dict[str, Callable] = {
    "chain": str,
    "code": lambda txt: {"generators": tuple(parse_octal_generators(txt))},
    "M": int, "taps": _floats, "pulse": str, "h_index": _h_index,
    "L_cpm": int, "N_os": int, "L_nw": int,
    "schemes": lambda txt: tuple(parse_scheme(t) for t in txt.split(",")),
    "ebn0_db": _floats, "min_errors": int, "max_bits": int,
    "block_bits": int, "seed": int, "output": str, "whitening_file": str,
    "calibration_ebn0_db": float, "calibration_symbols": int,
    "bcjr_memory": int, "state_cap": int, "cutoff": float, "wmf_len": int,
    "isi_trim": float,
}


def parse_config(text: str) -> SimConfig:
    """Flat key = value config text (comments with '#'); the last of
    duplicate keys wins."""
    kv: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config key {key!r}: unknown key")
        kv[key] = val.strip()

    fields = {}
    for key, parse in _CONFIG_KEYS.items():
        if key not in kv:
            continue
        try:
            value = parse(kv[key])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        fields.update(value if isinstance(value, dict) else {key: value})
    return SimConfig(**fields)


def wilson_interval(errors: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    p = errors / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class BerRecord:
    scheme: str
    states: int
    ebn0_db: float
    bits: int
    errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    seed: int
    seconds: float

    def csv_row(self, with_timing: bool = False) -> str:
        secs = self.seconds if with_timing else 0.0
        return (f"{self.scheme},{self.states},{self.ebn0_db:g},{self.bits},"
                f"{self.errors},{self.ber:.6e},{self.ci_lo:.6e},"
                f"{self.ci_hi:.6e},{self.seed},{secs:.3f}")


def write_csv(path, records: list[BerRecord], with_timing: bool = False) -> None:
    rows = [CSV_HEADER]
    rows += [r.csv_row(with_timing) for r in records]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


@dataclass
class _ChainContext:
    """Everything fixed across blocks: code, effective ISI, CPM front end.

    A point sends with N0 = ``eb * 10^(-Eb/N0 / 10)``; its equalizer input
    has noise variance ``noise_var_cal * N0 / n0_cal``.  PAM: Eb is the
    mean symbol energy times the ISI energy, variance N0/2.  CPM: Eb = 1
    (one bit per interval), variance as measured at the calibration point.
    """

    code: ConvCode
    isi: IsiResponse
    eb: float
    noise_var_cal: float
    n0_cal: float
    params: CpmParams | None = None
    whitening: WhiteningDesign | None = None
    cutoff: float | None = None


def resolve_chain(cfg: SimConfig, log) -> _ChainContext:
    """The code, effective ISI and front end of a config; a CPM chain
    loads its noise measurement from ``whitening_file`` or measures it."""
    code = ConvCode(cfg.generators)
    if cfg.chain == "pam_isi":
        isi = IsiResponse(np.array(cfg.taps))
        e_sym = (cfg.M**2 - 1) / 3.0
        return _ChainContext(code=code, isi=isi,
                             eb=e_sym * float(np.sum(isi.taps**2)),
                             noise_var_cal=0.5, n0_cal=1.0)

    params = cfg.cpm_params()
    cutoff = cfg.cutoff
    if cutoff is None:
        cutoff = b999_bandwidth(params)
        log(f"receive lowpass cutoff (99.9% power): {cutoff:.6g}")
    if cfg.whitening_file:
        try:
            design = load_whitening_design(cfg.whitening_file, params,
                                           cfg.L_nw, cfg.wmf_len)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config key 'whitening_file': {exc}") from exc
        log(f"loaded whitening design from {cfg.whitening_file}")
    else:
        cal_db = cfg.calibration_ebn0_db
        if cal_db is None:
            cal_db = 0.5 * (cfg.ebn0_db[0] + cfg.ebn0_db[-1])
        try:
            design = design_whitening(
                params, cal_db, cfg.L_nw, cutoff=cutoff,
                n_symbols=cfg.calibration_symbols, wmf_len=cfg.wmf_len)
        except ValueError as exc:
            # too few symbols, an order they cannot fit, or an N0 of 0
            raise ConfigError("config key 'calibration_ebn0_db'/"
                              f"'calibration_symbols'/'L_nw': {exc}") from exc
        log(f"whitening calibrated at Eb/N0 = {cal_db:g} dB; "
            f"f = {np.array2string(design.f, precision=4)}")
    log(f"wmf anti-causal recursion truncated to {cfg.wmf_len} taps "
        f"(neglected tail magnitude {design.wmf_tail:.2e})")
    isi = design.overall.trimmed(cfg.isi_trim)
    if isi.L < design.overall.L:
        log(f"overall ISI trimmed from {design.overall.taps.size} to "
            f"{isi.taps.size} taps (threshold {cfg.isi_trim:g})")
    return _ChainContext(
        code=code, isi=isi, eb=1.0,
        noise_var_cal=design.output_noise_variance,
        n0_cal=10.0 ** (-design.calibration_ebn0_db / 10.0),
        params=params, whitening=design, cutoff=cutoff)


def _block_words(seed: int, point_idx: int, block_idx: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=[seed, point_idx, block_idx])
    return ss.generate_state(4, np.uint64)


def _make_block(ctx: _ChainContext, cfg: SimConfig, n0: float,
                point_idx: int, block_idx: int):
    """One seeded transmission: returns (info_bits, observations)."""
    w = _block_words(cfg.seed, point_idx, block_idx)
    rng = make_rng(int(w[0]))
    info = (rng.random(cfg.block_bits) < 0.5).astype(np.int64)
    flush = np.zeros(ctx.code.nu + ctx.isi.L, dtype=np.int64)
    bits = np.concatenate([info, flush])
    symbols = symbol_value(symbol_index(conv_encode(ctx.code, bits), cfg.M), cfg.M)

    if cfg.chain == "pam_isi":
        obs = fir_awgn_channel(symbols, ctx.isi, n0, int(w[1]))
    else:
        theta0 = float(w[2]) / 2.0**64 * 2.0 * math.pi
        d = transmit_receive(ctx.params, symbols, n0=n0,
                             noise_seed=int(w[1]), theta0=theta0,
                             cutoff=ctx.cutoff)
        d = apply_wmf(d, ctx.whitening.wmf)
        d = apply_whitening(d, ctx.whitening.f)
        obs = d[: bits.size]  # n_sym + L_cpm - 1 samples come back
    return info, compensate_edges(obs, ctx.isi.taps, cfg.M)


# Bytes a receiver may hold per batch of blocks, by the estimates of the
# trellises it searches (viterbi_bytes, bcjr_bytes).  This is about what
# one block of the 1024-state STD receiver of examples_cfg/pam.cfg held
# before blocks were batched (2.06 MB of int16 traceback pointers).  A
# Viterbi block counts its packed pointers (four to a byte for that
# STD's fan-in of 4 over its 512 stepped states) and nine bytes a step:
# the observation and the uint8 decision.  Left out, since they do not
# grow with the block's steps, are the chunk of POINTER_CHUNK unpacked
# steps and the candidate and metric buffers that every step reuses (a
# few (P, B, R) arrays, or (P, B, R_live) on the rows a step forms), so
# a call holds more: by tracemalloc, one call of each pam.cfg receiver
# at its batch peaks at 0.99 (DFSE(2)+VA), 1.14 (RSSE(8)), 1.26
# (RSSE(16)), 1.49 (BCJR+VA), 1.52 (MD) and 1.71 (STD) times
# BATCH_BYTES, and tests/test_harness.py holds every one below 2.
# A larger batch decodes faster per block.  README *Rounds* quotes every
# pam.cfg batch, and tests/test_readme.py checks them.
BATCH_BYTES = 9 << 18  # 2.25 MiB


@dataclass(frozen=True)
class _Receiver:
    """One scheme's receiver, built once per sweep, and the one place its
    states and batch come from.  ``decode(obs, n0)`` decodes a (B, T)
    batch of blocks sent at noise density ``n0``; ``states`` sums the
    states of the trellises it searches, and ``batch`` is the blocks per
    call that their byte estimates fit in BATCH_BYTES (at least one)."""

    scheme: SchemeSpec
    decode: Callable[[np.ndarray, float], np.ndarray]
    states: int
    batch: int


def _hard_llrs(M: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from (B, T) symbol decisions to the (B, T * log2 M) LLRs
    of their coded bits, +1 for a 0 bit and -1 for a 1 bit, by one
    (M, log2 M) table: no int64 bit arrays per call."""
    signs = 1.0 - 2.0 * symbol_bits(np.arange(M), M).reshape(M, -1)
    return lambda sym: signs[sym].reshape(len(sym), -1)


def _build_receivers(ctx: _ChainContext, cfg: SimConfig,
                     log) -> list[_Receiver]:
    """The receivers of the schemes of ``cfg``.  MD and every RSSE share
    one merged trellis, the serial schemes one code trellis and one ISI
    trellis per window depth.  A scheme that cannot be built (over the
    state cap, say) is disabled with a message; an RSSE or DFSE parameter
    beyond the chain's memory, or no scheme left, is a ConfigError."""
    code, isi, M, cap = ctx.code, ctx.isi, cfg.M, cfg.state_cap
    steps = cfg.block_bits + code.nu + isi.L
    matched = functools.cache(
        lambda: build_matched_trellis(code, isi, M, state_cap=cap))
    code_trellis = functools.cache(lambda: build_conv_trellis(code))
    isi_trellis = functools.cache(lambda memory: build_isi_trellis(
        isi, M, memory=memory, state_cap=cap))

    def build(scheme: SchemeSpec) -> _Receiver:
        def receiver(decode, states, block_bytes):
            return _Receiver(scheme, decode, states,
                             max(1, BATCH_BYTES // block_bytes))

        if scheme.kind in ("md", "std"):
            tr = (matched().trellis if scheme.kind == "md"
                  else build_std_trellis(code, isi, M, state_cap=cap))
            return receiver(
                lambda obs, n0: viterbi_mlse(tr, obs, end_state=0).bits,
                tr.num_states, viterbi_bytes(tr, steps))
        if scheme.kind == "rsse":
            mt = matched()
            part = PartitionSpec(scheme.param)
            return receiver(lambda obs, n0: rsse_decode(mt, part, obs).bits,
                            part.num_hyperstates,
                            viterbi_bytes(part.window, steps))
        # The serial receivers equalize to coded-bit LLRs, then soft-VA them.
        if scheme.kind == "dfse_va":
            window = isi_trellis(scheme.param)
            feedback = build_dfse_feedback(isi, M, scheme.param, state_cap=cap)
            window_bytes = viterbi_bytes(window, steps)
            to_llrs = _hard_llrs(M)

            def equalize(obs, n0):
                return to_llrs(dfse_equalize(isi, M, scheme.param, obs,
                                             window=window, feedback=feedback))
        else:
            window = isi_trellis(min(cfg.bcjr_memory, isi.L))
            window_bytes = bcjr_bytes(window, steps)

            def equalize(obs, n0):
                var = max(ctx.noise_var_cal * (n0 / ctx.n0_cal), 1e-12)
                return bcjr_equalize(window, obs, var).bit_llrs
        vtr = code_trellis()
        return receiver(lambda obs, n0: soft_viterbi_decode(
            code, equalize(obs, n0), end_state=0, trellis=vtr),
            window.num_states + code.num_states,
            window_bytes + viterbi_bytes(vtr, steps))

    receivers = []
    for scheme in cfg.schemes:
        # RSSE keeps bits of the merged state, DFSE symbols of the channel
        memory = code.nu + isi.L if scheme.kind == "rsse" else isi.L
        if scheme.param is not None and scheme.param > memory:
            raise ConfigError(f"config key 'schemes': {scheme.label()} would "
                              f"keep {scheme.param} of {memory} state digits")
        try:
            receivers.append(build(scheme))
        except (ValueError, MemoryError) as exc:
            log(f"scheme {scheme.label()} disabled: {exc}")
    if not receivers:
        raise ConfigError("config key 'schemes': no scheme can run on this "
                          "chain (see the messages above)")
    return receivers


@dataclass
class _Tally:
    """Errors, bits and decode seconds of one receiver at one Eb/N0 point."""

    receiver: _Receiver
    errors: int = 0
    bits: int = 0
    seconds: float = 0.0

    def done(self, cfg: SimConfig) -> bool:
        return self.errors >= cfg.min_errors or self.bits >= cfg.max_bits

    def decode(self, cfg: SimConfig, info: np.ndarray, obs: np.ndarray,
               n0: float) -> None:
        """Decode a round of blocks, the receiver's batch at a time, and
        count them in order until the stop rule holds.  Blocks decoded past
        that one are discarded; ``seconds`` includes them."""
        batch = self.receiver.batch
        t0 = time.perf_counter()
        for i in range(0, len(info), batch):
            if self.done(cfg):
                break
            decoded = self.receiver.decode(obs[i:i + batch], n0)
            for row, sent in zip(decoded, info[i:i + batch]):
                if self.done(cfg):
                    break
                self.errors += int(np.count_nonzero(row[:sent.size] != sent))
                self.bits += sent.size
        self.seconds += time.perf_counter() - t0

    def record(self, cfg: SimConfig, ebn0_db: float) -> BerRecord:
        ber = self.errors / self.bits if self.bits else 0.0
        lo, hi = wilson_interval(self.errors, self.bits)
        return BerRecord(scheme=self.receiver.scheme.label(),
                         states=self.receiver.states, ebn0_db=ebn0_db,
                         bits=self.bits, errors=self.errors, ber=ber, ci_lo=lo,
                         ci_hi=hi, seed=cfg.seed, seconds=self.seconds)


def _round_size(cfg: SimConfig, live: list[_Tally], first: int,
                last: int) -> int:
    """Blocks of the round that starts at block ``first``.  A point's first
    round (``first`` = 0) opens at ``last``, the fewest blocks that any
    tally counted at the previous point (0 at the first point: one
    block), since BER falls as Eb/N0 rises; a later round is twice the
    ``last`` one.  Either is raised up to block ceil(min_errors /
    block_bits), before which no tally can stop on errors, and held to
    at most the largest batch of the ``live`` tallies and the blocks left
    before ``max_bits``.  Once every live tally has seen errors, also at
    most the largest number of blocks that one of them needs at its error
    rate so far to reach ``min_errors``, so that points stopping on errors
    waste little; a tally close to its stop does not shrink the round of
    the others, since blocks past a tally's stop cost little to discard."""
    size = last if first == 0 else 2 * last
    size = max(size, -(-cfg.min_errors // cfg.block_bits) - first)
    size = min(size, max(t.receiver.batch for t in live),
               -(-cfg.max_bits // cfg.block_bits) - first)
    if all(t.errors for t in live):
        # ceil((min_errors - errors) / (errors / first))
        size = min(size, max(-(-(cfg.min_errors - t.errors) * first // t.errors)
                             for t in live))
    return max(size, 1)


def run_ber_sweep(cfg: SimConfig, log=lambda msg: None) -> list[BerRecord]:
    """Simulate every (scheme, Eb/N0) point to its stop rule, each point
    decoding the same blocks with the receivers of
    :func:`_build_receivers`."""
    ctx = resolve_chain(cfg, log)
    receivers = _build_receivers(ctx, cfg, log)
    records: list[BerRecord] = []
    counted = 0  # the fewest blocks a tally counted at the last point
    for point_idx, ebn0 in enumerate(cfg.ebn0_db):
        n0 = ctx.eb * 10.0 ** (-ebn0 / 10.0)
        tallies = [_Tally(r) for r in receivers]
        # Blocks go out in rounds; every tally not yet done decodes all of
        # a round, so each round starts at the same block for all of them.
        block_idx, size = 0, counted
        while live := [t for t in tallies if not t.done(cfg)]:
            size = _round_size(cfg, live, block_idx, size)
            info, obs = zip(*(_make_block(ctx, cfg, n0, point_idx, i)
                              for i in range(block_idx, block_idx + size)))
            info, obs = np.stack(info), np.stack(obs)
            for t in live:
                t.decode(cfg, info, obs, n0)
            block_idx += size
        counted = min(t.bits for t in tallies) // cfg.block_bits
        records += [t.record(cfg, ebn0) for t in tallies]
        log(f"Eb/N0 = {ebn0:g} dB: " + ", ".join(
            f"{t.receiver.scheme.label()} ber={t.errors / max(t.bits, 1):.3e}"
            for t in tallies))
    records.sort(key=lambda r: (r.scheme, r.ebn0_db))
    return records
