"""Frozen decisions of every trellis receiver and of one short sweep.

The decoder golden is a fixed, integer-rounded observation block over a
channel with dyadic taps, so many add-compare-select candidates tie
exactly; a change of the tie rule or of the branch-metric arithmetic
changes the stored bits or metrics.  The sweep golden is the CSV of a
short pam_isi sweep with every receiver kind.

Regenerate (only when a decision change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np

from mdsim.channel import make_rng, normal_from_uniform
from mdsim.conv_code import ConvCode, conv_encode
from mdsim.equalizers import (
    PartitionSpec,
    build_std_trellis,
    compensate_edges,
    dfse_equalize,
    rsse_decode,
    soft_viterbi_decode,
    viterbi_mlse,
)
from mdsim.harness import parse_config, run_ber_sweep, write_csv
from mdsim.matched_encoder import (
    IsiResponse,
    build_matched_trellis,
    serial_reference,
)

GOLDEN = Path(__file__).parent / "golden"
DECODERS = GOLDEN / "decoders_57_ties_l3.json"
SWEEP = GOLDEN / "sweep_pam_all_schemes.csv"

CODE = ConvCode([0o5, 0o7])
H = IsiResponse([1.0, 0.5, 0.25, 0.25]).check_minimum_phase()
M = 4

SWEEP_CFG = """\
chain = pam_isi
code = 5,7
M = 4
taps = 1,0.6,0.36,0.216
schemes = MD,STD,RSSE(0),RSSE(3),DFSE(0)+VA,DFSE(2)+VA,BCJR+VA
ebn0_db = 6,9
min_errors = 40
max_bits = 3000
block_bits = 500
seed = 11
"""


def make_inputs() -> tuple[np.ndarray, np.ndarray]:
    """Integer observations of a flushed block, and integer LLRs."""
    bits = (make_rng(5).random(160) < 0.5).astype(np.int64)
    tx = np.concatenate([bits, np.zeros(CODE.nu + H.L, dtype=np.int64)])
    ref = serial_reference(CODE, H, M, tx)
    obs = ref + 1.2 * normal_from_uniform(make_rng(6), ref.size)
    obs = np.round(compensate_edges(obs, H.taps, M))
    coded = conv_encode(CODE, tx[: bits.size + CODE.nu])
    llrs = 2.0 * (1 - 2 * coded) + 1.5 * normal_from_uniform(
        make_rng(7), coded.size)
    return obs, np.round(llrs)


def decode_all(obs: np.ndarray, llrs: np.ndarray) -> dict:
    """Bits (as a digit string) and metric of every decoder on ``obs``."""
    mt = build_matched_trellis(CODE, H, M)
    out = {}

    def put(name, bits, metric=None):
        out[name] = {"bits": "".join(str(int(b)) for b in bits),
                     "metric": None if metric is None else float(metric).hex()}

    for name, tr in (("MD", mt.trellis), ("STD", build_std_trellis(CODE, H, M))):
        res = viterbi_mlse(tr, obs, end_state=0)
        put(name, res.bits, res.metric)
        res = viterbi_mlse(tr, obs, end_state=None)
        put(f"{name}/free-end", res.bits, res.metric)
    for r in range(CODE.nu + H.L + 1):
        res = rsse_decode(mt, PartitionSpec(r), obs)
        put(f"RSSE({r})", res.bits, res.metric)
    for J in range(H.L + 1):
        put(f"DFSE({J})", dfse_equalize(H, M, J, obs))
        put(f"DFSE({J})/end0", dfse_equalize(H, M, J, obs, end_state=0))
    put("softVA", soft_viterbi_decode(CODE, llrs))
    put("softVA/free-end", soft_viterbi_decode(CODE, llrs, end_state=None))
    return out


def run_sweep_csv(tmp_dir: Path) -> str:
    path = tmp_dir / "sweep.csv"
    write_csv(path, run_ber_sweep(parse_config(SWEEP_CFG)))
    return path.read_text()


def _ints(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.float64)


def test_golden_inputs_reproduce():
    data = json.loads(DECODERS.read_text())
    obs, llrs = make_inputs()
    np.testing.assert_array_equal(obs, _ints(data["obs"]))
    np.testing.assert_array_equal(llrs, _ints(data["llrs"]))


def test_decoders_match_golden():
    data = json.loads(DECODERS.read_text())
    got = decode_all(_ints(data["obs"]), _ints(data["llrs"]))
    assert sorted(got) == sorted(data["decisions"])
    for name, want in data["decisions"].items():
        assert got[name] == want, name


def test_sweep_csv_matches_golden(tmp_path):
    assert run_sweep_csv(tmp_path) == SWEEP.read_text()


if __name__ == "__main__":
    import tempfile

    obs, llrs = make_inputs()
    DECODERS.write_text(json.dumps({
        "obs": " ".join(str(int(v)) for v in obs),
        "llrs": " ".join(str(int(v)) for v in llrs),
        "decisions": decode_all(obs, llrs)}, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        SWEEP.write_text(run_sweep_csv(Path(tmp)))
