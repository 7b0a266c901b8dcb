"""The library names that the benchmark scripts under bench/ bind.

``bench/tracer.py`` reads receiver arguments by name and relabels spans
from the results of the trellis ``build_*`` functions; ``bench/run.py``
times set-up by swapping ``mdsim.harness.conv_encode``.  A rename or a
bypass breaks only traced bench runs and the set-up timing, so a tiny
sweep checks both here.
"""

import importlib
from pathlib import Path

import mdsim.harness as harness

BENCH = Path(__file__).parents[1] / "bench"

CONFIG = """chain = pam_isi
code = 5,7
taps = 1,0.5
schemes = MD,STD,RSSE(2),DFSE(1)+VA,BCJR+VA
ebn0_db = 6,8
min_errors = 1000000000
max_bits = 400
block_bits = 200
"""


def test_traced_sweep_records_every_decoder_and_block(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    cfg = harness.parse_config(CONFIG)
    blocks = []
    with tracer.Tracer() as tr:
        inner = harness.conv_encode

        def per_block(*args, **kwargs):
            blocks.append(1)
            return inner(*args, **kwargs)

        harness.conv_encode = per_block
        try:
            records = harness.run_ber_sweep(cfg, log=lambda msg: None)
        finally:
            harness.conv_encode = inner
    names = {s["name"] for s in tr.records()}
    assert {f"equalizers.{n}" for n in (
        "viterbi_mlse.MD", "viterbi_mlse.STD", "rsse_decode.MD-RSSE4",
        "dfse_equalize", "bcjr_equalize", "soft_viterbi_decode")} <= names
    # every scheme counts the same bit-capped blocks, each made once
    assert {r.bits for r in records} == {cfg.max_bits}
    per_point = cfg.max_bits // cfg.block_bits
    assert len(blocks) == per_point * len(cfg.ebn0_db)
