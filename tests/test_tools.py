"""Smoke tests of the measurement scripts under tools/."""

import importlib
from pathlib import Path

import mdsim.harness as harness

TOOLS = Path(__file__).parents[1] / "tools"


def test_sweep_calls_counts_the_records_blocks(monkeypatch):
    """``sweep_calls`` gives per scheme the blocks its records count, and
    calls that decode at least those blocks, on an error-stopped sweep."""
    monkeypatch.syspath_prepend(str(TOOLS))
    sweep_calls = importlib.import_module("sweep_calls").sweep_calls
    cfg = harness.parse_config("taps = 1,0.5,0.25\nschemes = MD,DFSE(1)+VA,"
                               "BCJR+VA\nebn0_db = 6,8\nmin_errors = 60\n"
                               "max_bits = 4000\nblock_bits = 200\nseed = 4\n")
    calls, counted = sweep_calls(cfg)
    want = {}
    for r in harness.run_ber_sweep(cfg):
        want[r.scheme] = want.get(r.scheme, 0) + r.bits // cfg.block_bits
    assert counted == want
    assert set(calls) == set(want)
    for label, sizes in calls.items():
        assert sum(sizes) >= counted[label]
