"""The README's python examples run as written, its `mdsim trellis`
lines print what it shows, and the batches and the calibration peak it
quotes are the sweep's."""

import re
from pathlib import Path

from mdsim.cli import main
from mdsim.cpm import CpmParams
from mdsim.harness import _build_receivers, parse_config, resolve_chain

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # later blocks may use names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)


def test_trellis_lines_print_what_they_show(capsys):
    text = README.read_text()
    cases = re.findall(r"^mdsim trellis ([^#\n]*).*\n((?:# -> .*\n)+)", text,
                       re.MULTILINE)
    assert len(cases) == len(re.findall(r"^mdsim trellis ", text, re.MULTILINE))
    for args, shown in cases:
        assert main(["trellis", *args.split()]) == 0
        assert capsys.readouterr().out.splitlines() == \
            [ln.removeprefix("# -> ") for ln in shown.splitlines()]


def test_rounds_quote_the_pam_cfg_batches():
    """*Rounds* names each pam.cfg scheme's blocks per call ("STD decodes
    17", "MD 137", ...); they are the batches the sweep builds."""
    rounds = re.search(r"^- \*\*Rounds\*\*(.*?)^- \*\*", README.read_text(),
                       re.MULTILINE | re.DOTALL).group(1)
    quoted = dict(re.findall(r"\b(STD|MD|RSSE\(\d+\)|DFSE\(\d+\)\+VA|BCJR\+VA)"
                             r"(?: decodes)? (\d+)\b", " ".join(rounds.split())))
    cfg = parse_config((ROOT / "examples_cfg" / "pam.cfg").read_text())
    built = _build_receivers(resolve_chain(cfg, print), cfg, print)
    assert {k: int(v) for k, v in quoted.items()} == {
        r.scheme.label().removeprefix("MD-"): r.batch for r in built}


def test_calibration_symbols_quotes_the_peak_per_pilot(calibration_peak):
    """The `calibration_symbols` row gives the calibration's peak traced
    bytes per pilot symbol at N_os = 8 ("about 410 B"); it is within 5%
    of a tracemalloc measurement at 20 000 symbols."""
    row = next(ln for ln in README.read_text().splitlines()
               if ln.startswith("| `calibration_symbols` |"))
    quoted = int(re.search(r"about (\d+) B per pilot symbol", row).group(1))
    n_symbols = 20_000
    peak = calibration_peak(CpmParams(), 0.6875, n_symbols)
    assert abs(peak / n_symbols - quoted) <= 0.05 * quoted
