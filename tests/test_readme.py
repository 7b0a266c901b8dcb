"""The README's python examples run as written, its `mdsim trellis`
lines print what it shows, and the batches it quotes are the sweep's."""

import re
from pathlib import Path

from mdsim.cli import main
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
