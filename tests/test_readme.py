"""The README's python examples run as written, and its `mdsim trellis`
lines print what it shows."""

import re
from pathlib import Path

from mdsim.cli import main

README = Path(__file__).parents[1] / "README.md"


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
