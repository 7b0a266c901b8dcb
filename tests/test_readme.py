"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # later blocks may use names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
