"""Every fenced ``python`` block in README.md runs as written.

The blocks document the library's public names; a block that no longer runs
means the README names something that is gone.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("source", [pytest.param(b, id=f"block{i}") for i, b in enumerate(BLOCKS)])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
