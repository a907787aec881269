"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # every fenced python block, each in a fresh namespace; a block that names
    # a removed option, field or function fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks, "README.md has no fenced python block"
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i + 1}", "exec"), {})
