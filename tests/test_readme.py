"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

from mlsb.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks, f"README.md has no fenced {language} block"
    return blocks


def test_readme_python_blocks_run():
    # every fenced python block, each in a fresh namespace; a block that names
    # a removed option, field or function fails here
    for i, source in enumerate(_blocks("python")):
        exec(compile(source, f"README.md python block {i + 1}", "exec"), {})


def test_readme_ini_blocks_load(tmp_path):
    # every fenced ini block loads: load_config refuses a key it does not
    # read, so a key the README names and the program does not fails here
    for i, text in enumerate(_blocks("ini")):
        path = tmp_path / f"block{i + 1}.ini"
        path.write_text(text)
        load_config(str(path))
