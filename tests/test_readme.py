"""The README's ``python`` code blocks run as written, and its CLI output is real.

The blocks run in file order in one namespace, as a reader pasting them
into one session would, so a later block may use names an earlier one
defined.
"""

import re
from pathlib import Path

from apzf.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_blocks() -> list:
    """The README's ``python`` code blocks, in file order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_gdof_output_is_what_the_command_prints(capsys, monkeypatch):
    text = README.read_text(encoding="utf-8")
    shown = re.search(r"^`gdof` prints .*?:\n\n```\n(.*?)^```$", text, re.M | re.S).group(1)
    monkeypatch.chdir(ROOT)
    assert main(["gdof", "--config", "configs/parallel.json"]) == 0
    assert capsys.readouterr().out == shown
