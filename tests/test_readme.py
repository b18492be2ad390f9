"""The README's ``python`` code blocks run as written, and its ``console``
blocks print what they show."""

import re
import shlex
from pathlib import Path

import pytest

from chainhash.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CONSOLE = re.findall(r"^```console\n\$ chainhash (.*?)\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_console_examples():
    assert len(CONSOLE) == 5


@pytest.mark.parametrize("command, expected", CONSOLE, ids=[c for c, _ in CONSOLE])
def test_readme_console_block_output(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
