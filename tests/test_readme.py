"""The README's Python examples and its ``sqzmzi`` command lines run against
the package as it is."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from sqzmzi.cli import OUTPUT_DIR_ENV, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# every line of the sh blocks that runs the CLI; install and test lines are
# not examples of it
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("sqzmzi ")
]


def test_readme_has_python_examples():
    assert BLOCKS


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, tmp_path, monkeypatch):
    # a line whose comment says it fails exits 1 (a failed validation, not
    # a traceback); every other line exits 0
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    _, _, comment = line.partition("#")
    result = CliRunner().invoke(main, shlex.split(line, comments=True)[1:])
    assert result.exit_code == (1 if "fails" in comment else 0), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
