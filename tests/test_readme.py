"""The README's examples, run as written: each `$ diagbench ...` block's
output must match what the CLI prints, and the library block must run."""

import pathlib
import re
import shlex

import pytest

from diagbench.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SESSIONS = re.findall(r"```sh\n\$ diagbench ([^\n]*)\n(.*?)```", README, re.S)
LIBRARY = re.findall(r"```python\n(.*?)```", README, re.S)


def test_the_readme_has_its_examples():
    assert len(SESSIONS) == 4
    assert len(LIBRARY) == 1


@pytest.mark.parametrize("command, shown", SESSIONS, ids=[c for c, _ in SESSIONS])
def test_cli_example_prints_what_the_readme_shows(command, shown, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == shown


def test_library_example_runs():
    exec(compile(LIBRARY[0], "README.md", "exec"), {})
