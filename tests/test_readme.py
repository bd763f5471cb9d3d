"""The README's examples, run as written: each `$ diagbench ...` block's
output must match what the CLI prints, and the library block must run.  Each
cap the README states must be the constant the code enforces."""

import importlib
import pathlib
import re
import shlex
from fractions import Fraction

import pytest

from diagbench.chains import CHAIN_CAP
from diagbench.cli import CSV_CELL_CAP, FILE_CAP, SCRIPT_CAP, main
from diagbench.density import EXPONENTIAL_CAP, GRID_CAP, SIEVE_CAP, WORK_CAP
from diagbench.diagonal import EXPLICIT_CELL_CAP, SCAN_CAP, UNIVERSE_CAP
from diagbench.subsets import (
    DOVETAIL_CAP,
    FIGURE1_CAP,
    RANK_CAP,
    TABLE1_LABELS,
    UNRANK_BITS_CAP,
    UNRANK_P_CAP,
)

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


def test_the_library_section_names_what_the_acceptance_tests_call():
    # Each name, caps aside, that the acceptance tests import from a kernel
    # module is listed under that module, and each listed name is the module's.
    block = README.split("The public names that `tests/test_acceptance.py` calls")[1]
    block = block.split("\n\n")[1]
    listed = {module: set(re.findall(r"`(\w+)`", names))
              for module, names in re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", block, re.M | re.S)}
    source = (pathlib.Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")
    imports = re.findall(r"^from diagbench\.(\w+) import (\([^)]*\)|.*)$", source, re.M)
    assert {module for module, _ in imports} >= {"chains", "density", "diagonal", "eps", "subsets"}
    for module, names in imports:
        names = {name.split(" as ")[0] for name in re.split(r"[\s(),]+", names)} - {"", "as"}
        if module != "cli":
            assert {n for n in names if not n.isupper()} <= listed[module], module
    for module, names in listed.items():
        kernel = importlib.import_module(f"diagbench.{module}")
        assert names and all(hasattr(kernel, name) for name in names), module


# Each README phrase that states a cap, with {N} where the number stands, and
# the constant it must equal.  A number reads "50000", "10^6" or "1.2 × 10^7".
STATED_CAPS = (
    ("`--depth` and the `--prefix` window are each at most {N}", SCAN_CAP),
    ("An explicit array holds at most {N} rows", SCAN_CAP),
    ("CSV dump holds at most {N} cells", CSV_CELL_CAP),
    ("rows and {N} cells", EXPLICIT_CELL_CAP),
    ("at most {N} characters", FILE_CAP),
    ("refused after {N} + 1 characters", FILE_CAP),
    ("refuses a rank of {N} or more", RANK_CAP),
    ("takes `--p` up to {N}", UNRANK_P_CAP),
    ("a rank of at most {N} bits", UNRANK_BITS_CAP),
    ("`--count` is capped at {N}", DOVETAIL_CAP),
    ("at `--n {N}`, the cap", FIGURE1_CAP),
    ("every sample point is at most {N}", EXPONENTIAL_CAP),
    ("sample point is at most {N} (`SIEVE_CAP`)", SIEVE_CAP),
    ("at most {N} units in all", WORK_CAP),
    ("`grid --n` is at most {N}", GRID_CAP),
    ("`CHAIN_CAP` = {N}", CHAIN_CAP),
    ("`SCRIPT_CAP` = {N}", SCRIPT_CAP),
    ("takes n up to {N} in binary", UNIVERSE_CAP[2]),
    ("and {N} in decimal (`UNIVERSE_CAP`)", UNIVERSE_CAP[10]),
    ("evaluates the {N} closed-form ratio rows", len(TABLE1_LABELS)),
    ("accepts exactly these {N} labels", len(TABLE1_LABELS)),
)
NUMBER = r"(?:(\d+(?:\.\d+)?) × )?(\d+)(?:\^(\d+))?"
PROSE = " ".join(README.split())  # one space wherever a line wraps


@pytest.mark.parametrize("phrase, cap", STATED_CAPS, ids=[p for p, _ in STATED_CAPS])
def test_each_stated_cap_is_the_code_s(phrase, cap):
    pattern = re.escape(phrase).replace(re.escape("{N}"), NUMBER)
    stated = [Fraction(m or 1) * int(base) ** int(exp or 1)
              for m, base, exp in re.findall(pattern, PROSE)]
    assert stated and set(stated) == {cap}


def test_the_stated_table1_labels_are_the_code_s():
    (spans,) = re.findall(r"\(labels ((?:`[^`]+`\.\.`[^`]+`(?:, )?)+)\)", PROSE)
    ends = [TABLE1_LABELS.index(label) for label in re.findall(r"`([^`]+)`", spans)]
    # Consecutive runs that start at the first label and end at the last.
    assert ends[0] == 0 and ends[-1] == len(TABLE1_LABELS) - 1
    assert all(b + 1 == a for b, a in zip(ends[1::2], ends[2::2]))
    assert all(a < b for a, b in zip(ends[::2], ends[1::2]))
