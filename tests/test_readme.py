"""The README's library overview names only what the library has, and its
command-line examples run."""

import importlib
import re
import shlex
from pathlib import Path

from juxtaspec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _overview_rows():
    """(module, backticked identifiers) of each row of the overview table."""
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`juxtaspec."):
            yield cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])


def test_library_overview_names_exist():
    rows = list(_overview_rows())
    assert len(rows) == 8
    for module_name, names in rows:
        if module_name == "juxtaspec.builtins":
            continue  # its row names the built-in specifications, not attributes
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module_name, missing)


def test_command_line_examples_exit_0(tmp_path, monkeypatch):
    """Each `juxtaspec` line of the Command line block runs, in order, in a
    fresh directory (later lines read the files earlier ones write)."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("juxtaspec ")]
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
