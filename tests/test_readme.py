"""The README's library overview names only what the library has."""

import importlib
import re
from pathlib import Path

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
