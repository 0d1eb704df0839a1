"""Import hygiene: every name a library module imports is used in it.

Each module under src/juxtaspec except ``__init__.py`` (which imports to
re-export) is read with ``ast``; a name bound by an import and never read as
a ``Name`` is a stale import.  ``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

import juxtaspec

MODULES = sorted(p for p in Path(juxtaspec.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom typing import Mapping, Sequence\nx: Mapping = os.sep\n")
    assert _unused_imports(tree) == [(2, "Sequence")]
