"""Import hygiene: every name a library module imports is used in it, and
the library imports nothing outside the standard library.

Each module under src/juxtaspec except ``__init__.py`` (which imports to
re-export) is read with ``ast``; a name bound by an import and never read as
a ``Name`` is a stale import.  ``from __future__`` imports bind no name.
"""

import ast
import sys
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


def _outside_stdlib(tree: ast.Module) -> list:
    """The top-level modules that ``tree`` imports which are neither in the
    standard library nor juxtaspec; a relative import stays in the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return sorted({name.split(".")[0] for name in found} - sys.stdlib_module_names - {"juxtaspec"})


@pytest.mark.parametrize("path", [*MODULES, Path(juxtaspec.__file__)], ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path):
    assert _outside_stdlib(ast.parse(path.read_text(), str(path))) == []


def test_an_import_outside_the_standard_library_is_found():
    tree = ast.parse(
        "import os, numpy.linalg\nfrom . import dsl\nfrom juxtaspec.expr import Z\nfrom sympy import S\n"
    )
    assert _outside_stdlib(tree) == ["numpy", "sympy"]
