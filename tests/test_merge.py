"""Equivalent symbols are merged after every juxtaposition step: each set of
symbols that tests/helpers.py's pairwise fixpoint finds equivalent in a
step's closed output becomes its first symbol, and the outputs have no two
equivalent symbols left."""

import importlib

from juxtaspec.dsl import parse_spec
from juxtaspec.series import count_series
from juxtaspec.spec import _merge_equivalent
from helpers import assert_closed, equivalence_classes, library_specs

# the package exports a function named juxtapose, which shadows the module
juxtapose_module = importlib.import_module("juxtaspec.juxtapose")


def test_library_outputs_have_no_equivalent_symbols():
    for i, spec in enumerate(library_specs()[4:]):  # after the 4 builtins
        assert all(len(c) == 1 for c in equivalence_classes(spec)), i


def test_every_step_keeps_the_first_symbol_of_each_class(monkeypatch):
    """Every step of the library's builds, grids included: the merged output
    has one symbol per class of the unmerged one, named as its first, with
    the same series."""
    steps = []

    def merge(spec):
        out = _merge_equivalent(spec)
        steps.append((spec, out))
        return out

    monkeypatch.setattr(juxtapose_module, "_merge_equivalent", merge)
    library_specs.__wrapped__()
    assert len(steps) > 44
    merged = 0
    for i, (before, after) in enumerate(steps):
        classes = equivalence_classes(before)
        assert list(after.symbols) == [c[0] for c in classes], i
        assert all(after.tracking[c[0]] == before.tracking[n] for c in classes for n in c), i
        assert_closed(after)
        assert count_series(after, 10) == count_series(before, 10), i
        merged += len(before.symbols) - len(after.symbols)
    assert merged > 0


def test_catalog_equation_count():
    """The 32 accepted catalog juxtapositions (4 builtins x side x direction
    x track mode) carry 476 equations in all; 586 without merging."""
    catalog = library_specs()[4:36]
    assert len(catalog) == 32 and all(s.root.endswith(".jux") for s in catalog)
    assert sum(len(s.equations) for s in catalog) == 476


def test_aliases_and_their_cycles():
    """An alias joins the class of the end of its chain; a cycle of aliases
    is merged like any other equal shapes; aliases of SZ merge with each
    other, never with SZ."""
    spec = parse_spec(
        "A = X Y + P Q + S + T + U Z\n"
        "X = Y\nY = Z B\nB = Z + Z B\nC = Z + Z C\n"
        "P = Q\nQ = P\nS = SZ\nT = SZ\nU = Z C\n"
    )
    out = _merge_equivalent(spec)
    assert equivalence_classes(spec) == [
        ["A"], ["X", "Y", "U"], ["B", "C"], ["P", "Q"], ["S", "T"], ["SZ"],
    ]
    assert list(out.symbols) == ["A", "X", "B", "P", "S", "SZ"]
    assert [str(out.rhs(n)) for n in out.symbols[1:5]] == ["(Z @B)", "(Z + (Z @B))", "@P", "@SZ"]
    assert_closed(out)
    assert _merge_equivalent(out) is out

