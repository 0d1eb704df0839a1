"""The value contract: every value the library builds is immutable, equal
by value, picklable and printed the same way; and importing the package
loads no module it does not use."""

import os
import pickle
import subprocess
import sys

import pytest

import juxtaspec
from juxtaspec.builtins import builtin_names, builtin_spec, builtin_text
from juxtaspec.dsl import parse_spec
from juxtaspec.expr import ZERO, AtomRef, ClassRef, Product, Seq, Sum, Z, ZR, nodes, plan, rewrite
from juxtaspec.oracle import Basis
from juxtaspec.series import compare_series, productivity_check
from juxtaspec.spec import Equation, Specification, TrackingKind, classify

TEXT = "A = E + Seq(Z) Z B\nB = Z B + ZR\n"


def _values() -> dict:
    """One value of each class, with the name of one of its fields (None if
    it has none)."""
    spec = parse_spec(TEXT)
    a, z = ClassRef("A"), AtomRef(Z)
    return {
        "ZeroExpr": (ZERO, None),
        "AtomRef": (z, "atom"),
        "ClassRef": (a, "name"),
        "Product": (Product((z, a)), "factors"),
        "Sum": (Sum((z, a)), "terms"),
        "Seq": (Seq(z), "arg"),
        "TrackingKind": (TrackingKind(True, False), "has_r"),
        "Equation": (Equation("A", z), "rhs"),
        "Specification": (spec, "root"),
        "Classification": (classify(spec), "regular"),
        "ProductivityReport": (productivity_check(spec), "ok"),
        "SeriesComparison": (compare_series([1, 2], [1, 3]), "equal"),
        "Basis": (Basis(((3, 2, 1),)), "patterns"),
    }


@pytest.mark.parametrize("name", sorted(_values()))
def test_fields_cannot_be_assigned_or_deleted(name):
    value, field = _values()[name]
    assert type(value).__name__ == name
    if field is None:  # no field, and no room for one
        assert type(value).__slots__ == () and not hasattr(value, "__dict__")
        return
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("name", sorted(_values()))
def test_every_value_survives_pickling(name):
    value, _ = _values()[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value)
        assert copy == value and hash(copy) == hash(value)
        assert repr(copy) == repr(value)


def test_reprs():
    assert repr(TrackingKind(True, False)) == "TrackingKind(has_r=True, has_l=False)"
    assert repr(Equation("A", AtomRef(ZR))) == "Equation(lhs='A', rhs=ZR)"
    flags = classify(builtin_spec("monotone"))
    assert repr(flags) == "Classification(regular=True, context_free=False)"
    assert flags.label == "regular"
    assert repr(Basis(((3, 2, 1),))) == "Basis(patterns=((3, 2, 1),))"
    assert repr(productivity_check(builtin_spec("av321"))) == (
        "ProductivityReport(ok=True, unproductive=(), problems=())")
    assert repr(compare_series([1, 2], [1, 3])) == (
        "SeriesComparison(equal=False, overlap=2, index=1, left=2, right=3)")
    assert repr(builtin_spec("monotone")) == (
        "Specification(equations=(Equation(lhs='Full', rhs=(E + @M)), "
        "Equation(lhs='M', rhs=(ZLR + (ZL SeqZ ZR)))), root='Full', "
        "tracking={'Full': TrackingKind(has_r=True, has_l=True), "
        "'M': TrackingKind(has_r=True, has_l=True)})")
    assert [repr(x) for x in (ZERO, AtomRef(Z), ClassRef("A"), Seq(AtomRef(Z)))] == [
        "Zero", "Z", "@A", "SeqZ"]


def test_specification_equality_ignores_tracking_and_plan():
    spec = parse_spec(TEXT)
    # the same equations over a plan of another step order
    steps, position = plan([eq.rhs for eq in reversed(spec.equations)])
    reordered = (steps, {eq.lhs: position[id(eq.rhs)] for eq in spec.equations})
    assert [node for node, _ in steps] != [node for node, _ in spec._plan[0]]
    other = Specification(spec.root, {}, reordered)
    assert other == spec and hash(other) == hash(spec)
    assert other.tracking != spec.tracking
    assert Specification("B", spec.tracking, reordered) != spec
    assert parse_spec(TEXT) == spec and parse_spec(TEXT) is not spec


@pytest.mark.parametrize("patterns, message", [
    ((), "empty basis"),
    (((),), "empty basis pattern"),
    (((1, 3),), "basis pattern (1, 3) is not a permutation"),
])
def test_basis_refusals(patterns, message):
    with pytest.raises(ValueError) as info:
        Basis(patterns)
    assert str(info.value) == message


def test_nodes_of_different_tables_are_equal_and_hash_equal():
    first, second = parse_spec(TEXT), parse_spec(TEXT)
    for a, b in zip(first.equations, second.equations):
        pairs = list(zip(nodes(a.rhs), nodes(b.rhs)))
        assert all(x is not y for x, y in pairs if isinstance(x, (Product, Sum, Seq)))
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
    rebuilt = rewrite([eq.rhs for eq in first.equations])
    assert rebuilt == [eq.rhs for eq in first.equations]
    assert AtomRef(Z) != ClassRef(Z) and Sum((AtomRef(Z), ZERO)) != Product((AtomRef(Z), ZERO))


def test_childless_compound_nodes_compare_by_type_and_arity():
    """The raw constructors accept a Sum or Product with no children; two of
    one type are equal and hash equal, and differ from the other type and
    from a node with children."""
    assert Sum(()) == Sum(()) and hash(Sum(())) == hash(Sum(()))
    assert Product(()) == Product(()) and hash(Product(())) == hash(Product(()))
    assert Sum(()) != Product(())
    assert Sum(()) != Sum((AtomRef(Z),))


def test_import_loads_neither_dataclasses_nor_inspect_nor_json():
    """A fresh interpreter that imports the package and builds every builtin
    has not loaded dataclasses, inspect or json; a JSON round trip loads json."""
    probe = (
        "import sys, juxtaspec, juxtaspec.builtins\n"
        "specs = [juxtaspec.builtins.builtin_spec(n) for n in juxtaspec.builtins.builtin_names()]\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))\n"
        "from juxtaspec.dsl import spec_from_json, spec_to_json\n"
        "assert all(spec_from_json(spec_to_json(s)) == s for s in specs)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))\n"
    )
    # -S: the site hooks of an installation may load these modules themselves
    path = [os.path.dirname(os.path.dirname(juxtaspec.__file__)), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "['json']"]


def test_builtin_spec_is_parsed_once_and_shared():
    """Specifications are immutable, so each builtin is parsed once per
    process and every call returns that one object."""
    for name in builtin_names():
        assert builtin_spec(name) is builtin_spec(name)
        assert builtin_spec(name) == parse_spec(builtin_text(name))
    with pytest.raises(KeyError, match="unknown builtin"):
        builtin_spec("nonesuch")
