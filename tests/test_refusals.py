"""Exact texts of refusals that no other test reaches: building a
specification, looking up its symbols, and the arguments of the library
functions around it."""

import pytest

from juxtaspec.builtins import builtin_spec
from juxtaspec.dsl import (
    expr_from_node,
    parse_spec,
    render_expr,
    spec_from_dict,
    spec_from_json,
    spec_to_json,
)
from juxtaspec.expr import ZERO, Z_EXPR, AtomRef, ClassRef, Product, Seq, SpecError, Sum
from juxtaspec.juxtapose import parse_grid_pattern
from juxtaspec.operators import apply_atom, expand
from juxtaspec.oracle import GREEDY_MAX_LENGTH, MAX_LENGTH, Basis, avoids_cell, class_counts, greedy_unique
from juxtaspec.series import ProductivityReport, compare_series
from juxtaspec.spec import Equation, make_spec
from helpers import deep_expr

_Z = {"kind": "atom", "name": "Z"}
_A_IS_Z = {"lhs": "A", "rhs": _Z}


_ZR = AtomRef("ZR")


def _doc(rhs):
    return {"root": "A", "equations": [{"lhs": "A", "rhs": rhs}]}


def _nested(depth):
    node = {"kind": "atom", "name": "Z"}
    for _ in range(depth):
        node = {"kind": "seq", "arg": node}
    return {"root": "A", "equations": [{"lhs": "A", "rhs": node}]}


@pytest.mark.parametrize("build, text", [
    (lambda: make_spec([Equation("E", Z_EXPR)]), "'E' is reserved and cannot be defined"),
    (lambda: make_spec([Equation("A", ZERO)]),
     "'A' defines an empty class; such equations are not representable"),
    (lambda: spec_from_dict({"root": "A", "equations": [{"lhs": "A", "rhs": {"kind": "zero"}}]}),
     "'A' defines an empty class; such equations are not representable"),
    (lambda: make_spec([]), "specification has no equations"),
    (lambda: spec_from_dict({"root": "A", "equations": []}), "specification has no equations"),
    (lambda: spec_from_dict({"root": "B", "equations": [_A_IS_Z]}),
     "root symbol 'B' has no equation"),
    (lambda: expr_from_node([1], {}), "malformed expression node: [1]"),
    (lambda: spec_from_dict({"root": "A", "equations": [{"lhs": "A", "rhs": [1]}]}),
     "malformed expression node: [1]"),
    (lambda: expr_from_node({"kind": "ref", "name": ""}, {}),
     "malformed ref node: {'kind': 'ref', 'name': ''}"),
    (lambda: spec_from_dict(_nested(3000)), "specification document nested too deeply"),
    # an index names a node listed before it, and a boolean is no index
    (lambda: spec_from_dict({**_doc(0), "nodes": [{"kind": "product", "factors": [1, 1]}, _Z]}),
     "node index 1 names no node read before it"),
    (lambda: spec_from_dict(_doc(-1)), "node index -1 names no node read before it"),
    (lambda: spec_from_dict({**_doc(True), "nodes": [_Z]}), "malformed expression node: True"),
    (lambda: spec_from_dict({"root": "A", "nodes": 5, "equations": [_A_IS_Z]}),
     "malformed specification document: field 'nodes' must be an array, found number"),
    # each part of a JSON document is refused by its name and its field
    (lambda: spec_from_dict([]),
     "malformed specification document: expected an object, found array"),
    (lambda: spec_from_dict({"root": "A"}),
     "malformed specification document: missing field 'equations'"),
    (lambda: spec_from_dict({"root": "A", "equations": 5}),
     "malformed specification document: field 'equations' must be an array, found number"),
    (lambda: spec_from_dict({"equations": [_A_IS_Z]}),
     "malformed specification document: missing field 'root'"),
    (lambda: spec_from_dict({"root": "A", "equations": [_A_IS_Z, "A = Z"]}),
     "malformed equation 2: expected an object, found string"),
    (lambda: spec_from_dict({"root": "A", "equations": [{"rhs": _A_IS_Z["rhs"]}]}),
     "malformed equation 1: missing field 'lhs'"),
    (lambda: spec_from_dict({"root": "A", "equations": [{"lhs": "A"}]}),
     "malformed equation 1: missing field 'rhs'"),
    (lambda: spec_from_dict(_doc({"kind": "seq"})), "malformed seq node: missing field 'arg'"),
    (lambda: spec_from_dict(_doc({"kind": "sum", "terms": 5})),
     "malformed sum node: field 'terms' must be an array, found number"),
    (lambda: spec_from_dict(_doc({"kind": "product", "factors": {"a": 1}})),
     "malformed product node: field 'factors' must be an array, found object"),
    (lambda: spec_from_dict(_doc({"kind": "atom"})), "malformed atom node: missing field 'name'"),
    (lambda: spec_from_dict(_doc({"kind": "ref"})), "malformed ref node: missing field 'name'"),
    # a sum inside a factor whose terms carry the marker twice and three
    # times counts differently, although both counts are above one
    (lambda: parse_spec("A = Z (ZR ZR + ZR ZR ZR)"),
     "mixed rightmost-marker counts inside a factor (term 1 of 'A', line 1)"),
    # a marker inside Seq names the term and, from the DSL, the line
    (lambda: parse_spec("A = Z Seq(ZR)"),
     "Seq argument in 'A': marked atom ZR cannot appear inside Seq (term 1 of 'A', line 1)"),
    (lambda: make_spec([Equation("A", Product((Z_EXPR, Seq(_ZR))))]),
     "Seq argument in 'A': marked atom ZR cannot appear inside Seq (term 1 of 'A')"),
    (lambda: parse_spec("B = Z\n\nA = E + ZR + Z Seq(B + A) ZR\n"),
     "Seq argument in 'A': class 'A' carries a marker and cannot appear inside Seq"
     " (term 3 of 'A', line 3)"),
    (lambda: make_spec([Equation("A", Sum((_ZR, Product((Seq(ClassRef("A")), _ZR)))))]),
     "Seq argument in 'A': class 'A' carries a marker and cannot appear inside Seq"
     " (term 2 of 'A')"),
    (lambda: render_expr(ZERO), "the empty class has no DSL form"),
])
def test_specification_refusals(build, text):
    with pytest.raises(SpecError) as info:
        build()
    assert str(info.value) == text


def test_json_of_a_deeply_nested_system_reads_back():
    """JSON lists each node once, so no depth is refused on writing."""
    spec = make_spec([Equation("A", deep_expr(3000))])
    assert spec_from_json(spec_to_json(spec)) == spec


@pytest.mark.parametrize("call, text", [
    (lambda s: s.rhs("Nope"), "undefined symbol 'Nope'"),
    (lambda s: expand(s, [("Nope", "i")]), "undefined symbol 'Nope'"),
    (lambda s: expand(s, []), "expand requires at least one decorated symbol"),
    (lambda s: expand(s, [("Full", "x")]), "unknown insertion operator 'x'"),
    (lambda s: apply_atom("x", "Z"), "unknown insertion operator 'x'"),
    (lambda s: parse_grid_pattern([]), "empty grid pattern"),
])
def test_operation_refusals(call, text):
    with pytest.raises(SpecError) as info:
        call(builtin_spec("monotone"))
    assert str(info.value) == text


@pytest.mark.parametrize("call, error, text", [
    (lambda: builtin_spec("nope"), KeyError,
     "unknown builtin 'nope' (known: av312, av321, monotone, separable)"),
    (lambda: greedy_unique([Basis(((2, 1),)), "inc"], GREEDY_MAX_LENGTH + 1), ValueError,
     f"size {GREEDY_MAX_LENGTH + 1} exceeds the configured maximum {GREEDY_MAX_LENGTH}"),
    (lambda: class_counts(["inc"], MAX_LENGTH + 1), ValueError,
     f"size {MAX_LENGTH + 1} exceeds the configured maximum {MAX_LENGTH}"),
    (lambda: avoids_cell((1,), "bogus"), ValueError, "unknown cell 'bogus'"),
    (lambda: class_counts(["inc", "bogus"], 3), ValueError, "unknown cell 'bogus'"),
])
def test_library_argument_refusals(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert info.value.args[0] == text


def test_greedy_cap_is_below_the_counting_cap():
    """greedy_unique walks every permutation, so its cap is lower; the
    generating-tree count still accepts sizes up to MAX_LENGTH."""
    assert GREEDY_MAX_LENGTH < MAX_LENGTH
    assert class_counts(["inc"], MAX_LENGTH) == [1] * (MAX_LENGTH + 1)


def test_report_texts():
    assert str(ProductivityReport(True, (), ())) == "ok"
    assert str(compare_series([1, 2], [1, 3])) == "mismatch at index 1: 2 != 3"
