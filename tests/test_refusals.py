"""Exact texts of refusals that no other test reaches: building a
specification, looking up its symbols, and the arguments of the library
functions around it."""

import pytest

from juxtaspec.builtins import builtin_spec
from juxtaspec.dsl import expr_from_node, render_expr, spec_from_dict
from juxtaspec.expr import ZERO, Z_EXPR, SpecError
from juxtaspec.juxtapose import parse_grid_pattern
from juxtaspec.operators import apply_atom, expand
from juxtaspec.oracle import Basis, avoids_cell, class_counts, greedy_unique
from juxtaspec.series import ProductivityReport, compare_series
from juxtaspec.spec import Equation, make_spec

_A_IS_Z = {"lhs": "A", "rhs": {"kind": "atom", "name": "Z"}}


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
    (lambda: render_expr(ZERO), "the empty class has no DSL form"),
])
def test_specification_refusals(build, text):
    with pytest.raises(SpecError) as info:
        build()
    assert str(info.value) == text


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
    (lambda: greedy_unique([Basis(((2, 1),)), "inc"], 11), ValueError,
     "size 11 exceeds the configured maximum 10"),
    (lambda: avoids_cell((1,), "bogus"), ValueError, "unknown cell 'bogus'"),
    (lambda: class_counts(["inc", "bogus"], 3), ValueError, "unknown cell 'bogus'"),
])
def test_library_argument_refusals(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert info.value.args[0] == text


def test_report_texts():
    assert str(ProductivityReport(True, (), ())) == "ok"
    assert str(compare_series([1, 2], [1, 3])) == "mismatch at index 1: 2 != 3"
