import json
import pickle
import random

import pytest

from juxtaspec import dsl
from juxtaspec.builtins import builtin_names, builtin_spec
from juxtaspec.dsl import (
    ParseError,
    parse_spec,
    render_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from juxtaspec.expr import AtomRef, ClassRef, Product, Seq, SpecError, Sum, Z_EXPR
from juxtaspec.juxtapose import build_grid, juxtapose
from juxtaspec.spec import SZ_NAME, _close as close, inline_seq
from juxtaspec.series import count_series
from helpers import (
    builtin_variants,
    library_specs,
    nested_spec_dict,
    random_markerless_spec,
    reference_parse_spec,
    tree_walk,
)


def test_parse_basic():
    spec = parse_spec("C = E + C C Z\n")
    assert spec.root == "C"
    assert spec.symbols == ("C",)
    kind = spec.root_tracking()
    assert (kind.has_r, kind.has_l) == (False, False)
    rhs = spec.rhs("C")
    assert rhs == Sum((AtomRef("E"), Product((ClassRef("C"), ClassRef("C"), Z_EXPR))))


def test_parse_empty_input():
    with pytest.raises(SpecError, match="empty input"):
        parse_spec("   \n# only a comment\n")


def test_parse_seq_with_marked_atom_rejected():
    with pytest.raises(SpecError, match="inside Seq"):
        parse_spec("C = Seq(ZR)\n")


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as info:
        parse_spec("C = E +\nD = Z\n")
    assert info.value.line == 1


def test_parse_error_pickles():
    with pytest.raises(ParseError) as info:
        parse_spec("A = ?")
    again = pickle.loads(pickle.dumps(info.value))
    assert str(again) == "line 1, column 5: unexpected character '?'"
    assert (again.line, again.column) == (1, 5)


def test_parse_bad_character_position():
    with pytest.raises(ParseError) as info:
        parse_spec("C = Z ? Z\n")
    assert (info.value.line, info.value.column) == (1, 7)


@pytest.mark.parametrize("text, message", [
    ("A = Z\t3\n", "line 1, column 7: unexpected character '3'"),
    ("A = Z.b ~\nZ.b = Z\n", "line 1, column 9: unexpected character '~'"),
    ("  A = Z \u00e9\n", "line 1, column 9: unexpected character '\u00e9'"),
    ("A = Z\nB = A ? # ?\n", "line 2, column 7: unexpected character '?'"),
])
def test_parse_bad_character_message(text, message):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, rendered", [
    ("A = Z  \t \n", "A = Z\n"),
    ("A = Z # ? comment\n", "A = Z\n"),
    ("\tA=Z(Z)#x\n", "A = Z Z\n"),
])
def test_parse_blanks_and_comments(text, rendered):
    assert render_spec(parse_spec(text)) == rendered


def test_parse_duplicate_lhs():
    with pytest.raises(SpecError, match="duplicate"):
        parse_spec("C = Z\nC = Z Z\n")


def test_parse_undefined_symbol():
    with pytest.raises(SpecError, match="undefined"):
        parse_spec("C = D Z\n")


def test_parse_reserved_lhs():
    with pytest.raises(ParseError, match="reserved"):
        parse_spec("Z = E\n")


def test_sz_auto_injected():
    spec = parse_spec("A = SZ Z\n")
    assert SZ_NAME in spec.symbols
    assert count_series(spec, 4) == [0, 1, 1, 1, 1]


def test_sz_redefinition_rejected():
    with pytest.raises(SpecError, match="reserved"):
        parse_spec("A = SZ Z\nSZ = E + Z\n")


def test_sz_canonical_definition_accepted():
    spec = parse_spec("A = SZ Z\nSZ = E + SZ Z\n")
    assert count_series(spec, 3) == [0, 1, 1, 1]


def test_inline_seq_replaces_sz():
    spec = parse_spec("A = SZ Z\n")
    flat = inline_seq(spec)
    assert flat.symbols == ("A",)
    assert flat.rhs("A") == Product((Seq(Z_EXPR), Z_EXPR))
    assert render_spec(flat) == "A = Seq(Z) Z\n"
    assert count_series(flat, 6) == count_series(spec, 6)


def test_inline_seq_without_sz_is_identity():
    spec = parse_spec("C = E + C C Z\n")
    assert inline_seq(spec) == spec


def test_render_monotone_line():
    spec = parse_spec("M = ZLR + ZL Seq(Z) ZR\n")
    assert render_spec(spec) == "M = ZLR + ZL Seq(Z) ZR\n"


def test_parenthesized_sum_round_trip():
    text = "A = Z (E + Z) Z\n"
    spec = parse_spec(text)
    assert render_spec(spec) == text


def test_round_trip_builtins():
    for name in builtin_names():
        spec = builtin_spec(name)
        assert parse_spec(render_spec(spec)) == spec


def test_round_trip_random_specs():
    rng = random.Random(20240229)
    for _ in range(60):
        spec = random_markerless_spec(rng)
        assert parse_spec(render_spec(spec)) == spec


def test_json_round_trip():
    for name in builtin_names():
        spec = builtin_spec(name)
        assert spec_from_dict(spec_to_dict(spec)) == spec
        assert spec_from_json(spec_to_json(spec)) == spec
        # the reader takes indented JSON as well as the compact form
        assert spec_from_json(json.dumps(spec_to_dict(spec), indent=2)) == spec


def test_json_of_a_deeply_nested_system_stays_in_proportion():
    """Written on one line, JSON is a bounded multiple of the DSL text
    (about 12x: a node spells out its kind), however deep the nesting; an
    indented writer would repeat each level's indent on every line below it
    (about 360x at this depth, 46 MB)."""
    text = "ZR"
    for _ in range(20):
        text = f"ZR + Z Seq(Z) ({text})"
    out = juxtapose(parse_spec(f"A = {text}\n"), "right", "inc", "right")
    written = spec_to_json(out)
    assert written.count("\n") == 0
    assert len(written) < 20 * len(render_spec(out))
    assert spec_from_json(written) == out


def test_json_node_kinds_fixed():
    doc = spec_to_dict(parse_spec("A = E + Z Seq(Z)\n"))
    nodes = doc["nodes"]
    rhs = nodes[doc["equations"][0]["rhs"]]
    assert rhs["kind"] == "sum"
    product = nodes[rhs["terms"][1]]
    assert product["kind"] == "product"
    assert nodes[product["factors"][0]] == {"kind": "atom", "name": "Z"}
    assert nodes[product["factors"][1]]["kind"] == "seq"
    assert nodes[nodes[product["factors"][1]]["arg"]] == {"kind": "atom", "name": "Z"}


def test_nested_documents_read_as_the_indexed_ones():
    """The tree form without ``nodes``, which the writer gave before it listed
    each node once, reads back to the specification it was written from."""
    for spec in builtin_variants():
        nested = nested_spec_dict(spec)
        assert spec_from_dict(nested) == spec == spec_from_json(spec_to_json(spec))
        assert spec_from_json(json.dumps(nested)) == spec


def test_json_size_follows_the_plan():
    """JSON spends a bounded number of characters on each plan step, child
    reference and equation, besides the names it spells out."""
    for spec in (*library_specs(), *builtin_variants()):
        steps = spec._plan[0]
        units = len(steps) + sum(len(kids) for _, kids in steps) + len(spec.equations)
        leaves = [node.name if type(node) is ClassRef else node.atom for node, kids in steps if not kids]
        names = sum(map(len, [spec.root, *(eq.lhs for eq in spec.equations), *leaves]))
        assert len(spec_to_json(spec)) <= 27 * units + names


def test_json_of_a_five_cell_grid_lists_each_node_once():
    grid = build_grid(builtin_spec("monotone"), "inc|dec|core|inc|dec")
    written = spec_to_json(grid)
    assert len(written) < 200_000  # 21,028,156 with each shared node written at every use
    assert spec_from_json(written) == grid


def test_json_zero_node_accepted_and_absorbed():
    doc = {
        "root": "A",
        "equations": [
            {
                "lhs": "A",
                "rhs": {
                    "kind": "sum",
                    "terms": [{"kind": "zero"}, {"kind": "atom", "name": "Z"}],
                },
            }
        ],
    }
    spec = spec_from_dict(doc)
    assert spec.rhs("A") == Z_EXPR


def test_json_malformed_rejected():
    with pytest.raises(SpecError):
        spec_from_dict({"root": "A"})
    with pytest.raises(SpecError):
        spec_from_json("{not json")
    with pytest.raises(SpecError):
        spec_from_dict({"root": "A", "equations": [{"lhs": "A", "rhs": {"kind": "what"}}]})


def test_round_trip_keeps_tracking_on_library_specs():
    for spec in library_specs():
        back = parse_spec(render_spec(spec))
        assert back == spec
        assert back.tracking == spec.tracking


@pytest.mark.parametrize("reader", ("dsl", "json"))
def test_readers_build_the_shared_dag(monkeypatch, reader):
    """The readers hand the closing pass equations whose equal subexpressions
    are already one object, and the specification it returns keeps that."""
    grid = build_grid(builtin_spec("av321"), "inc|core|inc|dec")
    handed = []

    def recording_close(equations, root, table, prune=False):
        handed.extend(table.nodes[at] for _, at in equations)
        return close(equations, root, table, prune)

    monkeypatch.setattr(dsl, "_close", recording_close)
    if reader == "dsl":
        back = parse_spec(render_spec(grid))
    else:
        back = spec_from_json(spec_to_json(grid))
    assert back == grid
    for exprs in (handed, [eq.rhs for eq in back.equations]):
        tree, distinct, objects = tree_walk(exprs)
        assert objects == distinct
        assert tree > 5 * distinct


# Errors inside and after a repeated parenthesized group: the texts and
# positions of a parse that memoizes nothing.
@pytest.mark.parametrize("text, message", [
    ("A = (Z (Z ZR)) + (Z (Z ZR) +) ZR\n", "line 1, column 29: expected a factor, found ')'"),
    ("A = Z (Z Z + ) + Z (Z Z + )\n", "line 1, column 14: expected a factor, found ')'"),
    ("A = (Z ZR) + Z (Z ZR) )\n", "line 1, column 23: unexpected ')'"),
    ("A = (Z ZR)\nB = A (Z ZR) Z ZR (\n", "line 2, column 20: expected a factor, found 'end of line'"),
    ("A = Seq(Z Z) ZR + Seq(Z Z) ZR =\n", "line 1, column 31: unexpected '='"),
    ("A = (Z Z) ZR + (Z Z) (Z Z\n", "line 1, column 26: expected ), found 'end of line'"),
])
def test_errors_around_repeated_groups(text, message):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert str(info.value) == message



# A line nested too deeply for the parser is refused as such, unless a
# character on it starts no token: that is refused first, as the reference
# reader, which tokenizes the whole line before parsing, refuses it.
@pytest.mark.parametrize("text, message", [
    ("A = " + "(" * 3000 + "Z" + ")" * 3000 + "\n", "line 1, column 1: expression nested too deeply"),
    ("A = " + "(" * 3000 + "Z ?" + ")" * 3000 + "\n", "line 1, column 3007: unexpected character '?'"),
    ("A = Z\nB = " + "Seq(" * 3000 + "Z" + ")" * 3000 + " ~\n", "line 2, column 15007: unexpected character '~'"),
], ids=["nested", "bad character inside", "bad character after"])
def test_deep_nesting_refusals(text, message):
    for parse in (parse_spec, reference_parse_spec):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message
