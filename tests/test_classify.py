from juxtaspec.builtins import builtin_spec
from juxtaspec.dsl import parse_spec
from juxtaspec.expr import ClassRef, Product, Sum, Z_EXPR
from juxtaspec.juxtapose import juxtapose
from juxtaspec.spec import Equation, SZ_NAME, classify, inline_seq, make_spec, sz_equation


def test_monotone_line_is_regular():
    flags = classify(parse_spec("M = ZLR + ZL Seq(Z) ZR\n"))
    assert flags.regular
    assert not flags.context_free
    assert flags.label == "regular"


def test_av321_is_context_free():
    flags = classify(parse_spec("C.R = C C.R Z + C ZR\nC = E + C C Z\n"))
    assert flags.context_free
    assert not flags.regular
    assert flags.label == "context-free"


def test_seq_over_recursive_class_is_general():
    flags = classify(parse_spec("A = Seq(B)\nB = Z + B B\n"))
    assert not flags.regular
    assert not flags.context_free
    assert flags.label == "general"


def test_both_flags_can_hold():
    flags = classify(parse_spec("A = Z + Z Z\n"))
    assert flags.regular and flags.context_free


def test_sz_reference_keeps_context_free():
    # the reserved sequence class has a Seq-free definition
    flags = classify(parse_spec("A = E + A SZ Z\n"))
    assert flags.context_free
    assert not flags.regular


def test_chained_definitions_inline_to_regular():
    flags = classify(parse_spec("A = B Z + Z\nB = Z Z + Seq(Z)\n"))
    assert flags.regular


def test_inline_seq_never_degrades_classification():
    specs = [
        builtin_spec("monotone"),
        builtin_spec("av321"),
        juxtapose(builtin_spec("monotone"), "right", "inc", "none"),
        juxtapose(builtin_spec("av321"), "right", "inc", "right"),
        parse_spec("A = E + A SZ Z\n"),
    ]
    for spec in specs:
        before = classify(spec)
        after = classify(inline_seq(spec))
        assert after.regular >= before.regular
        assert before.regular == after.regular


def test_sz_is_a_leaf_only_below_another_root():
    flags = classify(make_spec([sz_equation()]))
    assert flags.context_free and not flags.regular
    spec = parse_spec("A = Z SZ + Z\n")
    assert spec.root == "A" and SZ_NAME in spec.symbols
    assert classify(spec) == (True, True)


def test_long_reference_chain():
    # S0 = Z + Z S1, ..., S4999 = Z: regular; closed into a cycle it is not
    def chain(last):
        eqs = [Equation(f"S{i}", Sum((Z_EXPR, Product((Z_EXPR, ClassRef(f"S{i + 1}"))))))
               for i in range(4999)]
        return make_spec(eqs + [Equation("S4999", last)])

    assert classify(chain(Z_EXPR)) == (True, True)
    assert classify(chain(Sum((Z_EXPR, Product((Z_EXPR, ClassRef("S0"))))))) == (False, True)
