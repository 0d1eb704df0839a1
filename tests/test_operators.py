import pytest

from juxtaspec.builtins import builtin_spec
from juxtaspec.dsl import parse_spec, render_expr, render_spec
from juxtaspec.expr import (
    AtomRef,
    ClassRef,
    E_EXPR,
    Product,
    Seq,
    SpecError,
    Sum,
    Z_EXPR,
    ZERO,
    canonicalize,
)
from juxtaspec.operators import (
    INSERTION_TAGS,
    apply_atom,
    apply_expr,
    complement,
    expand,
    expr_tracks_r,
    forget_left,
    reverse,
)
from juxtaspec.oracle import Basis, count_class
from juxtaspec.series import count_series
from juxtaspec.spec import TrackingKind, UNTRACKED, make_spec
from helpers import library_specs

SZ = ClassRef("SZ")
ZR = AtomRef("ZR")
ZL = AtomRef("ZL")
ZLR = AtomRef("ZLR")


def _p(*factors):
    return Product(tuple(factors))


# The complete operator/atom table.  Rows Z and ZR agree, as do ZL and ZLR:
# the operand's rightmost marking is erased and a new marker may be added.
ATOM_TABLE = {
    ("o", "Z"): Z_EXPR,
    ("i", "Z"): _p(ZR, Z_EXPR),
    ("oo", "Z"): _p(SZ, Z_EXPR),
    ("io", "Z"): _p(Z_EXPR, SZ, Z_EXPR),
    ("oi", "Z"): _p(SZ, ZR, Z_EXPR),
    ("ii", "Z"): _p(Z_EXPR, SZ, ZR, Z_EXPR),
    ("o", "ZL"): ZL,
    ("i", "ZL"): _p(ZR, ZL),
    ("oo", "ZL"): _p(SZ, ZL),
    ("io", "ZL"): _p(Z_EXPR, SZ, ZL),
    ("oi", "ZL"): _p(SZ, ZR, ZL),
    ("ii", "ZL"): _p(Z_EXPR, SZ, ZR, ZL),
}


@pytest.mark.parametrize("op", INSERTION_TAGS)
@pytest.mark.parametrize("kind", ("Z", "ZR", "ZL", "ZLR"))
def test_atom_table(op, kind):
    row = "Z" if kind in ("Z", "ZR") else "ZL"
    assert apply_atom(op, kind) == ATOM_TABLE[(op, row)]


@pytest.mark.parametrize("op", INSERTION_TAGS)
def test_atom_table_empty(op):
    expected = E_EXPR if op in ("o", "oo") else ZERO
    assert apply_atom(op, "E") == expected


def test_apply_atom_examples():
    assert apply_atom("i", "Z") == _p(ZR, Z_EXPR)
    assert apply_atom("oo", "ZL") == _p(SZ, ZL)
    assert apply_atom("ii", "E") == ZERO


def _distribute(expr):
    """Flat list of products: sums multiplied out, order preserved."""
    expr = canonicalize(expr)
    if isinstance(expr, Sum):
        out = []
        for t in expr.terms:
            out.extend(_distribute(t))
        return out
    if isinstance(expr, Product):
        combos = [()]
        for f in expr.factors:
            branches = _distribute(f)
            combos = [c + (b,) for c in combos for b in branches]
        return [canonicalize(Product(c)) for c in combos]
    return [expr]


FIG_TRACKING = {
    "A": UNTRACKED,
    "B": UNTRACKED,
    "CR": TrackingKind(True, False),
    "D": UNTRACKED,
}


def test_nine_term_product_expansion():
    # ii over a four-factor product whose third factor carries the marker
    operand = _p(ClassRef("A"), ClassRef("B"), ClassRef("CR"), ClassRef("D"))
    result = apply_expr("ii", operand, FIG_TRACKING)
    got = {render_expr(t) for t in _distribute(result)}
    expected = {
        "A.ii B.o CR.o D.o",
        "A.io B.oi CR.o D.o",
        "A.io B.oo CR.oi D.o",
        "A.io B.oo CR.oo D.oi",
        "A.o B.ii CR.o D.o",
        "A.o B.io CR.oi D.o",
        "A.o B.io CR.oo D.oi",
        "A.o B.o CR.ii D.o",
        "A.o B.o CR.io D.oi",
    }
    assert got == expected


def test_marked_head_loses_final_term():
    operand = _p(ClassRef("CR"), ClassRef("B"))
    got = {render_expr(t) for t in _distribute(apply_expr("i", operand, FIG_TRACKING))}
    assert got == {"CR.i B.o"}
    got = {render_expr(t) for t in _distribute(apply_expr("io", operand, FIG_TRACKING))}
    assert got == {"CR.io B.oo"}
    got = {render_expr(t) for t in _distribute(apply_expr("ii", operand, FIG_TRACKING))}
    assert got == {"CR.ii B.o", "CR.io B.oi"}


def test_unmarked_head_keeps_all_terms():
    operand = _p(ClassRef("A"), ClassRef("B"))
    got = {render_expr(t) for t in _distribute(apply_expr("i", operand, FIG_TRACKING))}
    assert got == {"A.i B.o", "A.o B.i"}


def test_zr_invariant_rule_ignores_marker():
    for operand in (_p(ClassRef("CR"), ClassRef("B")), _p(ClassRef("A"), ClassRef("B"))):
        result = apply_expr("oi", operand, FIG_TRACKING)
        assert len(_distribute(result)) == 2


def test_sequence_rules():
    a = ClassRef("A")
    assert apply_expr("o", Seq(a), FIG_TRACKING) == Seq(ClassRef("A.o"))
    assert apply_expr("oo", Seq(a), FIG_TRACKING) == Seq(ClassRef("A.oo"))
    got = apply_expr("i", Seq(a), FIG_TRACKING)
    assert got == _p(Seq(ClassRef("A.o")), ClassRef("A.i"), Seq(ClassRef("A.o")))
    got = apply_expr("io", Seq(a), FIG_TRACKING)
    assert got == _p(Seq(ClassRef("A.o")), ClassRef("A.io"), Seq(ClassRef("A.oo")))
    got = apply_expr("oi", Seq(a), FIG_TRACKING)
    assert got == _p(Seq(ClassRef("A.oo")), ClassRef("A.oi"), Seq(ClassRef("A.o")))
    got = apply_expr("ii", Seq(a), FIG_TRACKING)
    assert got == Sum((
        _p(Seq(ClassRef("A.o")), ClassRef("A.io"), Seq(ClassRef("A.oo")),
           ClassRef("A.oi"), Seq(ClassRef("A.o"))),
        _p(Seq(ClassRef("A.o")), ClassRef("A.ii"), Seq(ClassRef("A.o"))),
    ))


def test_seq_with_marked_content_rejected():
    with pytest.raises(SpecError, match="Seq"):
        apply_expr("i", Seq(ClassRef("CR")), FIG_TRACKING)
    with pytest.raises(SpecError, match="Seq"):
        apply_expr("o", Seq(ZR), FIG_TRACKING)


def test_expr_tracks_r():
    assert expr_tracks_r(ZR, {})
    assert expr_tracks_r(_p(ClassRef("A"), ZR), FIG_TRACKING)
    assert expr_tracks_r(ClassRef("CR"), FIG_TRACKING)
    assert not expr_tracks_r(Seq(Z_EXPR), {})
    assert not expr_tracks_r(ClassRef("A"), FIG_TRACKING)


def test_expand_golden_first_insertion():
    spec = builtin_spec("av321")
    out = expand(spec, [("C.R", "i")])
    assert out.root == "C.R.i"
    got = {render_expr(t) for t in _distribute(out.rhs("C.R.i"))}
    assert got == {"C.i C.R.o Z", "C.o C.R.i Z", "C.i Z", "C.o ZR Z"}


def test_expand_golden_gap_filling():
    spec = builtin_spec("av321")
    out = expand(spec, [("C", "oo")])
    assert {render_expr(t) for t in _distribute(out.rhs("C.oo"))} == {"E", "C.oo C.oo SZ Z"}


def test_expand_golden_double_insertion():
    spec = builtin_spec("av321")
    out = expand(spec, [("C.R", "ii")])
    got = {render_expr(t) for t in _distribute(out.rhs("C.R.ii"))}
    assert got == {
        "C.ii C.R.o Z",
        "C.ii Z",
        "C.io C.R.oi Z",
        "C.io C.R.oo SZ ZR Z",
        "C.io SZ ZR Z",
        "C.o C.R.ii Z",
        "C.o C.R.io SZ ZR Z",
        "C.o Z SZ ZR Z",
    }


def test_expand_requires_symbols():
    with pytest.raises(SpecError):
        expand(builtin_spec("av321"), [])


def test_expand_decoration_tracking():
    # new-rightmost inserters mark; the others erase or consume the marker
    spec = builtin_spec("av321")
    out = expand(spec, [("C.R", op) for op in INSERTION_TAGS])
    for name, kind in out.tracking.items():
        if name == "SZ":
            continue
        tag = name.rsplit(".", 1)[1]
        assert kind.has_r == (tag in ("i", "oi", "ii")), name


def test_expand_seq_free_stays_seq_free():
    spec = builtin_spec("av321")
    out = expand(spec, [("C.R", "i")])
    from juxtaspec.expr import nodes

    assert not any(isinstance(n, Seq) for eq in out.equations for n in nodes(eq.rhs))


def test_expand_zero_elimination():
    spec = parse_spec("A = B ZR\nB = E\n")
    out = expand(spec, [("A", "i")])
    # B.i is the empty class and must not appear
    assert "B.i" not in out.symbols
    assert count_series(out, 4) == [0, 0, 1, 0, 0]


def test_complement_monotone():
    spec = parse_spec("M = ZLR + ZL Seq(Z) ZR\n")
    out = complement(spec)
    assert out.rhs("M") == Sum((ZLR, _p(ZR, Seq(Z_EXPR), ZL)))


@pytest.mark.parametrize("name", ("av321", "av312", "separable", "monotone"))
def test_complement_involution_and_series(name):
    spec = builtin_spec(name)
    out = complement(spec)
    assert complement(out) == spec
    assert count_series(out, 8) == count_series(spec, 8)
    kind = out.root_tracking()
    assert (kind.has_r, kind.has_l) == (
        spec.root_tracking().has_r,
        spec.root_tracking().has_l,
    )


def test_complement_of_av321_counts_av123():
    # frozen from the brute-force oracle for the class avoiding 123
    oracle_av123 = [1, 1, 2, 5, 14, 42, 132, 429]
    spec = complement(builtin_spec("av321"))
    assert count_series(spec, 7) == oracle_av123
    assert [count_class([Basis(((1, 2, 3),))], n) for n in range(6)] == oracle_av123[:6]


@pytest.mark.parametrize("name", ("av321", "av312", "separable", "monotone"))
def test_reverse_involution_series_and_tracking_swap(name):
    spec = builtin_spec(name)
    out = reverse(spec)
    assert reverse(out) == spec
    assert count_series(out, 8) == count_series(spec, 8)
    kind, orig = out.root_tracking(), spec.root_tracking()
    assert (kind.has_r, kind.has_l) == (orig.has_l, orig.has_r)


def test_reverse_of_av312_counts_av213():
    # frozen from the brute-force oracle for the class avoiding 213
    oracle_av213 = [1, 1, 2, 5, 14, 42, 132, 429]
    spec = reverse(builtin_spec("av312"))
    assert count_series(spec, 7) == oracle_av213
    assert [count_class([Basis(((2, 1, 3),))], n) for n in range(6)] == oracle_av213[:6]


def test_reverse_swaps_atoms():
    spec = parse_spec("A = ZR ZL + ZLR\n")
    out = reverse(spec)
    assert out.rhs("A") == Sum((_p(ZL, ZR), ZLR))


def test_forget_left():
    spec = parse_spec("M = ZLR + ZL Seq(Z) ZR\n")
    out = forget_left(spec)
    assert out.rhs("M") == Sum((ZR, _p(Z_EXPR, Seq(Z_EXPR), ZR)))
    kind = out.root_tracking()
    assert (kind.has_r, kind.has_l) == (True, False)
    assert count_series(out, 8) == count_series(spec, 8)


SYMMETRIES = (complement, reverse, forget_left)


def test_symmetries_carry_the_tracking_make_spec_infers():
    """The symmetries carry tracking over instead of inferring it again: the
    result must be what make_spec builds from the same equations."""
    for spec in library_specs():
        for symmetry in SYMMETRIES:
            out = symmetry(spec)
            again = make_spec(out.equations, root=out.root)
            assert out == again, (symmetry.__name__, render_spec(spec))
            assert out.tracking == again.tracking, (symmetry.__name__, render_spec(spec))
