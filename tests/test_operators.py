from math import comb

import pytest

from juxtaspec.builtins import builtin_names, builtin_spec
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
    complement,
    expand,
    forget_left,
    reverse,
)
from juxtaspec.juxtapose import juxtapose
from juxtaspec.oracle import INC, Basis, count_class
from juxtaspec.series import count_series
from juxtaspec.spec import Equation, make_spec
from helpers import library_specs, operator_image_counts, operator_images

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


def _fig_spec(operand):
    """The system X = operand over A = B = D = Z and CR = ZR: only CR
    carries the rightmost marker."""
    others = [Equation(name, Z_EXPR) for name in ("A", "B", "D")] + [Equation("CR", ZR)]
    return make_spec([Equation("X", operand)] + others)


def _image(op, operand):
    """The image of operand under op, read from the expansion of X; no image
    of a symbol above is empty, so none is dropped."""
    return expand(_fig_spec(operand), [("X", op)]).rhs("X." + op)


def _image_terms(op, operand):
    return {render_expr(t) for t in _distribute(_image(op, operand))}


def test_nine_term_product_expansion():
    # ii over a four-factor product whose third factor carries the marker
    operand = _p(ClassRef("A"), ClassRef("B"), ClassRef("CR"), ClassRef("D"))
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
    assert _image_terms("ii", operand) == expected


# Heads that carry the rightmost marker, with the images of (head B) under
# i, io and ii: the term that applies the operator to B is dropped.
MARKED_HEADS = [
    (ClassRef("CR"), {  # a class that tracks the marker
        "i": {"CR.i B.o"},
        "io": {"CR.io B.oo"},
        "ii": {"CR.ii B.o", "CR.io B.oi"},
    }),
    (ZR, {  # the marker atom itself
        "i": {"ZR Z B.o"},
        "io": {"Z SZ Z B.oo"},
        "ii": {"Z SZ ZR Z B.o", "Z SZ Z B.oi"},
    }),
    (Sum((ZR, _p(ClassRef("A"), ZR))), {  # a parenthesized sum carrying it
        "i": {"ZR Z B.o", "A.i Z B.o", "A.o ZR Z B.o"},
        "io": {"Z SZ Z B.oo", "A.io SZ Z B.oo", "A.o Z SZ Z B.oo"},
        "ii": {
            "Z SZ ZR Z B.o", "Z SZ Z B.oi", "A.ii Z B.o", "A.io SZ ZR Z B.o",
            "A.io SZ Z B.oi", "A.o Z SZ ZR Z B.o", "A.o Z SZ Z B.oi",
        },
    }),
]


def test_marked_head_loses_final_term():
    for head, images in MARKED_HEADS:
        for op, expected in images.items():
            assert _image_terms(op, _p(head, ClassRef("B"))) == expected, (head, op)


def test_unmarked_head_keeps_all_terms():
    assert _image_terms("i", _p(ClassRef("A"), ClassRef("B"))) == {"A.i B.o", "A.o B.i"}
    # a run carries no marker
    assert _image_terms("i", _p(Seq(Z_EXPR), ClassRef("B"))) == {"Seq(Z) ZR Z Seq(Z) B.o", "Seq(Z) B.i"}


def test_zr_invariant_rule_ignores_marker():
    for operand in (_p(ClassRef("CR"), ClassRef("B")), _p(ClassRef("A"), ClassRef("B"))):
        assert len(_distribute(_image("oi", operand))) == 2


def test_sequence_rules():
    a = ClassRef("A")
    assert _image("o", Seq(a)) == Seq(ClassRef("A.o"))
    assert _image("oo", Seq(a)) == Seq(ClassRef("A.oo"))
    got = _image("i", Seq(a))
    assert got == _p(Seq(ClassRef("A.o")), ClassRef("A.i"), Seq(ClassRef("A.o")))
    got = _image("io", Seq(a))
    assert got == _p(Seq(ClassRef("A.o")), ClassRef("A.io"), Seq(ClassRef("A.oo")))
    got = _image("oi", Seq(a))
    assert got == _p(Seq(ClassRef("A.oo")), ClassRef("A.oi"), Seq(ClassRef("A.o")))
    got = _image("ii", Seq(a))
    assert got == Sum((
        _p(Seq(ClassRef("A.o")), ClassRef("A.io"), Seq(ClassRef("A.oo")),
           ClassRef("A.oi"), Seq(ClassRef("A.o"))),
        _p(Seq(ClassRef("A.o")), ClassRef("A.ii"), Seq(ClassRef("A.o"))),
    ))


def test_seq_with_marked_content_rejected():
    with pytest.raises(SpecError) as info:
        _fig_spec(Seq(ClassRef("CR")))
    assert str(info.value) == (
        "Seq argument in 'X': class 'CR' carries a marker and cannot appear inside Seq"
        " (term 1 of 'X')"
    )
    with pytest.raises(SpecError) as info:
        _fig_spec(Seq(ZR))
    assert str(info.value) == (
        "Seq argument in 'X': marked atom ZR cannot appear inside Seq (term 1 of 'X')"
    )


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


@pytest.mark.parametrize("symmetry", [reverse, forget_left])
def test_symmetries_keep_the_nodes_they_leave_alone(symmetry):
    """C carries no marker, so neither symmetry changes its right-hand side:
    the result holds the input's node, not a rebuilt copy of it."""
    spec = builtin_spec("av321")
    assert symmetry(spec).rhs("C") is spec.rhs("C")


BUILTIN_CELLS = {
    "av312": [Basis(((3, 1, 2),))],
    "av321": [Basis(((3, 2, 1),))],
    "monotone": ["inc"],
    "separable": [Basis(((2, 4, 1, 3), (3, 1, 4, 2)))],
}


def test_insertion_anchor():
    """Coefficient n counts, over the 321-avoiders of size n - 1, the gaps
    below the last entry: the sum of the last entries' values."""
    assert count_series(expand(builtin_spec("av321"), [("Full", "i")]), 8) == [
        0, 0, 1, 3, 11, 42, 162, 627, 2431]
    assert operator_image_counts(BUILTIN_CELLS["av321"], "i", 7) == [0, 0, 1, 3, 11, 42, 162, 627]


# monotone juxtaposed right/inc/right holds Seq(SZ Z), a Seq of a compound
# argument, which the io, oi and ii expansions reach
MONOTONE_INC = "monotone|inc"


@pytest.mark.parametrize("name", (*builtin_names(), MONOTONE_INC))
def test_insertion_operators_count_their_permutation_level_reading(name):
    """Each operator's image counts the pairs (member, insertion) of its
    reading on permutations.  Where the lowest new entry lies below the old
    rightmost entry, the insertion starts after the last descent, so
    distinct pairs give distinct permutations."""
    if name == MONOTONE_INC:
        spec = juxtapose(builtin_spec("monotone"), "right", "inc", "right")
        cells = [Basis(((2, 1),)), INC]
    else:
        spec, cells = builtin_spec(name), BUILTIN_CELLS[name]
    for op in INSERTION_TAGS:
        images = [operator_images(cells, op, size) for size in range(8)]
        assert count_series(expand(spec, [(spec.root, op)]), 7) == list(map(len, images)), op
        if op in ("i", "io", "ii"):
            assert all(len(set(x)) == len(x) for x in images), op


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


def test_o_and_oo_images_count_like_the_root_and_its_binomial_transform():
    """The o image only erases the rightmost marker, so it counts like the
    root.  The oo image puts a possibly empty run of new entries below every
    entry: c'(0) = c(0) and c'(n) = sum over k of C(n - 1, k - 1) c(k)."""
    for i, spec in enumerate(library_specs()):
        c = count_series(spec, 12)
        binomial = [c[0]] + [sum(comb(n - 1, k - 1) * c[k] for k in range(1, n + 1))
                             for n in range(1, 13)]
        assert count_series(expand(spec, [(spec.root, "o")]), 12) == c, i
        assert count_series(expand(spec, [(spec.root, "oo")]), 12) == binomial, i
