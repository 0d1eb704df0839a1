"""The closing pass: every step that builds a specification closes it once,
and the result is what make_spec returns for the same equations, with the
same tracking and one object per distinct subexpression (the same property
over random specifications is in test_properties.py).  Empty-class symbols
of an expansion are compared with the iterated elimination of
tests/helpers.py."""

import random

import pytest

import juxtaspec.expr as expr_module
from juxtaspec.builtins import builtin_names, builtin_spec
from juxtaspec.dsl import parse_spec, render_expr
from juxtaspec.expr import AtomRef, ClassRef, Product, SpecError, Sum, plan
from juxtaspec.juxtapose import build_grid
from juxtaspec.operators import INSERTION_TAGS, _expand_equations, _Insertion, expand
from juxtaspec.series import count_series
from juxtaspec.spec import Equation, _close, make_spec
from test_plan import _assert_plan_of_equations
from helpers import (
    assert_closed,
    closed_outputs,
    eliminate_empty_symbols,
    library_specs,
    random_expr,
    tree_walk,
)


def test_library_outputs_are_closed():
    # library_specs: the builtins (parse_spec) and the juxtapose and
    # build_grid outputs of the benchmark; one operator each for expand
    for i, spec in enumerate(library_specs()):
        assert_closed(spec)
        for out in closed_outputs(spec, INSERTION_TAGS[i % 6 : i % 6 + 1]):
            assert_closed(out)


@pytest.mark.parametrize("core, pattern", [
    ("av321", "core|inc|inc"),
    ("monotone", "core|inc|inc|inc"),
    ("av321", "dec|inc|core"),
    ("monotone", "inc|dec|core|inc"),
])
def test_build_is_shared_when_built(core, pattern):
    """No step of a build, whatever its side and direction, has a rewrite
    after it: the expansion itself must build into one table."""
    out = build_grid(builtin_spec(core), pattern)
    tree, distinct, objects = tree_walk([eq.rhs for eq in out.equations])
    assert objects == distinct
    assert tree > distinct
    assert_closed(out)


# ---------------------------------------------------------------------------
# empty-class symbols


def _reference_expand(spec, pairs):
    root = f"{pairs[0][0]}.{pairs[0][1]}"
    images = _Insertion(spec)
    named = [(lhs, images.table.nodes[at]) for lhs, at in _expand_equations(images, pairs)]
    kept, rounds = eliminate_empty_symbols(named, root)
    if kept is None:
        return f"expansion of {root} is the empty class", rounds
    try:
        return make_spec([Equation(name, rhs) for name, rhs in kept], root=root), rounds
    except SpecError as exc:
        return str(exc), rounds


def _expand_or_error(spec, pairs):
    try:
        return expand(spec, pairs)
    except SpecError as exc:
        return str(exc)


def test_empty_symbols_over_two_rounds():
    # C.i is empty, so B.i = C.i C.o + C.o C.i is empty in the next round
    spec = parse_spec("A = B ZR + Z ZR\nB = C C\nC = E\n")
    want, rounds = _reference_expand(spec, [("A", "i")])
    assert rounds == 2
    out = expand(spec, [("A", "i")])
    assert out == want
    assert render_expr(out.rhs("A.i")) == "B.o ZR Z + ZR Z Z + Z ZR Z"
    assert "B.i" not in out.symbols and "C.i" not in out.symbols
    assert count_series(out, 5) == [0, 0, 1, 2, 0, 0]


def test_pruning_plans_the_pruned_system_once(monkeypatch):
    """The closing pass of an expansion with empty symbols plans nothing:
    the expansion's plan and the pruned system's are read from the table
    they were built in, and the Zero substitution evaluates the plan it
    holds.  The pruned system's plan is exactly its equations' nodes."""
    spec = parse_spec("A = B ZR + Z ZR\nB = C C\nC = E\n")
    images = _Insertion(spec)
    eqs = _expand_equations(images, [("A", "i")])
    sizes = []

    def recording_plan(*args, **kwargs):
        steps, position = plan(*args, **kwargs)
        sizes.append(len(steps))
        return steps, position

    monkeypatch.setattr(expr_module, "plan", recording_plan)
    out = _close(eqs, "A.i", images.table, prune=True)
    monkeypatch.undo()
    assert out.symbols == ("A.i", "B.o", "C.o")
    assert sizes == []
    steps, roots = out._plan
    want, position = plan([eq.rhs for eq in out.equations])
    assert {id(node) for node, _ in steps} == {id(node) for node, _ in want}
    assert all(steps[at][0] is eq.rhs for eq, at in zip(out.equations, roots))


def test_pruning_keeps_the_named_one_of_two_symbols_sharing_a_step():
    """A and B have one hash-consed right-hand side, so their images under
    one operator are one step; pruning keeps only the symbols that a
    reached reference names, whichever of them shares the root's step."""
    spec = parse_spec("A = Z A + ZR\nB = Z A + ZR\n")
    assert spec.rhs("A") is spec.rhs("B")
    out = expand(spec, [("A", "o"), ("B", "o")])
    assert out.symbols == ("A.o",)
    _assert_plan_of_equations(out)
    out = expand(spec, [("B", "i"), ("A", "i")])
    assert out.symbols == ("B.i", "A.i", "A.o")
    assert out.rhs("B.i") is out.rhs("A.i")
    _assert_plan_of_equations(out)


@pytest.mark.parametrize("text, pair, rounds", [
    ("A = B ZR\nB = E\n", ("B", "i"), 1),
    ("A = B B\nB = E\n", ("A", "ii"), 2),
    ("A = B + C C\nB = C\nC = D D\nD = E\n", ("A", "io"), 4),
    ("".join(f"C{i} = C{i + 1} + C{i + 1} C{i + 1}\n" for i in range(49)) + "C49 = E\n",
     ("C0", "io"), 50),
])
def test_empty_root_is_refused(text, pair, rounds):
    spec = parse_spec(text)
    want, found = _reference_expand(spec, [pair])
    assert found == rounds
    assert want == f"expansion of {pair[0]}.{pair[1]} is the empty class"
    with pytest.raises(SpecError, match="is the empty class") as info:
        expand(spec, [pair])
    assert str(info.value) == want


def _spec_with_empty_symbols(rng):
    """Random untracked specification in which some symbols are E-only
    classes (sums and products of E and other E-only symbols), so the
    operators that insert an entry map them to the empty class, possibly
    through several layers of references."""
    names = [f"S{i}" for i in range(rng.randint(2, 6))]
    only_e = set(rng.sample(names, rng.randint(1, len(names) - 1)))
    eqs = []
    for i, name in enumerate(names):
        later = names[i + 1:]
        if name in only_e:
            refs = [ClassRef(n) for n in later if n in only_e] or [AtomRef("E")]
            parts = [rng.choice(refs + [AtomRef("E")]) for _ in range(rng.randint(1, 3))]
            body = Product(tuple(parts)) if rng.random() < 0.5 else Sum(tuple(parts))
            eqs.append(Equation(name, body if len(parts) > 1 else parts[0]))
        else:
            body = random_expr(rng, names, 3, allow_marks=False)
            eqs.append(Equation(name, Sum((AtomRef("Z"), body))))
    return make_spec(eqs, root=names[0])


def test_empty_symbols_match_the_iterated_elimination():
    rng = random.Random(5)
    multi_round = 0
    for _ in range(100):
        spec = _spec_with_empty_symbols(rng)
        for symbol in spec.symbols:
            for tag in INSERTION_TAGS:
                want, rounds = _reference_expand(spec, [(symbol, tag)])
                assert _expand_or_error(spec, [(symbol, tag)]) == want
                multi_round += rounds > 1
    assert multi_round > 20  # the inputs do reach elimination chains


def test_empty_symbols_on_the_builtins():
    for name in builtin_names():
        spec = builtin_spec(name)
        for symbol in spec.symbols:
            for tag in INSERTION_TAGS:
                want, _ = _reference_expand(spec, [(symbol, tag)])
                assert _expand_or_error(spec, [(symbol, tag)]) == want
