"""The plan a specification carries: every analysis evaluates it, so it must
be a plan of exactly the specification's equations, however the
specification was made, and no analysis may plan the system again."""

import ast
import importlib
import json
import pickle
from pathlib import Path

import pytest

import juxtaspec.dsl as dsl_module
import juxtaspec.expr as expr_module
import juxtaspec.operators as operators_module
import juxtaspec.series as series_module
import juxtaspec.spec as spec_module
from juxtaspec.builtins import builtin_names, builtin_spec, builtin_text
from juxtaspec.dsl import parse_spec, render_spec, spec_from_dict, spec_from_json, spec_to_json
from juxtaspec.expr import (
    ZR,
    AtomRef,
    ClassRef,
    Product,
    Seq,
    SpecError,
    Sum,
    Z_EXPR,
    ZeroExpr,
    children,
    plan,
)
from juxtaspec.juxtapose import (
    DIR_DEC,
    DIR_INC,
    SIDE_LEFT,
    SIDE_RIGHT,
    TRACK_BOTH,
    TRACK_MODES,
    build_grid,
    juxtapose,
)
from juxtaspec.operators import complement, expand, forget_left, reverse
from juxtaspec.series import (
    EnumerationError,
    ProductivityReport,
    count_series,
    productivity_check,
)
from juxtaspec.spec import SZ_NAME, Equation, classify, inline_seq, make_spec, sz_equation
from helpers import library_specs, marker_totals, tree_walk


def _variants(spec):
    """(how, specification) for each way of making a specification that has
    the same series as spec without a closing pass over its own equations,
    or with one that has to keep the reserved SZ equation in its plan."""
    yield "complement", complement(spec)
    yield "reverse", reverse(spec)
    yield "forget_left", forget_left(spec)
    yield "inline_seq", inline_seq(spec)
    yield "pickled", pickle.loads(pickle.dumps(spec))
    yield "reverse, pickled", pickle.loads(pickle.dumps(reverse(spec)))
    kept = [eq for eq in spec.equations if eq.lhs != SZ_NAME]
    if len(kept) < len(spec.equations):
        yield "SZ injected", make_spec(kept, root=spec.root)
    else:
        yield "SZ unreferenced", make_spec(kept + [sz_equation()], root=spec.root)


def _assert_plan_of_equations(spec):
    """The carried plan is a plan of the distinct nodes of the equations,
    exactly those that plan finds, children first, with each equation's
    right-hand side at its root.  Its children are tuples, and it holds no
    Zero and nothing but expressions."""
    steps, at = spec._plan
    assert len(at) == len(spec.equations) and next(iter(at)) == spec.root
    assert all(steps[at[eq.lhs]][0] is eq.rhs for eq in spec.equations)
    for i, (node, kids) in enumerate(steps):
        assert type(kids) is tuple
        assert type(node) in (Sum, Product, Seq, AtomRef, ClassRef)
        assert all(k < i for k in kids)
        assert [id(steps[k][0]) for k in kids] == [id(kid) for kid in children(node)]
    _, _, objects = tree_walk([eq.rhs for eq in spec.equations])
    assert len(steps) == len({id(node) for node, _ in steps}) == objects
    planned = plan([eq.rhs for eq in spec.equations])[0]
    assert {id(node) for node, _ in steps} == {id(node) for node, _ in planned}


def _with_read_backs(specs):
    """Each specification, then its DSL and its JSON re-read."""
    for spec in specs:
        yield spec
        yield parse_spec(render_spec(spec))
        yield spec_from_json(spec_to_json(spec))


def _built_specs():
    """The library's specifications, each builtin's symmetries and grids."""
    yield from library_specs()
    for name in builtin_names():
        spec = builtin_spec(name)
        yield from (symmetry(spec) for symmetry in (complement, reverse, forget_left, inline_seq))
        for pattern in ("inc|core|inc", "dec|core|inc|dec"):
            try:
                yield build_grid(spec, pattern)
            except SpecError:
                pass


def test_carried_steps_are_the_plan_of_the_equations():
    """However a specification was made, and after its DSL and JSON
    re-reads, the steps it carries are exactly the distinct nodes that plan
    finds under its equations, each after its children."""
    specs = list(_with_read_backs(_built_specs()))
    for spec in specs:
        _assert_plan_of_equations(spec)
    assert len(specs) > 200


def _outputs(spec):
    return classify(spec), render_spec(spec), spec_to_json(spec)


# DSL texts whose parse tables hold entries that no equation reaches (a
# group that flattens into the sum or product around it, an E factor), and
# whether they do.  The last ones inject SZ, whose right-hand side reuses an
# entry built before it and not reached until then: reach is taken again
# after the injection, so where that entry is the only unreached one, the
# table is its plan.
UNREACHED = [
    ("A = (Z Z) Z + E\n", True),
    ("A = (Z + E) + Z A\n", True),
    ("A = Z Seq((Z Z))\n", False),
    ("A = ((Z Z) (Z Z)) Z + (E + (Z + E))\n", True),
    ("A = E Z + Z A\n", True),
    ("A = Z (B Z) + E\nB = (Z Z) Seq((Z Z)) + E\n", True),
    ("A = Z (B + E) Seq(Z (Z Z)) + E\nB = (Z + Z) + B Z\n", True),
    ("A = (SZ Z) Z + E\n", False),
    ("A = Z ((SZ Z) Z) + E\n", True),
    ("A = E Z SZ + Z\n", False),
]


@pytest.fixture
def renumbered(monkeypatch):
    """Whether each plan that spec.py reads from a table is renumbered."""
    flags, real = [], spec_module._compacted

    def compacted(table, at, reached):
        flags.append(reached is not None)
        return real(table, at, reached)

    monkeypatch.setattr(spec_module, "_compacted", compacted)
    return flags


@pytest.mark.parametrize("text, unreached", UNREACHED)
def test_plans_of_tables_with_unreached_entries(renumbered, text, unreached):
    """The carried plan of a table whose steps the equations do not all
    reach is renumbered, and is still the plan of the equations; the JSON
    writer lists only its nodes."""
    spec = parse_spec(text)
    assert renumbered == [unreached]
    _assert_plan_of_equations(spec)
    distinct = plan([eq.rhs for eq in spec.equations])[0]
    assert len(json.loads(spec_to_json(spec))["nodes"]) == len(distinct)
    assert _outputs(spec) == _outputs(make_spec(spec.equations))
    assert parse_spec(render_spec(spec)) == spec


def test_writer_output_parses_to_a_table_that_is_its_plan(renumbered):
    """Every step of the table that the DSL writer's output parses into is
    reached, so the table's steps are the plan as they stand."""
    texts = [render_spec(spec) for spec in _built_specs()]
    del renumbered[:]
    for text in texts:
        parse_spec(text)
    assert len(renumbered) == len(texts) and not any(renumbered)


def test_a_reference_only_a_zero_term_holds_is_not_read():
    """A reference under a product with a Zero factor is entered in the
    table but reached by nothing: it needs no equation, and it is neither
    planned nor written."""
    doc = {"root": "A", "equations": [{"lhs": "A", "rhs": {"kind": "sum", "terms": [
        {"kind": "atom", "name": "Z"},
        {"kind": "product", "factors": [{"kind": "ref", "name": "X"}, {"kind": "zero"}]},
    ]}}]}
    spec = spec_from_dict(doc)
    _assert_plan_of_equations(spec)
    assert render_spec(spec) == "A = Z\n"
    assert json.loads(spec_to_json(spec))["nodes"] == [{"kind": "atom", "name": "Z"}]


@pytest.mark.parametrize("name", builtin_names())
def test_variants_of_builtins_match_make_spec_and_marker_series(name):
    spec = builtin_spec(name)
    _assert_plan_of_equations(spec)
    for how, variant in _variants(spec):
        _assert_plan_of_equations(variant)
        again = make_spec(variant.equations, root=variant.root)
        assert _outputs(variant) == _outputs(again), (name, how)
        series = count_series(variant, 20)
        assert series == count_series(again, 20) == marker_totals(variant, 20), (name, how)


def test_variants_of_library_specs_match_make_spec():
    """Every variant has the series of the specification it came from, which
    test_series checks against marker_series."""
    for i, spec in enumerate(library_specs()):
        _assert_plan_of_equations(spec)
        series = count_series(spec, 20)
        for how, variant in _variants(spec):
            _assert_plan_of_equations(variant)
            again = make_spec(variant.equations, root=variant.root)
            assert _outputs(variant) == _outputs(again), (i, how)
            assert count_series(variant, 20) == series, (i, how)


# ---------------------------------------------------------------------------
# refusals read from the plan


BAD_SEQ = "A = Z + Seq(E + Z) B Seq(E + Z)\nB = Z Seq(B + E)\n"
BAD_SEQ_PROBLEMS = (
    "A: Seq argument has nonzero constant term",
    "A: Seq argument has nonzero constant term",
    "B: Seq argument has nonzero constant term",
)


def test_seq_argument_refusal_texts():
    """One problem per tree occurrence of a bad Seq, equation by equation:
    A holds one shared Seq node twice, B a Seq over its own symbol."""
    spec = parse_spec(BAD_SEQ)
    with pytest.raises(EnumerationError) as info:
        count_series(spec, 5)
    assert str(info.value) == "; ".join(BAD_SEQ_PROBLEMS)
    assert productivity_check(spec) == ProductivityReport(False, (), BAD_SEQ_PROBLEMS)
    # the same texts when the specification did not come from a closing pass
    for variant in (complement(spec), pickle.loads(pickle.dumps(spec))):
        assert productivity_check(variant) == ProductivityReport(False, (), BAD_SEQ_PROBLEMS)


# ---------------------------------------------------------------------------
# no analysis plans the system again


# the package exports a function named juxtapose, which shadows the module
LIBRARY_MODULES = (
    expr_module, spec_module, series_module, dsl_module, operators_module,
    importlib.import_module("juxtaspec.juxtapose"),
)


def _counting(monkeypatch, name):
    """The calls so far of the expr function ``name``, wherever the library
    binds it."""
    calls = []
    real = getattr(expr_module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in LIBRARY_MODULES:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def plan_calls(monkeypatch):
    return _counting(monkeypatch, "plan")


@pytest.fixture
def fixpoint_calls(monkeypatch):
    return _counting(monkeypatch, "least_fixpoint")


def _analysis(args) -> str:
    """Which per-symbol analysis the least_fixpoint call of ``args`` runs: a
    pass is told by what it is or, for a marker count, by one pass over a
    plan of the single step ZR."""
    run_pass = args[2]
    if run_pass is spec_module._empty_pass:
        return "empty"
    if run_pass is series_module._valuation_pass:
        return "valuations"
    values = [None]
    run_pass([(AtomRef(ZR), ())], [()], values)
    return "rightmost" if values == [1] else "leftmost"


@pytest.mark.parametrize("build", ["av321", "monotone", "av321 inc|core|inc"])
def test_analyses_evaluate_the_carried_plan(plan_calls, fixpoint_calls, build):
    core, *pattern = build.split()
    spec = builtin_spec(core)
    if pattern:
        spec = parse_spec(render_spec(build_grid(spec, pattern[0])))
    del plan_calls[:], fixpoint_calls[:]
    render_spec(spec)
    spec_to_json(spec)
    assert len(plan_calls) == len(fixpoint_calls) == 0
    count_series(spec, 12)
    assert len(plan_calls) == 0  # the schedule orders its cells by a walk of its own
    assert [_analysis(args) for args in fixpoint_calls] == ["valuations"]
    assert fixpoint_calls[0][0] is spec._plan[0]
    del plan_calls[:], fixpoint_calls[:]
    productivity_check(spec)
    assert [_analysis(args) for args in fixpoint_calls] == ["valuations"]
    assert fixpoint_calls[0][0] is spec._plan[0]
    del plan_calls[:], fixpoint_calls[:]
    classify(spec)
    assert len(plan_calls) == len(fixpoint_calls) == 0


@pytest.mark.parametrize("symmetry", [complement, reverse, forget_left, inline_seq])
def test_symmetries_plan_only_their_output(plan_calls, symmetry):
    """A symmetry rebuilds its input by evaluating the plan the input
    carries and reads its output's plan from the table of that rebuild, the
    reserved SZ right-hand side included: it plans nothing."""
    regular = juxtapose(builtin_spec("monotone"), SIDE_RIGHT, DIR_INC, TRACK_BOTH)
    for spec in [builtin_spec(name) for name in builtin_names()] + [regular]:
        del plan_calls[:]
        out = symmetry(spec)
        assert plan_calls == []
        _assert_plan_of_equations(out)


def test_juxtaposition_steps_plan_nothing(plan_calls):
    """An expansion, every juxtaposition step, a grid and a merge of
    equivalent symbols read every plan they need from the table they built
    in: none of them calls plan."""
    av321, monotone = builtin_spec("av321"), builtin_spec("monotone")
    regular = juxtapose(monotone, SIDE_RIGHT, DIR_INC, TRACK_BOTH)
    mergeable = parse_spec("A = B + C\nB = Z B + ZR\nC = Z C + ZR\n")
    builds = [
        lambda: expand(av321, [("C.R", tag) for tag in ("i", "io", "ii")]),
        lambda: expand(parse_spec("A = B ZR + Z ZR\nB = C C\nC = E\n"), [("A", "i")]),
        lambda: build_grid(av321, "inc|core|inc|dec"),
        lambda: build_grid(monotone, "inc|dec|core|inc"),
        lambda: spec_module._merge_equivalent(mergeable),
    ]
    builds += [lambda s=s, c=c, d=d, m=m: juxtapose(s, c, d, m)
               for s in (av321, regular) for c in (SIDE_RIGHT, SIDE_LEFT)
               for d in (DIR_INC, DIR_DEC) for m in TRACK_MODES]
    for build in builds:
        del plan_calls[:]
        try:
            out = build()
        except SpecError:
            continue
        assert plan_calls == []
        _assert_plan_of_equations(out)
    assert spec_module._merge_equivalent(mergeable).symbols == ("A", "B")


def _closing_passes():
    """(how, a call that closes one system)."""
    av321 = builtin_spec("av321")
    empty_symbols = parse_spec("A = B ZR + Z ZR\nB = C C\nC = E\n")
    # a regular input with SZ, which a step inlines in the same map
    regular = juxtapose(builtin_spec("monotone"), SIDE_RIGHT, DIR_INC, TRACK_BOTH)
    assert classify(regular).regular and SZ_NAME in regular.symbols
    yield "parse_spec", lambda: parse_spec(builtin_text("av321"))
    yield "make_spec", lambda: make_spec(av321.equations)
    yield "expand", lambda: expand(empty_symbols, [("A", "i")])
    for side in (SIDE_RIGHT, SIDE_LEFT):
        for mode in TRACK_MODES:
            yield f"juxtapose {side} {mode}", lambda s=side, m=mode: juxtapose(av321, s, DIR_INC, m)
        yield f"juxtapose regular {side}", lambda s=side: juxtapose(regular, s, DIR_INC)


def test_closing_pass_runs_at_most_three_fixpoints(monkeypatch, fixpoint_calls):
    """Emptiness only when some right-hand side is Zero, then the rightmost
    and then the leftmost marker counts, each at most once."""
    real_close, zero_rhs = spec_module._close, []

    def close(eqs, root, table, *args, **kwargs):
        zero_rhs.append(any(isinstance(table.nodes[at], ZeroExpr) for _, at in eqs))
        return real_close(eqs, root, table, *args, **kwargs)

    for module in LIBRARY_MODULES:
        if hasattr(module, "_close"):
            monkeypatch.setattr(module, "_close", close)
    seen = set()
    for how, build in _closing_passes():
        del fixpoint_calls[:], zero_rhs[:]
        build()
        analyses = [_analysis(args) for args in fixpoint_calls]
        # both marker counts evaluate the one plan of the closing pass
        assert len({id(args[0]) for args in fixpoint_calls if _analysis(args) != "empty"}) <= 1, how
        assert len(zero_rhs) == 1, how
        assert analyses == [a for a in ("empty", "rightmost", "leftmost") if a in analyses], how
        assert ("empty" in analyses) == zero_rhs[0], how
        seen.update(analyses)
    assert seen == {"empty", "rightmost", "leftmost"}


def test_expansion_builds_each_image_once(monkeypatch):
    """Within one step, each image of a node (or of a product's suffix from
    its k-th factor) under an operator is built exactly once, however many
    equations use it; the marker flags of product heads come from one
    evaluation of the input's plan."""
    Insertion = operators_module._Insertion
    planned, built, evaluated, instances = [], [], [], []
    real_terms, real_build, real_init = Insertion._terms, Insertion._build, Insertion.__init__

    def terms(self, op, at, k):
        planned.append((id(self), op, at, k))
        return real_terms(self, op, at, k)

    def build(self, *args):
        built.append(id(self))
        return real_build(self, *args)

    def init(self, *args, **kwargs):
        instances.append(self)
        return real_init(self, *args, **kwargs)

    monkeypatch.setattr(Insertion, "_terms", terms)
    monkeypatch.setattr(Insertion, "_build", build)
    monkeypatch.setattr(Insertion, "__init__", init)
    real_evaluate = operators_module.evaluate
    monkeypatch.setattr(operators_module, "evaluate",
                        lambda *a, **k: evaluated.append(a) or real_evaluate(*a, **k))
    av321 = builtin_spec("av321")
    builds = [lambda: expand(av321, [("C.R", tag) for tag in ("i", "io", "ii")])]
    builds += [lambda s=side, d=d: juxtapose(av321, s, d, TRACK_BOTH)
               for side in (SIDE_RIGHT, SIDE_LEFT) for d in (DIR_INC, DIR_DEC)]
    builds.append(lambda: build_grid(av321, "inc|core|inc|dec"))
    for build in builds:
        del planned[:], built[:], evaluated[:], instances[:]
        build()
        assert len(set(planned)) == len(planned) == len(built) > 0
        assert len(evaluated) == len(instances) > 0
        assert sum(len(step.images) for step in instances) == len(built)


# ---------------------------------------------------------------------------
# positions, not identities


# the modules that build and read tables and plans
POSITIONAL = ("spec.py", "operators.py", "dsl.py", "series.py", "juxtapose.py")


def _identity_reads(tree: ast.Module) -> list:
    """The lines that read the builtin ``id``, called or passed."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "id")


@pytest.mark.parametrize("name", POSITIONAL)
def test_no_identity_bookkeeping(name):
    """Tables and plans tell nodes apart by position, so these modules
    never key anything by ``id``."""
    path = Path(spec_module.__file__).parent / name
    assert _identity_reads(ast.parse(path.read_text(), str(path))) == []


def test_an_identity_read_is_found():
    tree = ast.parse("a = {id(x): 1}\nb = list(map(id, xs))\nc = node.id\n")
    assert _identity_reads(tree) == [1, 2]


# every module of the package but the one that defines Specification
PLAN_READERS = sorted(path.name for path in Path(spec_module.__file__).parent.glob("*.py")
                      if path.name != "spec.py")


def _equation_reads(tree: ast.Module) -> list:
    """The lines that read ``.equations`` or ``._by_name``, or call ``.rhs``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("equations", "_by_name")
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "rhs")


@pytest.mark.parametrize("name", PLAN_READERS)
def test_readers_use_the_symbol_map(name):
    """A specification is its plan plus one symbol→step map; the library
    reads its equations through that map, not through the views of it."""
    path = Path(spec_module.__file__).parent / name
    assert _equation_reads(ast.parse(path.read_text(), str(path))) == []


def test_an_equation_read_is_found():
    tree = ast.parse("a = spec.equations\nb = spec._by_name[x]\nc = spec.rhs(x)\nd = eq.rhs\n")
    assert _equation_reads(tree) == [1, 2, 3]


# ---------------------------------------------------------------------------
# hashes on demand


def _compound_steps(spec):
    return [node for node, kids in spec._plan[0] if kids]


def test_equal_nodes_of_two_tables_compare_and_hash_equal():
    """Nodes are built without their hash.  Equal nodes built in two tables,
    or unpickled, are distinct objects that compare equal and hash equal."""
    built = build_grid(parse_spec(builtin_text("av321")), "inc|core|inc")
    copies = [parse_spec(render_spec(built)), spec_from_json(spec_to_json(built)),
              pickle.loads(pickle.dumps(built))]
    for spec in [built] + copies:
        assert not any(hasattr(node, "_hash") for node in _compound_steps(spec))
    for copy in copies:
        for eq, again in zip(built.equations, copy.equations):
            assert eq.rhs is not again.rhs or not children(eq.rhs)
            assert eq.rhs == again.rhs and hash(eq.rhs) == hash(again.rhs)
        assert copy == built and hash(copy) == hash(built)


# ---------------------------------------------------------------------------
# pickling


def test_deeply_nested_specification_pickles():
    expr = Z_EXPR
    for _ in range(3000):
        expr = Sum((Z_EXPR, Product((Z_EXPR, Seq(expr)))))
    spec = make_spec([Equation("A", expr)])
    again = pickle.loads(pickle.dumps(spec))
    # hash and == walk the nesting iteratively, computing every hash on demand
    assert not hasattr(again.rhs("A"), "_hash")
    assert hash(again.rhs("A")) == hash(spec.rhs("A")) == hash(expr)
    assert again.rhs("A") == spec.rhs("A") == expr
    assert again == spec and again.tracking == spec.tracking
    _assert_plan_of_equations(again)
    assert again._plan[1] == spec._plan[1]
    assert count_series(again, 12) == count_series(spec, 12)
    # a bare equation or expression pickles in the same flat form
    for part in (spec.equations[0], spec.rhs("A")):
        assert pickle.loads(pickle.dumps(part)) == part
