"""The shared expression DAG: sharing, one visit per distinct node, deep and
long expressions, and classify against an independent instrument."""

import random

import pytest

from juxtaspec.builtins import builtin_spec
from juxtaspec.dsl import parse_spec, render_spec, spec_from_json, spec_to_json
from juxtaspec.expr import (
    ClassRef,
    Product,
    Z_EXPR,
    fold,
)
from juxtaspec.juxtapose import build_grid
from juxtaspec.operators import complement, expand
from juxtaspec.series import count_series
from juxtaspec.spec import Equation, classify, make_spec
from helpers import (
    benchmark_grids,
    deep_expr,
    library_specs,
    random_markerless_spec,
    random_recursive_spec,
    regular_by_inlining,
    tree_walk,
)


@pytest.mark.parametrize("source", ("built", "parsed"))
def test_fold_visits_each_distinct_node_once(source):
    spec = build_grid(builtin_spec("av321"), "inc|core|inc|dec")
    if source == "parsed":
        spec = parse_spec(render_spec(spec))
    calls = []
    fold([eq.rhs for eq in spec.equations], lambda node, kids: calls.append(node))
    tree, distinct, objects = tree_walk([eq.rhs for eq in spec.equations])
    assert len(calls) == distinct
    assert len({id(node) for node in calls}) == distinct
    # equal subexpressions of one specification are one object
    assert objects == distinct
    assert tree > 5 * distinct


def test_sharing_is_maximal():
    """No two steps of a carried plan are structurally equal: a leaf is told
    apart by its value and a compound node by its type and the steps of its
    children, so a lost share would show as two steps with one key.  Checked
    on every library specification, the benchmark's grids and their DSL
    round trips."""
    grids = benchmark_grids()
    assert len(grids) == 8
    for spec in [*library_specs(), *grids, *(parse_spec(render_spec(g)) for g in grids)]:
        steps = spec._plan[0]
        keys = {(type(node), *kids) if kids else node for node, kids in steps}
        assert len(keys) == len(steps), render_spec(spec)[:200]


def _deep_series(depth, order):
    """Coefficients of f_depth, where f_0 = z and f_(k+1) = z + z/(1 - f_k)."""
    f = [0, 1] + [0] * (order - 1)
    for _ in range(depth):
        inv = [1] + [0] * order  # 1/(1 - f) by the recurrence g = 1 + f g
        for n in range(1, order + 1):
            inv[n] = sum(f[j] * inv[n - j] for j in range(1, n + 1))
        f = [0, 1 + inv[0]] + inv[1:order]
    return [0] + f[1:]


def test_deep_nesting_through_the_pipeline():
    depth = 5000
    spec = make_spec([Equation("A", deep_expr(depth))])
    text = render_spec(spec)
    assert text.startswith("A = Z + Z Seq(Z + Z Seq(")
    assert text.count("Seq(") == depth
    assert spec_from_json(spec_to_json(spec)) == spec
    flipped = complement(spec)
    assert render_spec(flipped).startswith("A = Z + Seq(Z + Seq(")
    # structural equality of separately built deep expressions is iterative
    assert complement(flipped) == spec
    assert flipped.equations[0].rhs == complement(spec).equations[0].rhs
    assert flipped != spec
    flags = classify(spec)
    assert flags.regular and not flags.context_free
    assert count_series(spec, 6) == _deep_series(depth, 6)


def test_long_product_under_an_operator():
    spec = make_spec([Equation("X", Product((Z_EXPR,) * 5000))])
    image = expand(spec, [("X", "oo")]).rhs("X.oo")
    assert image.factors == (ClassRef("SZ"), Z_EXPR) * 5000


def test_classify_matches_inlining_on_library_specs():
    specs = library_specs()
    assert len(specs) == 4 + 32 + 12
    for spec in specs:
        assert classify(spec).regular == regular_by_inlining(spec), render_spec(spec)


def test_classify_matches_inlining_on_random_specs():
    rng = random.Random(11)
    specs = [random_markerless_spec(rng, n_symbols=rng.randint(1, 4)) for _ in range(100)]
    specs += [random_recursive_spec(rng, n_symbols=rng.randint(1, 5)) for _ in range(150)]
    verdicts = set()
    for spec in specs:
        expected = regular_by_inlining(spec)
        assert classify(spec).regular == expected, render_spec(spec)
        verdicts.add(expected)
    assert verdicts == {True, False}
