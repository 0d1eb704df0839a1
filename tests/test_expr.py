import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import juxtaspec

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
    evaluate,
    least_fixpoint,
    nodes,
    plan,
    postorder,
    rewrite,
    terms,
)
from helpers import random_expr, reference_fixpoint, reference_hash, stepwise


def test_sum_drops_zero():
    assert canonicalize(Sum((ZERO, Z_EXPR))) == Z_EXPR


def test_product_drops_empty():
    assert canonicalize(Product((E_EXPR, Z_EXPR, E_EXPR))) == Z_EXPR


def test_zero_annihilates_product():
    assert canonicalize(Product((Z_EXPR, ZERO))) == ZERO


def test_empty_sum_collapses_to_zero():
    assert canonicalize(Sum((ZERO, ZERO))) == ZERO


def test_empty_product_collapses_to_empty():
    assert canonicalize(Product((E_EXPR, E_EXPR))) == E_EXPR


def test_nested_flattening():
    e = Sum((Sum((Z_EXPR, Z_EXPR)), Product((Z_EXPR, Product((Z_EXPR, Z_EXPR))))))
    c = canonicalize(e)
    assert isinstance(c, Sum) and len(c.terms) == 3
    assert isinstance(c.terms[2], Product) and len(c.terms[2].factors) == 3


def test_seq_of_zero_is_empty_object():
    assert canonicalize(Seq(ZERO)) == E_EXPR


def test_product_order_preserved():
    a, b = ClassRef("A"), ClassRef("B")
    assert canonicalize(Product((a, b))) != canonicalize(Product((b, a)))


def _well_formed(expr):
    for node in nodes(expr):
        if isinstance(node, Sum):
            assert len(node.terms) >= 2
            assert not any(isinstance(t, (Sum,)) for t in node.terms)
            assert ZERO not in node.terms
        if isinstance(node, Product):
            assert len(node.factors) >= 2
            assert not any(isinstance(f, Product) for f in node.factors)
            assert E_EXPR not in node.factors
            assert ZERO not in node.factors


def test_canonicalize_idempotent_and_well_formed():
    rng = random.Random(7)
    for _ in range(300):
        e = random_expr(rng, ["A", "B"], depth=4)
        c = canonicalize(e)
        assert canonicalize(c) == c
        if c not in (ZERO,):
            _well_formed(c)


def test_rewrite_replaces_refs_and_canonicalizes():
    e = Product((ClassRef("A"), Z_EXPR))
    assert rewrite([e, e], {ClassRef("A"): E_EXPR}) == [Z_EXPR, Z_EXPR]
    assert rewrite([e], {ClassRef("A"): ZERO}) == [ZERO]


def test_rewrite_maps_atoms():
    e = Product((AtomRef("ZL"), AtomRef("ZLR"), Z_EXPR))
    rename = {AtomRef("ZL"): Z_EXPR, AtomRef("ZLR"): AtomRef("ZR")}
    assert rewrite([e], rename) == [Product((Z_EXPR, AtomRef("ZR"), Z_EXPR))]


def test_terms_of_non_compound():
    assert terms(Z_EXPR) == (Z_EXPR,)


def test_unknown_atom_rejected():
    with pytest.raises(SpecError):
        AtomRef("Q")


def _min_size(node, kids, value):
    """Minimal object size, None while there is none: a monotone analysis."""
    if isinstance(node, ClassRef):
        return value.get(node.name)  # None for a symbol with no equation
    if isinstance(node, Sum):
        return min((k for k in kids if k is not None), default=None)
    if isinstance(node, Product):
        return None if None in kids else sum(kids)
    return 1


def _fixpoint(steps, symbols, fn, bottom):
    """least_fixpoint of the per-step analysis fn, run one pass at a time;
    it must give what the per-step reference gives, in as many passes."""
    passes = []
    run = stepwise(fn)

    def counted(*args):
        passes.append(1)
        return run(*args)

    value, values = least_fixpoint(steps, dict(symbols), counted, bottom)
    assert (value, values, len(passes)) == reference_fixpoint(steps, symbols, fn, bottom)
    return value, values


def _jacobi(steps, symbols, fn, bottom):
    """Reference: every symbol updated at once from the previous round's values."""
    value = {name: bottom for name, _ in symbols}
    while True:
        values = evaluate(steps, lambda node, kids: fn(node, kids, value))
        new = {name: values[at] for name, at in symbols}
        if new == value:
            return value, values
        value = new


def test_least_fixpoint_shared_right_hand_side():
    # hash-consing can give two symbols one right-hand side object
    rhs = Sum((Product((Z_EXPR, Z_EXPR, ClassRef("A"))), Product((Z_EXPR, ClassRef("B")))))
    steps, position = plan([rhs])
    value, values = _fixpoint(steps, [("A", position[id(rhs)]), ("B", position[id(rhs)])],
                              _min_size, None)
    assert value == {"A": None, "B": None}  # neither ever has an object
    rhs = Sum((Z_EXPR, Product((Z_EXPR, ClassRef("A")))))
    steps, position = plan([rhs])
    value, values = _fixpoint(steps, [("A", position[id(rhs)]), ("B", position[id(rhs)])],
                              _min_size, None)
    assert value == {"A": 1, "B": 1}
    assert values[position[id(rhs)]] == 1


def test_least_fixpoint_keeps_bottom_for_a_symbol_never_raised():
    a, c = Sum((Z_EXPR, Product((Z_EXPR, ClassRef("A"))))), Product((Z_EXPR, ClassRef("C")))
    steps, position = plan([a, c])
    symbols = [("A", position[id(a)]), ("C", position[id(c)])]
    value, values = _fixpoint(steps, symbols, _min_size, None)
    assert value == {"A": 1, "C": None}
    assert values[position[id(c)]] is None


def test_least_fixpoint_reads_earlier_steps_of_this_pass_and_bottom_without_an_equation():
    # S0 = Z + Z U, S(i + 1) = Z S(i): each symbol reads one planned before
    # it, so the first pass settles them all (reading only the last pass's
    # values would take a pass per symbol); U has no equation
    u = ClassRef("U")
    rhs = [Sum((Z_EXPR, Product((Z_EXPR, u))))]
    rhs += [Product((Z_EXPR, ClassRef(f"S{i}"))) for i in range(5)]
    steps, position = plan(rhs)
    symbols = [(f"S{i}", position[id(r)]) for i, r in enumerate(rhs)]
    value, values = _fixpoint(steps, symbols, _min_size, None)
    assert value == {f"S{i}": i + 1 for i in range(6)}
    assert values[position[id(u)]] is None


def test_least_fixpoint_matches_jacobi_on_a_reverse_ordered_chain():
    # S0 refers to S1 and S3, S1 to S2 and S4, ...: each symbol is planned
    # before the symbols it reads, so values settle one symbol per pass
    def ref(i):
        return ClassRef(f"S{i}")

    rhs = [Sum((Product((Z_EXPR, ref(i + 1))), Product((Z_EXPR, Z_EXPR, ref(i + 3)))))
           for i in range(37)]
    rhs += [Product((Z_EXPR, Z_EXPR)), Z_EXPR, Product((Z_EXPR, ref(39)))]
    steps, position = plan(rhs)
    symbols = [(f"S{i}", position[id(r)]) for i, r in enumerate(rhs)]
    got = _fixpoint(steps, symbols, _min_size, None)
    assert got == _jacobi(steps, symbols, _min_size, None)
    # S36 = 3, and each step of three symbols down costs 2 more
    assert got[0]["S0"] == 27 and got[0]["S39"] is None


def test_unpickled_node_equals_a_fresh_one_in_another_process(tmp_path):
    # hashes differ between processes, so a node must not carry its hash over
    expr = canonicalize(Sum((Z_EXPR, Product((ClassRef("A"), Seq(Z_EXPR))))))
    path = tmp_path / "expr.pickle"
    path.write_bytes(pickle.dumps(expr))
    check = (
        "import pickle, sys\n"
        "from juxtaspec.expr import ClassRef, Product, Seq, Sum, Z_EXPR\n"
        f"loaded = pickle.loads(open({str(path)!r}, 'rb').read())\n"
        "fresh = Sum((Z_EXPR, Product((ClassRef('A'), Seq(Z_EXPR)))))\n"
        "sys.exit(0 if loaded == fresh and {loaded: 1}.get(fresh) == 1 else 1)\n"
    )
    src = str(Path(juxtaspec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


def test_hash_agrees_with_a_recursive_reference():
    rng = random.Random(11)
    for _ in range(300):
        expr = random_expr(rng, ["A", "B"], depth=4)
        for node in (expr, canonicalize(expr)):
            assert hash(node) == reference_hash(node)
            assert all(hash(n) == reference_hash(n) for n in nodes(node))


def test_nodes_are_hashed_on_first_use_only():
    expr = rewrite([Sum((E_EXPR, Product((ClassRef("A"), Seq(Z_EXPR)))))])[0]
    compound = [n for n in nodes(expr) if isinstance(n, (Sum, Product, Seq))]
    assert len(compound) == 3
    assert not any(hasattr(n, "_hash") for n in compound)  # building hashes nothing
    value = hash(expr)
    assert all(hasattr(n, "_hash") for n in compound)  # the whole node, children first
    assert hash(expr) == value == reference_hash(expr)


def test_nodes_carry_no_instance_dict():
    # slotted nodes: the DAG of a wide build is made of many small objects
    compound = canonicalize(Sum((Z_EXPR, Product((ClassRef("A"), Seq(Z_EXPR))))))
    for node in nodes(compound) + [ZERO]:
        assert not hasattr(node, "__dict__"), type(node).__name__
    assert {type(node).__name__ for node in nodes(compound) + [ZERO]} == {
        "ZeroExpr", "AtomRef", "ClassRef", "Sum", "Product", "Seq",
    }
    for node in nodes(compound) + [ZERO]:
        assert pickle.loads(pickle.dumps(node)) == node


def test_postorder_puts_operands_first():
    assert postorder([(1, 2), (2,), (), (0,)], (0, 3)) == ([2, 1, 0, 3], None)
    # a random DAG: each position leads only to later ones, started in any order
    rng = random.Random(20)
    n = 300
    operands = [tuple(rng.sample(range(i + 1, n), min(3, n - i - 1))) for i in range(n)]
    starts = rng.sample(range(n), 40)
    order, cycle = postorder(operands, starts)
    assert cycle is None
    assert len(order) == len(set(order))
    where = {p: i for i, p in enumerate(order)}
    assert all(where[k] < where[p] for p in order for k in operands[p])
    assert set(starts) <= set(where)


def test_postorder_stops_at_the_first_cycle():
    # 0 -> 1 -> 2 -> 3 -> 1: the walk reaches 1 again and never gets to 4
    assert postorder([(1,), (2,), (3, 4), (1,), ()], (0,)) == ([], [1, 2, 3])
    assert postorder([(5,), (2,), (3, 4), (1,), (), ()], (0, 1)) == ([5, 0], [1, 2, 3])
    assert postorder([(0,)], (0,)) == ([], [0])
    assert postorder([(), (1,)], (0,)) == ([0], None)  # not reachable from the start


def test_postorder_is_iterative():
    n = 100_000
    chain = [(i + 1,) for i in range(n - 1)] + [()]
    assert postorder(chain, (0,)) == (list(range(n - 1, -1, -1)), None)
    chain[-1] = (0,)
    assert postorder(chain, (0,)) == ([], list(range(n)))
