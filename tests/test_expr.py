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
    factors,
    nodes,
    rewrite,
    terms,
)
from helpers import random_expr


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

    def to(replacement):
        return lambda node: replacement if node == ClassRef("A") else node

    assert rewrite([e, e], to(E_EXPR)) == [Z_EXPR, Z_EXPR]
    assert rewrite([e], to(ZERO)) == [ZERO]


def test_rewrite_maps_atoms():
    e = Product((AtomRef("ZL"), AtomRef("ZLR"), Z_EXPR))
    mapping = {"ZL": "Z", "ZLR": "ZR"}

    def rename(node):
        return AtomRef(mapping.get(node.atom, node.atom)) if isinstance(node, AtomRef) else node

    assert rewrite([e], rename) == [Product((Z_EXPR, AtomRef("ZR"), Z_EXPR))]


def test_terms_and_factors_of_non_compound():
    assert terms(Z_EXPR) == (Z_EXPR,)
    assert factors(Z_EXPR) == (Z_EXPR,)


def test_unknown_atom_rejected():
    with pytest.raises(SpecError):
        AtomRef("Q")


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
