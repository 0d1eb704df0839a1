"""Independent instruments for the test suite.

Everything here is deliberately written without reusing the library's
traversals: a bivariate marker-counting enumerator (plain Jacobi iteration
over polynomials in a marker variable), an exact rational-series expander,
the geometric substitution z -> z/(1-z) via binomial coefficients, a
regularity check by repeated substitution and the iterated elimination of
empty-class symbols, with its own canonical form.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from pathlib import Path

from juxtaspec.expr import (
    AtomRef,
    ClassRef,
    EMPTY,
    Product,
    Seq,
    Sum,
    ZeroExpr,
)

# ---------------------------------------------------------------------------
# bivariate series: coefficient of z^n is a dict {marker_power: count}


def _bi_zero(order):
    return [dict() for _ in range(order + 1)]


def _bi_add(a, b):
    out = []
    for da, db in zip(a, b):
        d = dict(da)
        for k, v in db.items():
            d[k] = d.get(k, 0) + v
        out.append(d)
    return out


def _bi_mul(a, b, order):
    out = _bi_zero(order)
    for i, da in enumerate(a):
        if not da:
            continue
        for j in range(order + 1 - i):
            db = b[j]
            if not db:
                continue
            target = out[i + j]
            for ka, va in da.items():
                for kb, vb in db.items():
                    key = ka + kb
                    target[key] = target.get(key, 0) + va * vb
    return out


def _bi_eval(expr, env, order, marked_atoms):
    if isinstance(expr, ZeroExpr):
        return _bi_zero(order)
    if isinstance(expr, AtomRef):
        out = _bi_zero(order)
        if expr.atom == EMPTY:
            out[0][0] = 1
        elif order >= 1:
            out[1][1 if expr.atom in marked_atoms else 0] = 1
        return out
    if isinstance(expr, ClassRef):
        return [dict(d) for d in env[expr.name]]
    if isinstance(expr, Sum):
        out = _bi_zero(order)
        for t in expr.terms:
            out = _bi_add(out, _bi_eval(t, env, order, marked_atoms))
        return out
    if isinstance(expr, Product):
        out = _bi_eval(expr.factors[0], env, order, marked_atoms)
        for f in expr.factors[1:]:
            out = _bi_mul(out, _bi_eval(f, env, order, marked_atoms), order)
        return out
    if isinstance(expr, Seq):
        arg = _bi_eval(expr.arg, env, order, marked_atoms)
        assert not arg[0], "Seq argument must have no size-0 objects"
        out = _bi_zero(order)
        out[0][0] = 1
        for n in range(1, order + 1):
            target = out[n]
            for j in range(1, n + 1):
                for ka, va in arg[j].items():
                    for kb, vb in out[n - j].items():
                        key = ka + kb
                        target[key] = target.get(key, 0) + va * vb
        return out
    raise AssertionError(f"unexpected node {expr!r}")


def marker_series(spec, order, marked_atoms):
    """Per-size marker-count distributions of the root class.

    Returns a list where entry n maps (number of marked atoms in the object)
    to the number of objects of size n with that many marks.
    """
    env = {name: _bi_zero(order) for name in spec.symbols}
    for _ in range((order + 2) * (len(spec.symbols) + 1)):
        new_env = {
            eq.lhs: _bi_eval(eq.rhs, env, order, marked_atoms)
            for eq in spec.equations
        }
        if new_env == env:
            return env[spec.root]
        env = new_env
    raise AssertionError("bivariate iteration did not stabilize")


def marker_totals(spec, order):
    """Counting sequence of the root by the bivariate enumerator."""
    return [sum(bucket.values()) for bucket in marker_series(spec, order, frozenset())]


# ---------------------------------------------------------------------------
# exact rational series and substitution


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def rational_series(num, den, order):
    """Coefficients of num/den by exact long division; den[0] must be +-1."""
    out = [0] * (order + 1)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        assert acc % den[0] == 0
        out[n] = acc // den[0]
    return out


def substitute_geometric(series):
    """Coefficients of f(z/(1-z)) given those of f, exactly.

    (z/(1-z))^k = sum_n C(n-1, k-1) z^n, so the result at order n is
    sum_k series[k] * C(n-1, k-1).
    """
    order = len(series) - 1
    out = [series[0]] + [
        sum(series[k] * math.comb(n - 1, k - 1) for k in range(1, n + 1))
        for n in range(1, order + 1)
    ]
    return out


# ---------------------------------------------------------------------------
# random canonical expressions and specifications


def random_expr(rng: random.Random, symbols, depth=3, allow_marks=True, in_seq=False):
    atoms = ["E", "Z"]
    if allow_marks and not in_seq:
        atoms += ["ZL", "ZR", "ZLR"]
    choice = rng.random()
    if depth == 0 or choice < 0.35:
        if symbols and rng.random() < 0.4:
            return ClassRef(rng.choice(symbols))
        return AtomRef(rng.choice(atoms))
    if choice < 0.6:
        k = rng.randint(2, 3)
        return Sum(tuple(
            random_expr(rng, symbols, depth - 1, allow_marks, in_seq) for _ in range(k)
        ))
    if choice < 0.9:
        k = rng.randint(2, 3)
        return Product(tuple(
            random_expr(rng, symbols, depth - 1, allow_marks, in_seq) for _ in range(k)
        ))
    return Seq(random_expr(rng, [], depth - 1, allow_marks=False, in_seq=True))


def random_markerless_spec(rng: random.Random, n_symbols=3, depth=3):
    """A random, valid, untracked specification (used for round-trip tests)."""
    from juxtaspec.spec import Equation, make_spec

    names = [f"S{i}" for i in range(n_symbols)]
    eqs = []
    for i, name in enumerate(names):
        # later symbols may only reference earlier ones: no accidental
        # unproductive loops
        body = random_expr(rng, names[:i], depth, allow_marks=False)
        eqs.append(Equation(name, Sum((AtomRef("Z"), body))))
    eqs.reverse()
    return make_spec(eqs, root=names[-1])


def random_recursive_spec(rng: random.Random, n_symbols=4, depth=3):
    """A random, valid, untracked specification whose equations may reference
    any symbol, themselves and SZ included (used to cross-check classify)."""
    from juxtaspec.spec import Equation, make_spec

    names = [f"R{i}" for i in range(n_symbols)]
    eqs = [
        Equation(name, random_expr(rng, names + ["SZ"], depth, allow_marks=False))
        for name in names
    ]
    return make_spec(eqs, root=names[0])


# ---------------------------------------------------------------------------
# regularity by repeated substitution


def _refs(expr):
    if isinstance(expr, ClassRef):
        return {expr.name}
    if isinstance(expr, Sum):
        return set().union(*map(_refs, expr.terms))
    if isinstance(expr, Product):
        return set().union(*map(_refs, expr.factors))
    if isinstance(expr, Seq):
        return _refs(expr.arg)
    return set()


def _substitute(expr, replacements):
    if isinstance(expr, ClassRef):
        return replacements.get(expr.name, expr)
    if isinstance(expr, Sum):
        return Sum(tuple(_substitute(t, replacements) for t in expr.terms))
    if isinstance(expr, Product):
        return Product(tuple(_substitute(f, replacements) for f in expr.factors))
    if isinstance(expr, Seq):
        return Seq(_substitute(expr.arg, replacements))
    return expr


def regular_by_inlining(spec):
    """True when the root becomes reference-free after replacing SZ by Seq(Z)
    (unless SZ is the root) and repeatedly inlining every non-root symbol
    whose right-hand side is reference-free.  Recursive symbols never inline.
    """
    defs = {eq.lhs: eq.rhs for eq in spec.equations}
    if "SZ" in defs and spec.root != "SZ":
        seq_z = Seq(AtomRef("Z"))
        defs = {n: _substitute(r, {"SZ": seq_z}) for n, r in defs.items() if n != "SZ"}
    for _ in range(len(defs)):
        closed = {n: r for n, r in defs.items() if n != spec.root and not _refs(r)}
        if not closed:
            break
        defs = {n: _substitute(r, closed) for n, r in defs.items() if n not in closed}
    return not _refs(defs[spec.root])


# ---------------------------------------------------------------------------
# empty-class elimination, one round per layer of empty symbols


def normalize(expr):
    """Canonical form by plain recursion: sums and products flattened, Zero
    terms dropped, a Zero factor absorbing, E factors dropped, Seq of Zero
    is E, and a Sum or Product of one child is that child."""
    if isinstance(expr, Sum):
        flat = []
        for t in map(normalize, expr.terms):
            if isinstance(t, Sum):
                flat.extend(t.terms)
            elif not isinstance(t, ZeroExpr):
                flat.append(t)
        if len(flat) < 2:
            return flat[0] if flat else ZeroExpr()
        return Sum(tuple(flat))
    if isinstance(expr, Product):
        flat = []
        for f in map(normalize, expr.factors):
            if isinstance(f, ZeroExpr):
                return f
            if isinstance(f, Product):
                flat.extend(f.factors)
            elif f != AtomRef(EMPTY):
                flat.append(f)
        if len(flat) < 2:
            return flat[0] if flat else AtomRef(EMPTY)
        return Product(tuple(flat))
    if isinstance(expr, Seq):
        arg = normalize(expr.arg)
        return AtomRef(EMPTY) if isinstance(arg, ZeroExpr) else Seq(arg)
    return expr


def eliminate_empty_symbols(named, root):
    """The closing of an expansion as it once was: while some right-hand
    side is Zero, drop those symbols, put Zero in place of their references
    and normalize; then keep the symbols reachable from root.  Returns the
    kept (name, rhs) pairs in their order and the number of rounds that
    found empty symbols, or None for the pairs when the root is empty."""
    named, rounds = dict(named), 0
    while True:
        empty = {name for name, rhs in named.items() if isinstance(rhs, ZeroExpr)}
        if not empty:
            break
        rounds += 1
        zero = {name: ZeroExpr() for name in empty}
        named = {
            name: normalize(_substitute(rhs, zero))
            for name, rhs in named.items() if name not in empty
        }
    if root not in named:
        return None, rounds
    keep, stack = set(), [root]
    while stack:
        name = stack.pop()
        if name not in keep and name in named:
            keep.add(name)
            stack.extend(_refs(named[name]))
    return [(name, rhs) for name, rhs in named.items() if name in keep], rounds


def under_tracked_root(spec):
    """spec below a new root T = ZLR + ZL R ZR + R T (R the old root), which
    tracks both markers, so there is tracking to carry and juxtapose accepts it."""
    from juxtaspec.spec import Equation, make_spec

    r, t = ClassRef(spec.root), ClassRef("T")
    zl, zr, zlr = AtomRef("ZL"), AtomRef("ZR"), AtomRef("ZLR")
    rhs = Sum((zlr, Product((zl, r, zr)), Product((r, t))))
    return make_spec([Equation("T", rhs), *spec.equations], root="T")


def sandwich_juxtapose(spec, side, direction, track_mode):
    """juxtapose as it was once built: the right/increasing step between two
    rewrites of the whole system by a symmetry, complement for a decreasing
    right side, reverse for a decreasing left side and both for an
    increasing left side.  Each of these symmetries is its own inverse."""
    from juxtaspec.juxtapose import juxtapose
    from juxtaspec.operators import complement, reverse

    symmetry = {
        ("right", "inc"): None,
        ("right", "dec"): complement,
        ("left", "dec"): reverse,
        ("left", "inc"): lambda s: complement(reverse(s)),
    }[side, direction]
    if symmetry is None:
        return juxtapose(spec, "right", "inc", track_mode)
    return symmetry(juxtapose(symmetry(spec), "right", "inc", track_mode))


def juxtapose_outcome(build, spec, side, direction, track_mode):
    """(DSL text, tracking) of build(spec, side, direction, track_mode), or
    None when it refuses."""
    from juxtaspec.dsl import render_spec
    from juxtaspec.expr import SpecError

    try:
        out = build(spec, side, direction, track_mode)
    except SpecError:
        return None
    return render_spec(out), out.tracking


def assert_closed(out):
    """out is what make_spec returns for its equations, tracking included,
    and its equal subexpressions are one object."""
    from juxtaspec.spec import make_spec

    again = make_spec(out.equations, root=out.root)
    assert out == again
    assert out.tracking == again.tracking
    _, distinct, objects = tree_walk([eq.rhs for eq in out.equations])
    assert objects == distinct


def closed_outputs(spec, tags=None):
    """What the library builds from spec through a closing pass: both
    readers, inline_seq and expand at the root under each of tags (by
    default every insertion operator)."""
    from juxtaspec.dsl import parse_spec, render_spec, spec_from_json, spec_to_json
    from juxtaspec.expr import SpecError
    from juxtaspec.operators import INSERTION_TAGS, expand
    from juxtaspec.spec import inline_seq

    yield parse_spec(render_spec(spec))
    yield spec_from_json(spec_to_json(spec))
    yield inline_seq(spec)
    for tag in INSERTION_TAGS if tags is None else tags:
        try:
            yield expand(spec, [(spec.root, tag)])
        except SpecError:
            pass


# ---------------------------------------------------------------------------
# sharing, counted by a plain tree walk


def tree_walk(exprs):
    """(tree nodes, structurally distinct nodes, distinct objects) under exprs."""
    tree, values, ids = 0, set(), set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        tree += 1
        values.add(node)
        ids.add(id(node))
        if isinstance(node, Sum):
            stack.extend(node.terms)
        elif isinstance(node, Product):
            stack.extend(node.factors)
        elif isinstance(node, Seq):
            stack.append(node.arg)
    return tree, len(values), len(ids)


# ---------------------------------------------------------------------------
# the specifications the library builds


def _workloads():
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    from workloads import WORKLOADS

    return WORKLOADS


@functools.cache
def library_specs():
    """The 4 builtins, the 32 catalog juxtapositions the library accepts and
    the 12 grids of the benchmark workloads (perfbench/workloads.py), built
    once per test session (specifications are immutable)."""
    from juxtaspec.builtins import builtin_names, builtin_spec
    from juxtaspec.expr import SpecError
    from juxtaspec.juxtapose import build_grid, juxtapose

    specs = [builtin_spec(name) for name in builtin_names()]
    for name in builtin_names():
        for side in ("left", "right"):
            for direction in ("inc", "dec"):
                for track in ("none", "right", "both"):
                    try:
                        specs.append(juxtapose(builtin_spec(name), side, direction, track))
                    except SpecError:
                        pass
    for workload in _workloads().values():
        for session in workload.sessions:
            if session.build[0] == "grid":
                specs.append(build_grid(builtin_spec(session.core), session.build[1]))
    return tuple(specs)


def deep_series_specs():
    """The four juxtapositions of the benchmark's deep-series workload."""
    from juxtaspec.builtins import builtin_spec
    from juxtaspec.juxtapose import juxtapose

    return [
        juxtapose(builtin_spec(session.core), *session.build[1:])
        for session in _workloads()["deep-series"].sessions
    ]
