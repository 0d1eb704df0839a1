"""Independent instruments for the test suite.

Everything here is deliberately written without reusing the library's
traversals: a bivariate marker-counting enumerator (plain Jacobi iteration
over polynomials in a marker variable), an exact rational-series expander,
the geometric substitution z -> z/(1-z) via binomial coefficients, a
regularity check by repeated substitution, the iterated elimination of
empty-class symbols, with its own canonical form, a pairwise fixpoint
for equivalent symbols, a reference DSL reader that tokenizes into
(kind, text, column) tuples and parses through peek/take calls, the
oracle's generating tree walked one member at a time, the insertion
operators read on permutations, the closing and counting passes as one
callback call per plan step, a series counter that convolves every
product and every Seq, and the nested JSON form that the writer gave
before it listed each node once.
"""

from __future__ import annotations

import functools
import math
import random
import re
import sys
from pathlib import Path

from juxtaspec.dsl import ParseError, _json_node
from juxtaspec.expr import (
    ATOM_KINDS,
    AtomRef,
    ClassRef,
    EMPTY,
    Product,
    Seq,
    SpecError,
    Sum,
    Z_EXPR,
    Table,
    ZeroExpr,
    make_product,
    make_seq,
    make_sum,
)
from juxtaspec.spec import NAME, Equation, TrackingError, TrackingKind, _close

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


def sz_wrapped(spec):
    """spec with each equation A = rhs turned into A = rhs + Z SZ A, below a
    new root W = SZ R + R Seq(Z) Z SZ + Z SZ Z R SZ (R the old root).  So its
    products meet SZ and Seq(Z) on either side, alone, after atoms and at
    valuations 0 and above."""
    from juxtaspec.spec import Equation, make_spec

    z, sz, r = AtomRef("Z"), ClassRef("SZ"), ClassRef(spec.root)
    root = Sum((
        Product((sz, r)),
        Product((r, Seq(z), z, sz)),
        Product((z, sz, z, r, sz)),
    ))
    eqs = [
        Equation(eq.lhs, Sum((eq.rhs, Product((z, sz, ClassRef(eq.lhs))))))
        for eq in spec.equations if eq.lhs != "SZ"
    ]
    return make_spec([Equation("W", root), *eqs], root="W")


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
    """What the library builds from spec through a closing pass or a map of
    one: both readers, the symmetries, inline_seq and expand at the root
    under each of tags (by default every insertion operator)."""
    from juxtaspec.dsl import parse_spec, render_spec, spec_from_json, spec_to_json
    from juxtaspec.expr import SpecError
    from juxtaspec.operators import INSERTION_TAGS, complement, expand, forget_left, reverse
    from juxtaspec.spec import inline_seq

    yield parse_spec(render_spec(spec))
    yield spec_from_json(spec_to_json(spec))
    yield complement(spec)
    yield reverse(spec)
    yield forget_left(spec)
    yield inline_seq(spec)
    for tag in INSERTION_TAGS if tags is None else tags:
        try:
            yield expand(spec, [(spec.root, tag)])
        except SpecError:
            pass


# ---------------------------------------------------------------------------
# equivalent symbols, by a naive pairwise fixpoint


def _same_shape(x, y, related):
    """Equal shapes by plain recursion, term and factor order kept, with
    references equal when ``related`` holds for their symbols."""
    if isinstance(x, ClassRef) and isinstance(y, ClassRef):
        return related(x.name, y.name)
    if type(x) is not type(y):
        return False
    if isinstance(x, (Sum, Product)):
        xs, ys = (x.terms, y.terms) if isinstance(x, Sum) else (x.factors, y.factors)
        return len(xs) == len(ys) and all(_same_shape(a, b, related) for a, b in zip(xs, ys))
    if isinstance(x, Seq):
        return _same_shape(x.arg, y.arg, related)
    return x == y


def equivalence_classes(spec):
    """The symbols of spec grouped into classes of symbols that define the
    same class by the same equations, each class and the list of them in
    equation order.

    Two symbols are related while they have the same tracking, neither is
    SZ, and their right-hand sides have the same shape with related (or
    equal) symbols in matching references; pairs are dropped until none
    fails.  An alias X = Y (Y not SZ) stands for the end of its chain."""
    defs = {eq.lhs: eq.rhs for eq in spec.equations}

    def end(name):
        seen = set()
        while isinstance(defs[name], ClassRef) and defs[name].name != "SZ" and name not in seen:
            seen.add(name)
            name = defs[name].name
        return name

    ends = {name: end(name) for name in defs}
    bodies = sorted(set(ends.values()), key=list(defs).index)
    pairs = {
        (a, b) for i, a in enumerate(bodies) for b in bodies[i + 1:]
        if "SZ" not in (a, b) and spec.tracking[a] == spec.tracking[b]
    }

    def related(x, y):
        x, y = ends[x], ends[y]
        return x == y or (x, y) in pairs or (y, x) in pairs

    while True:
        failed = {(a, b) for a, b in pairs if not _same_shape(defs[a], defs[b], related)}
        if not failed:
            break
        pairs -= failed
    classes = {}
    for name in defs:
        body = ends[name]
        first = next((b for b in bodies if b == body or (b, body) in pairs), body)
        classes.setdefault(first, []).append(name)
    return list(classes.values())


# ---------------------------------------------------------------------------
# sharing, counted by a plain tree walk


class _Hashed:
    """A stand-in whose hash is a given value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def reference_hash(expr) -> int:
    """The structural hash of an expression, by plain recursion: a leaf's
    own hash; a compound node's, the hash of its type and the tuple of its
    children, each child standing in by its reference hash."""
    if isinstance(expr, Sum):
        kids = expr.terms
    elif isinstance(expr, Product):
        kids = expr.factors
    elif isinstance(expr, Seq):
        kids = (expr.arg,)
    else:
        return hash(expr)
    return hash((type(expr), tuple(_Hashed(reference_hash(k)) for k in kids)))


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
# the oracle's generating tree, one node per member


def reference_class_counts(cells, max_len):
    """What oracle.class_counts returns, by a depth-first walk that visits
    every member of each length up to max_len as its own node (open block,
    open cell, length); no two members are merged.  Each child's open block
    is decided by the naive avoids_cell, so nothing of the counter's
    verdicts is shared."""
    from juxtaspec.oracle import avoids_cell

    k = len(cells)
    opens = [k] * (k + 1)  # the first cell at or after j that takes one entry
    for j in reversed(range(k)):
        opens[j] = j if avoids_cell((1,), cells[j]) else opens[j + 1]
    counts = [0] * (max_len + 1)
    stack = [((), 0, 0)]
    while stack:
        block, j, m = stack.pop()
        counts[m] += 1
        if m == max_len:
            continue
        for v in range(1, m + 2):
            kept = tuple(x + (x >= v) for x in block)
            cell = j
            if not avoids_cell(kept + (v,), cells[j]):
                cell, kept = opens[j + 1], ()
            if cell == k:
                continue
            if m + 1 == max_len:
                counts[max_len] += 1  # a leaf: counted, not visited
            else:
                stack.append((kept + (v,), cell, m + 1))
    return counts


def deep_expr(depth):
    """Z + Z Seq(Z + Z Seq(...)), ``depth`` levels of Seq around Z."""
    e = Z_EXPR
    for _ in range(depth):
        e = Sum((Z_EXPR, Product((Z_EXPR, Seq(e)))))
    return e


# ---------------------------------------------------------------------------
# the insertion operators, read on permutations


# After the operators.py docstring: whether inserting new entries into the
# value gaps ``gaps`` (weakly increasing; gap j lies between the values j and
# j + 1) of a member whose rightmost entry has the value ``v`` is one of the
# operator's insertions.  Every gap is below the member's highest entry.
_INSERTIONS = {
    "o": lambda gaps, v: not gaps,
    "i": lambda gaps, v: len(gaps) == 1 and gaps[0] < v,
    "oo": lambda gaps, v: True,
    "io": lambda gaps, v: len(gaps) >= 1 and gaps[0] < v,
    "oi": lambda gaps, v: len(gaps) >= 1,
    "ii": lambda gaps, v: len(gaps) >= 2 and gaps[0] < v,
}


@functools.cache
def _members(cells, size):
    from itertools import permutations

    from juxtaspec.oracle import juxt_membership

    return [p for p in permutations(range(1, size + 1)) if juxt_membership(p, cells)]


def operator_images(cells, op, size):
    """The images of size ``size``, with multiplicity, of the pairs (member
    of the class of ``cells``, insertion of ``op`` into it): a member π of
    size s followed by an increasing run of size - s new entries, which
    lie in π's value gaps below its highest entry."""
    from itertools import combinations_with_replacement

    takes, images = _INSERTIONS[op], []
    for s in range(size + 1):
        for perm in _members(tuple(cells), s):
            v = perm[-1] if perm else 0
            for gaps in combinations_with_replacement(range(s), size - s):
                if takes(gaps, v):
                    # the j-th new entry (from 0) has gaps[j] old entries below it
                    old = [x + sum(g < x for g in gaps) for x in perm]
                    images.append(tuple(old + [g + j + 1 for j, g in enumerate(gaps)]))
    return images


def operator_image_counts(cells, op, n):
    """Counts, sizes 0..n, of :func:`operator_images`."""
    return [len(operator_images(cells, op, size)) for size in range(n + 1)]


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


def benchmark_grids():
    """The grids of the benchmark's grids workload, in its order."""
    from juxtaspec.builtins import builtin_spec
    from juxtaspec.juxtapose import build_grid

    return [
        build_grid(builtin_spec(session.core), session.build[1])
        for session in _workloads()["grids"].sessions
    ]


def deep_series_specs():
    """The four juxtapositions of the benchmark's deep-series workload."""
    from juxtaspec.builtins import builtin_spec
    from juxtaspec.juxtapose import juxtapose

    return [
        juxtapose(builtin_spec(session.core), *session.build[1:])
        for session in _workloads()["deep-series"].sessions
    ]


# ---------------------------------------------------------------------------
# a reference DSL reader: one (kind, text, column) tuple per token and a
# peek/take call per token; the group memo is keyed by the group's text


_REFERENCE_TOKEN = re.compile(rf"[ \t]*(?:(#)|([+=()])|({NAME.pattern})|([^ \t]))")


def reference_tokens(text, lineno):
    """(kind, text, column) of each token of a DSL line."""
    tokens = []
    for match in _REFERENCE_TOKEN.finditer(text):
        kind, col = match.lastindex, match.start(match.lastindex) + 1
        if kind == 1:
            break
        if kind == 4:
            raise ParseError(f"unexpected character {match[4]!r}", lineno, col)
        tokens.append((match[2], match[2], col) if kind == 2 else ("NAME", match[3], col))
    return tokens


class _ReferenceLine:
    def __init__(self, tokens, lineno, text, table, memo):
        self.tokens = tokens
        self.lineno = lineno
        self.text = text
        self.table = table
        self.memo = memo
        self.pos = 0
        self.closing = {}
        opened = []
        for i, tok in enumerate(tokens):
            if tok[0] == "(":
                opened.append(i)
            elif tok[0] == ")" and opened:
                self.closing[opened.pop()] = i

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("EOL", "", (self.tokens[-1][2] + len(self.tokens[-1][1])) if self.tokens else 1)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of line'!r}", self.lineno, tok[2])
        self.pos += 1
        return tok

    def parse_equation(self):
        name_tok = self.take("NAME")
        if name_tok[1] in ATOM_KINDS or name_tok[1] == "Seq":
            raise ParseError(f"{name_tok[1]!r} is reserved", self.lineno, name_tok[2])
        self.take("=")
        rhs = self.parse_expr()
        trailing = self.peek()
        if trailing[0] != "EOL":
            raise ParseError(f"unexpected {trailing[1]!r}", self.lineno, trailing[2])
        return name_tok[1], rhs

    def parse_expr(self):
        parts = [self.parse_term()]
        while self.peek()[0] == "+":
            self.take("+")
            parts.append(self.parse_term())
        return make_sum(parts, self.table)

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek()[0] in ("NAME", "("):
            factors.append(self.parse_factor())
        return make_product(factors, self.table)

    def parse_group(self):
        end = self.closing.get(self.pos)
        key = None if end is None else self.text[self.tokens[self.pos][2] - 1 : self.tokens[end][2]]
        at = self.memo.get(key)
        if at is not None:
            self.pos = end + 1
            return at
        self.take("(")
        at = self.parse_expr()
        self.take(")")
        if key is not None:
            self.memo[key] = at
        return at

    def parse_factor(self):
        tok = self.peek()
        if tok[0] == "(":
            return self.parse_group()
        if tok[0] != "NAME":
            raise ParseError(f"expected a factor, found {tok[1] or 'end of line'!r}", self.lineno, tok[2])
        self.take()
        name = tok[1]
        if name == "Seq":
            return make_seq(self.parse_group(), self.table)
        at = self.memo.get(name)
        if at is None:
            at = self.memo[name] = self.table.leaf(AtomRef(name) if name in ATOM_KINDS else ClassRef(name))
        return at


def _reference_read(text):
    """``(equations, their lines by symbol, the table they are hash-consed
    into)`` of DSL text, read by the reference reader; an equation is its
    symbol and the position of its right-hand side in the table."""
    equations, lines, table, memo = [], {}, Table(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = reference_tokens(raw, lineno)
        if not tokens:
            continue
        try:
            equations.append(_ReferenceLine(tokens, lineno, raw, table, memo).parse_equation())
        except RecursionError:
            raise ParseError("expression nested too deeply", lineno, 1) from None
        lines.setdefault(equations[-1][0], lineno)
    return equations, lines, table


def reference_equations(text):
    """The equations of DSL text, read by the reference reader."""
    equations, _, table = _reference_read(text)
    return [Equation(lhs, table.nodes[at]) for lhs, at in equations]


def reference_parse_spec(text):
    """What parse_spec returns or raises, by the reference reader."""
    equations, lines, table = _reference_read(text)
    if not equations:
        raise SpecError("empty input: no equations found")
    try:
        return _close(equations, equations[0][0], table)
    except TrackingError as exc:
        raise TrackingError(exc.problem, exc.symbol, exc.term, lines.get(exc.symbol)) from None


# ---------------------------------------------------------------------------
# the nested JSON form


def nested_spec_dict(spec):
    """The JSON document of ``spec`` as a tree without ``nodes``: each
    shared node written out at every use, as the JSON writer did before it
    listed each node once; the reader still takes this form."""
    steps, at = spec._plan
    nodes = _reference_evaluate(steps, _json_node)
    return {
        "root": spec.root,
        "equations": [{"lhs": lhs, "rhs": nodes[i]} for lhs, i in at.items()],
    }


@functools.cache
def builtin_variants():
    """Each builtin, its complement and its reverse, and the ``inc|core|inc``
    and ``dec|core|inc|dec`` grids of av321 and monotone (the other two
    builtins track neither end of their root, so the grid builder refuses
    them)."""
    from juxtaspec.builtins import builtin_names, builtin_spec
    from juxtaspec.juxtapose import build_grid
    from juxtaspec.operators import complement, reverse

    specs = []
    for name in builtin_names():
        core = builtin_spec(name)
        specs += [core, complement(core), reverse(core)]
    for name in ("av321", "monotone"):
        for pattern in ("inc|core|inc", "dec|core|inc|dec"):
            specs.append(build_grid(builtin_spec(name), pattern))
    return tuple(specs)


# ---------------------------------------------------------------------------
# the closing and counting passes, one callback call per plan step: the
# library runs each as a flat loop per pass


def stepwise(fn):
    """A pass for least_fixpoint that calls ``fn(node, values of its
    children, value)`` once per step, with a fresh list of child values; a
    reference finds its symbol's value, what its one operand reads, in
    ``value``."""

    def run(steps, operands, values):
        for i, (node, _) in enumerate(steps):
            kids = [values[k] for k in operands[i]]
            value = {node.name: kids.pop()} if isinstance(node, ClassRef) else {}
            values[i] = fn(node, kids, value)

    return run


def reference_fixpoint(steps, symbols, fn, bottom):
    """(value, the last pass's step values, passes) of the per-symbol
    analysis ``fn(node, values of its children, value)``: Gauss-Seidel, a
    symbol takes its right-hand side's value as soon as that step is
    evaluated, and passes repeat until one changes nothing."""
    value, owners = {}, {}
    for name, at in symbols:
        value[name] = bottom
        owners.setdefault(at, []).append(name)
    changed, passes = True, 0
    while changed:
        changed, values, passes = False, [], passes + 1
        for at, (node, kids) in enumerate(steps):
            v = fn(node, [values[k] for k in kids], value)
            values.append(v)
            for name in owners.get(at, ()):
                if value[name] != v:
                    value[name], changed = v, True
    return value, values, passes


def _reference_evaluate(steps, fn):
    values = []
    for node, kids in steps:
        values.append(fn(node, [values[k] for k in kids]))
    return values


def is_empty(node, kids, empty) -> bool:
    """Whether a node is of the empty class: a Sum when all of its terms
    are, a Product when any factor is, a reference when its symbol is."""
    if isinstance(node, Sum):
        return all(kids)
    if isinstance(node, Product):
        return any(kids)
    if isinstance(node, ClassRef):
        return empty.get(node.name, False)
    return isinstance(node, ZeroExpr)


def _valuation_step(node, kids, vals):
    """Minimal object size of a node given its children's, None while unresolved."""
    if isinstance(node, AtomRef):
        return 0 if node.atom == EMPTY else 1
    if isinstance(node, ClassRef):
        return vals[node.name]
    if isinstance(node, Seq):
        return 0
    if isinstance(node, Sum):
        return min((v for v in kids if v is not None), default=None)
    return None if None in kids else sum(kids)  # a Product


def reference_valuations(spec):
    """What series._valuations returns, by _valuation_step."""
    steps, at = spec._plan
    vals, values, _ = reference_fixpoint(steps, at.items(), _valuation_step, None)
    return tuple(name for name in spec.symbols if vals[name] is None), values


def reference_count_series(spec, order):
    """Coefficients 0..order of the root's series as count_series computed
    them before it knew geometric cells: one cell per symbol, per plan step
    and per binary partial product (left fold), ordered along the zero-lag
    reads by Kahn's algorithm, and every product and every Seq a
    convolution.  A ValueError for a zero-lag cycle; only for productive
    systems without bad Seq arguments."""
    steps, at = spec._plan
    roots = list(at.values())
    _, values = reference_valuations(spec)
    index = {name: i for i, name in enumerate(spec.symbols)}
    # per cell: kind, operand cells, valuation
    kinds, operands, val = ["symbol"] * len(roots), [None] * len(roots), [values[r] for r in roots]
    at = []
    for (node, kids), v in zip(steps, values):
        if isinstance(node, ClassRef):
            at.append(index[node.name])
            continue
        if isinstance(node, Product):
            left = at[kids[0]]
            for k in kids[1:]:
                kinds.append("product")
                operands.append((left, at[k]))
                val.append(val[left] + val[at[k]])
                left = len(kinds) - 1
            at.append(left)
            continue
        kinds.append(type(node).__name__)  # AtomRef, Sum, Seq
        operands.append([at[k] for k in kids])
        val.append(v)
        at.append(len(kinds) - 1)
    for i, r in enumerate(roots):
        operands[i] = (at[r],)

    def zero_lag(c):
        if kinds[c] == "product":
            a, b = operands[c]
            return [x for x, other in ((a, b), (b, a)) if val[other] == 0]
        return operands[c]

    readers = [[] for _ in kinds]
    waiting = [0] * len(kinds)
    for c in range(len(kinds)):
        for x in zero_lag(c):
            readers[x].append(c)
            waiting[c] += 1
    ready = [c for c in range(len(kinds)) if not waiting[c]]
    ordered = []
    while ready:
        c = ready.pop()
        ordered.append(c)
        for r in readers[c]:
            waiting[r] -= 1
            if not waiting[r]:
                ready.append(r)
    if len(ordered) < len(kinds):
        raise ValueError("a coefficient depends on itself")

    series = [[] for _ in kinds]
    for n in range(order + 1):
        for c in ordered:
            kind, ops, s = kinds[c], operands[c], series
            if kind == "AtomRef":
                x = int(n == val[c])
            elif kind == "symbol":
                x = s[ops[0]][n]
            elif kind == "Sum":
                x = sum(s[t][n] for t in ops)
            elif kind == "product":
                a, b = ops
                x = sum(s[a][i] * s[b][n - i] for i in range(val[a], n - val[b] + 1))
            else:  # Seq, argument of valuation at least 1
                x = sum(s[ops[0]][j] * s[c][n - j] for j in range(1, n + 1)) if n else 1
            s[c].append(x)
    return series[index[spec.root]]


def marker_callbacks(markers):
    """(leaf, upper, exact) of the marker count over the atoms ``markers``:
    a leaf's count, the fixpoint's upper bound per node, and the exact count
    per node once the symbols' counts are known (-1: a sum whose terms
    differ, or a product with one inside)."""

    def leaf(node, counts):
        if isinstance(node, AtomRef):
            return 1 if node.atom in markers else 0
        if isinstance(node, ClassRef):
            return counts.get(node.name, 0)
        return 0  # Zero, Seq

    def upper(node, kids, counts):
        if isinstance(node, Product):
            return min(2, sum(kids))
        if isinstance(node, Sum):
            return max(kids)
        return leaf(node, counts)

    def exact(counts):
        def step(node, kids):
            if isinstance(node, Product):
                return -1 if -1 in kids else sum(kids)
            if isinstance(node, Sum):
                return kids[0] if len(set(kids)) == 1 else -1
            return leaf(node, counts)

        return step

    return leaf, upper, exact


def _terms(expr):
    return expr.terms if isinstance(expr, Sum) else (expr,)


def _positions(steps) -> dict:
    """The step of each node of a plan, by identity."""
    return {id(node): i for i, (node, _) in enumerate(steps)}


def _equations(plan) -> list:
    """The equations of a plan ``(steps, at)``, in its symbol order."""
    steps, at = plan
    return [Equation(lhs, steps[i][0]) for lhs, i in at.items()]


def reference_marker_fixpoint(plan, markers, label):
    """What spec._marker_fixpoint returns or raises, by marker_callbacks."""
    eqs, steps, position = _equations(plan), plan[0], _positions(plan[0])
    if not any(isinstance(node, AtomRef) and node.atom in markers for node, _ in steps):
        return {eq.lhs: 0 for eq in eqs}
    _, upper, exact = marker_callbacks(markers)
    symbols = [(eq.lhs, position[id(eq.rhs)]) for eq in eqs]
    counts, _, _ = reference_fixpoint(steps, symbols, upper, 0)
    values = _reference_evaluate(steps, exact(counts))
    for eq in eqs:
        for i, t in enumerate(_terms(eq.rhs), 1):
            if t == AtomRef(EMPTY):
                continue
            value = values[position[id(t)]]
            if value < 0:
                problem = f"mixed {label}-marker counts inside a factor"
            elif value > 1:
                problem = f"term of {eq.lhs!r} carries the {label} marker more than once"
            elif value != counts[eq.lhs]:
                problem = f"mixed terms in {eq.lhs!r}: some carry the {label} marker, others do not"
            else:
                continue
            raise TrackingError(problem, eq.lhs, i)
    return counts


def marked_content(tracking):
    """Fold function: (first marked leaf, first Seq with marked content).

    Both are error texts, found in preorder, or None.  Marked atoms and
    classes that carry a marker can never appear inside Seq.
    """
    untracked = TrackingKind(False, False)

    def visit(node, kids):
        if isinstance(node, AtomRef):
            if node.atom in ("ZL", "ZR", "ZLR"):
                return f"marked atom {node.atom} cannot appear inside Seq", None
            return None, None
        if isinstance(node, ClassRef):
            kind = tracking.get(node.name, untracked)
            if kind.has_r or kind.has_l:
                return f"class {node.name!r} carries a marker and cannot appear inside Seq", None
            return None, None
        if isinstance(node, Seq):
            return kids[0][0], kids[0][0]
        marked = next((k[0] for k in kids if k[0]), None)
        return marked, next((k[1] for k in kids if k[1]), None)

    return visit


def reference_check_seq_content(plan, tracking):
    """What spec._check_seq_content raises, by marked_content: the first
    term, in equation order, whose tree holds a Seq over marked content."""
    eqs, steps, position = _equations(plan), plan[0], _positions(plan[0])
    marks = _reference_evaluate(steps, marked_content(tracking))
    for eq in eqs:
        for i, t in enumerate(_terms(eq.rhs), 1):
            problem = marks[position[id(t)]][1]
            if problem:
                raise TrackingError(f"Seq argument in {eq.lhs!r}: {problem}", eq.lhs, i)
