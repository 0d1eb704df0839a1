"""Expression algebra: sums of products over atoms, class references and Seq nodes.

Every equation right-hand side is an ``Expr``.  Product order is significant:
factors are read in increasing value order of the permutation entries they
stand for ("bottom to top"), so products are never reordered except by the
explicit symmetry operators.

Expressions are immutable and compared structurally.  The canonical
constructors always hash-cons what they build into the :class:`Table`
passed to them (Filliatre & Conchon, "Type-safe modular hash-consing",
2006), and take and return positions in it: the readers, the operators and
:func:`rewrite` use one table per specification, so equal subexpressions of
one specification are one object.  The table keys a leaf by its value and a
compound node by its type and its child positions, so a lookup hashes no
node, and a compound node computes its structural hash only when something
asks for it (a comparison across tables), then caches it.  A table is a
plan of what was built in it: it lists its nodes in the order they were
built, each after its children, so the plan of some of them is the steps
they reach, which :func:`_reached` finds and :func:`_compacted` renumbers
only when the table holds steps they do not reach.  Every traversal is a
plan of the distinct nodes, then one :func:`evaluate` of it: iterative,
each node visited once.  :func:`fold` plans and evaluates an expression
from outside a table; a specification keeps the plan of its equations, so
its analyses only evaluate, and a per-symbol analysis is one
:func:`least_fixpoint`, which repeats the analysis's pass over the plan: a
flat loop that dispatches on each node's type and writes its value in
place, reading its operands by position (a reference reads its symbol's
step), with no call per step.  A walk that may meet a cycle, through class
references or along the series schedule's zero-lag reads, is one
:func:`postorder` over positions.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Mapping

# Atom kinds.  EMPTY is the neutral object of size 0; the other four all have
# size 1.  ZL / ZR mark the positionally leftmost / rightmost entry, ZLR both.
EMPTY = "E"
Z = "Z"
ZL = "ZL"
ZR = "ZR"
ZLR = "ZLR"

ATOM_KINDS = (EMPTY, Z, ZL, ZR, ZLR)
R_ATOMS = frozenset((ZR, ZLR))
L_ATOMS = frozenset((ZL, ZLR))


class SpecError(Exception):
    """Invalid specification or expression."""


_set = object.__setattr__  # how a constructor writes the fields it refuses to rewrite


class Expr:
    """An immutable expression node: every field is written once, and
    assigning or deleting one raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ZeroExpr(Expr):
    """Annihilator: the empty class with no objects at all."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is ZeroExpr or NotImplemented

    def __hash__(self):
        return hash(ZeroExpr)

    def __repr__(self):
        return "Zero"


ZERO = ZeroExpr()


class AtomRef(Expr):
    __slots__ = ("atom",)

    def __init__(self, atom):
        if atom not in ATOM_KINDS:
            raise SpecError(f"unknown atom kind {atom!r}")
        _set(self, "atom", atom)

    def __eq__(self, other):
        return self.atom == other.atom if type(other) is AtomRef else NotImplemented

    def __hash__(self):
        return hash(self.atom)

    def __reduce__(self):
        return AtomRef, (self.atom,)

    def __repr__(self):
        return self.atom


class ClassRef(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)

    def __eq__(self, other):
        return self.name == other.name if type(other) is ClassRef else NotImplemented

    def __hash__(self):
        return hash(self.name)

    def __reduce__(self):
        return ClassRef, (self.name,)

    def __repr__(self):
        return f"@{self.name}"


# Compound nodes compute their structural hash on the first ``hash`` call,
# not when they are built: the canonical constructors hash-cons by child
# position, so building never needs it.  It is cached in the node's
# ``_hash`` slot, written once: two threads that race to write it write the
# same value.  Nodes compare their hashes first, so unequal nodes differ at
# once and equal shared children compare by identity.  The hash is only
# valid in the process that computed it, so unpickling rebuilds the node,
# from the flat form of its plan: pickling nodes as nested objects would
# recurse once per level.


def _reduce_flat(node):
    return _node_from_flat_form, (_flat_form(plan((node,))[0]),)


def _lazy_hash(node) -> int:
    """The cached structural hash of a compound node.  On first use it is
    computed over the node's plan, children first, for every node under it
    that has none yet, so each hash reads its children's cached ones:
    iterative, depth is bounded by memory only."""
    try:
        return node._hash
    except AttributeError:
        pass
    for step, _ in plan((node,))[0]:
        if type(step) in _COMPOUND and not hasattr(step, "_hash"):
            _set(step, "_hash", hash((type(step), children(step))))
    return node._hash


def _equal(a, b) -> bool:
    """Structural equality of two expressions, iteratively: depth is bounded
    by memory only, and each pair of shared nodes is compared once."""
    stack, done = [(a, b)], set()
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in done:
            continue
        if type(x) is not type(y) or hash(x) != hash(y):
            return False
        kx, ky = children(x), children(y)
        if (type(x) not in _COMPOUND and x != y) or len(kx) != len(ky):
            return False
        done.add((id(x), id(y)))
        stack.extend(zip(kx, ky))
    return True


class Product(Expr):
    __slots__ = ("_hash", "factors")

    def __init__(self, factors):
        _set(self, "factors", factors)

    __hash__ = _lazy_hash
    __eq__ = _equal
    __reduce__ = _reduce_flat

    def __repr__(self):
        return "(" + " ".join(map(repr, self.factors)) + ")"


class Sum(Expr):
    __slots__ = ("_hash", "terms")

    def __init__(self, terms):
        _set(self, "terms", terms)

    __hash__ = _lazy_hash
    __eq__ = _equal
    __reduce__ = _reduce_flat

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.terms)) + ")"


class Seq(Expr):
    __slots__ = ("_hash", "arg")

    def __init__(self, arg):
        _set(self, "arg", arg)

    __hash__ = _lazy_hash
    __eq__ = _equal
    __reduce__ = _reduce_flat

    def __repr__(self):
        return f"Seq{self.arg!r}"


_COMPOUND = (Sum, Product, Seq)

E_EXPR = AtomRef(EMPTY)
Z_EXPR = AtomRef(Z)


def children(node) -> tuple:
    """Direct subexpressions of a node, in order."""
    kind = type(node)
    if kind is Sum:
        return node.terms
    if kind is Product:
        return node.factors
    if kind is Seq:
        return (node.arg,)
    return ()


_FINISH = object()  # stack marker: the two entries below it are a node and its children


def plan(roots) -> tuple:
    """The distinct nodes under ``roots``, each once and after its children.

    Returns ``(steps, position)``: a step is ``(node, tuple of child
    positions)``, so it cannot be written after it is made; ``position``
    maps ``id(node)`` to its step.  Nodes are told apart by identity, which
    suits canonical expressions.  A node's children are built before it,
    so no node reaches itself.  Iterative: depth is bounded by memory only.
    """
    steps, position, stack = [], {}, list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is _FINISH:
            kids = stack.pop()
            node = stack.pop()
        elif id(node) in position:
            continue
        else:
            kids = children(node)
            if kids:
                stack += (node, kids, _FINISH)
                stack.extend(reversed(kids))
                continue
        position[id(node)] = len(steps)
        steps.append((node, tuple([position[id(k)] for k in kids])))
    return steps, position


def postorder(operands, starts) -> tuple:
    """Depth-first postorder of the positions reachable from ``starts``, taken
    in turn, along ``operands`` (``operands[i]``: the positions that ``i``
    leads to): each position after every one it leads to.

    Returns ``(order, None)``; at the first cycle met the walk stops and
    returns ``(order so far, cycle)``, the positions of the cycle listed from
    the one it reached again.  Iterative: depth is bounded by memory only.
    """
    order, state = [], bytearray(len(operands))  # 1 while on the path, 2 once ordered
    for start in starts:
        if state[start]:
            continue
        state[start] = 1
        path, walks = [start], [iter(operands[start])]
        while walks:
            for i in walks[-1]:  # resumes after the operand it last went down
                seen = state[i]
                if not seen:
                    leads = operands[i]
                    if leads:
                        state[i] = 1
                        path.append(i)
                        walks.append(iter(leads))
                        break
                    state[i] = 2  # leads nowhere: ordered at once
                    order.append(i)
                elif seen == 1:
                    return order, path[path.index(i):]
            else:
                i = path.pop()
                walks.pop()
                state[i] = 2
                order.append(i)
    return order, None


def evaluate(steps: list, fn) -> list:
    """``fn(node, values of its children)`` of every step, in step order."""
    values = []
    value_at = values.__getitem__
    for node, kids in steps:
        values.append(fn(node, list(map(value_at, kids))))
    return values


def _operands(steps: list, at: dict, undefined=()) -> list:
    """What each step of a plan reads: a class reference reads the step
    ``at`` gives its symbol, or ``undefined`` when it gives none; any other
    node reads its children."""
    return [kids if type(node) is not ClassRef
            else (at[node.name],) if node.name in at else undefined
            for node, kids in steps]


def least_fixpoint(steps: list, at: dict, run_pass, bottom) -> tuple:
    """Least fixpoint of a per-symbol analysis over the plan ``steps``.

    ``at`` maps each symbol to its right-hand side's step; two may share
    one.  ``run_pass(steps, operands, values)`` is one pass of the
    analysis: a flat loop that writes each step's value over ``values``,
    reading every operand by position (:func:`_operands`), so a reference
    reads its symbol's step: this pass's value when that step comes
    earlier, the last pass's when it comes later.  Every value starts at
    ``bottom``, which a reference to a symbol with no equation keeps
    reading.  Passes repeat until one changes no symbol's value.  There is
    no round cap: the analysis must be monotone, with values that move one
    way in a well-founded order (booleans, capped counts, sizes that only
    fall), so any order of updates reaches the same least fixpoint and
    stops.  Returns ``(value of each symbol, the last pass's step values)``.
    """
    operands = _operands(steps, at, (len(steps),))
    values = [bottom] * (len(steps) + 1)  # the last: what an undefined reference reads
    read = values.__getitem__
    while True:
        before = list(map(read, at.values()))
        run_pass(steps, operands, values)
        if before == list(map(read, at.values())):
            values.pop()
            return {name: values[i] for name, i in at.items()}, values


def fold(roots, fn) -> list:
    """Bottom-up values of ``roots``: ``fn(node, values of its children)`` once
    per distinct node under them all, children first and left to right."""
    steps, position = plan(roots)
    values = evaluate(steps, fn)
    return [values[position[id(root)]] for root in roots]


def _flat_form(steps) -> list:
    """Plan steps in flat form, which pickles without recursion: a leaf as
    itself, a compound node as its type; children stay step positions."""
    return [(type(node) if type(node) in _COMPOUND else node, kids) for node, kids in steps]


def _from_flat_form(flat) -> list:
    """The plan steps that :func:`_flat_form` gave, nodes rebuilt in step order."""
    steps = []
    for node, kids in flat:
        if isinstance(node, type):
            args = [steps[k][0] for k in kids]
            node = node(args[0] if node is Seq else tuple(args))
        steps.append((node, kids))
    return steps


def _node_from_flat_form(flat) -> Expr:
    return _from_flat_form(flat)[-1][0]  # a single root is planned last


def nodes(expr: Expr) -> list:
    """The distinct nodes of an expression, children first."""
    return [node for node, _ in plan((expr,))[0]]


class Table:
    """A hash-consing table that is a plan of what was built in it: step
    ``i`` is ``(nodes[i], kids[i])``, a distinct node and its child
    positions, appended when the node is first built, so each after its
    children; ``index`` maps a node's key to its position.  A leaf's key is
    itself, a compound node's its type and its child positions, so a lookup
    hashes no node."""

    __slots__ = ("nodes", "kids", "index")

    def __init__(self):
        self.nodes = []
        self.kids = []
        self.index = {}

    def leaf(self, node) -> int:
        """The position of the leaf ``node``, entered on first use."""
        new = len(self.nodes)
        at = self.index.setdefault(node, new)
        if at == new:
            self.nodes.append(node)
            self.kids.append(())
        return at


def _consed(cls, kids: tuple, table: Table, node=None) -> int:
    # a compound node is looked up by its type and its child positions
    # before it is built, so a node found is never built again; ``node``,
    # when given, is entered as it is instead of a new one.  A Seq's one
    # child is what itemgetter of one position gives.
    nodes = table.nodes
    new = len(nodes)
    at = table.index.setdefault((cls, kids), new)
    if at == new:
        nodes.append(cls(itemgetter(*kids)(nodes)) if node is None else node)
        table.kids.append(kids)
    return at


def _reached(kids: list, roots) -> bytearray | None:
    """Which steps of a table, given by their child positions ``kids``,
    ``roots`` reach, or None when every one is.

    Every step is reached when each is a root or a child of another: the
    last one is then a root, and each one below it a child of a reached one
    above it.  That check runs in C; only when it fails does one backward
    pass over the positions mark the reached steps."""
    listed = set(roots)
    listed.update(*kids)
    if len(listed) == len(kids):
        return None
    reached = bytearray(len(kids))
    for at in roots:
        reached[at] = 1
    for i in range(len(kids) - 1, -1, -1):
        if reached[i]:
            for k in kids[i]:
                reached[k] = 1
    return reached


def _compacted(table: Table, at: dict, reached) -> tuple:
    """``(plan steps, at)`` of the steps of ``table`` that ``reached`` marks
    (every step when it is None), in table order, and of ``at``, which maps
    each symbol to its step: the table's own steps when nothing is dropped,
    else the kept ones renumbered."""
    nodes, kids = table.nodes, table.kids
    if reached is None:
        return tuple(zip(nodes, kids)), at
    kept = list(compress(range(len(nodes)), reached))
    renumbered = dict(zip(kept, range(len(kept)))).__getitem__
    plan = tuple([(nodes[i], tuple(map(renumbered, kids[i]))) for i in kept])
    return plan, {name: renumbered(i) for name, i in at.items()}


# Canonical constructors.  They take and return positions in ``table``, of
# canonical nodes: no Sum directly inside a Sum, no Product inside a Product,
# no Zero term in a Sum, no Empty factor in a Product, no Sum/Product of fewer
# than two children, no Seq of Zero.


def make_sum(terms, table: Table) -> int:
    nodes, flat = table.nodes, []
    for t in terms:
        kind = type(nodes[t])
        if kind is Sum:
            flat.extend(table.kids[t])
        elif kind is not ZeroExpr:
            flat.append(t)
    if len(flat) < 2:
        return flat[0] if flat else table.leaf(ZERO)
    return _consed(Sum, tuple(flat), table)


def make_product(factors, table: Table) -> int:
    nodes, flat = table.nodes, []
    for f in factors:
        node = nodes[f]
        kind = type(node)
        if kind is Product:
            flat.extend(table.kids[f])
        elif kind is AtomRef:
            if node.atom != EMPTY:
                flat.append(f)
        elif kind is ZeroExpr:
            return f
        else:
            flat.append(f)
    if len(flat) < 2:
        return flat[0] if flat else table.leaf(E_EXPR)
    return _consed(Product, tuple(flat), table)


def make_seq(arg: int, table: Table) -> int:
    if type(table.nodes[arg]) is ZeroExpr:
        # sequences over the empty class: only the empty sequence remains
        return table.leaf(E_EXPR)
    return _consed(Seq, (arg,), table)


def rewrite(exprs, leaf: Mapping = {}) -> list:
    """Rebuild expressions bottom-up through the canonical constructors.

    ``leaf`` maps an atom or class reference to its canonical replacement,
    a leaf (a leaf it does not name stays).  The results are hash-consed
    together in one table: equal subexpressions of all of them are one
    object.
    """
    table = Table()
    return [table.nodes[at] for at in fold(exprs, _rebuilder(table, leaf))]


def _rebuilder(table: Table, leaf: Mapping = {}, flip: bool = False):
    """The fold function of :func:`rewrite`: evaluating a plan with it
    rebuilds the planned nodes into ``table``, each to its position, each
    leaf as ``leaf.get(node, node)``, a leaf or a position of ``table``: the
    one place a leaf map is read."""

    def build(node, kids):
        kind = type(node)
        if kind is Sum:
            return make_sum(kids, table)
        if kind is Product:
            return make_product(kids[::-1] if flip else kids, table)
        if kind is Seq:
            return make_seq(kids[0], table)
        if kind not in (ZeroExpr, AtomRef, ClassRef):
            raise SpecError(f"not an expression: {node!r}")
        new = leaf.get(node, node)
        return new if type(new) is int else table.leaf(new)

    return build


def canonicalize(expr: Expr) -> Expr:
    """Normal form: flattened, Zero-absorbed, Empty-unit, hash-consed.

    Counting semantics and term and factor order are kept; equal
    subexpressions of the result are one object.  Idempotent.
    """
    return rewrite([expr])[0]


def terms(expr: Expr) -> tuple:
    """Top-level terms of a canonical expression."""
    if isinstance(expr, Sum):
        return expr.terms
    return (expr,)

