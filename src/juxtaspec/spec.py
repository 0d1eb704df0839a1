"""Specifications: named equation systems with marker-tracking metadata.

A specification is a list of equations ``name = expr`` with a distinguished
root symbol.  Tracking metadata records, per symbol, whether every nonempty
object of that class carries exactly one rightmost marker (ZR or ZLR) and/or
exactly one leftmost marker (ZL or ZLR).  Tracking is always inferred from
the equations, never declared.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple, Optional

from .expr import (
    ATOM_KINDS,
    AtomRef,
    ClassRef,
    E_EXPR,
    EMPTY,
    Expr,
    L_ATOMS,
    Product,
    R_ATOMS,
    Seq,
    SpecError,
    Sum,
    ZERO,
    Z_EXPR,
    ZeroExpr,
    _cons_key,
    _flat_form,
    _from_flat_form,
    _operands,
    _rebuilder,
    _set,
    _table_plan,
    children,
    least_fixpoint,
    make_product,
    make_seq,
    make_sum,
    postorder,
    rewrite,
    terms,
)

SZ_NAME = "SZ"
_SZ_REF = ClassRef(SZ_NAME)

RESERVED_NAMES = frozenset(ATOM_KINDS) | {"Seq"}

# The NAME rule of the DSL grammar: letter (letter | digit | "." | "_")*
NAME = re.compile(r"[A-Za-z][A-Za-z0-9._]*")


class TrackingError(SpecError):
    """Marker usage is inconsistent across the terms of some equation, or a
    marker stands inside Seq: ``problem`` says how, in term ``term`` (1-based,
    E terms counted) of the equation of ``symbol``, which stands on DSL line
    ``line`` when known."""

    def __init__(self, problem: str, symbol: str, term: int, line: Optional[int] = None):
        where = f"term {term} of {symbol!r}" + ("" if line is None else f", line {line}")
        super().__init__(f"{problem} ({where})")
        self.problem, self.symbol, self.term, self.line = problem, symbol, term, line

    def __reduce__(self):
        return TrackingError, (self.problem, self.symbol, self.term, self.line)


class TrackingKind(NamedTuple):
    has_r: bool
    has_l: bool


class Equation(NamedTuple):
    lhs: str
    rhs: Expr


def sz_equation() -> Equation:
    """The reserved sequence-of-atoms symbol: SZ = E + SZ Z."""
    return Equation(SZ_NAME, Sum((E_EXPR, Product((ClassRef(SZ_NAME), Z_EXPR)))))


class Specification:
    """Immutable equation system, never written to after it is built.

    Build through :func:`make_spec`, the readers of :mod:`juxtaspec.dsl` or
    the operations of the library, which all return canonical, hash-consed
    equations (root first) with the tracking that :func:`make_spec` infers
    for them: the readers and each expansion step close theirs without
    rebuilding, the symmetries and :func:`inline_seq` map one.  ``_plan``,
    made as it is built, is ``(steps, roots)``: steps in the form that
    :func:`~juxtaspec.expr.plan` gives, of the distinct nodes of all
    right-hand sides, each after its children (in the order the table they
    were built in made them), and the step of each right-hand side, in
    equation order.  Every analysis evaluates it.  Two
    specifications are equal when their equations and roots are.
    """

    __slots__ = ("equations", "root", "tracking", "_by_name", "_plan")

    def __init__(self, equations: tuple, root: str, tracking: Mapping[str, TrackingKind],
                 _by_name: Mapping[str, Expr], _plan: tuple):
        _set(self, "equations", equations)
        _set(self, "root", root)
        _set(self, "tracking", tracking)
        _set(self, "_by_name", _by_name)
        _set(self, "_plan", _plan)

    __setattr__ = Expr.__setattr__
    __delattr__ = Expr.__delattr__

    def __eq__(self, other):
        if type(other) is not Specification:
            return NotImplemented
        return self.equations == other.equations and self.root == other.root

    def __hash__(self):
        return hash((self.equations, self.root))

    def __repr__(self):
        return (f"Specification(equations={self.equations!r}, root={self.root!r}, "
                f"tracking={self.tracking!r})")

    @property
    def symbols(self) -> tuple:
        return tuple(eq.lhs for eq in self.equations)

    def __reduce__(self):
        steps, roots = self._plan
        return _unpickled, (_flat_form(steps), roots, self.symbols, self.root, self.tracking)

    def rhs(self, name: str) -> Expr:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpecError(f"undefined symbol {name!r}") from None

    def root_tracking(self) -> TrackingKind:
        return self.tracking[self.root]


def _unpickled(flat, roots, symbols, root, tracking) -> Specification:
    """The specification that :meth:`Specification.__reduce__` flattened."""
    steps = tuple(_from_flat_form(flat))
    eqs = tuple(Equation(lhs, steps[at][0]) for lhs, at in zip(symbols, roots))
    return Specification(eqs, root, tracking, {eq.lhs: eq.rhs for eq in eqs}, (steps, roots))


def make_spec(equations: Iterable[Equation], root: Optional[str] = None) -> Specification:
    """Canonicalize, validate and classify-track an equation system.

    Equal subexpressions of all equations become one object.  The SZ symbol
    is auto-injected when referenced but not defined; a user-supplied SZ
    equation must match the reserved one.  The root defaults to the first
    equation's left-hand side and its equation is moved first.
    """
    equations = list(equations)
    table = {}
    rhs = rewrite([eq.rhs for eq in equations], table=table)
    return _close([Equation(eq.lhs, expr) for eq, expr in zip(equations, rhs)], root, table)


def _sz_rhs(table: dict) -> Expr:
    """The reserved SZ right-hand side, built canonical into ``table``."""
    leaf = table.setdefault
    run = make_product((leaf(_SZ_REF, _SZ_REF), leaf(Z_EXPR, Z_EXPR)), table)
    return make_sum((leaf(E_EXPR, E_EXPR), run), table)


def _close(eqs: list, root: Optional[str], table: dict, prune: bool = False) -> Specification:
    """Validate and classify-track equations that are already canonical and
    hash-consed in ``table``; what :func:`make_spec` does after its rewrite.

    With ``prune`` (the equations of an expansion, ``root`` given), symbols
    of the empty class are substituted by Zero and dropped first, then the
    symbols unreachable from the root.  Without it, an equation whose
    right-hand side is Zero is an error.  The plan of the kept equations,
    which serves every check below and, kept on the result, every later
    analysis, is read from ``table`` (:func:`~juxtaspec.expr._table_plan`).
    """
    if prune:
        eqs, steps, position = _prune(eqs, root, table)
    if not eqs:
        raise SpecError("specification has no equations")

    seen = set()
    for eq in eqs:
        if not isinstance(eq.lhs, str) or not NAME.fullmatch(eq.lhs):
            raise SpecError(f"invalid symbol name {eq.lhs!r}")
        if eq.lhs in RESERVED_NAMES:
            raise SpecError(f"{eq.lhs!r} is reserved and cannot be defined")
        if eq.lhs in seen:
            raise SpecError(f"duplicate definition of {eq.lhs!r}")
        seen.add(eq.lhs)
        if isinstance(eq.rhs, ZeroExpr):
            raise SpecError(f"{eq.lhs!r} defines an empty class; such equations are not representable")

    if not prune:
        steps, position = _table_plan(table, [eq.rhs for eq in eqs])
    used = {node.name for node, _ in steps if type(node) is ClassRef}
    defined = {eq.lhs for eq in eqs}
    undefined = used - defined
    if SZ_NAME in undefined:
        sz_rhs = _sz_rhs(table)
        eqs.append(Equation(SZ_NAME, sz_rhs))
        defined.add(SZ_NAME)
        undefined.discard(SZ_NAME)
        for node in (*sz_rhs.terms[1].factors, *sz_rhs.terms, sz_rhs):  # children first
            if id(node) not in position:
                position[id(node)] = len(steps)
                steps.append((node, tuple([position[id(k)] for k in children(node)])))
    if undefined:
        missing = ", ".join(sorted(undefined))
        raise SpecError(f"undefined symbol(s): {missing}")
    if SZ_NAME in defined:
        given = next(eq.rhs for eq in eqs if eq.lhs == SZ_NAME)
        if given != _sz_rhs(table):
            raise SpecError(f"{SZ_NAME} is reserved and must equal E + {SZ_NAME} Z")

    if root is None:
        root = eqs[0].lhs
    if root not in defined:
        raise SpecError(f"root symbol {root!r} has no equation")
    eqs.sort(key=lambda eq: 0 if eq.lhs == root else 1)

    r_counts = _marker_fixpoint(eqs, steps, position, R_ATOMS, "rightmost")
    l_counts = _marker_fixpoint(eqs, steps, position, L_ATOMS, "leftmost")
    tracking = {eq.lhs: TrackingKind(r_counts[eq.lhs] == 1, l_counts[eq.lhs] == 1) for eq in eqs}
    if any(type(node) is Seq for node, _ in steps):  # else no Seq content to check
        _check_seq_content(eqs, steps, position, tracking)
    return _planned_spec(eqs, root, tracking, steps, position)


def _planned_spec(eqs, root: str, tracking: dict, steps, position: dict) -> Specification:
    """The specification of ``eqs`` and their plan (``steps``, ``position``)."""
    by_name, roots = {eq.lhs: eq.rhs for eq in eqs}, tuple(position[id(eq.rhs)] for eq in eqs)
    return Specification(tuple(eqs), root, tracking, by_name, (tuple(steps), roots))


def _prune(eqs: list, root: str, table: dict) -> tuple:
    """Drop the empty-class symbols of an expansion and the symbols
    unreachable from ``root``; returns the kept equations and their plan,
    read from ``table``.

    The empty symbols are a least fixpoint over the plan: a Sum is empty
    when all of its terms are, a Product when any factor is, a reference
    when its symbol is; Seq and atoms never are.  That is exactly when
    canonical rebuilding turns a node into Zero, so the walk from the root
    passes the empty steps.  Only when it drops a symbol are the kept
    equations rebuilt, Zero for the empty symbols, in one :func:`_rebuilt`
    of the plan, and their plan read again.
    """
    has_empty = any(type(eq.rhs) is ZeroExpr for eq in eqs)
    if has_empty:
        table.setdefault(ZERO, ZERO)  # the constructors return Zero without entering it
    steps, position = _table_plan(table, [eq.rhs for eq in eqs])
    symbols = [(eq.lhs, position[id(eq.rhs)]) for eq in eqs]
    visited = bytearray(len(steps))
    if has_empty:
        empty, values = least_fixpoint(steps, symbols, _empty_pass, False)
        if empty[root]:
            raise SpecError(f"expansion of {root} is the empty class")
        visited = bytearray(values)  # the walk passes the empty steps

    # one walk from the root, each step of the plan visited at most once
    at_symbol = dict(symbols)
    keep, stack = {root}, [at_symbol[root]]
    while stack:
        at = stack.pop()
        if visited[at]:
            continue
        visited[at] = 1
        node, kids = steps[at]
        if isinstance(node, ClassRef) and node.name in at_symbol and node.name not in keep:
            keep.add(node.name)
            stack.append(at_symbol[node.name])
        stack.extend(kids)
    if len(keep) == len(eqs):
        return eqs, steps, position
    eqs = [eq for eq in eqs if eq.lhs in keep]
    if has_empty:
        def leaf(node):
            return ZERO if isinstance(node, ClassRef) and empty.get(node.name) else node

        values = _rebuilt(steps, table, leaf)
        eqs = [Equation(eq.lhs, values[position[id(eq.rhs)]]) for eq in eqs]
    return (eqs, *_table_plan(table, [eq.rhs for eq in eqs]))


def _empty_pass(steps: list, operands: list, values: list) -> None:
    """One pass of :func:`_prune`'s emptiness fixpoint, for
    :func:`~juxtaspec.expr.least_fixpoint`: whether each step is empty."""
    read = values.__getitem__
    for i, (node, kids) in enumerate(steps):
        kind = type(node)
        if kind is Sum:
            values[i] = all(map(read, kids))
        elif kind is Product:
            values[i] = any(map(read, kids))
        elif kind is ClassRef:
            values[i] = values[operands[i][0]]
        else:
            values[i] = kind is ZeroExpr


def _marker_fixpoint(eqs, steps: list, position: dict, markers: frozenset, label: str) -> dict:
    """Least fixpoint of per-symbol marker counts, and their exactness.

    A term that is literally E describes the empty object and is exempt from
    the count (the empty permutation carries no markers); every other term of
    a marker-carrying symbol must contain the marker exactly once.  Seq
    content carries no markers.  Each pass of the fixpoint is one flat loop
    over the plan: an atom counts 1 when it is one of ``markers``, a
    reference what its symbol's step counts, Seq 0.  Beside each step's
    capped count it records the step's exact count, -1 when a sum under it,
    itself included, has terms that count differently; the last pass reads
    only settled counts, so its exact counts give the refusals.
    """
    if not any(type(node) is AtomRef and node.atom in markers for node, _ in steps):
        return {eq.lhs: 0 for eq in eqs}  # every count and every term is 0

    exact = []  # of the latest pass

    def upper(steps, operands, values) -> None:
        # a product adds its factors' counts, capped at 2; a sum takes its
        # terms' maximum, which an E term (0) never raises
        record = exact.append
        exact.clear()
        for i, (node, kids) in enumerate(steps):
            kind = type(node)
            if kind is Product:
                v = e = 0
                for k in kids:
                    v += values[k]
                    if e >= 0:
                        e = -1 if exact[k] < 0 else e + exact[k]
                if v > 2:
                    v = 2
            elif kind is Sum:
                v, e = 0, exact[kids[0]]
                for k in kids:
                    if values[k] > v:
                        v = values[k]
                    if exact[k] != e:
                        e = -1
            elif kind is AtomRef:
                v = e = 1 if node.atom in markers else 0
            elif kind is ClassRef:
                v = e = values[operands[i][0]]
            else:
                v = e = 0  # Seq
            values[i] = v
            record(e)

    counts, _ = least_fixpoint(steps, [(eq.lhs, position[id(eq.rhs)]) for eq in eqs], upper, 0)
    for eq in eqs:
        for i, t in enumerate(terms(eq.rhs), 1):
            if type(t) is AtomRef and t.atom == EMPTY:
                continue
            value = exact[position[id(t)]]
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


def _check_seq_content(eqs, steps: list, position: dict, tracking: Mapping) -> None:
    """Refuse a marked atom, or a class that carries a marker, inside Seq.

    One flat loop over the plan finds, per step, the first such leaf in
    preorder and the first Seq with one in its argument; the refusal names
    the first term, in equation order, that holds such a Seq.
    """
    atoms = R_ATOMS | L_ATOMS
    carriers = {name for name, kind in tracking.items() if kind.has_r or kind.has_l}
    marked, inside = [], []  # per step: that leaf under it, and under a Seq under it
    for node, kids in steps:
        kind = type(node)
        if kind is AtomRef:
            m, s = (node if node.atom in atoms else None), None
        elif kind is ClassRef:
            m, s = (node if node.name in carriers else None), None
        elif kind is Seq:
            m = s = marked[kids[0]]
        else:
            m = s = None
            for k in kids:
                if m is None:
                    m = marked[k]
                if s is None:
                    s = inside[k]
        marked.append(m)
        inside.append(s)
    for eq in eqs:
        for i, t in enumerate(terms(eq.rhs), 1):
            leaf = inside[position[id(t)]]
            if leaf is None:
                continue
            if type(leaf) is AtomRef:
                problem = f"marked atom {leaf.atom} cannot appear inside Seq"
            else:
                problem = f"class {leaf.name!r} carries a marker and cannot appear inside Seq"
            raise TrackingError(f"Seq argument in {eq.lhs!r}: {problem}", eq.lhs, i)


class Classification(NamedTuple):
    regular: bool
    context_free: bool

    @property
    def label(self) -> str:
        if self.regular:
            return "regular"
        if self.context_free:
            return "context-free"
        return "general"


def classify(spec: Specification) -> Classification:
    """Constructor-restriction flags of the system.

    context-free: no Seq node anywhere (class references are fine).
    regular: no cycle of class references is reachable from the root, so
    inlining every reachable symbol leaves an expression over atoms and Seq.
    SZ counts as Seq(Z), a leaf, unless it is the root.  Both flags may hold
    at once.  One :func:`~juxtaspec.expr.postorder` from the root's step,
    along the operands that :func:`~juxtaspec.expr.least_fixpoint` reads
    (a reference leads to its symbol's step), looks for the cycle.
    """
    steps, roots = spec._plan
    at = dict(zip(spec.symbols, roots))
    if spec.root != SZ_NAME:
        at.pop(SZ_NAME, None)  # a leaf
    regular = postorder(_operands(steps, at), (roots[0],))[1] is None
    return Classification(regular, not any(type(node) is Seq for node, _ in steps))


def _renamer(atoms: Mapping[str, str], seq_z: Optional[Expr] = None,
             names: Mapping[str, str] = {}):
    """Leaf function for :func:`~juxtaspec.expr.rewrite`: atoms renamed by
    ``atoms``, class references by ``names`` and, when ``seq_z`` is given,
    SZ references replaced by it."""

    def leaf(node):
        if isinstance(node, AtomRef) and node.atom in atoms:
            return AtomRef(atoms[node.atom])
        if isinstance(node, ClassRef):
            if seq_z is not None and node.name == SZ_NAME:
                return seq_z
            if node.name in names:
                return ClassRef(names[node.name])
        return node

    return leaf


def _rebuilt(steps, table: dict, leaf, flip: bool = False) -> list:
    """The value of every step of a canonical plan rebuilt through
    :func:`~juxtaspec.expr._rebuilder`: leaves mapped by ``leaf``, products
    reversed if ``flip``.  A compound node whose rebuilt children are its own
    children is kept and entered in ``table`` as the canonical constructors
    enter it, so no node that a map leaves alone is built again; a product
    under ``flip`` is always rebuilt.  ``table`` holds the plan's leaves, so a
    leaf mapped onto one of them finds it and the nodes over it are kept."""
    build, values, same = _rebuilder(table, leaf, flip), [], []  # same: value is node
    for node, kids in steps:
        if kids and not (flip and type(node) is Product) and all(map(same.__getitem__, kids)):
            value = table.setdefault(_cons_key(node), node)
        else:
            value = build(node, [values[k] for k in kids])
        values.append(value)
        same.append(value is node)
    return values


def _tracking_through(atoms: Mapping[str, str], kind: TrackingKind) -> TrackingKind:
    """The tracking of a symbol of tracking ``kind`` once its atoms are
    renamed by ``atoms``: a side is tracked when exactly the markers of a
    side the symbol tracked land on it."""
    tracked = {R_ATOMS: kind.has_r, L_ATOMS: kind.has_l}

    def lands(side) -> bool:
        return tracked.get(frozenset(a for a in ATOM_KINDS if atoms.get(a, a) in side), False)

    return TrackingKind(lands(R_ATOMS), lands(L_ATOMS))


def _map_spec(spec: Specification, atoms: Mapping[str, str], flip: bool,
              inline: bool = False) -> Specification:
    """One :func:`_rebuilt` of the plan the input carries: atoms renamed,
    products reversed if flip and, with ``inline``, SZ references replaced
    by Seq(Z) and the SZ equation dropped; a node the map leaves alone is
    kept.  A kept SZ equation stays canonical: runs of plain atoms are fixed
    by every symmetry.  Each symbol's tracking is :func:`_tracking_through`
    the atom map (SZ and Seq(Z) carry no marker, so inlining changes no
    count): the result is what :func:`make_spec` would return, with its
    plan read from the table of the map.
    """
    steps, roots = spec._plan
    table = {node: node for node, kids in steps if not kids}
    seq_z = make_seq(table.setdefault(Z_EXPR, Z_EXPR), table) if inline else None
    values = _rebuilt(steps, table, _renamer(atoms, seq_z), flip)
    rhs = [values[at] for at in roots]
    if SZ_NAME in spec._by_name and not inline:
        sz_rhs = _sz_rhs(table)
        rhs = [sz_rhs if eq.lhs == SZ_NAME else new for eq, new in zip(spec.equations, rhs)]
    eqs = [Equation(eq.lhs, new) for eq, new in zip(spec.equations, rhs)
           if not (inline and eq.lhs == SZ_NAME)]
    tracking = {eq.lhs: _tracking_through(atoms, spec.tracking[eq.lhs]) for eq in eqs}
    return _planned_spec(eqs, spec.root, tracking, *_table_plan(table, [eq.rhs for eq in eqs]))


def _merge_equivalent(spec: Specification) -> Specification:
    """The specification with each set of equivalent symbols merged into one.

    Two symbols are equivalent when they have the same tracking and their
    right-hand sides have the same shape, term and factor order kept, with
    every reference read as the set of symbols it names: the coarsest such
    partition, refined from the tracking classes (SZ alone) until no set
    splits or every set is alone (Hopcroft 1971; Paige and Tarjan 1987).
    An alias ``X = Y`` joins ``Y``'s set first.  Each set keeps its first
    symbol in equation order, so the root keeps its name, and that symbol's
    tracking: equivalent symbols count alike, so the result is what
    :func:`make_spec` would return for its equations.  One :func:`_rebuilt`
    of the carried plan renames the references, keeping every node with no
    renamed reference under it, and the result's plan is read from the
    table of that rebuild.
    """
    by_name = spec._by_name

    def alias_of(name: str):
        rhs = by_name[name]
        return rhs.name if isinstance(rhs, ClassRef) and rhs.name != SZ_NAME else None

    # canon: each symbol's alias chain followed to its end; the symbols of a
    # cycle of aliases keep their equations
    canon = {}
    for name in spec.symbols:
        chain, on_chain = [], set()
        while name not in canon and name not in on_chain and alias_of(name) is not None:
            chain.append(name)
            on_chain.add(name)
            name = alias_of(name)
        if name in on_chain:
            canon.update((m, m) for m in chain[chain.index(name):])
        end = canon.setdefault(name, name)
        for m in chain:
            canon.setdefault(m, end)

    steps, roots = spec._plan
    at = dict(zip(spec.symbols, roots))
    members = [name for name in spec.symbols if canon[name] == name]
    ids = {}  # the number of each set, by what sets it apart
    block = {name: ids.setdefault(name if name == SZ_NAME else spec.tracking[name], len(ids))
             for name in members}

    while True:
        # the hash-consed shape of every step: one number per distinct shape
        shapes, of_step, count, ids = {}, [], len(ids), {}
        for node, kids in steps:
            if kids:  # a compound node
                key = (type(node), *[of_step[k] for k in kids])
            elif type(node) is ClassRef:
                key = (block[canon[node.name]],)
            else:
                key = node
            of_step.append(shapes.setdefault(key, len(shapes)))
        block = {name: ids.setdefault((block[name], of_step[at[name]]), len(ids)) for name in members}
        if len(ids) in (count, len(members)):  # no set split, or every set is alone
            break
    if len(ids) == len(by_name):
        return spec

    first = {}
    rename = {name: first.setdefault(block[canon[name]], name) for name in spec.symbols}
    leaf = _renamer({}, names={old: new for old, new in rename.items() if old != new})
    table = {node: node for node, kids in steps if not kids}
    values = _rebuilt(steps, table, leaf)
    eqs = [Equation(name, values[at[canon[name]]]) for name in first.values()]
    tracking = {eq.lhs: spec.tracking[eq.lhs] for eq in eqs}
    return _planned_spec(eqs, spec.root, tracking, *_table_plan(table, [eq.rhs for eq in eqs]))


def inline_seq(spec: Specification) -> Specification:
    """Replace every SZ reference by Seq(Z) and drop the SZ equation: one
    :func:`_map_spec`, which renames no atom, so the tracking carries over."""
    if SZ_NAME not in spec._by_name or spec.root == SZ_NAME:
        return spec
    return _map_spec(spec, {}, False, inline=True)
