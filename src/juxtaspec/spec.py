"""Specifications: named equation systems with marker-tracking metadata.

A specification is a list of equations ``name = expr`` with a distinguished
root symbol.  Tracking metadata records, per symbol, whether every nonempty
object of that class carries exactly one rightmost marker (ZR or ZLR) and/or
exactly one leftmost marker (ZL or ZLR).  Tracking is always inferred from
the equations, never declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .expr import (
    ATOM_KINDS,
    AtomRef,
    ClassRef,
    CycleError,
    E_EXPR,
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
    children,
    evaluate,
    make_seq,
    plan,
    rewrite,
    terms,
)

SZ_NAME = "SZ"

RESERVED_NAMES = frozenset(ATOM_KINDS) | {"Seq"}

# The NAME rule of the DSL grammar: letter (letter | digit | "." | "_")*
NAME = re.compile(r"[A-Za-z][A-Za-z0-9._]*")


class TrackingError(SpecError):
    """Marker usage is inconsistent across the terms of some equation."""


@dataclass(frozen=True)
class TrackingKind:
    has_r: bool
    has_l: bool


UNTRACKED = TrackingKind(False, False)


@dataclass(frozen=True)
class Equation:
    lhs: str
    rhs: Expr


def sz_equation() -> Equation:
    """The reserved sequence-of-atoms symbol: SZ = E + SZ Z."""
    return Equation(SZ_NAME, Sum((E_EXPR, Product((ClassRef(SZ_NAME), Z_EXPR)))))


@dataclass(frozen=True)
class Specification:
    """Immutable equation system.

    Build through :func:`make_spec`, the readers of :mod:`juxtaspec.dsl` or
    the operations of the library, which all return canonical, hash-consed
    equations (root first) with the tracking that :func:`make_spec` infers
    for them.  The readers and each expansion step build their equations
    canonical in one table and close them with the checks of
    :func:`make_spec` without rebuilding; :func:`make_spec` rebuilds only
    equations given from outside.  The symmetries build one directly,
    carrying tracking over.
    """

    equations: tuple
    root: str
    tracking: Mapping[str, TrackingKind] = field(compare=False)
    _by_name: Mapping[str, Expr] = field(compare=False, repr=False)

    @property
    def symbols(self) -> tuple:
        return tuple(eq.lhs for eq in self.equations)

    def rhs(self, name: str) -> Expr:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpecError(f"undefined symbol {name!r}") from None

    def root_tracking(self) -> TrackingKind:
        return self.tracking[self.root]


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


def _close(eqs: list, root: Optional[str], table: dict, prune: bool = False) -> Specification:
    """Validate and classify-track equations that are already canonical and
    hash-consed in ``table``; what :func:`make_spec` does after its rewrite.

    With ``prune`` (the equations of an expansion, ``root`` given), symbols
    of the empty class are substituted by Zero and dropped first, then the
    symbols unreachable from the root.  Without it, an equation whose
    right-hand side is Zero is an error.
    """
    sz_rhs = rewrite([sz_equation().rhs], table=table)[0]
    # One plan of the whole system serves the pruning and every check below
    # (pruning plans again only when it drops something).  The reserved
    # SZ right-hand side is planned last, so the nodes reachable from the
    # given equations are exactly the steps up to the last of their roots.
    steps, position = plan([eq.rhs for eq in eqs] + [sz_rhs])
    if prune:
        eqs, steps, position = _prune(eqs, root, table, steps, position, sz_rhs)
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

    reachable = steps[: max(position[id(eq.rhs)] for eq in eqs) + 1]
    used = {node.name for node, _ in reachable if isinstance(node, ClassRef)}
    defined = {eq.lhs for eq in eqs}
    undefined = used - defined
    if SZ_NAME in undefined:
        eqs.append(Equation(SZ_NAME, sz_rhs))
        defined.add(SZ_NAME)
        undefined.discard(SZ_NAME)
    if undefined:
        missing = ", ".join(sorted(undefined))
        raise SpecError(f"undefined symbol(s): {missing}")
    if SZ_NAME in defined:
        given = next(eq.rhs for eq in eqs if eq.lhs == SZ_NAME)
        if given != sz_rhs:
            raise SpecError(f"{SZ_NAME} is reserved and must equal E + {SZ_NAME} Z")

    if root is None:
        root = eqs[0].lhs
    if root not in defined:
        raise SpecError(f"root symbol {root!r} has no equation")
    eqs.sort(key=lambda eq: 0 if eq.lhs == root else 1)

    r_counts = _marker_fixpoint(eqs, steps, position, R_ATOMS, "rightmost")
    l_counts = _marker_fixpoint(eqs, steps, position, L_ATOMS, "leftmost")
    tracking = {
        eq.lhs: TrackingKind(r_counts[eq.lhs] == 1, l_counts[eq.lhs] == 1) for eq in eqs
    }
    if any(isinstance(node, Seq) for node, _ in steps):  # else no Seq content to check
        marks = evaluate(steps, marked_content(tracking))
        for eq in eqs:
            problem = marks[position[id(eq.rhs)]][1]
            if problem:
                raise SpecError(f"Seq argument in {eq.lhs!r}: {problem}")
    by_name = {eq.lhs: eq.rhs for eq in eqs}
    return Specification(tuple(eqs), root, tracking, by_name)


def _prune(eqs: list, root: str, table: dict, steps: list, position: dict, sz_rhs) -> tuple:
    """Drop the empty-class symbols of an expansion, substituting Zero into
    their references, then the symbols unreachable from ``root``; returns
    the kept equations and their plan.

    The empty symbols are a least fixpoint over the plan: a Sum is empty
    when all of its terms are, a Product when any factor is, a reference
    when its symbol is; Seq and atoms never are.  That is exactly when
    canonical rebuilding turns a node into Zero, so one rewrite removes
    them all.
    """
    if any(isinstance(eq.rhs, ZeroExpr) for eq in eqs):
        empty = set()
        roots = [(eq.lhs, position[id(eq.rhs)]) for eq in eqs]

        def is_empty(node, kids) -> bool:
            if isinstance(node, Sum):
                return all(kids)
            if isinstance(node, Product):
                return any(kids)
            if isinstance(node, ClassRef):
                return node.name in empty
            return isinstance(node, ZeroExpr)

        while True:
            values = evaluate(steps, is_empty)
            grown = {lhs for lhs, at in roots if values[at]} - empty
            if not grown:
                break
            empty |= grown
        if root in empty:
            raise SpecError(f"expansion of {root} is the empty class")

        def leaf(node):
            return ZERO if isinstance(node, ClassRef) and node.name in empty else node

        kept = [eq for eq in eqs if eq.lhs not in empty]
        rhs = rewrite([eq.rhs for eq in kept], leaf, table=table)
        eqs = [Equation(eq.lhs, expr) for eq, expr in zip(kept, rhs)]
        steps, position = plan([eq.rhs for eq in eqs] + [sz_rhs])

    # one walk from the root, each step of the plan visited at most once
    at_symbol = {eq.lhs: position[id(eq.rhs)] for eq in eqs}
    keep, visited, stack = {root}, bytearray(len(steps)), [at_symbol[root]]
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
    if len(keep) < len(eqs):
        eqs = [eq for eq in eqs if eq.lhs in keep]
        steps, position = plan([eq.rhs for eq in eqs] + [sz_rhs])
    return eqs, steps, position


def _marker_fixpoint(eqs, steps: list, position: dict, markers: frozenset, label: str) -> dict:
    """Least fixpoint of per-symbol marker counts, then exactness check.

    A term that is literally E describes the empty object and is exempt from
    the count (the empty permutation carries no markers); every other term of
    a marker-carrying symbol must contain the marker exactly once.  Seq
    content carries no markers.  Counts only grow, so iterating every
    equation at once reaches the same least fixpoint as any other order.
    """
    counts = {eq.lhs: 0 for eq in eqs}
    if not any(isinstance(node, AtomRef) and node.atom in markers for node, _ in steps):
        return counts  # every count and every term is 0
    roots = [(eq.lhs, position[id(eq.rhs)]) for eq in eqs]

    def leaf(node) -> int:
        if isinstance(node, AtomRef):
            return 1 if node.atom in markers else 0
        if isinstance(node, ClassRef):
            return counts.get(node.name, 0)
        return 0  # Zero, Seq

    def upper(node, kids) -> int:
        # an E term counts 0, which never raises the maximum of its equation
        if isinstance(node, Product):
            return min(2, sum(kids))
        if isinstance(node, Sum):
            return max(kids)
        return leaf(node)

    for _ in range(2 * len(eqs) + 2):
        values = evaluate(steps, upper)
        grown = [(lhs, values[at]) for lhs, at in roots if values[at] > counts[lhs]]
        if not grown:
            break
        counts.update(grown)

    def exact(node, kids) -> int:
        # -1: a sum whose terms differ, or a product with one inside
        if isinstance(node, Product):
            return -1 if -1 in kids else sum(kids)
        if isinstance(node, Sum):
            return kids[0] if len(set(kids)) == 1 else -1
        return leaf(node)

    values = evaluate(steps, exact)
    for eq in eqs:
        for t in terms(eq.rhs):
            if t == E_EXPR:
                continue
            value = values[position[id(t)]]
            if value < 0:
                raise TrackingError(f"mixed {label}-marker counts inside a factor")
            if value > 1:
                raise TrackingError(
                    f"term of {eq.lhs!r} carries the {label} marker more than once"
                )
            if value != counts[eq.lhs]:
                raise TrackingError(
                    f"mixed terms in {eq.lhs!r}: some carry the {label} marker, others do not"
                )
    return counts


def marked_content(tracking: Mapping[str, TrackingKind]):
    """Fold function: (first marked leaf, first Seq with marked content).

    Both are error texts, found in preorder, or None.  Marked atoms and
    classes that carry a marker can never appear inside Seq.
    """

    def visit(node, kids):
        if isinstance(node, AtomRef):
            if node.atom in R_ATOMS | L_ATOMS:
                return f"marked atom {node.atom} cannot appear inside Seq", None
            return None, None
        if isinstance(node, ClassRef):
            kind = tracking.get(node.name, UNTRACKED)
            if kind.has_r or kind.has_l:
                return f"class {node.name!r} carries a marker and cannot appear inside Seq", None
            return None, None
        if isinstance(node, Seq):
            return kids[0][0], kids[0][0]
        marked = next((k[0] for k in kids if k[0]), None)
        return marked, next((k[1] for k in kids if k[1]), None)

    return visit


@dataclass(frozen=True)
class Classification:
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
    at once.
    """
    steps, _ = plan([eq.rhs for eq in spec.equations])
    context_free = not any(isinstance(node, Seq) for node, _ in steps)

    def through_refs(node):
        if isinstance(node, ClassRef) and (node.name != SZ_NAME or spec.root == SZ_NAME):
            return (spec.rhs(node.name),)
        return children(node)

    try:
        plan((spec.rhs(spec.root),), through_refs)
        regular = True
    except CycleError:
        regular = False
    return Classification(regular=regular, context_free=context_free)


def inline_seq(spec: Specification) -> Specification:
    """Replace every SZ reference by Seq(Z) and drop the SZ equation."""
    if SZ_NAME not in spec._by_name or spec.root == SZ_NAME:
        return spec
    table = {}
    seq_z = make_seq(table.setdefault(Z_EXPR, Z_EXPR), table)

    def leaf(node):
        return seq_z if isinstance(node, ClassRef) and node.name == SZ_NAME else node

    kept = [eq for eq in spec.equations if eq.lhs != SZ_NAME]
    rhs = rewrite([eq.rhs for eq in kept], leaf, table=table)
    return _close([Equation(eq.lhs, expr) for eq, expr in zip(kept, rhs)], spec.root, table)
