"""Insertion operators and symmetry operators on specifications.

The six insertion operators rewrite a class into the classes obtained by
inserting increasing runs of new entries into its value gaps:

  o   no insertion; the old rightmost marker is erased.
  i   insert one new entry (at once lowest and rightmost) below the
      operand's rightmost entry.
  oo  insert a possibly empty increasing run into every gap.
  io  insert the lowest new entry below the operand's rightmost entry,
      then possibly empty runs above it.
  oi  insert possibly empty runs, finishing with a new rightmost entry
      in a non-top gap.
  ii  insert the lowest new entry below the operand's rightmost entry and
      a new rightmost entry, with runs in between.

Operators {o, oo, oi} act on products independently of where the rightmost
marker sits; {i, io, ii} must not insert below-the-marker content into
factors above it, so their product rule loses a term when the head factor
carries the marker.

The symmetry operators rewrite a specification for the complement (reverse
every product) and the reverse (swap the ZL and ZR atoms) of its class.
Symbol names are kept unchanged by the symmetry operators, so applying one
twice returns a structurally identical specification.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence, Tuple

from .expr import (
    AtomRef,
    ClassRef,
    EMPTY,
    E_EXPR,
    Expr,
    L_ATOMS,
    Product,
    R_ATOMS,
    Seq,
    SpecError,
    Sum,
    Z,
    ZERO,
    ZL,
    ZLR,
    ZR,
    ZeroExpr,
    evaluate,
    fold,
    make_product,
    make_seq,
    make_sum,
    rewrite,
)
from .spec import (
    Equation,
    Specification,
    SZ_NAME,
    TrackingKind,
    UNTRACKED,
    _close,
    _map_spec,
    _renamer,
)

# The six insertion-operator tags.  Decorated symbols are rendered
# base "." tag, e.g. C.io.
INSERTION_TAGS = ("o", "i", "oo", "io", "oi", "ii")

# Product rule of the operators other than o and oo, which act factor by
# factor: the "head rest" operators of each term.  For i, io and ii the last
# term is dropped when the head carries the rightmost marker.
_PRODUCT_RULE = {
    "i": ("i o", "o i"),
    "io": ("io oo", "o io"),
    "oi": ("oi o", "oo oi"),
    "ii": ("ii o", "io oi", "o ii"),
}
_ZR_SENSITIVE = ("i", "io", "ii")

# Sequence rule: the terms of the image of Seq(A), over images of A.
_SEQ_RULE = {
    op: [[(f.startswith("Seq("), f.removeprefix("Seq(").removesuffix(")")) for f in t.split()]
         for t in terms]
    for op, terms in {
        "o": ("Seq(o)",),
        "oo": ("Seq(oo)",),
        "i": ("Seq(o) i Seq(o)",),
        "io": ("Seq(o) io Seq(oo)",),
        "oi": ("Seq(oo) oi Seq(o)",),
        "ii": ("Seq(o) io Seq(oo) oi Seq(o)", "Seq(o) ii Seq(o)"),
    }.items()
}


def _sz() -> ClassRef:
    return ClassRef(SZ_NAME)


def apply_atom(op: str, kind: str) -> Expr:
    """Action of an insertion operator on a single atom.

    The operand atom survives as the final factor (as Z, or ZL when it was
    leftmost); runs of new entries appear as SZ and a new rightmost marker
    as ZR.  E is fixed by {o, oo} and annihilated by the other four.
    """
    if op not in INSERTION_TAGS:
        raise SpecError(f"unknown insertion operator {op!r}")
    if kind == EMPTY:
        return E_EXPR if op in ("o", "oo") else ZERO
    tail = AtomRef(ZL) if kind in L_ATOMS else AtomRef(Z)
    if op == "o":
        return tail
    if op == "i":
        return Product((AtomRef(ZR), tail))
    if op == "oo":
        return Product((_sz(), tail))
    if op == "io":
        return Product((AtomRef(Z), _sz(), tail))
    if op == "oi":
        return Product((_sz(), AtomRef(ZR), tail))
    return Product((AtomRef(Z), _sz(), AtomRef(ZR), tail))  # ii


class _Insertion:
    """Images of expressions under the insertion operators.

    A job ``(op, node, k)`` is the image under ``op`` of the node or, for a
    product, of its factors from the k-th on: a product is scanned right to
    left through the suffix images its rule uses.  Jobs are folded with one
    memo per instance, so each image is built once, canonical and
    hash-consed into ``table``.  The class references met are recorded in
    ``needed`` as (symbol, operator) pairs.

    ``atoms`` and ``flip`` map every image as :func:`rewrite` would: atoms
    renamed, products reversed.  That builds the image of a symmetric input
    directly in the orientation of the original one.

    Whether a product head carries the rightmost marker is read from one
    evaluation of the specification's plan, made here.
    """

    def __init__(self, spec: Specification, table: dict,
                 atoms: Mapping[str, str] = {}, flip: bool = False):
        def tracks_r(node, kids) -> bool:
            if isinstance(node, AtomRef):
                return node.atom in R_ATOMS
            if isinstance(node, ClassRef):
                return spec.tracking.get(node.name, UNTRACKED).has_r
            return isinstance(node, (Product, Sum)) and any(kids)  # Zero, Seq: False

        steps = spec._plan[0]
        flags = evaluate(steps, tracks_r)
        self.tracks_r = {id(node): flag for (node, _), flag in zip(steps, flags)}
        self.table, self.leaf, self.flip = table, _renamer(atoms), flip
        self.images, self.needed = {}, set()
        self.planned = {}  # job -> its terms, from planning until built

    def apply(self, op: str, expr: Expr, needed: set) -> Expr:
        self.needed = needed
        return fold([(op, expr, 0)], self._build, self.images, self._jobs, None)[0]

    def _terms(self, job) -> list:
        """Terms of a job's image: lists of (inside Seq, job) factors."""
        op, node, k = job
        if isinstance(node, Sum):
            return [[(False, (op, t, 0))] for t in node.terms]
        if isinstance(node, Seq):
            return [[(seq, (o, node.arg, 0)) for seq, o in t] for t in _SEQ_RULE[op]]
        if isinstance(node, Product):
            if op in ("o", "oo"):
                return [[(False, (op, f, 0)) for f in node.factors[k:]]]
            head = node.factors[k]
            rule = _PRODUCT_RULE[op]
            if op in _ZR_SENSITIVE and self.tracks_r[id(head)]:
                rule = rule[:-1]
            last = k + 2 == len(node.factors)
            return [
                [(False, (h, head, 0)), (False, (r, node.factors[-1], 0) if last else (r, node, k + 1))]
                for h, r in map(str.split, rule)
            ]
        if isinstance(node, (ZeroExpr, AtomRef, ClassRef)):
            return []
        raise SpecError(f"not an expression: {node!r}")

    def _jobs(self, job) -> list:
        terms = self.planned[job] = self._terms(job)
        return [j for term in terms for _, j in term]

    def _build(self, job, kids) -> Expr:
        op, node, _ = job
        terms = self.planned.pop(job)
        table = self.table
        if isinstance(node, AtomRef):
            return rewrite([apply_atom(op, node.atom)], self.leaf, self.flip, table)[0]
        if isinstance(node, ClassRef):
            self.needed.add((node.name, op))
            ref = ClassRef(f"{node.name}.{op}")
            return table.setdefault(ref, ref)
        values = iter(kids)
        factors = ([make_seq(next(values), table) if seq else next(values) for seq, _ in term] for term in terms)
        # Zero has no terms
        return make_sum([make_product(f[::-1] if self.flip else f, table) for f in factors], table)


def _expand_equations(
    spec: Specification,
    needed: Sequence[Tuple[str, str]],
    table: dict,
    atoms: Mapping[str, str] = {},
    flip: bool = False,
) -> list:
    """Equations for the transitive closure of the requested decorated
    symbols, hash-consed into ``table`` and mapped by ``atoms`` and ``flip``
    as in :class:`_Insertion`; some may define the empty class."""
    images = _Insertion(spec, table, atoms, flip)
    queue = deque(needed)
    seen = set(needed)
    out = []
    while queue:
        base, tag = queue.popleft()
        # images memoized by an earlier equation add no pair that is not
        # already seen, so the queue order matches a fresh expansion's
        discovered: set = set()
        rhs = images.apply(tag, spec.rhs(base), discovered)
        out.append(Equation(f"{base}.{tag}", rhs))
        for pair in sorted(discovered):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return out


def expand(spec: Specification, needed: Iterable) -> Specification:
    """Closed specification for the requested decorated symbols.

    ``needed`` is a nonempty collection of (symbol, operator-tag) pairs; the
    first pair names the root of the result.  The output contains one
    equation per decorated symbol reachable from the root, over decorated
    references, SZ and atoms only.  Empty-class equations are eliminated.
    """
    pairs = [(str(base), str(tag)) for base, tag in needed]
    for _, tag in pairs:
        if tag not in INSERTION_TAGS:
            raise SpecError(f"unknown insertion operator {tag!r}")
    if not pairs:
        raise SpecError("expand requires at least one decorated symbol")
    table = {}
    eqs = _expand_equations(spec, pairs, table)
    return _close(eqs, f"{pairs[0][0]}.{pairs[0][1]}", table, prune=True)


def complement(spec: Specification) -> Specification:
    """Specification for the complement class: every product reversed.

    Atoms are fixed, Seq maps through, tracking is unchanged, and the
    counting sequence is identical.  Involution.
    """
    return _map_spec(spec, {}, True, lambda kind: kind)


_REVERSE_ATOMS = {ZR: ZL, ZL: ZR}


def reverse(spec: Specification) -> Specification:
    """Specification for the reverse class: ZR and ZL swapped.

    Products and Seq are preserved, tracking swaps rightmost with leftmost,
    and the counting sequence is identical.  Involution.
    """
    return _map_spec(spec, _REVERSE_ATOMS, False, lambda kind: TrackingKind(kind.has_l, kind.has_r))


_FORGET_LEFT = {ZL: Z, ZLR: ZR}


def forget_left(spec: Specification) -> Specification:
    """Erase leftmost markers (ZL -> Z, ZLR -> ZR); same class and series."""
    return _map_spec(spec, _FORGET_LEFT, False, lambda kind: TrackingKind(kind.has_r, False))
