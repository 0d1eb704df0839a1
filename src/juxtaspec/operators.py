"""Insertion operators and symmetry operators on specifications.

The six insertion operators rewrite a class into the classes obtained by
inserting increasing runs of new entries into its value gaps below its
highest entry.  None of them inserts above the highest entry (a
juxtaposition puts that run in its master equation, as an SZ factor), so
the empty permutation, which has no such gap, takes no new entry:

  o   no insertion; the old rightmost marker is erased.
  i   insert one new entry (at once lowest and rightmost) below the
      operand's rightmost entry.
  oo  insert a possibly empty increasing run into every gap below the
      highest entry.
  io  insert the lowest new entry below the operand's rightmost entry,
      then possibly empty runs above it, below the highest entry.
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
    evaluate,
    make_product,
    make_seq,
    make_sum,
)
from .spec import (
    Equation,
    Specification,
    SZ_NAME,
    _close,
    _map_spec,
    _renamer,
)

# The six insertion-operator tags.  Decorated symbols are rendered
# base "." tag, e.g. C.io.
INSERTION_TAGS = ("o", "i", "oo", "io", "oi", "ii")

# Product rule of the operators other than o and oo, which act factor by
# factor: the "head rest" operators of each term, split once here.  For i,
# io and ii the last term is dropped when the head carries the rightmost
# marker.
_PRODUCT_RULE = {
    op: tuple(tuple(row.split()) for row in rows)
    for op, rows in {
        "i": ("i o", "o i"),
        "io": ("io oo", "o io"),
        "oi": ("oi o", "oo oi"),
        "ii": ("ii o", "io oi", "o ii"),
    }.items()
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
    left through the suffix images its rule uses.  Jobs run in one
    iterative depth-first walk, each after the jobs its terms use, and
    their images are kept by ``(op, id(node), k)`` for the life of the
    instance, so each image is built once, canonical and hash-consed into
    ``table``.  The class references met are recorded in the ``needed`` set
    of the :meth:`apply` call that builds them, as (symbol, operator) pairs.

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
                return spec.tracking[node.name].has_r
            return isinstance(node, (Product, Sum)) and any(kids)  # Seq: False

        steps = spec._plan[0]
        flags = evaluate(steps, tracks_r)
        self.tracks_r = {id(node): flag for (node, _), flag in zip(steps, flags)}
        self.table, self.leaf, self.flip = table, _renamer(atoms), flip
        self.images = {}

    def apply(self, op: str, expr: Expr, needed: set) -> Expr:
        images = self.images
        top = (op, id(expr), 0)
        stack = [(top, expr, None)]
        while stack:
            key, node, terms = stack.pop()
            if terms is not None:
                images[key] = self._build(key[0], node, terms, needed)
            elif key not in images:  # a job pushed twice is built once
                terms = self._terms(key[0], node, key[2])
                stack.append((key, node, terms))  # built after the jobs its terms use
                for term in terms:
                    for _, job, n in term:
                        if job not in images:
                            stack.append((job, n, None))
        return images[top]

    def _terms(self, op: str, node, k: int) -> list:
        """Terms of a job's image: lists of (inside Seq, job key, job node)
        factors."""
        kind = type(node)
        if kind is Sum:
            return [[(False, (op, id(t), 0), t)] for t in node.terms]
        if kind is Seq:
            arg = node.arg
            return [[(seq, (o, id(arg), 0), arg) for seq, o in t] for t in _SEQ_RULE[op]]
        if kind is Product:
            factors = node.factors
            if op in ("o", "oo"):
                return [[(False, (op, id(f), 0), f) for f in factors[k:]]]
            head = factors[k]
            rule = _PRODUCT_RULE[op]
            if op in _ZR_SENSITIVE and self.tracks_r[id(head)]:
                rule = rule[:-1]
            rest, j = (factors[-1], 0) if k + 2 == len(factors) else (node, k + 1)
            return [[(False, (h, id(head), 0), head), (False, (r, id(rest), j), rest)]
                    for h, r in rule]
        return []  # an atom or a class reference

    def _build(self, op: str, node, terms: list, needed: set) -> Expr:
        """The image of a job whose terms' jobs are built."""
        table = self.table
        kind = type(node)
        if kind is AtomRef:
            image = apply_atom(op, node.atom)  # a product of leaves, or a leaf
            factors = image.factors if type(image) is Product else (image,)
            factors = [table.setdefault(f, f) for f in map(self.leaf, factors)]
            return make_product(factors[::-1] if self.flip else factors, table)
        if kind is ClassRef:
            needed.add((node.name, op))
            ref = ClassRef(f"{node.name}.{op}")
            return table.setdefault(ref, ref)
        images = self.images
        if kind is Sum:
            return make_sum([images[term[0][1]] for term in terms], table)
        products = []
        for term in terms:
            factors = [make_seq(images[key], table) if seq else images[key] for seq, key, _ in term]
            if self.flip:
                factors.reverse()
            products.append(make_product(factors, table))
        return make_sum(products, table)


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

    Atoms are fixed, so tracking is unchanged; Seq maps through, and the
    counting sequence is identical.  Involution.
    """
    return _map_spec(spec, {}, True)


_REVERSE_ATOMS = {ZR: ZL, ZL: ZR}


def reverse(spec: Specification) -> Specification:
    """Specification for the reverse class: ZR and ZL swapped.

    Products and Seq are preserved.  The atom map sends each side's markers
    to the other side, so the tracking derived from it swaps rightmost with
    leftmost.  The counting sequence is identical.  Involution.
    """
    return _map_spec(spec, _REVERSE_ATOMS, False)


_FORGET_LEFT = {ZL: Z, ZLR: ZR}


def forget_left(spec: Specification) -> Specification:
    """Erase leftmost markers (ZL -> Z, ZLR -> ZR); same class and series.
    No marker lands on the leftmost side, so no symbol tracks it."""
    return _map_spec(spec, _FORGET_LEFT, False)
