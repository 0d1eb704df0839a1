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
    Table,
    evaluate,
    make_product,
    make_seq,
    make_sum,
)
from .spec import (
    Specification,
    _SZ_REF,
    _atom_map,
    _close,
    _map_spec,
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
        return Product((_SZ_REF, tail))
    if op == "io":
        return Product((AtomRef(Z), _SZ_REF, tail))
    if op == "oi":
        return Product((_SZ_REF, AtomRef(ZR), tail))
    return Product((AtomRef(Z), _SZ_REF, AtomRef(ZR), tail))  # ii


class _Insertion:
    """Images of expressions under the insertion operators.

    A job ``(op, position, k)`` is the image under ``op`` of the step at
    ``position`` of the specification's plan or, for a product, of its
    factors from the k-th on: a product is scanned right to left through the
    suffix images its rule uses.  Jobs run in one iterative depth-first
    walk, each after the jobs its terms use, and their images, positions in
    the instance's ``table``, are kept by job for the life of the instance,
    so each image is built once, canonical and hash-consed into it.  The class
    references met are recorded in the ``needed`` set of the :meth:`apply`
    call that builds them, as (symbol, operator) pairs.

    ``atoms`` and ``flip`` build the image of a symmetric input directly in
    the orientation of the original one: :meth:`product` maps each factor
    list of leaves, and products of images are reversed if ``flip``.

    Whether a product head carries the rightmost marker is read from one
    evaluation of the specification's plan, made here.
    """

    def __init__(self, spec: Specification, atoms: Mapping[str, str] = {}, flip: bool = False):
        def tracks_r(node, kids) -> bool:
            if isinstance(node, AtomRef):
                return node.atom in R_ATOMS
            if isinstance(node, ClassRef):
                return spec.tracking[node.name].has_r
            return isinstance(node, (Product, Sum)) and any(kids)  # Seq: False

        self.steps, self.at = spec._plan
        self.tracks_r = evaluate(self.steps, tracks_r)
        self.table, self.leaf, self.flip = Table(), _atom_map(atoms), flip
        self.images = {}

    def product(self, leaves) -> int:
        """The product of ``leaves``, atoms renamed and reversed if ``flip``,
        built into the table: an atom's image or a master-equation term."""
        table, leaf = self.table, self.leaf
        factors = [table.leaf(f) for f in map(leaf.get, leaves, leaves)]
        return make_product(factors[::-1] if self.flip else factors, table)

    def apply(self, op: str, symbol: str, needed: set) -> int:
        """The image under ``op`` of the right-hand side of ``symbol``."""
        if symbol not in self.at:
            raise SpecError(f"undefined symbol {symbol!r}")
        images = self.images
        top = (op, self.at[symbol], 0)
        stack = [(top, None)]
        while stack:
            job, terms = stack.pop()
            if terms is not None:
                images[job] = self._build(job, terms, needed)
            elif job not in images:  # a job pushed twice is built once
                terms = self._terms(*job)
                stack.append((job, terms))  # built after the jobs its terms use
                for term in terms:
                    for _, used in term:
                        if used not in images:
                            stack.append((used, None))
        return images[top]

    def _terms(self, op: str, at: int, k: int) -> list:
        """Terms of a job's image: lists of (inside Seq, job) factors."""
        node, kids = self.steps[at]
        kind = type(node)
        if kind is Sum:
            return [[(False, (op, t, 0))] for t in kids]
        if kind is Seq:
            arg = kids[0]
            return [[(seq, (o, arg, 0)) for seq, o in t] for t in _SEQ_RULE[op]]
        if kind is Product:
            if op in ("o", "oo"):
                return [[(False, (op, f, 0)) for f in kids[k:]]]
            head = kids[k]
            rule = _PRODUCT_RULE[op]
            if op in _ZR_SENSITIVE and self.tracks_r[head]:
                rule = rule[:-1]
            rest, j = (kids[-1], 0) if k + 2 == len(kids) else (at, k + 1)
            return [[(False, (h, head, 0)), (False, (r, rest, j))] for h, r in rule]
        return []  # an atom or a class reference

    def _build(self, job: tuple, terms: list, needed: set) -> int:
        """The image of a job whose terms' jobs are built."""
        table, op = self.table, job[0]
        node = self.steps[job[1]][0]
        kind = type(node)
        if kind is AtomRef:
            image = apply_atom(op, node.atom)  # a product of leaves, or a leaf
            return self.product(image.factors if type(image) is Product else (image,))
        if kind is ClassRef:
            needed.add((node.name, op))
            return table.leaf(ClassRef(f"{node.name}.{op}"))
        images = self.images
        if kind is Sum:
            return make_sum([images[term[0][1]] for term in terms], table)
        products = []
        for term in terms:
            factors = [make_seq(images[used], table) if seq else images[used] for seq, used in term]
            if self.flip:
                factors.reverse()
            products.append(make_product(factors, table))
        return make_sum(products, table)


def _expand_equations(images: _Insertion, needed: Sequence[Tuple[str, str]]) -> list:
    """Equations for the transitive closure of the requested decorated
    symbols of the specification of ``images``, built by ``images`` into its
    table, as pairs of a symbol and the position of its right-hand side;
    some may define the empty class."""
    queue = deque(needed)
    seen = set(needed)
    out = []
    while queue:
        base, tag = queue.popleft()
        # images memoized by an earlier equation add no pair that is not
        # already seen, so the queue order matches a fresh expansion's
        discovered: set = set()
        out.append((f"{base}.{tag}", images.apply(tag, base, discovered)))
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
    images = _Insertion(spec)
    eqs = _expand_equations(images, pairs)
    return _close(eqs, f"{pairs[0][0]}.{pairs[0][1]}", images.table, prune=True)


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
