"""Exact counting sequences, computed online one coefficient at a time.

Every atom contributes z (E contributes 1), a product the product of its
factors' series, and Seq(A) contributes 1/(1-A).  The analyses evaluate the
plan that the specification carries from its closing pass: the valuations
first, then the Seq check and the schedule from their step values.
The schedule is a flat list of cells; coefficient n of every cell is
computed, exactly once, from coefficients already settled, before any
coefficient n + 1.  The monotone runs that juxtaposition inserts, SZ and
Seq(Z), have the series 1/(1 - x), and x^v/(1 - x) times atoms of total
size v: a product with one is a running sum and a product with an atom a
shift, O(1) big-integer additions per coefficient.  Other products convolve only between the
factors' valuations, O(order²) big-integer products per cell, as does a
Seq of anything but an atom.  Coefficients are Python integers, so
arbitrarily large counts are exact.
"""

from __future__ import annotations

from operator import mul
from typing import List, NamedTuple, Optional, Sequence

from .expr import (
    AtomRef,
    ClassRef,
    EMPTY,
    Product,
    Seq,
    SpecError,
    Sum,
    least_fixpoint,
    postorder,
)
from .spec import SZ_NAME, Specification

Series = List[int]

# Largest order that count_series accepts: its cost grows with the square of
# the order (order 1,000 of an av321 juxtaposition takes tens of seconds),
# and it allocates order + 1 coefficients per atom cell before counting, so
# a mistyped order would otherwise run until killed.
MAX_TERMS = 2000


class EnumerationError(SpecError):
    """The system cannot be enumerated (unproductive or ill-formed)."""


def _valuation_pass(steps: list, operands: list, values: list) -> None:
    """One pass of the valuations, for :func:`~juxtaspec.expr.least_fixpoint`:
    the minimal object size of every step, None while it has none.  An atom
    has size 1 (E: 0) and Seq 0; a sum takes its terms' least, a product
    adds its factors' and has none while one factor has none."""
    for i, (node, kids) in enumerate(steps):
        kind = type(node)
        if kind is Product:
            v = 0
            for k in kids:
                x = values[k]
                if x is None:
                    v = None
                    break
                v += x
        elif kind is Sum:
            v = None
            for k in kids:
                x = values[k]
                if x is not None and (v is None or x < v):
                    v = x
        elif kind is ClassRef:
            v = values[operands[i][0]]
        elif kind is AtomRef:
            v = 0 if node.atom == EMPTY else 1
        else:
            v = 0  # Seq
        values[i] = v


def _valuations(spec: Specification) -> tuple:
    """``(unproductive symbols, the minimal object size of every plan step or
    None where it has no objects)``: the least fixpoint of
    :func:`_valuation_pass`, one flat loop over the carried plan per pass."""
    steps, at = spec._plan
    vals, values = least_fixpoint(steps, at, _valuation_pass, None)
    return tuple(name for name, v in vals.items() if v is None), values


def _seq_argument_problems(spec: Specification, values: list) -> list:
    """One problem per Seq occurrence whose argument contains the empty
    object; ``values`` are the valuations of the plan's steps."""
    steps, at = spec._plan
    if not any(isinstance(node, Seq) and values[kids[0]] == 0 for node, kids in steps):
        return []
    bad = []  # per step: bad Seq occurrences in its expression tree
    for node, kids in steps:
        count = sum([bad[k] for k in kids])
        if isinstance(node, Seq) and values[kids[0]] == 0:
            count += 1
        bad.append(count)
    problems = []
    for lhs, i in at.items():
        problems += [f"{lhs}: Seq argument has nonzero constant term"] * bad[i]
    return problems


class ProductivityReport(NamedTuple):
    ok: bool
    unproductive: tuple
    problems: tuple

    def __str__(self):
        if self.ok:
            return "ok"
        notes = [f"unproductive symbol {name!r}" for name in self.unproductive]
        notes.extend(self.problems)
        return "; ".join(notes)


def productivity_check(spec: Specification) -> ProductivityReport:
    """Diagnose symbols whose minimal size never resolves, bad Seq uses and
    symbols that depend on themselves at equal size (a tautological system)."""
    unproductive, values = _valuations(spec)
    problems = _seq_argument_problems(spec, values)
    if not unproductive:
        try:
            _schedule(spec, values, 0)
        except EnumerationError as exc:
            problems.append(str(exc))
    return ProductivityReport(not unproductive and not problems, unproductive, tuple(problems))


def _productive_valuations(spec: Specification) -> list:
    """The step valuations of a system whose every symbol is productive, as
    :func:`_valuations` returns them; an EnumerationError naming the
    unproductive symbols otherwise."""
    unproductive, values = _valuations(spec)
    if unproductive:
        raise EnumerationError(
            "non-productive system: no objects derivable for "
            + ", ".join(repr(n) for n in unproductive)
        )
    return values


_SUM, _PRODUCT, _SHIFT, _RUN, _SEQ = "sum", "product", "shift", "run", "seq"
_BINARY = (_PRODUCT, _SHIFT, _RUN)


def _schedule(spec: Specification, values: list, order: int) -> tuple:
    """The system as a flat list of cells in zero-lag topological order.

    A cell is a symbol, a distinct node, or a binary partial product: a
    product of k factors is the left fold of k - 1 of them, and equal
    prefixes share their cells.  Coefficient n of a cell reads coefficient n
    of another only along a zero-lag edge: a symbol reads its right-hand
    side, a Sum its terms, a Seq its argument, and L·R reads L when
    val(R) = 0 and R when val(L) = 0.  So running the cells in this order
    settles index n of every one before index n + 1.  Partial products need
    cells of their own: in C = E + C C Z the full product reads C only below
    n, but C·C reads C[n].  A zero-lag cycle is a coefficient that depends on
    itself, i.e. a tautological system.

    Cells take their valuations from ``values``, those of the plan's steps.
    Returns the root's series and the steps ``(op, out, a, b, va, vb)`` that
    append one coefficient to ``out`` per index; atoms and Seq(Z) are filled
    in full.  A product with an atom of size v is a shift: coefficient n is
    the other operand's n - v.  The geometric cells, whose series is
    x^v/(1 - x), are SZ, Seq of an atom of size 1 and their products with
    atoms; a product with one is a running sum: coefficient n is
    coefficient n - 1 plus the other operand's n - v.  Only the remaining
    products convolve.
    """
    steps, at = spec._plan
    symbols = list(at)  # the first cells are the symbols'
    index = {name: i for i, name in enumerate(symbols)}
    # per cell: [operation, operand cells, valuation, zero-lag operands, series]
    cells = [[None, None, values[r], None, None] for r in at.values()]
    geometric = {index[SZ_NAME]} if SZ_NAME in index else set()
    cell_of, pairs = [], {}  # the cell of each plan step; binary products by operands
    for (node, kids), v in zip(steps, values):
        kind = type(node)
        if kind is ClassRef:
            cell_of.append(index[node.name])
        elif kind is Product:
            left = cell_of[kids[0]]
            for i in range(1, len(kids)):
                right = cell_of[kids[i]]
                cell = pairs.get((left, right))
                if cell is None:
                    (l_op, _, vl, _, _), (r_op, _, vr, _, _) = cells[left], cells[right]
                    zero_lag = [c for c, w in ((left, vr), (right, vl)) if w == 0]
                    # an atom operand second, else a geometric one
                    a, b = left, right
                    if type(l_op) is AtomRef or (left in geometric and type(r_op) is not AtomRef):
                        a, b = right, left
                    op = (_SHIFT if type(cells[b][0]) is AtomRef
                          else _RUN if b in geometric else _PRODUCT)
                    cell = pairs[left, right] = len(cells)
                    cells.append([op, (a, b), vl + vr, zero_lag, []])
                    if op is _SHIFT and a in geometric:
                        geometric.add(cell)  # a shifted run
                left = cell
            cell_of.append(left)
        elif kind is AtomRef:
            out = [0] * (order + 1)  # an atom's series is 1 at its size
            if v <= order:
                out[v] = 1
            cell_of.append(len(cells))
            cells.append([node, (), v, (), out])
        else:  # Sum, Seq
            operands = [cell_of[k] for k in kids]
            cell_of.append(len(cells))
            if kind is Sum:
                cells.append([_SUM, operands, v, operands, []])
            elif type(steps[kids[0]][0]) is AtomRef and values[kids[0]] == 1:
                geometric.add(len(cells))  # Seq(Z): 1/(1 - x), filled like an atom
                cells.append([node, operands, v, operands, [1] * (order + 1)])
            else:
                cells.append([_SEQ, operands, v, operands, []])
    for i, r in enumerate(at.values()):
        cells[i][3] = [cell_of[r]]
    ordered, cycle = postorder([cell[3] for cell in cells], range(len(cells)))
    if cycle:
        name = next(symbols[c] for c in cycle if c < len(symbols))
        raise EnumerationError(f"non-productive system: {name!r} depends on itself at equal size")
    for c in ordered:
        if c < len(symbols):
            cells[c][4] = cells[cells[c][3][0]][4]  # a symbol aliases its right-hand side
    schedule = []
    for c in ordered:
        op, operands, _, _, out = cells[c]
        if op is _SUM:
            schedule.append((op, out, [cells[k][4] for k in operands], None, 0, 0))
        elif op in _BINARY:
            a, b = cells[operands[0]], cells[operands[1]]
            schedule.append((op, out, a[4], b[4], a[2], b[2]))
        elif op is _SEQ:
            a = cells[operands[0]]
            schedule.append((op, out, a[4], out, a[2], 0))
    return cells[index[spec.root]][4], schedule


def count_series(spec: Specification, order: int) -> Series:
    """Exact coefficients 0..order of the root's counting sequence.

    Raises :class:`EnumerationError` for an unproductive or tautological
    system and for a Seq whose argument contains the empty object, and
    :class:`~juxtaspec.expr.SpecError` for an order above ``MAX_TERMS``.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_TERMS:
        raise SpecError(f"order {order} is above the series budget of {MAX_TERMS} terms")
    values = _productive_valuations(spec)
    problems = _seq_argument_problems(spec, values)
    if problems:
        raise EnumerationError("; ".join(problems))

    root, schedule = _schedule(spec, values, order)
    for n in range(order + 1):
        for op, out, a, b, va, vb in schedule:
            if op is _PRODUCT:
                # sum of a[i] b[n - i] over va <= i <= n - vb; none below va + vb
                out.append(
                    sum(map(mul, a[va : n - vb + 1], reversed(b[vb : n - va + 1])))
                    if n >= va + vb
                    else 0
                )
            elif op is _SHIFT:
                out.append(a[n - vb] if n >= vb else 0)
            elif op is _RUN:  # times x^vb/(1 - x): the running sum of a, shifted
                out.append(out[-1] + a[n - vb] if n > vb else a[0] if n == vb else 0)
            elif op is _SUM:
                out.append(sum([t[n] for t in a]))
            else:  # Seq: s[n] = sum of a[j] s[n - j] over j >= va >= 1
                out.append(sum(map(mul, a[va : n + 1], reversed(b[: n - va + 1]))) if n else 1)
    return root[: order + 1]


class SeriesComparison(NamedTuple):
    equal: bool
    overlap: int
    index: Optional[int] = None
    left: Optional[int] = None
    right: Optional[int] = None

    def __str__(self):
        if not self.equal:
            return f"mismatch at index {self.index}: {self.left} != {self.right}"
        if self.overlap == 0:
            return "equal (zero-length overlap)"
        return f"equal on first {self.overlap} coefficients"


def compare_series(a: Sequence[int], b: Sequence[int]) -> SeriesComparison:
    """Compare two sequences on their overlap; report the first mismatch."""
    overlap = min(len(a), len(b))
    for i in range(overlap):
        if a[i] != b[i]:
            return SeriesComparison(False, overlap, i, a[i], b[i])
    return SeriesComparison(True, overlap)


def format_series(coeffs: Sequence[int]) -> str:
    return ",".join(str(c) for c in coeffs)
