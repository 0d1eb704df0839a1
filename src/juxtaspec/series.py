"""Exact counting sequences, computed online one coefficient at a time.

Every atom contributes z (E contributes 1), a product the product of its
factors' series, and Seq(A) contributes 1/(1-A).  The analyses evaluate the
plan that the specification carries from its closing pass: the valuations
first, then the Seq check and the schedule from their step values.
The schedule is a flat list of cells; coefficient n of every cell is
computed, exactly once, from coefficients already settled, before any
coefficient n + 1.  Products convolve only between the factors'
valuations, so the cost is O(order²) big-integer products per cell.
Coefficients are Python integers, so arbitrarily large counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence

from .expr import (
    AtomRef,
    ClassRef,
    CycleError,
    EMPTY,
    Product,
    Seq,
    SpecError,
    Sum,
    ZeroExpr,
    least_fixpoint,
    plan,
)
from .spec import Specification

Series = List[int]


class EnumerationError(SpecError):
    """The system cannot be enumerated (unproductive or ill-formed)."""


def _valuation_step(node, kids: list, vals: dict) -> Optional[int]:
    """Minimal object size of a node given its children's, None while unresolved."""
    if isinstance(node, AtomRef):
        return 0 if node.atom == EMPTY else 1
    if isinstance(node, ClassRef):
        return vals[node.name]
    if isinstance(node, Seq):
        return 0
    if isinstance(node, Sum):
        return min((v for v in kids if v is not None), default=None)
    if isinstance(node, Product):
        return None if None in kids else sum(kids)
    return None  # Zero


def _valuations(spec: Specification) -> tuple:
    """``(unproductive symbols, the minimal object size of every plan step or
    None where it has no objects)``: the least fixpoint of :func:`_valuation_step`."""
    steps, roots = spec._plan
    vals, values = least_fixpoint(steps, zip(spec.symbols, roots), _valuation_step, None)
    return tuple(name for name in spec.symbols if vals[name] is None), values


def _seq_argument_problems(spec: Specification, values: list) -> list:
    """One problem per Seq occurrence whose argument contains the empty
    object; ``values`` are the valuations of the plan's steps."""
    steps, roots = spec._plan
    if not any(isinstance(node, Seq) and values[kids[0]] == 0 for node, kids in steps):
        return []
    bad = []  # per step: bad Seq occurrences in its expression tree
    for node, kids in steps:
        count = sum([bad[k] for k in kids])
        if isinstance(node, Seq) and values[kids[0]] == 0:
            count += 1
        bad.append(count)
    problems = []
    for eq, at in zip(spec.equations, roots):
        problems += [f"{eq.lhs}: Seq argument has nonzero constant term"] * bad[at]
    return problems


@dataclass(frozen=True)
class ProductivityReport:
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


_SUM, _PRODUCT, _SEQ = "sum", "product", "seq"


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
    append one coefficient to ``out`` per index; atoms are filled in full.
    """
    symbols = spec.symbols
    index = {name: i for i, name in enumerate(symbols)}
    steps, roots = spec._plan
    # per cell: [operation, operand cells, valuation, zero-lag operands, series]
    cells = [[None, None, values[r], None, None] for r in roots]
    at, pairs = [], {}  # the cell of each plan step; binary products by operands

    def cell(op, operands, v, zero_lag):
        # an atom's series is 1 at its size; Zero has no size (v is None)
        constant = isinstance(op, (AtomRef, ZeroExpr))
        out = [int(n == v) for n in range(order + 1)] if constant else []
        cells.append([op, operands, v, zero_lag, out])
        return len(cells) - 1

    for (node, kids), v in zip(steps, values):
        kids = [at[k] for k in kids]
        if isinstance(node, ClassRef):
            at.append(index[node.name])
        elif isinstance(node, Product):
            left = kids[0]
            for right in kids[1:]:
                vl, vr = cells[left][2], cells[right][2]
                if (left, right) not in pairs:
                    zero_lag = [c for c, v in ((left, vr), (right, vl)) if v == 0]
                    pairs[left, right] = cell(_PRODUCT, (left, right), vl + vr, zero_lag)
                left = pairs[left, right]
            at.append(left)
        else:
            op = _SUM if isinstance(node, Sum) else _SEQ if isinstance(node, Seq) else node
            at.append(cell(op, kids, v, kids))
    for i, r in enumerate(roots):
        cells[i][3] = [at[r]]
    try:
        ordered = [c for c, _ in plan(range(len(cells)), lambda c: cells[c][3], key=None)[0]]
    except CycleError as exc:
        name = next(symbols[c] for c in exc.cycle if c < len(symbols))
        raise EnumerationError(
            f"non-productive system: {name!r} depends on itself at equal size"
        ) from None

    for c in ordered:
        if c < len(symbols):
            cells[c][4] = cells[cells[c][3][0]][4]  # a symbol aliases its right-hand side
    schedule = []
    for c in ordered:
        op, operands, _, _, out = cells[c]
        if op is _SUM:
            schedule.append((op, out, [cells[k][4] for k in operands], None, 0, 0))
        elif op is _PRODUCT or op is _SEQ:
            a, b = cells[operands[0]], cells[operands[1] if op is _PRODUCT else c]
            schedule.append((op, out, a[4], b[4], a[2], b[2]))
    return cells[index[spec.root]][4], schedule


def count_series(spec: Specification, order: int) -> Series:
    """Exact coefficients 0..order of the root's counting sequence.

    Raises :class:`EnumerationError` for an unproductive or tautological
    system and for a Seq whose argument contains the empty object.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
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
            elif op is _SUM:
                out.append(sum([t[n] for t in a]))
            else:  # Seq: s[n] = sum of a[j] s[n - j] over j >= va >= 1
                out.append(sum(map(mul, a[va : n + 1], reversed(b[: n - va + 1]))) if n else 1)
    return root[: order + 1]


@dataclass(frozen=True)
class SeriesComparison:
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
