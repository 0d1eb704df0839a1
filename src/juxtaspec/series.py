"""Exact counting sequences, computed online one coefficient at a time.

Every atom contributes z (E contributes 1), a product the product of its
factors' series, and Seq(A) contributes 1/(1-A).  The equation system is
planned once into a flat schedule of cells; coefficient n of every cell is
then computed, exactly once, from coefficients already settled, before any
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
    evaluate,
    fold,
    plan,
)
from .spec import Specification

Series = List[int]

_UNKNOWN = None  # unresolved valuation


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


def _valuations(spec: Specification) -> dict:
    """Each symbol's minimal object size, None if it has no objects.

    One pass evaluates every distinct node once and lowers a symbol's value
    as soon as its right-hand side is evaluated; passes repeat until none
    changes, at most once per symbol plus one.
    """
    vals = {name: _UNKNOWN for name in spec.symbols}
    owners = {}  # right-hand side -> the symbols it defines
    for eq in spec.equations:
        owners.setdefault(id(eq.rhs), []).append(eq.lhs)
    changed = True

    def visit(node, kids):
        nonlocal changed
        v = _valuation_step(node, kids, vals)
        for lhs in owners.get(id(node), ()) if v is not None else ():
            if vals[lhs] is None or v < vals[lhs]:
                vals[lhs], changed = v, True
        return v

    steps, _ = plan([eq.rhs for eq in spec.equations])
    for _ in range(len(vals) + 1):
        if not changed:
            break
        changed = False
        evaluate(steps, visit)
    return vals


def _seq_argument_problems(spec: Specification, vals: dict) -> list:
    """One problem per Seq occurrence whose argument contains the empty object."""

    def visit(node, kids):
        # (valuation, bad Seq occurrences in the expression tree)
        bad = sum(k[1] for k in kids)
        if isinstance(node, Seq) and kids[0][0] == 0:
            bad += 1
        return _valuation_step(node, [k[0] for k in kids], vals), bad

    problems = []
    for eq, (_, bad) in zip(spec.equations, fold([eq.rhs for eq in spec.equations], visit)):
        problems += [f"{eq.lhs}: Seq argument has nonzero constant term"] * bad
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
    vals = _valuations(spec)
    unproductive = tuple(name for name in spec.symbols if vals[name] is None)
    problems = _seq_argument_problems(spec, vals)
    if not unproductive:
        try:
            _schedule(spec, vals, 0)
        except EnumerationError as exc:
            problems.append(str(exc))
    return ProductivityReport(not unproductive and not problems, unproductive, tuple(problems))


def _productive_valuations(spec: Specification) -> dict:
    """The valuations of a system whose every symbol is productive; an
    EnumerationError naming the unproductive symbols otherwise."""
    vals = _valuations(spec)
    unproductive = [name for name in spec.symbols if vals[name] is None]
    if unproductive:
        raise EnumerationError(
            "non-productive system: no objects derivable for "
            + ", ".join(repr(n) for n in unproductive)
        )
    return vals


_SUM, _PRODUCT, _SEQ = "sum", "product", "seq"


def _schedule(spec: Specification, vals: dict, order: int) -> tuple:
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

    Returns the root's series and the steps ``(op, out, a, b, va, vb)`` that
    append one coefficient to ``out`` per index; atoms are filled in full.
    """
    symbols = spec.symbols
    index = {name: i for i, name in enumerate(symbols)}
    steps, position = plan([spec.rhs(name) for name in symbols])
    # per cell: [operation, operand cells, valuation, zero-lag operands, series]
    cells = [[None, None, vals[name], None, None] for name in symbols]
    at, pairs = [], {}  # the cell of each plan step; binary products by operands

    def cell(op, operands, v, zero_lag):
        # an atom's series is 1 at its size; Zero has no size (v is None)
        constant = isinstance(op, (AtomRef, ZeroExpr))
        out = [int(n == v) for n in range(order + 1)] if constant else []
        cells.append([op, operands, v, zero_lag, out])
        return len(cells) - 1

    for node, kids in steps:
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
            at.append(cell(op, kids, _valuation_step(node, [cells[k][2] for k in kids], vals), kids))
    for i, name in enumerate(symbols):
        cells[i][3] = [at[position[id(spec.rhs(name))]]]
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
    vals = _productive_valuations(spec)
    problems = _seq_argument_problems(spec, vals)
    if problems:
        raise EnumerationError("; ".join(problems))

    root, schedule = _schedule(spec, vals, order)
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
