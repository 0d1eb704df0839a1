"""Exact counting sequences by truncated power-series fixpoint iteration.

Every atom contributes z (E contributes 1), Seq(A) contributes 1/(1-A), and
the equation system is iterated from zero until stable.  Coefficients are
Python integers, so arbitrarily large counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _poly_add(a: Series, b: Series) -> Series:
    return [x + y for x, y in zip(a, b)]


def _poly_mul(a: Series, b: Series, order: int) -> Series:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        top = order - i
        for j, bj in enumerate(b[: top + 1]):
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_seq(a: Series, order: int) -> Series:
    """1/(1-a) truncated; requires a[0] == 0."""
    if a[0] != 0:
        raise EnumerationError("Seq argument has a nonzero constant term")
    out = [0] * (order + 1)
    out[0] = 1
    for n in range(1, order + 1):
        out[n] = sum(a[j] * out[n - j] for j in range(1, n + 1))
    return out


def _eval_expr(steps: list, env: dict, order: int) -> Series:
    """Truncated series of a planned expression; env holds the symbols' series."""

    def visit(node, kids):
        if isinstance(node, ClassRef):
            return env[node.name]
        if isinstance(node, Sum):
            out = [0] * (order + 1)
            for kid in kids:
                out = _poly_add(out, kid)
            return out
        if isinstance(node, Product):
            out = kids[0]
            for kid in kids[1:]:
                out = _poly_mul(out, kid, order)
            return out
        if isinstance(node, Seq):
            return _poly_seq(kids[0], order)
        out = [0] * (order + 1)
        if isinstance(node, AtomRef):
            if node.atom == EMPTY:
                out[0] = 1
            elif order >= 1:
                out[1] = 1
        elif not isinstance(node, ZeroExpr):
            raise SpecError(f"not an expression: {node!r}")
        return out

    return evaluate(steps, visit)[-1]


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
    vals = {name: _UNKNOWN for name in spec.symbols}

    def visit(node, kids):
        return _valuation_step(node, kids, vals)

    steps = [(eq.lhs, plan((eq.rhs,))[0]) for eq in spec.equations]
    for _ in range(len(vals) + 1):
        changed = False
        for lhs, eq_steps in steps:
            v = evaluate(eq_steps, visit)[-1]
            if v is not None and (vals[lhs] is None or v < vals[lhs]):
                vals[lhs] = v
                changed = True
        if not changed:
            break
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
    """Diagnose symbols whose minimal size never resolves and bad Seq uses."""
    vals = _valuations(spec)
    unproductive = tuple(name for name in spec.symbols if vals[name] is None)
    problems = tuple(_seq_argument_problems(spec, vals))
    return ProductivityReport(not unproductive and not problems, unproductive, problems)


def _zero_lag_refs(exprs: list, vals: dict) -> list:
    """Per expression, the symbols whose order-n coefficient feeds its order n."""

    def visit(node, kids):
        # (valuation, zero-lag references)
        val = _valuation_step(node, [k[0] for k in kids], vals)
        if isinstance(node, ClassRef):
            return val, {node.name}
        if isinstance(node, Product):
            fvals = [k[0] or 0 for k in kids]
            total = sum(fvals)
            kids = [k for k, v in zip(kids, fvals) if total - v == 0]
        return val, set().union(*(k[1] for k in kids))

    return [refs for _, refs in fold(exprs, visit)]


def _evaluation_order(spec: Specification, vals: dict) -> list:
    """Topological order on the zero-lag dependency graph.

    With this order one full sweep settles one further coefficient order, so
    the iteration below stabilizes within order+2 sweeps.  A zero-lag cycle
    means some coefficient depends on itself, i.e. a tautological system.
    """
    symbols = set(spec.symbols)
    refs = _zero_lag_refs([eq.rhs for eq in spec.equations], vals)
    deps = {eq.lhs: sorted(r & symbols) for eq, r in zip(spec.equations, refs)}
    order = []
    try:
        fold(spec.symbols, lambda name, kids: order.append(name), None, deps.__getitem__, None)
    except CycleError as exc:
        raise EnumerationError(
            f"non-productive system: {exc.node!r} depends on itself at equal size"
        ) from None
    return order


def _series_rounds(spec: Specification, order: int):
    """Yield successive per-symbol snapshots of the fixpoint iteration."""
    vals = _valuations(spec)
    unproductive = [name for name in spec.symbols if vals[name] is None]
    if unproductive:
        raise EnumerationError(
            "non-productive system: no objects derivable for "
            + ", ".join(repr(n) for n in unproductive)
        )
    problems = _seq_argument_problems(spec, vals)
    if problems:
        raise EnumerationError("; ".join(problems))

    sweep = [(name, plan((spec.rhs(name),))[0]) for name in _evaluation_order(spec, vals)]
    env = {name: [0] * (order + 1) for name in spec.symbols}
    yield {name: list(series) for name, series in env.items()}
    for _ in range(order + 2):
        changed = False
        for name, steps in sweep:
            new = _eval_expr(steps, env, order)
            if new != env[name]:
                env[name] = new
                changed = True
        yield {name: list(series) for name, series in env.items()}
        if not changed:
            return
    raise EnumerationError(f"series did not stabilize within {order + 2} sweeps")


def count_series(spec: Specification, order: int) -> Series:
    """Exact coefficients 0..order of the root's counting sequence."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    snapshot = None
    for snapshot in _series_rounds(spec, order):
        pass
    return snapshot[spec.root]


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
