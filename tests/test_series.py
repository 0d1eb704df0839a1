import math
import re

import pytest

from juxtaspec.builtins import builtin_names, builtin_spec
from juxtaspec.dsl import parse_spec, spec_from_dict, spec_to_dict
from juxtaspec.expr import AtomRef, ClassRef, Product, SpecError, Z_EXPR
from juxtaspec.juxtapose import juxtapose
import juxtaspec.series as series_module
from juxtaspec.series import (
    MAX_TERMS,
    EnumerationError,
    compare_series,
    count_series,
    format_series,
    productivity_check,
)
from juxtaspec.spec import Equation, make_spec, sz_equation
from helpers import deep_series_specs, library_specs, marker_totals, reference_count_series

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
DEEP_SERIES_ORDERS = (40, 60, 60, 80)  # perfbench/workloads.py, deep-series


def test_av321_with_empty_root():
    spec = parse_spec("C = E + C C Z\nC.R = C C.R Z + C ZR\n")
    assert count_series(spec, 6) == [1, 1, 2, 5, 14, 42, 132]


def test_sz_alone():
    spec = make_spec([sz_equation()])
    assert count_series(spec, 5) == [1, 1, 1, 1, 1, 1]


def test_builtin_series():
    assert count_series(builtin_spec("av321"), 9) == CATALAN
    assert count_series(builtin_spec("av312"), 9) == CATALAN
    assert count_series(builtin_spec("separable"), 8) == [1, 1, 2, 6, 22, 90, 394, 1806, 8558]
    assert count_series(builtin_spec("monotone"), 6) == [1] * 7


def test_order_zero():
    assert count_series(builtin_spec("av321"), 0) == [1]
    with pytest.raises(ValueError):
        count_series(builtin_spec("av321"), -1)


@pytest.mark.parametrize("order", (MAX_TERMS + 1, 10**7))
def test_order_above_the_budget_is_refused(order):
    """A library call is refused before it allocates anything; the CLI's
    --terms cap is the same budget."""
    assert MAX_TERMS == 2000
    with pytest.raises(SpecError) as info:
        count_series(builtin_spec("av321"), order)
    assert type(info.value) is SpecError
    assert str(info.value) == f"order {order} is above the series budget of 2000 terms"


def test_truncation_coherence():
    for name in builtin_names():
        spec = builtin_spec(name)
        full = count_series(spec, 12)
        for order in (0, 3, 7):
            assert count_series(spec, order) == full[: order + 1]


def test_monotone_convergence():
    # a settled coefficient never changes: asking for more terms only appends
    specs = [builtin_spec(name) for name in builtin_names()] + deep_series_specs()
    assert len(specs) == 8
    for spec in specs:
        full = count_series(spec, 30)
        for k in range(31):
            assert count_series(spec, k) == full[: k + 1]


def _catalan(order):
    return [math.comb(2 * n, n) // (n + 1) for n in range(order + 1)]


@pytest.mark.parametrize("rhs", ("E + C C Z", "E + Z C C", "E + C Z C"))
def test_partial_products_at_high_order(rhs):
    # C·C reads C at the same index although the full product does not:
    # ordering by symbols alone would read a coefficient before it is set
    assert count_series(parse_spec(f"C = {rhs}\n"), 300) == _catalan(300)


def test_closed_forms_at_high_order():
    assert count_series(builtin_spec("av321"), 300) == _catalan(300)
    assert count_series(builtin_spec("av312"), 300) == _catalan(300)
    for track in ("right", "both"):
        spec = juxtapose(builtin_spec("monotone"), "right", "inc", track)
        assert count_series(spec, 400) == [2**n - n for n in range(401)]
    # separable: large Schröder numbers, (n + 1) S(n) = 3 (2n - 1) S(n-1) - (n - 2) S(n-2)
    schroeder = [1, 2]
    for n in range(2, 200):
        schroeder.append((3 * (2 * n - 1) * schroeder[-1] - (n - 2) * schroeder[-2]) // (n + 1))
    assert count_series(builtin_spec("separable"), 200) == [1] + schroeder


def test_series_matches_marker_series_on_library_specs():
    specs = library_specs()
    assert len(specs) == 4 + 32 + 12
    for i, spec in enumerate(specs):
        order = 12 if i < 4 + 32 else 8  # the grids' trees make marker_series slow
        assert count_series(spec, order) == marker_totals(spec, order), i


def test_series_matches_the_reference_counter():
    # running sums and filled Seq(Z) cells give what convolving every
    # product and every Seq gives
    for i, spec in enumerate(library_specs()):
        assert count_series(spec, 40) == reference_count_series(spec, 40), i
    for spec, order in zip(deep_series_specs(), DEEP_SERIES_ORDERS):
        assert count_series(spec, order) == reference_count_series(spec, order)


def _schedule_ops(spec, order):
    """(op, va, vb) of every step of the schedule count_series runs."""
    values = series_module._productive_valuations(spec)
    _, schedule = series_module._schedule(spec, values, order)
    return [(op, va, vb) for op, _, _, _, va, vb in schedule]


def _multiply_adds(spec, order):
    """The multiply-adds of the convolutions in count_series to ``order``,
    (of products, of Seq): a product convolves n - va - vb + 1 terms at
    index n, a Seq n - va + 1."""
    products = seqs = 0
    for op, va, vb in _schedule_ops(spec, order):
        if op == series_module._PRODUCT:
            products += sum(max(0, n - va - vb + 1) for n in range(order + 1))
        elif op == series_module._SEQ:
            seqs += sum(max(0, n - va + 1) for n in range(1, order + 1))
    return products, seqs


def test_monotone_runs_are_running_sums():
    spec = juxtapose(builtin_spec("monotone"), "right", "inc", "both")
    ops = [op for op, _, _ in _schedule_ops(spec, 10)]
    assert ops.count(series_module._PRODUCT) <= 1
    assert ops.count(series_module._RUN) >= 10
    # products with SZ = E + SZ Z, with Seq(Z) and with their shifts, on
    # either side, and Seq(Z) itself: nothing is left to convolve
    for text in ("A = SZ SZ Z + Z SZ Z\n", "A = Seq(Z) B Seq(Z) Z\nB = Z + Z B Z Seq(Z)\n"):
        spec = parse_spec(text)
        assert _multiply_adds(spec, 30) == (0, 0)
        assert count_series(spec, 30) == reference_count_series(spec, 30)


def test_deep_series_multiply_adds():
    products, seqs = map(sum, zip(*map(_multiply_adds, deep_series_specs(), DEEP_SERIES_ORDERS)))
    assert products <= 160_000
    assert seqs <= 3_240  # Seq(SZ Z) in the monotone output, to order 80


def test_atom_marks_do_not_affect_counting():
    # demote every marked atom through the JSON form and compare
    spec = builtin_spec("av321")
    doc = spec_to_dict(spec)
    for node in doc["nodes"]:
        if node["kind"] == "atom":
            node["name"] = {"ZR": "Z", "ZL": "Z", "ZLR": "Z"}.get(node["name"], node["name"])
    assert count_series(spec_from_dict(doc), 9) == count_series(spec, 9)


def test_unproductive_system_rejected():
    spec = parse_spec("A = A Z\n")
    with pytest.raises(EnumerationError, match="non-productive"):
        count_series(spec, 4)


def test_tautological_system_rejected():
    spec = parse_spec("A = B\nB = A + Z\n")
    with pytest.raises(EnumerationError, match="non-productive"):
        count_series(spec, 4)


def test_seq_constant_term_rejected():
    spec = parse_spec("A = Seq(B)\nB = E + Z\n")
    with pytest.raises(EnumerationError, match="constant term"):
        count_series(spec, 4)


def test_productivity_check_diagnostics():
    assert not productivity_check(parse_spec("A = A Z\n")).ok
    assert "A" in productivity_check(parse_spec("A = A Z\n")).unproductive
    assert productivity_check(builtin_spec("av321")).ok
    report = productivity_check(parse_spec("A = Seq(B)\nB = E + Z\n"))
    assert not report.ok
    assert any("constant term" in p for p in report.problems)
    # tautological systems: count_series refuses them with the same text,
    # which names the first symbol on the cycle
    for text, name in (("A = B\nB = A + Z\n", "A"), ("A = A + SZ\n", "A"),
                       ("A = Z + B\nB = C + Z\nC = B\n", "B")):
        spec = parse_spec(text)
        report = productivity_check(spec)
        assert not report.ok and not report.unproductive
        assert report.problems == (f"non-productive system: '{name}' depends on itself at equal size",)
        with pytest.raises(EnumerationError, match=re.escape(report.problems[0])):
            count_series(spec, 3)


def test_reference_chain_converges():
    spec = parse_spec("A = B\nB = C\nC = Z + C Z\n")
    assert count_series(spec, 4) == [0, 1, 1, 1, 1]


def test_long_chain_in_reverse_dependency_order():
    # A1 = Z A2, ..., A199 = Z A200, A200 = ZR: every symbol is defined after
    # the one that refers to it, so each pass settles one more symbol
    eqs = [Equation(f"A{i}", Product((Z_EXPR, ClassRef(f"A{i + 1}")))) for i in range(1, 200)]
    spec = make_spec(eqs + [Equation("A200", AtomRef("ZR"))])
    assert all(spec.tracking[name].has_r for name in spec.symbols)
    assert count_series(spec, 200) == [0] * 200 + [1]


def test_compare_series():
    assert compare_series([1, 1, 2, 5], [1, 1, 2, 5, 14]).equal
    verdict = compare_series([1, 1, 2, 5], [1, 1, 2, 6])
    assert not verdict.equal
    assert (verdict.index, verdict.left, verdict.right) == (3, 5, 6)
    empty = compare_series([], [1])
    assert empty.equal and empty.overlap == 0
    assert "zero-length" in str(empty)


def test_format_series():
    assert format_series([1, 1, 2, 6]) == "1,1,2,6"
