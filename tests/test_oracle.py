from itertools import permutations

import pytest

from juxtaspec.oracle import (
    Basis,
    DEC,
    INC,
    MAX_LENGTH,
    avoids_cell,
    class_counts,
    contains,
    count_class,
    greedy_cut,
    greedy_unique,
    juxt_membership,
    parse_cells,
)

from helpers import reference_class_counts

B321 = Basis(((3, 2, 1),))
SEPARABLE = Basis(((2, 4, 1, 3), (3, 1, 4, 2)))


def test_contains_basic():
    assert not contains((2, 1), (1, 2, 3))
    assert contains((3, 1, 4, 2), (3, 5, 1, 4, 2))
    assert contains((), (3, 1, 2))
    assert contains((), ())
    assert contains((1,), (1,))
    assert not contains((1, 2), (1,))


def test_contains_non_adjacent():
    assert contains((2, 1), (1, 3, 2))
    assert contains((3, 2, 1), (4, 1, 3, 2))
    assert not contains((3, 2, 1), (2, 3, 1))


def test_contains_relative_order_only():
    # hosts and patterns need not use contiguous values
    assert contains((1, 2), (10, 40))
    assert not contains((2, 1), (10, 40))


def test_avoids_cell():
    assert not avoids_cell((3, 5, 1, 4, 2), SEPARABLE)
    assert avoids_cell((1, 2, 3), INC)
    assert not avoids_cell((1, 3, 2), INC)
    assert avoids_cell((3, 2, 1), DEC)
    assert avoids_cell((), INC)
    assert avoids_cell((), SEPARABLE)


def test_juxt_membership():
    assert not juxt_membership((3, 2, 1), [INC, INC])
    assert juxt_membership((3, 2, 1), [INC, INC, INC])
    assert juxt_membership((), [INC, INC])
    assert juxt_membership((2, 1), [DEC])
    with pytest.raises(ValueError):
        juxt_membership((1,), [])


def test_count_class_frozen_values():
    assert count_class([SEPARABLE, INC], 5) == 115
    assert count_class([INC, INC], 4) == 12
    assert count_class([B321], 5) == 42


def test_basis_pattern_longer_than_any_block():
    # a pattern that no block of a counted size can hold is never met
    longest = Basis((tuple(range(300, 0, -1)),))
    assert class_counts([longest], 5) == [1, 1, 2, 6, 24, 120]


def test_count_class_small_sizes():
    assert count_class([B321, INC], 0) == 1
    assert count_class([B321, INC], 1) == 1
    assert count_class([INC, INC], 6) == 2**6 - 6


# the four rows of the benchmark's oracle workload, then edge cases: cells
# that reject every nonempty block, one cell, two basis cells, four cells and
# a basis that is not minimal (123 contains 12)
CROSS_CHECK_ROWS = [
    ("basis:321 | inc", 7),
    ("basis:2413,3142 | inc", 7),
    ("inc | basis:321 | dec", 7),
    ("inc | basis:12 | inc", 7),
    ("basis:1 | inc", 7),
    ("inc | basis:1", 7),
    ("basis:321", 7),
    ("basis:132 | basis:231", 7),
    ("inc | dec | inc | dec", 6),
    ("basis:12,123 | dec", 6),
]


@pytest.mark.parametrize("row, max_n", CROSS_CHECK_ROWS)
def test_count_class_matches_exhaustive_membership(row, max_n):
    cells = parse_cells(row)
    members = [
        sum(juxt_membership(p, cells) for p in permutations(range(1, n + 1)))
        for n in range(max_n + 1)
    ]
    for n in range(max_n + 1):
        assert class_counts(cells, n) == members[: n + 1], (row, n)
        assert count_class(cells, n) == members[n], (row, n)


# past the reach of exhaustive membership counting: the four rows of the
# benchmark's oracle workload one size further, and a 6-cell row
WALK_ROWS = [
    ("basis:321 | inc", 8),
    ("basis:2413,3142 | inc", 8),
    ("inc | basis:321 | dec", 8),
    ("inc | basis:21 | inc", 8),
    ("inc | dec | basis:321 | inc | dec | inc", 9),
]


@pytest.mark.parametrize("row, max_n", WALK_ROWS)
def test_class_counts_matches_member_walk(row, max_n):
    cells = parse_cells(row)
    assert class_counts(cells, max_n) == reference_class_counts(cells, max_n)


def test_count_class_rejects_empty_cells():
    with pytest.raises(ValueError, match="nonempty"):
        count_class([], 3)


def test_count_class_rejects_negative_size():
    with pytest.raises(ValueError, match="nonnegative"):
        count_class([INC], -1)
    with pytest.raises(ValueError, match="nonnegative"):
        class_counts([B321, INC], -1)


def test_count_class_size_limit():
    # two increasing runs: 2^n - n permutations of length n >= 1
    assert class_counts([INC, INC], MAX_LENGTH) == [1] + [2**n - n for n in range(1, MAX_LENGTH + 1)]
    with pytest.raises(ValueError) as info:
        count_class([B321], MAX_LENGTH + 1)
    assert str(info.value) == f"size {MAX_LENGTH + 1} exceeds the configured maximum {MAX_LENGTH}"


def test_greedy_cut():
    assert greedy_cut((2, 4, 1, 3)) == 2
    assert greedy_cut((1, 2, 3, 4, 5)) == 0
    assert greedy_cut((5, 4, 3, 2, 1)) == 4
    assert greedy_cut(()) == 0
    assert greedy_cut((1,)) == 0


def test_greedy_unique_small():
    assert greedy_unique([B321, INC], 5)
    assert greedy_unique([SEPARABLE, INC], 5)


def test_greedy_unique_validates_cells():
    with pytest.raises(ValueError):
        greedy_unique([INC, INC], 3)


def test_parse_cells():
    assert parse_cells("inc") == [INC]
    assert parse_cells("basis:321 | inc") == [B321, INC]
    assert parse_cells("dec|basis:2413,3142") == [DEC, SEPARABLE]
    with pytest.raises(ValueError):
        parse_cells("wibble")
    with pytest.raises(ValueError):
        parse_cells("basis:331")
    with pytest.raises(ValueError, match=r"^bad basis pattern ''$"):
        parse_cells("basis:")
    for text in ("", "|"):
        with pytest.raises(ValueError) as info:
            parse_cells(text)
        assert str(info.value) == "unknown cell '' (expected inc, dec or basis:...)"


@pytest.mark.parametrize(
    "patterns, text",
    [
        ((), "empty basis"),
        (((),), "empty basis pattern"),
        (((1, 2), ()), "empty basis pattern"),
        (((1, 1),), "basis pattern (1, 1) is not a permutation"),
        (((2, 3),), "basis pattern (2, 3) is not a permutation"),
    ],
)
def test_basis_refuses_what_no_block_can_avoid_consistently(patterns, text):
    """A basis is nonempty permutations only: an empty pattern once made the
    generating-tree counts accept blocks that juxt_membership refused."""
    with pytest.raises(ValueError) as info:
        Basis(patterns)
    assert str(info.value) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("wibble", "unknown cell 'wibble' (expected inc, dec or basis:...)"),
        ("basis:331", "bad basis pattern '331': not a permutation"),
        ("basis:", "bad basis pattern ''"),
        ("inc|basis:12,", "bad basis pattern ''"),
        ("basis:1x", "bad basis pattern '1x'"),
    ],
)
def test_parse_cells_error_texts(text, message):
    with pytest.raises(ValueError) as info:
        parse_cells(text)
    assert str(info.value) == message
