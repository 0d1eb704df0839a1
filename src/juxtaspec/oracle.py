"""Ground truth over explicit permutations.

Pattern containment by backtracking over subsequences and juxtaposition
membership by trying every cut tuple are deliberately naive: they are
obviously correct, and they are the reference the rest is checked against.
``count_class`` counts the members of a juxtaposition without testing every
permutation: it grows the members one appended entry at a time on a
generating tree and decides each child by one greedy cut, so its cost
follows the number of members rather than n!.  The tests compare it with
exhaustive ``juxt_membership`` counting.  Sizes are capped at MAX_LENGTH;
the largest class the tests and the benchmark use, separable|inc, takes
about 2 s at n = 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Callable, Dict, Iterator, List, Sequence, Tuple, Union

Perm = Tuple[int, ...]

MAX_LENGTH = 10

INC = "inc"
DEC = "dec"


@dataclass(frozen=True)
class Basis:
    patterns: Tuple[Perm, ...]


Cell = Union[str, Basis]


def contains(pattern: Sequence[int], host: Sequence[int]) -> bool:
    """True when some subsequence of host is order-isomorphic to pattern.

    Straightforward backtracking over choices of host positions; both
    arguments may be any sequences of distinct numbers.
    """
    return _occurs(pattern, host, anchored=False)


def _occurs(pattern: Sequence[int], host: Sequence[int], anchored: bool) -> bool:
    """Backtracking search for an occurrence of pattern in host.

    Anchored, the occurrence must end at host's last entry: the search places
    the other pattern entries before it, each on the same side of host's last
    entry as it is of pattern's.
    """
    k = len(pattern)
    n = len(host)
    if k == 0:
        return True
    if k > n:
        return False
    stop = k - 1 if anchored else k
    top, anchor = pattern[-1], host[-1]

    def extend(chosen: List[int], start: int) -> bool:
        depth = len(chosen)
        if depth == stop:
            return True
        for pos in range(start, n - (k - depth) + 1):
            value = host[pos]
            if anchored and (pattern[depth] < top) != (value < anchor):
                continue
            ok = True
            for j, prev in enumerate(chosen):
                if (pattern[j] < pattern[depth]) != (prev < value):
                    ok = False
                    break
            if ok:
                chosen.append(value)
                if extend(chosen, pos + 1):
                    return True
                chosen.pop()
        return False

    return extend([], 0)


_P21 = (2, 1)
_P12 = (1, 2)


def avoids_cell(block: Sequence[int], cell: Cell) -> bool:
    """Does the pattern of this block satisfy the cell?

    inc means the block avoids 21 (it is increasing), dec that it avoids 12,
    and a basis cell that it contains none of the basis patterns.  The empty
    block satisfies every cell.
    """
    if cell == INC:
        return not contains(_P21, block)
    if cell == DEC:
        return not contains(_P12, block)
    if isinstance(cell, Basis):
        return all(not contains(p, block) for p in cell.patterns)
    raise ValueError(f"unknown cell {cell!r}")


def juxt_membership(perm: Sequence[int], cells: Sequence[Cell]) -> bool:
    """Does the permutation split into consecutive blocks matching the cells?

    Exhaustive over all weakly increasing cut tuples; blocks may be empty.
    """
    if not cells:
        raise ValueError("cells must be nonempty")
    n = len(perm)
    k = len(cells)
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        bounds = (0,) + cuts + (n,)
        if all(
            avoids_cell(perm[bounds[j] : bounds[j + 1]], cells[j])
            for j in range(k)
        ):
            return True
    return False


def _extension_test(cell: Cell) -> Callable[[Perm], Tuple[bool, ...]]:
    """Verdicts of a cell on its block extended by one entry, by the entry's rank.

    The test takes a block the cell accepts and returns, for r = 0..len(block),
    whether the cell accepts the block followed by an entry with r entries of
    the block below it.  An increasing block takes only an entry above its
    last one, a decreasing block only one below.  A basis cell searches only
    the occurrences that end at the new entry (the block before it avoids the
    basis) and memoizes the verdicts on the standardized block.
    """
    if cell == INC:
        return lambda block: (False,) * len(block) + (True,)
    if cell == DEC:
        return lambda block: (True,) + (False,) * len(block)
    if not isinstance(cell, Basis):
        raise ValueError(f"unknown cell {cell!r}")
    memo: Dict[Perm, Tuple[bool, ...]] = {}

    def test(block: Perm) -> Tuple[bool, ...]:
        rank = {x: i for i, x in enumerate(sorted(block), 1)}
        std = tuple(rank[x] for x in block)
        verdicts = memo.get(std)
        if verdicts is None:
            found = []
            for r in range(len(std) + 1):
                grown = tuple(x + (x > r) for x in std) + (r + 1,)
                found.append(not any(_occurs(p, grown, anchored=True) for p in cell.patterns))
            verdicts = memo[std] = tuple(found)
        return verdicts

    return test


def count_class(cells: Sequence[Cell], n: int, max_length: int = MAX_LENGTH) -> int:
    """Number of permutations of length n lying in the juxtaposition.

    Same predicate as juxt_membership, counted on a generating tree.  The
    juxtaposition of hereditary cells is a permutation class, so its members
    of length m + 1 are the members of length m with one entry appended (the
    entries at or above the new value move up by one).  Membership needs one
    cut: if any cut tuple is a witness, so is the greedy one, where each cell
    in turn takes its longest valid block.  Appending an entry changes only
    the last, open block of that cut: the open cell either accepts the longer
    block or closes, and the new entry opens the next cell that accepts a
    one-entry block.  A node is therefore (open block, open cell); the tree
    is walked depth first, and the children of a node at depth n - 1 are
    counted by the rank of the new entry among the open block without being
    built.
    """
    if n > max_length:
        raise ValueError(f"size {n} exceeds the configured maximum {max_length}")
    if not cells:
        raise ValueError("cells must be nonempty")
    if n == 0:
        return 1  # the empty permutation splits into empty blocks

    k = len(cells)
    tests = [_extension_test(cell) for cell in cells]
    # the first cell at or after j that accepts a one-entry block, k if none
    opens = [k] * (k + 1)
    for j in reversed(range(k)):
        opens[j] = j if tests[j](())[0] else opens[j + 1]

    def ranks(block: Perm, j: int, m: int) -> Iterator[Tuple[int, int, int]]:
        # For each rank of the new entry: its values lo..hi among 1..m + 1 and
        # the cell that holds it (k: the child is no member).
        verdicts = tests[j](block)
        lo = 1
        for r, hi in enumerate(sorted(block) + [m + 1]):
            yield lo, hi, j if verdicts[r] else opens[j + 1]
            lo = hi + 1

    def children(block: Perm, j: int, m: int) -> Iterator[Tuple[Perm, int]]:
        for lo, hi, cell in ranks(block, j, m):
            if cell < k:
                for v in range(lo, hi + 1):
                    kept = tuple(x + (x >= v) for x in block) if cell == j else ()
                    yield kept + (v,), cell

    count = 0
    stack = [iter([((), 0)])]  # the children still to visit, one iterator per depth
    while stack:
        node = next(stack[-1], None)
        m = len(stack) - 1  # the length of node's permutation
        if node is None:
            stack.pop()
        elif m == n - 1:
            count += sum(hi - lo + 1 for lo, hi, cell in ranks(*node, m) if cell < k)
        else:
            stack.append(children(*node, m))
    return count


def greedy_cut(perm: Sequence[int]) -> int:
    """Number of entries before the longest increasing suffix."""
    n = len(perm)
    start = n
    while start > 0 and (start == n or perm[start - 1] < perm[start]):
        start -= 1
    return start


def greedy_unique(cells: Sequence[Cell], n: int, max_length: int = MAX_LENGTH) -> bool:
    """Does every member split at the greedy cut?

    For cells [core, inc]: each member of the juxtaposition must have its
    maximal increasing suffix preceded by a core-patterned prefix, i.e. the
    greedy decomposition is itself a witness, so every member has a
    canonical representation.
    """
    if len(cells) != 2 or cells[1] != INC or not isinstance(cells[0], Basis):
        raise ValueError("greedy_unique expects cells [basis, inc]")
    if n > max_length:
        raise ValueError(f"size {n} exceeds the configured maximum {max_length}")
    core = cells[0]
    for perm in permutations(range(1, n + 1)):
        if juxt_membership(perm, cells):
            if not avoids_cell(perm[: greedy_cut(perm)], core):
                return False
    return True


def parse_cells(text: str) -> List[Cell]:
    """Cell list syntax: cells separated by '|', e.g. "basis:321 | inc"."""
    cells: List[Cell] = []
    for part in text.split("|"):
        part = part.strip()
        if part == INC:
            cells.append(INC)
        elif part == DEC:
            cells.append(DEC)
        elif part.startswith("basis:"):
            patterns = []
            for word in part[len("basis:") :].split(","):
                word = word.strip()
                if not word.isdigit():
                    raise ValueError(f"bad basis pattern {word!r}")
                pattern = tuple(int(ch) for ch in word)
                if sorted(pattern) != list(range(1, len(pattern) + 1)):
                    raise ValueError(f"bad basis pattern {word!r}: not a permutation")
                patterns.append(pattern)
            if not patterns:
                raise ValueError("empty basis cell")
            cells.append(Basis(tuple(patterns)))
        else:
            raise ValueError(f"unknown cell {part!r} (expected inc, dec or basis:...)")
    if not cells:
        raise ValueError("no cells given")
    return cells
