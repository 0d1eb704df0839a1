"""Ground truth over explicit permutations.

Pattern containment by backtracking over subsequences and juxtaposition
membership by trying every cut tuple are deliberately naive: they are
obviously correct, and they are the reference the rest is checked against.
``class_counts`` counts the members of a juxtaposition of every size up to
n on a generating tree, deciding each child by one greedy cut.  Members that
share their open block and open cell share their subtree, so it counts each
level by distinct state: its cost follows the states, not the members.  A
basis cell decides a grown block from its one-point deletions, which are
members with memoized verdicts, so no pattern search runs there.
``count_class`` is the count of one size.  The tests check both against
exhaustive ``juxt_membership`` counting and a per-member walk.  Sizes are
capped at MAX_LENGTH; the largest class the tests and the benchmark use,
separable|inc, takes about 0.1 s at n = 9 (Python 3.11, one core).
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
    """A cell of the permutations avoiding every one of ``patterns``, each a
    nonempty permutation of 1..k.  An empty pattern, which every block
    contains, is refused with the rest."""

    patterns: Tuple[Perm, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("empty basis")
        for pattern in self.patterns:
            if not pattern:
                raise ValueError("empty basis pattern")
            if sorted(pattern) != list(range(1, len(pattern) + 1)):
                raise ValueError(f"basis pattern {pattern!r} is not a permutation")


Cell = Union[str, Basis]


def contains(pattern: Sequence[int], host: Sequence[int]) -> bool:
    """True when some subsequence of host is order-isomorphic to pattern.

    Straightforward backtracking over choices of host positions; both
    arguments may be any sequences of distinct numbers.
    """
    k = len(pattern)
    n = len(host)
    if k > n:
        return False

    def extend(chosen: List[int], start: int) -> bool:
        depth = len(chosen)
        if depth == k:
            return True
        for pos in range(start, n - (k - depth) + 1):
            value = host[pos]
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


def _extension_test(cell: Cell) -> Callable[[Perm], int]:
    """Verdicts of a cell on its block extended by one entry, by the entry's rank.

    The test takes a block the cell accepts and returns a bit mask whose bit r
    (r = 0..len(block)) is set when the cell accepts the block followed by an
    entry with r entries of the block below it.  An increasing block takes
    only an entry above its last one, a decreasing block only one below.  A
    basis cell needs no pattern search: the block avoids the basis, so an
    occurrence in the grown block uses the new entry and either is the whole
    grown block or misses an old entry a.  The grown block is accepted
    exactly when it is not a basis pattern and, for every old entry a, the
    block without a (a member, as the cell is closed under deletion) accepts
    the new entry at its rank there, r - (a <= r).  Verdicts are memoized on
    the standardized block for the life of the test.
    """
    if cell == INC:
        return lambda block: 1 << len(block)
    if cell == DEC:
        return lambda block: 1
    if not isinstance(cell, Basis):
        raise ValueError(f"unknown cell {cell!r}")
    patterns = set(cell.patterns)
    lengths = {len(p) for p in patterns}
    memo: Dict[Perm, int] = {}

    def verdicts(std: Perm) -> int:
        found = memo.get(std)
        if found is None:
            m = len(std)
            found = (1 << (m + 1)) - 1
            if m + 1 in lengths:
                for r in range(m + 1):
                    if tuple(x + (x > r) for x in std) + (r + 1,) in patterns:
                        found &= ~(1 << r)
            for i, a in enumerate(std):
                if not found:
                    break
                rest = verdicts(tuple(x - (x > a) for x in std[:i] + std[i + 1 :]))
                # bit r of the grown block is bit r - (a <= r) of rest
                found &= (rest & ((1 << a) - 1)) | (rest >> (a - 1) << a)
            memo[std] = found
        return found

    def test(block: Perm) -> int:
        rank = {x: i for i, x in enumerate(sorted(block), 1)}
        return verdicts(tuple(rank[x] for x in block))

    return test


def class_counts(cells: Sequence[Cell], max_len: int) -> List[int]:
    """Numbers of permutations of each length 0..max_len in the juxtaposition.

    Same predicate as juxt_membership, counted on a generating tree.  The
    juxtaposition of hereditary cells is a permutation class, so its members
    of length m + 1 are the members of length m with one entry appended (the
    entries at or above the new value move up by one), and each member has
    one parent.  Membership needs one cut: if any cut tuple is a witness, so
    is the greedy one, where each cell in turn takes its longest valid block.
    Appending an entry changes only the last, open block of that cut: the
    open cell either accepts the longer block or closes, and the new entry
    opens the next cell that accepts a one-entry block.  A node is therefore
    (open block, open cell), and its subtree depends only on that state and
    its depth, so each level maps each distinct state to its number of
    members and grows it once.  The last level is counted without being
    built, by the rank of the new entry among the open block.
    """
    if max_len > MAX_LENGTH:
        raise ValueError(f"size {max_len} exceeds the configured maximum {MAX_LENGTH}")
    if max_len < 0:
        raise ValueError("size must be nonnegative")
    if not cells:
        raise ValueError("cells must be nonempty")
    if max_len == 0:
        return [1]  # the empty permutation splits into empty blocks

    k = len(cells)
    tests = [_extension_test(cell) for cell in cells]
    # the first cell at or after j that accepts a one-entry block, k if none
    opens = [k] * (k + 1)
    for j in reversed(range(k)):
        opens[j] = j if tests[j](()) & 1 else opens[j + 1]

    def ranks(block: Perm, j: int, m: int) -> Iterator[Tuple[int, int, int]]:
        # For each rank of the new entry: its values lo..hi among 1..m + 1 and
        # the cell that holds it (k: the child is no member).
        verdicts = tests[j](block)
        lo = 1
        for r, hi in enumerate(sorted(block) + [m + 1]):
            yield lo, hi, j if verdicts >> r & 1 else opens[j + 1]
            lo = hi + 1

    counts = [1]
    level: Dict[Tuple[Perm, int], int] = {((), 0): 1}  # members of length m by state
    for m in range(max_len - 1):
        grown: Dict[Tuple[Perm, int], int] = {}
        for (block, j), mult in level.items():
            for lo, hi, cell in ranks(block, j, m):
                if cell < k:
                    for v in range(lo, hi + 1):
                        kept = tuple(x + (x >= v) for x in block) if cell == j else ()
                        state = (kept + (v,), cell)
                        grown[state] = grown.get(state, 0) + mult
        counts.append(sum(grown.values()))
        level = grown
    last = 0  # the children of the last level, counted without being built
    for (block, j), mult in level.items():
        # with a later cell to open, every child is a member: no verdicts needed
        spans = [(1, max_len, j)] if opens[j + 1] < k else ranks(block, j, max_len - 1)
        last += mult * sum(hi - lo + 1 for lo, hi, cell in spans if cell < k)
    return counts + [last]


def count_class(cells: Sequence[Cell], n: int) -> int:
    """Number of permutations of length n lying in the juxtaposition: the
    last entry of class_counts(cells, n)."""
    return class_counts(cells, n)[n]


def greedy_cut(perm: Sequence[int]) -> int:
    """Number of entries before the longest increasing suffix."""
    n = len(perm)
    start = n
    while start > 0 and (start == n or perm[start - 1] < perm[start]):
        start -= 1
    return start


def greedy_unique(cells: Sequence[Cell], n: int) -> bool:
    """Does every member split at the greedy cut?

    For cells [core, inc]: each member of the juxtaposition must have its
    maximal increasing suffix preceded by a core-patterned prefix, i.e. the
    greedy decomposition is itself a witness, so every member has a
    canonical representation.
    """
    if len(cells) != 2 or cells[1] != INC or not isinstance(cells[0], Basis):
        raise ValueError("greedy_unique expects cells [basis, inc]")
    if n > MAX_LENGTH:
        raise ValueError(f"size {n} exceeds the configured maximum {MAX_LENGTH}")
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
            cells.append(Basis(tuple(patterns)))
        else:
            raise ValueError(f"unknown cell {part!r} (expected inc, dec or basis:...)")
    return cells
