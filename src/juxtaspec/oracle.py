"""Ground truth over explicit permutations.

Pattern containment by backtracking over subsequences and juxtaposition
membership by trying every cut tuple are deliberately naive: they are
obviously correct, and they are the reference the rest is checked against.
``class_counts`` counts the members of a juxtaposition of every size up to
n on a generating tree, deciding each child by one greedy cut.  Members that
share their open block and open cell share their subtree, so it counts each
level by distinct state: its cost follows the states, not the members.  A
basis cell decides a grown block from its one-point deletions, which are
members with memoized verdicts, so no pattern search runs there.  Open
blocks are byte strings, so each shift, deletion and re-ranking of a block
is one ``bytes.translate``.  ``count_class`` is the count of one size.  The
tests check both against exhaustive ``juxt_membership`` counting and a
per-member walk.  Sizes are capped at MAX_LENGTH; the largest class the
tests and the benchmark use, separable|inc, takes about 0.1 s at n = 10 and
3.4 s with 154 MB peak RSS at n = 12 (Python 3.11, one core).
``greedy_unique`` walks all n! permutations, so its sizes are capped at
GREEDY_MAX_LENGTH.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import Callable, Dict, List, Sequence, Tuple, Union

Perm = Tuple[int, ...]

MAX_LENGTH = 12
GREEDY_MAX_LENGTH = 9  # 9! = 362,880 permutations, each tried at every cut

INC = "inc"
DEC = "dec"


class Basis:
    """A cell of the permutations avoiding every one of ``patterns``, each a
    nonempty permutation of 1..k.  An empty pattern, which every block
    contains, is refused with the rest.  Immutable, and equal to a basis of
    the same patterns."""

    __slots__ = ("patterns",)

    def __init__(self, patterns: Tuple[Perm, ...]):
        if not patterns:
            raise ValueError("empty basis")
        for pattern in patterns:
            if not pattern:
                raise ValueError("empty basis pattern")
            if sorted(pattern) != list(range(1, len(pattern) + 1)):
                raise ValueError(f"basis pattern {pattern!r} is not a permutation")
        object.__setattr__(self, "patterns", patterns)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.patterns == other.patterns if type(other) is Basis else NotImplemented

    def __hash__(self):
        return hash(self.patterns)

    def __reduce__(self):
        return Basis, (self.patterns,)

    def __repr__(self):
        return f"Basis(patterns={self.patterns!r})"


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


# Open blocks are byte strings: a block's entries are its bytes, so every
# relabeling is one bytes.translate through a table.  _UP[lo] moves each
# value at or above lo up by one, _DOWN[a] each value above a down by one,
# and _BYTE[v] is the one-entry block v.
_ALL = bytes(range(256))
_UP = [_ALL[:lo] + _ALL[lo + 1 :] + b"\xff" for lo in range(MAX_LENGTH + 2)]
_DOWN = [_ALL[: a + 1] + _ALL[a:-1] for a in range(MAX_LENGTH + 2)]
_BYTE = [_ALL[v : v + 1] for v in range(MAX_LENGTH + 2)]


def _extension_test(cell: Cell) -> Callable[[bytes], int]:
    """Verdicts of a cell on its block extended by one entry, by the entry's rank.

    The test takes a block the cell accepts, as a byte string of distinct
    values, and returns a bit mask whose bit r (r = 0..len(block)) is set
    when the cell accepts the block followed by an entry with r entries of
    the block below it.  An increasing block takes only an entry above its
    last one, a decreasing block only one below.  A basis cell needs no
    pattern search: the block avoids the basis, so an occurrence in the
    grown block uses the new entry and either is the whole grown block or
    misses an old entry a.  The grown block is accepted exactly when it is
    not a basis pattern and, for every old entry a, the block without a (a
    member, as the cell is closed under deletion) accepts the new entry at
    its rank there, r - (a <= r).  Verdicts are memoized on the
    standardized block for the life of the test.
    """
    if cell == INC:
        return lambda block: 1 << len(block)
    if cell == DEC:
        return lambda block: 1
    if not isinstance(cell, Basis):
        raise ValueError(f"unknown cell {cell!r}")
    # a pattern longer than MAX_LENGTH never occurs in a block
    patterns = {bytes(p) for p in cell.patterns if len(p) <= MAX_LENGTH}
    lengths = {len(p) for p in patterns}
    memo: Dict[bytes, int] = {}

    def verdicts(std: bytes) -> int:
        found = memo.get(std)
        if found is None:
            m = len(std)
            found = (1 << (m + 1)) - 1
            if m + 1 in lengths:
                for r in range(m + 1):
                    if std.translate(_UP[r + 1]) + _BYTE[r + 1] in patterns:
                        found &= ~(1 << r)
            for i, a in enumerate(std):
                if not found:
                    break
                less = (std[:i] + std[i + 1 :]).translate(_DOWN[a])
                rest = memo.get(less)
                if rest is None:
                    rest = verdicts(less)
                # bit r of the grown block is bit r - (a <= r) of rest
                found &= (rest & ((1 << a) - 1)) | (rest >> (a - 1) << a)
            memo[std] = found
        return found

    def test(block: bytes) -> int:
        m = len(block)
        if m and max(block) != m:  # not yet a permutation of 1..m: rank it
            block = block.translate(bytes.maketrans(bytes(sorted(block)), _ALL[1 : m + 1]))
        return verdicts(block)

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
    members and grows it once.  A new entry of rank r takes a value v in
    lo..hi, the gap between the block's r-th and (r + 1)-th smallest values;
    no block value lies in [lo, hi), so every such v moves the same entries
    up and the shifted block is built once per gap.  The last level is
    counted without being built, by the rank of the new entry among the open
    block.
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
        opens[j] = j if tests[j](b"") & 1 else opens[j + 1]

    counts = [1]
    # members of length m by state: level[j] maps each open block of cell j
    # to its number of members
    level: List[Dict[bytes, int]] = [{b"": 1}] + [{} for _ in range(k - 1)]
    for m in range(max_len - 1):
        grown: List[Dict[bytes, int]] = [{} for _ in range(k)]
        for j, blocks in enumerate(level):
            # the cell a new entry opens when j does not take it (None: no member)
            other = grown[opens[j + 1]] if opens[j + 1] < k else None
            test, same = tests[j], grown[j]
            for block, mult in blocks.items():
                verdicts = test(block)
                lo = 1
                for r, hi in enumerate(sorted(block) + [m + 1]):
                    # the new entry takes a value in lo..hi
                    if verdicts >> r & 1:
                        kept = block.translate(_UP[lo])
                        for v in range(lo, hi + 1):
                            child = kept + _BYTE[v]
                            same[child] = same.get(child, 0) + mult
                    elif other is not None:
                        for v in range(lo, hi + 1):
                            child = _BYTE[v]
                            other[child] = other.get(child, 0) + mult
                    lo = hi + 1
        level = grown
        counts.append(sum(sum(blocks.values()) for blocks in level))
    last = 0  # the children of the last level, counted without being built
    for j, blocks in enumerate(level):
        if opens[j + 1] < k:  # a later cell to open: every child is a member
            last += max_len * sum(blocks.values())
            continue
        for block, mult in blocks.items():
            verdicts = tests[j](block)
            lo = 1
            for r, hi in enumerate(sorted(block) + [max_len]):
                if verdicts >> r & 1:
                    last += mult * (hi - lo + 1)
                lo = hi + 1
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
    if n > GREEDY_MAX_LENGTH:
        raise ValueError(f"size {n} exceeds the configured maximum {GREEDY_MAX_LENGTH}")
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
