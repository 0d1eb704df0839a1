"""Check symbolic results against the oracle.

Run:  python demos/03_oracle_verification.py
"""

from itertools import permutations

from juxtaspec import (
    INC,
    builtin_spec,
    class_counts,
    compare_series,
    count_series,
    greedy_cut,
    greedy_unique,
    juxt_membership,
    juxtapose,
    parse_cells,
)

# The reference works on explicit permutations: containment by subsequence
# search, juxtaposition membership (juxt_membership) by trying every cut.
print("2413 splits into inc|inc?", juxt_membership((2, 4, 1, 3), [INC, INC]))
print("321 splits into inc|inc?", juxt_membership((3, 2, 1), [INC, INC]))
print("greedy cut of 2413:", greedy_cut((2, 4, 1, 3)))
print()

# Cell lists use the same syntax as the command line.  class_counts counts
# the members of every size level by level on a generating tree (one
# appended entry at a time, one greedy cut each, members that share their
# open block and open cell counted together); on small sizes it agrees with
# juxt_membership over all n!.
cells = parse_cells("basis:2413,3142 | inc")
print("separable|inc sizes 0..6 by generating tree:", class_counts(cells, 6))
print("separable|inc sizes 0..6 by juxt_membership:",
      [sum(juxt_membership(p, cells) for p in permutations(range(1, n + 1)))
       for n in range(7)])

# The greedy cut is a canonical witness: every member splits there.
print("greedy decomposition canonical up to n=7:",
      all(greedy_unique(cells, n) for n in range(8)))
print()

# And the headline check: the symbolic pipeline agrees with the oracle.
spec = juxtapose(builtin_spec("separable"), "right", "inc", "none")
symbolic = count_series(spec, 7)
counted = class_counts(cells, 7)
print("symbolic :", symbolic)
print("oracle   :", counted)
print("verdict  :", compare_series(symbolic, counted))
