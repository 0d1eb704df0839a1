"""Built-in specifications, shipped as DSL text so they are reviewable data.

Every root admits the empty permutation through a wrapper equation
``Full = E + <tracked symbol>``; the insertion operators annihilate E, so
juxtaposition behaves identically with or without it while plain
enumeration starts at the conventional 1 for size 0.
"""

from __future__ import annotations

from functools import cache

from .dsl import parse_spec
from .oracle import Basis
from .spec import Specification

BUILTIN_SPECS = {
    # 321-avoiding permutations.  C and C.R are the plain and
    # rightmost-marked classes; the rightmost entry is the one created last
    # among the left-to-right minima side of the decomposition.  The root
    # C.LR additionally marks the leftmost entry through a refinement by
    # where the permutation's first entry is created: N covers the cases
    # where every step so far starts a fresh left-to-right minimum, and G /
    # G.R carry the leftmost marker once that pattern is first broken.
    "av321": """\
# 321-avoiders, empty permutation included
Full = E + C.LR
C.LR = ZLR + ZL C.R + N.R ZL + N ZL C.R + G.R Z + G Z C.R
G.R = Z G.R + N.R ZL + N ZL C.R + G.R Z + G Z C.R
G = Z G + N ZL C + G Z C
N = Z + Z N
N.R = ZR + Z N.R
C.R = C C.R Z + C ZR
C = E + C C Z
""",
    # 312-avoiding permutations, built bottom-to-top by repeatedly adding a
    # new maximum; the rightmost entry is marked in C.R.
    "av312": """\
# 312-avoiders, empty permutation included
Full = E + C.R
C.R = ZR C + Z C C.R
C = E + Z C C
""",
    # Separable permutations (avoiding 2413 and 3142): sums and skew sums of
    # singletons.  C.plus / C.minus are the sum- / skew-indecomposable ones.
    "separable": """\
# separable permutations, empty permutation included
Full = E + C.R
C.R = ZR + C.plus C.R + C.R C.minus
C = Z + C.plus C + C C.minus
C.minus = Z + C.plus C
C.plus = Z + C C.minus
""",
    # The increasing class itself, tracking both extreme entries.
    "monotone": """\
# increasing permutations, empty permutation included
Full = E + M
M = ZLR + ZL Seq(Z) ZR
""",
}

# Avoidance basis of each built-in's class, for oracle-side checks.
BUILTIN_BASES = {
    "av321": Basis(((3, 2, 1),)),
    "av312": Basis(((3, 1, 2),)),
    "separable": Basis(((2, 4, 1, 3), (3, 1, 4, 2))),
    "monotone": Basis(((2, 1),)),
}


def builtin_names() -> tuple:
    return tuple(sorted(BUILTIN_SPECS))


def builtin_text(name: str) -> str:
    try:
        return BUILTIN_SPECS[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise KeyError(f"unknown builtin {name!r} (known: {known})") from None


@cache
def builtin_spec(name: str) -> Specification:
    """The builtin's specification, parsed once per process and shared:
    specifications are immutable."""
    return parse_spec(builtin_text(name))
