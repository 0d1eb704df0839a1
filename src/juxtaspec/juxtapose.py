"""Juxtaposition of a specified class with monotone classes, and k x 1 grids.

A permutation lies in the juxtaposition C|D when it splits at some position
into a prefix patterned in C (or empty) and a suffix patterned in D (or
empty).  Given a specification for C that tracks its rightmost entry, the
right juxtaposition with the increasing class is the class C with increasing
runs of new entries inserted into its value gaps, at least one of them below
the rightmost entry of C; that is exactly what the insertion operators
produce.  The other three side/direction combinations reduce to this one by
the complement and reverse symmetries.
"""

from __future__ import annotations

from typing import Sequence, Union

from .expr import AtomRef, ClassRef, Product, Sum, Z, ZL, ZLR, ZR, E_EXPR, SpecError, rewrite
from .operators import (
    _expand_equations,
    complement,
    complement_reverse,
    forget_left,
    reverse,
)
from .spec import (
    Equation,
    Specification,
    SZ_NAME,
    _close,
    classify,
    inline_seq,
)

TRACK_RIGHT = "right"
TRACK_BOTH = "both"
TRACK_NONE = "none"
TRACK_MODES = (TRACK_RIGHT, TRACK_BOTH, TRACK_NONE)

SIDE_LEFT = "left"
SIDE_RIGHT = "right"
DIR_INC = "inc"
DIR_DEC = "dec"


def _sz() -> ClassRef:
    return ClassRef(SZ_NAME)


def juxtapose_right_inc(spec: Specification, track_mode: str = TRACK_RIGHT) -> Specification:
    """Specification for the class juxtaposed with Av(21) on the right.

    The root equation covers, in order: the empty permutation; a purely
    monotone permutation; insertions with exactly one new entry; insertions
    whose new entries all sit in gaps of the old class; and insertions with
    new entries in the top gap, whose topmost one is the new rightmost
    entry.

    track_mode selects what the output keeps for further juxtapositions:
    "right" tracks the new rightmost entry (leftmost markers of the input
    are erased first), "both" additionally keeps the input's leftmost
    tracking, and "none" uses the reduced two-term form, keeping leftmost
    tracking only when the input has it.
    """
    if track_mode not in TRACK_MODES:
        raise SpecError(f"unknown track mode {track_mode!r}")
    kind = spec.root_tracking()
    if not kind.has_r:
        raise SpecError(
            f"root {spec.root!r} does not track its rightmost entry; cannot juxtapose on the right"
        )
    if track_mode == TRACK_BOTH and not kind.has_l:
        raise SpecError(
            f"root {spec.root!r} does not track its leftmost entry; track mode 'both' unavailable"
        )
    if classify(spec).regular:
        # run classes must appear as Seq nodes, not as SZ references, for the
        # operators to use the sequence rules; that keeps regular inputs
        # yielding regular outputs.  A context-free input keeps SZ as a plain
        # symbol, whose expansion stays Seq-free.
        spec = inline_seq(spec)
    if track_mode == TRACK_RIGHT and kind.has_l:
        spec = forget_left(spec)

    root = spec.root
    new_root = f"{root}.jux"
    if track_mode == TRACK_NONE:
        monotone_head = AtomRef(ZL) if kind.has_l else AtomRef(Z)
        master = Sum((
            E_EXPR,
            Product((monotone_head, _sz())),
            Product((ClassRef(f"{root}.io"), _sz())),
        ))
        needed = [(root, "io")]
    else:
        lead = [E_EXPR]
        if track_mode == TRACK_BOTH:
            lead.append(AtomRef(ZLR))
            lead.append(Product((AtomRef(ZL), _sz(), AtomRef(ZR))))
        else:
            lead.append(Product((_sz(), AtomRef(ZR))))
        master = Sum(tuple(lead) + (
            ClassRef(f"{root}.i"),
            ClassRef(f"{root}.ii"),
            Product((ClassRef(f"{root}.io"), _sz(), AtomRef(ZR))),
        ))
        needed = [(root, "i"), (root, "ii"), (root, "io")]

    # the whole step is built into one table and closed in one pass
    table = {}
    eqs = [Equation(new_root, rewrite([master], table=table)[0])]
    out = _close(eqs + _expand_equations(spec, needed, table), new_root, table, prune=True)

    got = out.root_tracking()
    want_r = track_mode != TRACK_NONE
    want_l = kind.has_l if track_mode in (TRACK_BOTH, TRACK_NONE) else False
    if (got.has_r, got.has_l) != (want_r, want_l):
        raise SpecError("juxtaposition produced unexpected tracking")
    return out


def juxtapose(
    spec: Specification,
    side: str,
    direction: str,
    track_mode: str = TRACK_NONE,
) -> Specification:
    """Juxtapose with a monotone class on either side.

    The three non-base combinations reduce to the right/increasing build
    through the symmetries: complement for a decreasing side, reverse (plus
    complement) for the left side.  A right juxtaposition needs rightmost
    tracking of the input; a left one needs leftmost tracking.
    """
    if side not in (SIDE_LEFT, SIDE_RIGHT):
        raise SpecError(f"unknown side {side!r}")
    if direction not in (DIR_INC, DIR_DEC):
        raise SpecError(f"unknown direction {direction!r}")
    kind = spec.root_tracking()
    if side == SIDE_RIGHT and not kind.has_r:
        raise SpecError(
            f"root {spec.root!r} does not track its rightmost entry; cannot juxtapose on the right"
        )
    if side == SIDE_LEFT and not kind.has_l:
        raise SpecError(
            f"root {spec.root!r} does not track its leftmost entry; cannot juxtapose on the left"
        )

    if side == SIDE_RIGHT:
        if direction == DIR_INC:
            return juxtapose_right_inc(spec, track_mode)
        return complement(juxtapose_right_inc(complement(spec), track_mode))
    if direction == DIR_INC:
        return complement_reverse(juxtapose_right_inc(complement_reverse(spec), track_mode))
    inner = reverse(spec)
    return reverse(juxtapose_right_inc(inner, track_mode))


CELL_CORE = "core"
CELL_KINDS = (DIR_INC, DIR_DEC, CELL_CORE)


def parse_grid_pattern(pattern: Union[str, Sequence[str]]) -> tuple:
    """Validate a row pattern such as "inc|core|inc": exactly one core cell."""
    if isinstance(pattern, str):
        cells = tuple(part.strip() for part in pattern.split("|"))
    else:
        cells = tuple(pattern)
    if not cells:
        raise SpecError("empty grid pattern")
    for cell in cells:
        if cell not in CELL_KINDS:
            raise SpecError(f"unknown grid cell {cell!r} (expected inc, dec or core)")
    if sum(1 for cell in cells if cell == CELL_CORE) != 1:
        raise SpecError("grid pattern must contain exactly one core cell")
    return cells


def build_grid(core: Specification, pattern: Union[str, Sequence[str]]) -> Specification:
    """Specification for a one-row grid: monotone cells around one core cell.

    Cells right of the core are juxtaposed first, left to right, then cells
    left of the core, right to left.  Each intermediate step keeps exactly
    the tracking that later steps still need, so the systems stay small; the
    core must track its rightmost entry when cells lie to its right and its
    leftmost entry when cells lie to its left.
    """
    cells = parse_grid_pattern(pattern)
    core_index = cells.index(CELL_CORE)
    steps = [(SIDE_RIGHT, cell) for cell in cells[core_index + 1 :]]
    steps += [(SIDE_LEFT, cell) for cell in reversed(cells[:core_index])]
    if not steps:
        return core

    current = core
    for i, (side, cell) in enumerate(steps):
        remaining = steps[i + 1 :]
        need_r = any(s == SIDE_RIGHT for s, _ in remaining)
        need_l = any(s == SIDE_LEFT for s, _ in remaining)
        if need_r and need_l:
            mode = TRACK_BOTH
        elif (need_r and side == SIDE_RIGHT) or (need_l and side == SIDE_LEFT):
            mode = TRACK_RIGHT
        else:
            # either nothing more is needed, or only the marker the reduced
            # form passes through untouched
            mode = TRACK_NONE
        direction = DIR_INC if cell == DIR_INC else DIR_DEC
        current = juxtapose(current, side, direction, mode)
    return current
