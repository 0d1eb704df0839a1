"""Juxtaposition of a specified class with monotone classes, and k x 1 grids.

A permutation lies in the juxtaposition C|D when it splits at some position
into a prefix patterned in C (or empty) and a suffix patterned in D (or
empty).  Given a specification for C that tracks its rightmost entry, the
right juxtaposition with the increasing class is the class C with increasing
runs of new entries inserted into its value gaps, at least one of them below
the rightmost entry of C; that is exactly what the insertion operators
produce.  The other three side/direction combinations are the same
construction seen through the complement and reverse symmetries.
"""

from __future__ import annotations

from typing import Sequence, Union

from .expr import AtomRef, ClassRef, Z, ZL, ZLR, ZR, E_EXPR, SpecError, make_sum
from .operators import _REVERSE_ATOMS, _Insertion, _expand_equations
from .series import _productive_valuations
from .spec import (
    Specification,
    SZ_NAME,
    TrackingError,
    TrackingKind,
    _SZ_REF,
    _close,
    _map_spec,
    _merge_equivalent,
    _tracking_through,
    classify,
)

TRACK_RIGHT = "right"
TRACK_BOTH = "both"
TRACK_NONE = "none"
TRACK_MODES = (TRACK_RIGHT, TRACK_BOTH, TRACK_NONE)

SIDE_LEFT = "left"
SIDE_RIGHT = "right"
DIR_INC = "inc"
DIR_DEC = "dec"

def juxtapose(
    spec: Specification,
    side: str,
    direction: str,
    track_mode: str = TRACK_NONE,
) -> Specification:
    """Juxtapose with a monotone class on either side.

    The input must track its entry on that side.  The step is the right
    juxtaposition with the increasing class, whose root equation covers, in
    order: the empty permutation; a purely monotone permutation; insertions
    with exactly one new entry; insertions whose new entries all sit in gaps
    of the old class; and insertions with new entries in the top gap, whose
    topmost one is the new rightmost entry.  The other sides and directions
    are that step seen through the complement (decreasing right side,
    increasing left side) and reverse (left side) symmetries: it runs on the
    mapped input and builds its output mapped back.  Output symbols that
    define the same class by the same equations are merged, each set keeping
    its first name in equation order.

    track_mode selects what the output keeps for further juxtapositions:
    "right" tracks the new entry on the juxtaposed side (markers of the
    other side are erased first), "both" additionally keeps the input's
    tracking of the other side, and "none" uses the reduced two-term form,
    keeping the other side's tracking only when the input has it.
    """
    if side not in (SIDE_LEFT, SIDE_RIGHT):
        raise SpecError(f"unknown side {side!r}")
    if direction not in (DIR_INC, DIR_DEC):
        raise SpecError(f"unknown direction {direction!r}")
    if track_mode not in TRACK_MODES:
        raise SpecError(f"unknown track mode {track_mode!r}")
    # the root as the right/increasing case sees it: its near side is
    # rightmost, its far side leftmost
    atoms = _REVERSE_ATOMS if side == SIDE_LEFT else {}
    kind = _tracking_through(atoms, spec.root_tracking())
    near, far = ("rightmost", "leftmost") if side == SIDE_RIGHT else ("leftmost", "rightmost")
    if not kind.has_r:
        raise SpecError(
            f"root {spec.root!r} does not track its {near} entry; cannot juxtapose on the {side}"
        )
    if track_mode == TRACK_BOTH and not kind.has_l:
        raise SpecError(
            f"root {spec.root!r} does not track its {far} entry; track mode 'both' unavailable"
        )

    # the input is mapped at most once: into the right/increasing case (atoms
    # and flip are each their own inverse, so they map the output back), with
    # the far side's markers erased when they are not kept, and with SZ as
    # Seq(Z) when it is regular, so that the sequence rules keep it regular
    # (a context-free input keeps SZ, whose expansion stays Seq-free)
    inline = SZ_NAME in spec._by_name and classify(spec).regular
    flip = (side == SIDE_LEFT) == (direction == DIR_INC)
    forget = track_mode == TRACK_RIGHT and kind.has_l
    into = {**atoms, (ZR if side == SIDE_LEFT else ZL): Z, ZLR: ZR} if forget else atoms
    if into or flip or inline:
        spec = _map_spec(spec, into, flip, inline)

    root = spec.root
    new_root = f"{root}.jux"
    # the master equation's terms as leaf tuples; the whole step is built
    # into one table, the master equation first, mapped back by atoms and flip
    sz, zr = _SZ_REF, AtomRef(ZR)
    if track_mode == TRACK_NONE:
        monotone_head = AtomRef(ZL) if kind.has_l else AtomRef(Z)
        master = [(E_EXPR,), (monotone_head, sz), (ClassRef(f"{root}.io"), sz)]
        needed = [(root, "io")]
    else:
        master = [(E_EXPR,)]
        if track_mode == TRACK_BOTH:
            master += [(AtomRef(ZLR),), (AtomRef(ZL), sz, zr)]
        else:
            master.append((sz, zr))
        master += [(ClassRef(f"{root}.i"),), (ClassRef(f"{root}.ii"),),
                   (ClassRef(f"{root}.io"), sz, zr)]
        needed = [(root, "i"), (root, "ii"), (root, "io")]
    images = _Insertion(spec, atoms, flip)
    eqs = [(new_root, make_sum(map(images.product, master), images.table))]
    eqs += _expand_equations(images, needed)
    try:
        out = _close(eqs, new_root, images.table, prune=True)
    except TrackingError:
        # an unproductive input can leave marker counts that no tracking
        # fits; the refusal then names its unproductive symbols
        _productive_valuations(spec)
        raise

    want = TrackingKind(track_mode != TRACK_NONE, kind.has_l and track_mode != TRACK_RIGHT)
    if _tracking_through(atoms, out.root_tracking()) != want:
        raise SpecError("juxtaposition produced unexpected tracking")
    return _merge_equivalent(out)


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
    leftmost entry when cells lie to its left.  No step adds tracking of a
    side before it juxtaposes there, so a core that lacks it is refused
    before the first step.
    """
    cells = parse_grid_pattern(pattern)
    core_index = cells.index(CELL_CORE)
    steps = [(SIDE_RIGHT, cell) for cell in cells[core_index + 1 :]]
    steps += [(SIDE_LEFT, cell) for cell in reversed(cells[:core_index])]
    kind = core.root_tracking()
    for side, tracked, entry in (
        (SIDE_RIGHT, kind.has_r, "rightmost"),
        (SIDE_LEFT, kind.has_l, "leftmost"),
    ):
        if not tracked and any(s == side for s, _ in steps):
            raise SpecError(
                f"core root {core.root!r} does not track its {entry} entry; "
                f"cannot place cells on its {side}"
            )
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
