import importlib
import re

import pytest

from juxtaspec.builtins import BUILTIN_BASES, builtin_names, builtin_spec
from juxtaspec.dsl import parse_spec, render_expr
from juxtaspec.expr import SpecError
from juxtaspec.juxtapose import (
    DIR_DEC,
    DIR_INC,
    TRACK_BOTH,
    TRACK_NONE,
    TRACK_RIGHT,
    build_grid,
    juxtapose,
    parse_grid_pattern,
)
from juxtaspec.operators import complement, reverse
from juxtaspec.oracle import Basis, DEC, INC, class_counts, count_class, parse_cells
from juxtaspec.series import count_series
from juxtaspec.spec import classify, inline_seq
from helpers import juxtapose_outcome, library_specs, sandwich_juxtapose

B321 = Basis(((3, 2, 1),))


def test_master_equation_right_only():
    spec = builtin_spec("separable")
    out = juxtapose(spec, "right", "inc", TRACK_RIGHT)
    assert out.root == "Full.jux"
    assert render_expr(out.rhs(out.root)) == (
        "E + SZ ZR + Full.i + Full.ii + Full.io SZ ZR"
    )
    kind = out.root_tracking()
    assert (kind.has_r, kind.has_l) == (True, False)


def test_master_equation_both():
    spec = builtin_spec("monotone")
    out = juxtapose(spec, "right", "inc", TRACK_BOTH)
    assert render_expr(out.rhs(out.root)) == (
        "E + ZLR + ZL SZ ZR + Full.i + Full.ii + Full.io SZ ZR"
    )
    kind = out.root_tracking()
    assert (kind.has_r, kind.has_l) == (True, True)


def test_master_equation_reduced():
    spec = builtin_spec("monotone")
    out = juxtapose(spec, "right", "inc", TRACK_NONE)
    assert render_expr(out.rhs(out.root)) == "E + ZL SZ + Full.io SZ"
    kind = out.root_tracking()
    assert (kind.has_r, kind.has_l) == (False, True)
    # an input without leftmost tracking gets the fully erased form
    out2 = juxtapose(builtin_spec("separable"), "right", "inc", TRACK_NONE)
    assert render_expr(out2.rhs(out2.root)) == "E + Z SZ + Full.io SZ"


def test_all_track_modes_agree_on_series():
    spec = builtin_spec("av321")
    series = [
        count_series(juxtapose(spec, "right", "inc", mode), 8)
        for mode in (TRACK_RIGHT, TRACK_BOTH, TRACK_NONE)
    ]
    assert series[0] == series[1] == series[2]


def test_monotone_juxtaposition_series():
    out = juxtapose(builtin_spec("monotone"), "right", "inc", TRACK_NONE)
    assert count_series(out, 10) == [1] + [2**n - n for n in range(1, 11)]


def test_bare_monotone_line_juxtaposition():
    # the same construction works on the one-line spec without a wrapper root
    spec = parse_spec("M = ZLR + ZL Seq(Z) ZR\n")
    out = juxtapose(spec, "right", "inc", TRACK_NONE)
    assert out.root == "M.jux"
    assert count_series(out, 10) == [1] + [2**n - n for n in range(1, 11)]


def test_left_side_track_modes():
    spec = builtin_spec("av321")
    oracle = [count_class([INC, B321], n) for n in range(7)]
    for mode in (TRACK_RIGHT, TRACK_BOTH, TRACK_NONE):
        out = juxtapose(spec, "left", "inc", mode)
        assert count_series(out, 6) == oracle, mode
    kind = juxtapose(spec, "left", "inc", TRACK_RIGHT).root_tracking()
    assert (kind.has_r, kind.has_l) == (False, True)
    kind = juxtapose(spec, "left", "inc", TRACK_BOTH).root_tracking()
    assert (kind.has_r, kind.has_l) == (True, True)


def test_no_double_counting_small_sizes():
    # master-equation sanity at tiny sizes for every built-in core
    for name in builtin_names():
        spec = builtin_spec(name)
        out = juxtapose(spec, "right", "inc", TRACK_NONE)
        series = count_series(out, 3)
        oracle = [count_class([BUILTIN_BASES[name], INC], n) for n in range(4)]
        assert series == oracle, name


def test_right_inc_matches_oracle():
    out = juxtapose(builtin_spec("av321"), "right", "inc", TRACK_RIGHT)
    assert count_series(out, 7) == [count_class([B321, INC], n) for n in range(8)]


def test_missing_right_tracking_rejected():
    spec = parse_spec("A = Z + A Z\n")
    with pytest.raises(SpecError, match="rightmost"):
        juxtapose(spec, "right", "inc", TRACK_NONE)


def test_both_mode_needs_left_tracking():
    with pytest.raises(SpecError, match="leftmost"):
        juxtapose(builtin_spec("separable"), "right", "inc", TRACK_BOTH)


def test_left_side_needs_left_tracking():
    with pytest.raises(SpecError, match="leftmost"):
        juxtapose(builtin_spec("separable"), "left", "inc", TRACK_BOTH)
    with pytest.raises(SpecError, match="leftmost"):
        juxtapose(builtin_spec("av312"), "left", "inc", TRACK_NONE)


@pytest.mark.parametrize("side, direction", [
    ("right", "inc"), ("right", "dec"), ("left", "inc"), ("left", "dec"),
])
def test_refusals_name_the_callers_markers(side, direction):
    # one root tracks only its rightmost entry, the other only its leftmost
    near = parse_spec("A = ZR + Z A\n" if side == "right" else "A = ZL + ZL Seq(Z)\n")
    far = parse_spec("A = ZL + ZL Seq(Z)\n" if side == "right" else "A = ZR + Z A\n")
    near_marker, far_marker = ("rightmost", "leftmost") if side == "right" else ("leftmost", "rightmost")
    with pytest.raises(SpecError) as refused:
        juxtapose(near, side, direction, TRACK_BOTH)
    assert str(refused.value) == (
        f"root 'A' does not track its {far_marker} entry; track mode 'both' unavailable"
    )
    with pytest.raises(SpecError) as refused:
        juxtapose(far, side, direction, TRACK_NONE)
    assert str(refused.value) == (
        f"root 'A' does not track its {near_marker} entry; cannot juxtapose on the {side}"
    )


def test_library_juxtapositions_match_the_symmetry_sandwich():
    """Each juxtaposition step, built directly in the caller's orientation,
    equals the right/increasing step between two symmetry rewrites: same
    DSL text and tracking, refused in the same cases."""
    for spec in library_specs():
        for side in ("left", "right"):
            for direction in ("inc", "dec"):
                for mode in (TRACK_NONE, TRACK_RIGHT, TRACK_BOTH):
                    want = juxtapose_outcome(sandwich_juxtapose, spec, side, direction, mode)
                    got = juxtapose_outcome(juxtapose, spec, side, direction, mode)
                    assert got == want, (spec.root, side, direction, mode)


def test_unknown_track_mode_refused_before_tracking():
    # the root tracks no rightmost entry, but the mode is refused first
    spec = parse_spec("A = Z + Z A\n")
    with pytest.raises(SpecError) as refused:
        juxtapose(spec, "right", "inc", "bogus")
    assert str(refused.value) == "unknown track mode 'bogus'"


def test_bad_arguments_rejected():
    spec = builtin_spec("monotone")
    with pytest.raises(SpecError):
        juxtapose(spec, "top", "inc")
    with pytest.raises(SpecError):
        juxtapose(spec, "left", "up")
    with pytest.raises(SpecError):
        juxtapose(spec, "right", "inc", "everything")


def test_four_way_against_oracle_small():
    spec = builtin_spec("av321")
    cells_by_request = {
        ("right", "inc"): [B321, INC],
        ("right", "dec"): [B321, DEC],
        ("left", "inc"): [INC, B321],
        ("left", "dec"): [DEC, B321],
    }
    for (side, direction), cells in cells_by_request.items():
        out = juxtapose(spec, side, direction, TRACK_NONE)
        series = count_series(out, 6)
        assert series == [count_class(cells, n) for n in range(7)], (side, direction)


def test_every_builtin_juxtaposition_matches_oracle():
    # every built-in core, every side/direction its tracking supports
    for name in builtin_names():
        spec = builtin_spec(name)
        kind = spec.root_tracking()
        base = BUILTIN_BASES[name]
        for side in ("right", "left"):
            if (side == "right" and not kind.has_r) or (side == "left" and not kind.has_l):
                continue
            for direction, mono in (("inc", INC), ("dec", DEC)):
                cells = [base, mono] if side == "right" else [mono, base]
                out = juxtapose(spec, side, direction, TRACK_NONE)
                oracle = [count_class(cells, n) for n in range(7)]
                assert count_series(out, 6) == oracle, (name, side, direction)


def test_symmetry_consistency_without_oracle():
    # series of (right, dec) equals series of (right, inc) on the complement
    for name in ("av321", "av312", "separable", "monotone"):
        spec = builtin_spec(name)
        lhs = count_series(juxtapose(spec, "right", "dec", TRACK_NONE), 8)
        rhs = count_series(juxtapose(complement(spec), "right", "inc", TRACK_NONE), 8)
        assert lhs == rhs, name


def test_iterability_of_both_mode():
    spec = builtin_spec("av321")
    once = juxtapose(spec, "right", "inc", TRACK_BOTH)
    kind = once.root_tracking()
    assert (kind.has_r, kind.has_l) == (True, True)
    twice = juxtapose(once, "left", "dec", TRACK_NONE)
    oracle = [count_class([DEC, B321, INC], n) for n in range(7)]
    assert count_series(twice, 6) == oracle


def test_classification_preserved():
    mono_out = juxtapose(builtin_spec("monotone"), "right", "inc", TRACK_NONE)
    assert classify(inline_seq(mono_out)).regular
    av_out = juxtapose(builtin_spec("av321"), "right", "inc", TRACK_RIGHT)
    assert classify(av_out).context_free


def test_classification_preserved_under_iteration():
    mono = builtin_spec("monotone")
    stage1 = juxtapose(mono, "right", "inc", TRACK_RIGHT)
    stage2 = juxtapose(stage1, "right", "inc", TRACK_NONE)
    assert classify(inline_seq(stage1)).regular
    assert classify(inline_seq(stage2)).regular
    b21 = Basis(((2, 1),))
    oracle = [count_class([b21, INC, INC], n) for n in range(7)]
    assert count_series(stage2, 6) == oracle

    av = builtin_spec("av321")
    once = juxtapose(av, "right", "inc", TRACK_BOTH)
    twice = juxtapose(once, "left", "dec", TRACK_NONE)
    assert classify(once).context_free
    assert classify(twice).context_free


def test_parse_grid_pattern():
    assert parse_grid_pattern("inc|core|inc") == ("inc", "core", "inc")
    assert parse_grid_pattern(" dec | core ") == ("dec", "core")
    with pytest.raises(SpecError, match="exactly one core"):
        parse_grid_pattern("core|core")
    with pytest.raises(SpecError, match="exactly one core"):
        parse_grid_pattern("inc|dec")
    with pytest.raises(SpecError, match="unknown grid cell"):
        parse_grid_pattern("inc|core|up")


def test_grid_single_core_is_identity():
    spec = builtin_spec("av321")
    assert build_grid(spec, "core") is spec


@pytest.mark.parametrize("core, pattern, entry, side", [
    ("separable", "inc|core|inc", "leftmost", "left"),
    ("separable", "dec|core", "leftmost", "left"),
    ("reversed separable", "core|inc", "rightmost", "right"),
    ("reversed separable", "dec|core|inc|dec", "rightmost", "right"),
])
def test_grid_refuses_an_unreachable_pattern_before_any_step(monkeypatch, core, pattern, entry, side):
    spec = builtin_spec("separable")
    if core.startswith("reversed"):
        spec = reverse(spec)
    module = importlib.import_module("juxtaspec.juxtapose")
    steps = []
    monkeypatch.setattr(module, "juxtapose", lambda *args: steps.append(args))
    message = f"core root 'Full' does not track its {entry} entry; cannot place cells on its {side}"
    with pytest.raises(SpecError, match=re.escape(message)):
        build_grid(spec, pattern)
    assert steps == []


def test_grid_right_only_with_right_tracked_core():
    out = build_grid(builtin_spec("separable"), "core|inc")
    assert count_series(out, 6) == [1, 1, 2, 6, 24, 115, 609]


def test_grid_two_right_cells():
    out = build_grid(builtin_spec("separable"), "core|inc|inc")
    sep = Basis(((2, 4, 1, 3), (3, 1, 4, 2)))
    oracle = [count_class([sep, INC, INC], n) for n in range(7)]
    assert count_series(out, 6) == oracle


def test_grid_mixed_directions():
    out = build_grid(builtin_spec("av321"), "dec|core|inc")
    oracle = [count_class([DEC, B321, INC], n) for n in range(7)]
    assert count_series(out, 6) == oracle


def test_grid_triple_monotone_small():
    out = build_grid(builtin_spec("monotone"), "inc|core|inc")
    b21 = Basis(((2, 1),))
    oracle = [count_class([INC, b21, INC], n) for n in range(7)]
    assert count_series(out, 6) == oracle


@pytest.mark.parametrize("name, max_n", [("monotone", 9), ("av321", 8)])
def test_five_cell_grid_matches_oracle(name, max_n):
    pattern = "inc|dec|core|inc|dec"
    out = build_grid(builtin_spec(name), pattern)
    cells = [BUILTIN_BASES[name] if cell == "core" else cell for cell in pattern.split("|")]
    assert count_series(out, max_n) == class_counts(cells, max_n)


def test_six_cell_monotone_grid_matches_oracle():
    out = build_grid(builtin_spec("monotone"), "inc|dec|core|inc|dec|inc")
    want = class_counts(parse_cells("inc|dec|basis:21|inc|dec|inc"), 9)
    assert want == [1, 1, 2, 6, 24, 120, 720, 4871, 34580, 245917]
    assert count_series(out, 9) == want


@pytest.mark.parametrize("name, pattern", [
    ("av321", "inc|core|inc|dec"),
    ("av321", "dec|inc|core|inc"),
    ("monotone", "inc|dec|core|inc"),
    ("monotone", "inc|dec|core|inc|dec"),
])
def test_grid_symmetry_identities(name, pattern):
    """Reversing a row reverses its cells and turns each monotone cell over;
    complementing it turns them over in place.  So the grid of a core's
    reverse (complement) over the reversed (turned) row counts alike."""
    core = builtin_spec(name)
    turned = [{DIR_INC: DIR_DEC, DIR_DEC: DIR_INC}.get(cell, cell) for cell in pattern.split("|")]
    series = count_series(build_grid(core, pattern), 10)
    assert count_series(build_grid(reverse(core), turned[::-1]), 10) == series
    assert count_series(build_grid(complement(core), turned), 10) == series
