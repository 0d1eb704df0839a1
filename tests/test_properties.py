"""Property tests over random specifications (tests/helpers.py), mutated
DSL lines for the reader, and random cell rows for the oracle."""

import functools
from itertools import permutations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from juxtaspec.builtins import builtin_names, builtin_spec  # noqa: E402
from juxtaspec.dsl import parse_spec, render_spec  # noqa: E402
from juxtaspec.expr import SpecError  # noqa: E402
from juxtaspec.juxtapose import build_grid, juxtapose  # noqa: E402
from juxtaspec.operators import complement, forget_left, reverse  # noqa: E402
from juxtaspec.oracle import DEC, INC, Basis, class_counts, count_class, juxt_membership  # noqa: E402
from juxtaspec.series import count_series, productivity_check  # noqa: E402
from juxtaspec.spec import make_spec  # noqa: E402
from helpers import (  # noqa: E402
    assert_closed,
    closed_outputs,
    juxtapose_outcome,
    marker_totals,
    random_markerless_spec,
    random_recursive_spec,
    reference_parse_spec,
    reference_tokens,
    sandwich_juxtapose,
    under_tracked_root,
)


@given(st.randoms(use_true_random=False), st.booleans())
def test_series_property_on_random_specs(rng, recursive):
    """On random specifications productivity_check accepts, count_series
    succeeds, equals the marker_series totals and does not change under
    complement and reverse."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    assume(productivity_check(spec).ok)
    series = count_series(spec, 8)
    assert series == marker_totals(spec, 8)
    assert count_series(complement(spec), 8) == series
    assert count_series(reverse(spec), 8) == series


@given(st.randoms(use_true_random=False), st.booleans())
def test_symmetries_keep_inferred_tracking_on_random_specs(rng, recursive):
    """complement, reverse and forget_left return what
    make_spec infers from their equations, tracking included."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    for source in (spec, under_tracked_root(spec)):
        for symmetry in (complement, reverse, forget_left):
            out = symmetry(source)
            again = make_spec(out.equations, root=out.root)
            assert out == again
            assert out.tracking == again.tracking


@given(
    st.randoms(use_true_random=False),
    st.booleans(),
    st.sampled_from(["left", "right"]),
    st.sampled_from(["inc", "dec"]),
    st.sampled_from(["none", "right", "both"]),
)
def test_juxtapose_matches_the_symmetry_sandwich_on_random_specs(rng, recursive, side, direction, mode):
    """Each juxtaposition step, built directly in the caller's orientation,
    equals the right/increasing step between two symmetry rewrites."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    spec = under_tracked_root(spec)
    want = juxtapose_outcome(sandwich_juxtapose, spec, side, direction, mode)
    assert juxtapose_outcome(juxtapose, spec, side, direction, mode) == want


@given(st.randoms(use_true_random=False), st.booleans())
def test_closing_pass_agrees_with_make_spec_on_random_specs(rng, recursive):
    """The readers, inline_seq, expand and juxtapose return what make_spec
    infers from their equations, with every equal subexpression one object."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    tracked = under_tracked_root(spec)
    for source in (spec, tracked):
        for out in closed_outputs(source):
            assert_closed(out)
    for side in ("left", "right"):
        for direction in ("inc", "dec"):
            for track in ("none", "right", "both"):
                try:
                    out = juxtapose(tracked, side, direction, track)
                except SpecError:
                    continue
                assert_closed(out)


@functools.cache
def _rendered_texts():
    """Rendered builtins, a juxtaposition and two grids, and the monotone
    builtin written with tabs, comments and blank lines."""
    specs = [builtin_spec(name) for name in builtin_names()]
    specs.append(juxtapose(builtin_spec("av321"), "right", "inc", "both"))
    specs.append(build_grid(builtin_spec("monotone"), "inc|core|inc"))
    specs.append(build_grid(builtin_spec("separable"), "core|inc"))
    texts = [render_spec(spec) for spec in specs]
    return texts + ["# monotone\n\n\tM\t=ZLR+ZL Seq( Z )ZR  # one run\n"]


_CHARACTERS = " \t()+=#ZRLESeq.3_?\u00e9"
_TOKENS = ("(", ")", "+", "=", "#", "Z", "ZR", "ZL", "ZLR", "E", "Seq", "SZ", "C", "C.R", "?", "3")


def _read(parse, text):
    try:
        spec = parse(text)
    except SpecError as exc:
        return type(exc).__name__, str(exc)
    return spec.root, spec.equations, spec.tracking


@given(st.data())
def test_reader_agrees_with_reference_on_mutated_lines(data):
    """A rendered line with one character or one token inserted, deleted or
    replaced: parse_spec returns the specification the reference reader
    returns, or raises the same error with the same text."""
    lines = data.draw(st.sampled_from(_rendered_texts())).splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    if data.draw(st.booleans()):  # a character
        spans, pieces = [(i, i + 1) for i in range(len(line))], _CHARACTERS
    else:  # a token
        spans = [(col - 1, col - 1 + len(text)) for _, text, col in reference_tokens(line, at + 1)]
        pieces = _TOKENS
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"] if spans else ["insert"]))
    if edit == "insert":
        cut = data.draw(st.sampled_from([start for start, _ in spans] + [len(line)]))
        start = end = cut
    else:
        start, end = data.draw(st.sampled_from(spans))
    piece = "" if edit == "delete" else data.draw(st.sampled_from(pieces))
    lines[at] = line[:start] + piece + line[end:]
    text = "\n".join(lines) + "\n"
    assert _read(parse_spec, text) == _read(reference_parse_spec, text)


patterns = st.integers(1, 4).flatmap(lambda k: st.permutations(range(1, k + 1)).map(tuple))
cells = st.one_of(
    st.sampled_from([INC, DEC]),
    st.lists(patterns, min_size=1, max_size=2).map(lambda ps: Basis(tuple(ps))),
)


@given(st.lists(cells, min_size=1, max_size=3), st.integers(0, 6))
def test_count_class_property_on_random_rows(row, n):
    """The generating-tree counts equal exhaustive juxt_membership counting,
    at every size up to n in one walk."""
    members = [
        sum(juxt_membership(p, row) for p in permutations(range(1, m + 1)))
        for m in range(n + 1)
    ]
    assert class_counts(row, n) == members
    assert count_class(row, n) == members[n]
