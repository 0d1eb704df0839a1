"""Property tests over random specifications (tests/helpers.py), mutated
DSL lines for the reader, random cell rows for the oracle and CLI argument
lists."""

import contextlib
import functools
import io
from itertools import permutations, product
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

import juxtaspec.series as series_module  # noqa: E402
import juxtaspec.spec as spec_module  # noqa: E402
from juxtaspec.builtins import builtin_names, builtin_spec, builtin_text  # noqa: E402
from juxtaspec.cli import main as cli_main  # noqa: E402
from juxtaspec.dsl import parse_spec, render_spec, spec_from_dict, spec_to_json  # noqa: E402
from juxtaspec.expr import (  # noqa: E402
    L_ATOMS,
    R_ATOMS,
    ZR,
    AtomRef,
    ClassRef,
    Product,
    Seq,
    SpecError,
    Sum,
    Z_EXPR,
)
from juxtaspec.juxtapose import TRACK_MODES, build_grid, juxtapose  # noqa: E402
from juxtaspec.operators import complement, expand, forget_left, reverse  # noqa: E402
from juxtaspec.oracle import DEC, INC, Basis, class_counts, count_class, juxt_membership  # noqa: E402
from juxtaspec.series import EnumerationError, count_series, productivity_check  # noqa: E402
from juxtaspec.spec import Equation, make_spec  # noqa: E402
from helpers import (  # noqa: E402
    _valuation_step,
    assert_closed,
    closed_outputs,
    is_empty,
    juxtapose_outcome,
    marker_callbacks,
    marker_totals,
    random_expr,
    random_markerless_spec,
    random_recursive_spec,
    reference_check_seq_content,
    reference_count_series,
    reference_fixpoint,
    reference_marker_fixpoint,
    reference_parse_spec,
    reference_tokens,
    reference_valuations,
    sandwich_juxtapose,
    sz_wrapped,
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
def test_series_matches_the_reference_counter_on_sz_wrapped_specs(rng, recursive):
    """Under helpers.sz_wrapped, products meet SZ and Seq(Z) everywhere;
    count_series, with its running sums, equals the reference counter,
    which convolves every product and every Seq."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    spec = sz_wrapped(spec)
    assume(productivity_check(spec).ok)
    assert count_series(spec, 15) == reference_count_series(spec, 15)


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
def test_o_and_oo_images_on_random_specs(rng, recursive):
    """Under a tracked root, the o image of the root counts like the root
    and the oo image like its binomial transform (see test_operators)."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    spec = under_tracked_root(spec)
    try:
        c = count_series(spec, 10)
    except EnumerationError:
        assume(False)
    binomial = [c[0]] + [sum(comb(n - 1, k - 1) * c[k] for k in range(1, n + 1))
                         for n in range(1, 11)]
    assert count_series(expand(spec, [(spec.root, "o")]), 10) == c
    assert count_series(expand(spec, [(spec.root, "oo")]), 10) == binomial


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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpecError as exc:
        return type(exc).__name__, str(exc)


def _step_function(run_pass):
    """The per-step reference callback of a pass the library hands to
    least_fixpoint; a marker count is told by one pass over the step ZR."""
    if run_pass is spec_module._empty_pass:
        return "empty", is_empty
    if run_pass is series_module._valuation_pass:
        return "valuations", _valuation_step
    values = [None]
    run_pass([(AtomRef(ZR), ())], [()], values)
    markers = R_ATOMS if values == [1] else L_ATOMS
    return "marker counts", marker_callbacks(markers)[1]


@contextlib.contextmanager
def _checked_against_references():
    """Inside the block, every per-symbol fixpoint, marker exactness check
    and Seq-content check the library runs is run again by its per-step
    reference in tests/helpers.py, on the same input, and must give the
    same values, passes and refusal text.  Yields the set of what was
    checked."""
    checked = set()
    real_fixpoint = spec_module.least_fixpoint
    real_markers, real_seq = spec_module._marker_fixpoint, spec_module._check_seq_content

    def fixpoint(steps, symbols, run_pass, bottom):
        symbols, passes = list(symbols), []
        name, fn = _step_function(run_pass)

        def counted(*args):
            passes.append(1)
            return run_pass(*args)

        value, values = real_fixpoint(steps, symbols, counted, bottom)
        want = reference_fixpoint(steps, symbols, fn, bottom)
        assert (value, values, len(passes)) == want, name
        checked.add(name)
        return value, values

    def markers(*args):
        got = _outcome(real_markers, *args)
        assert got == _outcome(reference_marker_fixpoint, *args)
        checked.add("tracking")
        return real_markers(*args)

    def seq_content(*args):
        got = _outcome(real_seq, *args)
        assert got == _outcome(reference_check_seq_content, *args)
        checked.add("Seq content")
        return real_seq(*args)

    with pytest.MonkeyPatch.context() as patch:
        for module in (spec_module, series_module):
            patch.setattr(module, "least_fixpoint", fixpoint)
        patch.setattr(spec_module, "_marker_fixpoint", markers)
        patch.setattr(spec_module, "_check_seq_content", seq_content)
        yield checked


def _marked_variants(rng, tracked):
    """Systems over ``tracked`` that put a random symbol and a marked atom
    inside Seq, and random marked equations below its root."""
    z = Z_EXPR
    inside = ClassRef(rng.choice(tracked.symbols))
    yield [Equation("Q", Sum((z, Product((z, Seq(inside)))))), *tracked.equations]
    yield [Equation("Q", Sum((z, Product((z, Seq(Sum((z, AtomRef(ZR))))))))), *tracked.equations]
    names = ["M0", "M1", "M2"]
    marked = [Equation(name, random_expr(rng, names + [tracked.root], 2)) for name in names]
    yield marked + list(tracked.equations)


@given(st.randoms(use_true_random=False), st.booleans())
def test_flat_passes_agree_with_per_step_references(rng, recursive):
    """On a random tracked system, on its 12 juxtapositions and on marked
    variants of it, the closing passes (empty symbols, tracking, every
    TrackingError and Seq-content text) and the valuations (unproductive
    symbols, step values) are what the per-step callbacks give."""
    with _checked_against_references() as checked:
        if recursive:
            spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
        else:
            spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
        tracked = under_tracked_root(spec)
        systems = [tracked]
        for side, direction, mode in product(("left", "right"), ("inc", "dec"), TRACK_MODES):
            try:
                systems.append(juxtapose(tracked, side, direction, mode))
            except SpecError:
                pass
        for eqs in _marked_variants(rng, tracked):
            try:
                systems.append(make_spec(eqs))
            except SpecError:
                pass
        for system in systems:
            assert series_module._valuations(system) == reference_valuations(system)
    assert {"tracking", "marker counts", "valuations"} <= checked


# JSON values made of the words a specification document uses
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2)
    | st.sampled_from(["A", "E", "Z", "ZR", "", "zero", "atom", "ref", "sum", "product", "seq"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "name", "terms", "factors", "arg", "lhs", "rhs", "root", "equations"]),
        inner, max_size=4,
    ),
    max_leaves=12,
)


@given(_json_values)
def test_json_reader_refuses_malformed_documents_by_spec_error(value):
    """A document, or an equation's right-hand side, of any shape is read or
    refused with a SpecError, never another exception."""
    for doc in (value, {"root": "A", "equations": [{"lhs": "A", "rhs": value}]}):
        try:
            spec_from_dict(doc)
        except SpecError:
            pass


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


# The CLI's own vocabulary.  No junk word is a prefix of --spec or --out,
# which argparse would take for them: those two flags only ever name the
# files that _cli_files writes.
_OPTIONS_OF = {
    "enumerate": ("--terms",),
    "juxtapose": ("--side", "--dir", "--track", "--grid", "--out"),
    "complement": ("--out",),
    "reverse": ("--out",),
    "classify": (),
    "verify": ("--cells", "--max-len"),
    "builtins": ("--show",),
}
_JUNK = ("", "-", "--", "-x", "--bogus", "--terms=x", "--help", "core", "basis:", "1.5", "é")
_GRID_CELLS = ("inc", "dec", "core", "basis:21", "?")
_CELLS = ("inc", "dec", "basis:21", "basis:321", "basis:2413,3142", "basis:11", "basis:")


def _cli_files(tmp_path) -> tuple:
    """(a DSL file, a JSON file, a malformed file, a missing file), rewritten
    for each example: --out may have overwritten or created any of them."""
    dsl, js, bad, missing = (tmp_path / name for name in ("s.txt", "s.json", "bad.txt", "no.txt"))
    dsl.write_text(builtin_text("monotone"), encoding="utf-8")
    js.write_text(spec_to_json(builtin_spec("monotone")), encoding="utf-8")
    bad.write_text("A = = Z\n", encoding="utf-8")
    missing.unlink(missing_ok=True)
    return tuple(map(str, (dsl, js, bad, missing)))


@st.composite
def _cli_argv(draw, files):
    """A command (or a junk word), often a specification source, up to three
    options, mostly the command's own, and in a quarter of the lists one
    more word anywhere but after --spec or --out."""
    names = tuple(builtin_names()) + ("none",)
    values = {
        "--spec": st.sampled_from(files),
        "--builtin": st.sampled_from(names),
        "--out": st.sampled_from(files),
        "--terms": st.integers(-3, 30).map(str),
        "--max-len": st.integers(-3, 7).map(str),
        "--side": st.sampled_from(("left", "right", "up")),
        "--dir": st.sampled_from((INC, DEC, "flat")),
        "--track": st.sampled_from(TRACK_MODES + ("left",)),
        "--grid": st.one_of(  # mostly with one core cell, as a grid needs
            st.lists(st.sampled_from(_GRID_CELLS), min_size=1, max_size=3),
            st.tuples(st.lists(st.sampled_from((INC, DEC)), max_size=2), st.integers(0, 2))
            .map(lambda p: p[0][:p[1]] + ["core"] + p[0][p[1]:]),
        ).map("|".join),
        "--cells": st.lists(st.sampled_from(_CELLS), min_size=1, max_size=3).map(" | ".join),
        "--show": st.sampled_from(names),
    }
    command = draw(st.sampled_from(tuple(_OPTIONS_OF) + _JUNK[:3]))
    argv = [command]
    if command != "builtins" and draw(st.integers(0, 3)):
        flag = draw(st.sampled_from(("--spec", "--builtin")))
        argv += (flag, draw(values[flag]))
    own = _OPTIONS_OF.get(command, ())
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(own if own and draw(st.integers(0, 3)) else tuple(values)))
        argv += (flag, draw(values[flag]))
    if not draw(st.integers(0, 3)):
        words = (tuple(_OPTIONS_OF) + tuple(values) + _JUNK + names
                 + ("left", "right", INC, DEC) + TRACK_MODES)
        words = tuple(w for w in words if w not in ("--spec", "--out"))
        # never between --spec or --out and its file
        at = draw(st.sampled_from([i for i in range(len(argv) + 1)
                                   if argv[i - 1:i] not in (["--spec"], ["--out"])]))
        argv.insert(at, draw(st.sampled_from(words)))
    return argv


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_exits_0_1_or_2_on_any_argument_list(tmp_path, data):
    """Argument lists drawn from the CLI's vocabulary: main returns 0, 1 or
    2 and never raises.  Exit 2 explains itself on stderr, by an error line
    or argparse's usage; exit 1 is verify's mismatch verdict, on stdout."""
    argv = data.draw(_cli_argv(_cli_files(tmp_path)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())
    elif code == 1:
        assert argv[0] == "verify" and out.getvalue().startswith("mismatch at size "), argv
