"""Golden output: one digest over what the library prints for the builtins.

The digest covers, for every builtin x side x direction x track
juxtaposition, each builtin's complement, reverse and inline_seq, and the
``inc|core|inc`` and ``dec|core|inc|dec`` grids of each builtin: the
rendered DSL text, the tracking table, the classification and the first
ten coefficients, or the type and text of the refusal.  A change that is
meant to alter any of these outputs updates ``GOLDEN`` and says so.
"""

import hashlib

from juxtaspec.builtins import builtin_names, builtin_spec
from juxtaspec.dsl import render_spec
from juxtaspec.expr import SpecError
from juxtaspec.juxtapose import TRACK_MODES, build_grid, juxtapose
from juxtaspec.operators import complement, reverse
from juxtaspec.series import count_series
from juxtaspec.spec import classify, inline_seq

GOLDEN = "9cc47ff215334be44e5fb570866e59cdde46f692fe215487e071db24f133febd"


def _describe(build, *args) -> str:
    try:
        spec = build(*args)
        tracking = " ".join(
            f"{name}:{int(kind.has_r)}{int(kind.has_l)}" for name, kind in spec.tracking.items()
        )
        return "\n".join((
            render_spec(spec),
            tracking,
            classify(spec).label,
            " ".join(map(str, count_series(spec, 10))),
        ))
    except SpecError as exc:
        return f"{type(exc).__name__}: {exc}"


def _cases():
    for name in builtin_names():
        spec = builtin_spec(name)
        for side in ("left", "right"):
            for direction in ("inc", "dec"):
                for track in TRACK_MODES:
                    yield f"{name} {side} {direction} {track}", juxtapose, spec, side, direction, track
        for op in (complement, reverse, inline_seq):
            yield f"{name} {op.__name__}", op, spec
        for pattern in ("inc|core|inc", "dec|core|inc|dec"):
            yield f"{name} {pattern}", build_grid, spec, pattern


def golden_digest() -> str:
    digest = hashlib.sha256()
    for label, *case in _cases():
        digest.update(f"== {label}\n{_describe(*case)}\n".encode())
    return digest.hexdigest()


def test_outputs_match_golden_digest():
    assert golden_digest() == GOLDEN
