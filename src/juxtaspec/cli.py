"""Command-line front end.

Thin shell over the library: every command reads a specification (from a
DSL file, a JSON file, or a built-in), calls the corresponding library
operation and prints the result.  Exit codes: 0 success, 1 verification
mismatch, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .builtins import builtin_names, builtin_spec, builtin_text
from .dsl import parse_spec, render_spec, spec_from_json, spec_to_json
from .expr import SpecError
from .juxtapose import TRACK_MODES, TRACK_NONE, build_grid, juxtapose
from .oracle import MAX_LENGTH, class_counts, parse_cells
from .operators import complement, reverse
from .series import MAX_TERMS, compare_series, count_series, format_series
from .spec import Specification, classify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class _CliError(Exception):
    pass


def _load_spec(args) -> Specification:
    if getattr(args, "builtin", None):
        return builtin_spec(args.builtin)
    path = getattr(args, "spec", None)
    if not path:
        raise _CliError("one of --spec or --builtin is required")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    if path.endswith(".json"):
        return spec_from_json(text)
    return parse_spec(text)


def _write_spec(spec: Specification, out: Optional[str]) -> None:
    # a path that --spec would read as JSON is written as JSON
    text = spec_to_json(spec) if out and out.endswith(".json") else render_spec(spec)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _add_spec_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--spec", help="path to a DSL (.txt) or JSON (.json) specification")
    group.add_argument("--builtin", choices=builtin_names(), help="use a built-in specification")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: the parser is stateless between calls
    parser = argparse.ArgumentParser(
        prog="juxtaspec",
        description="Transform and enumerate specifications of permutation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="print the counting sequence of a specification")
    _add_spec_source(p)
    p.add_argument("--terms", type=int, default=10,
                   help=f"highest size to count (default 10, at most {MAX_TERMS})")

    p = sub.add_parser("juxtapose", help="juxtapose with monotone classes and print the result")
    _add_spec_source(p)
    p.add_argument("--side", choices=("left", "right"))
    p.add_argument("--dir", choices=("inc", "dec"), dest="direction")
    p.add_argument("--track", choices=TRACK_MODES,
                   help="tracking kept by the output (default none)")
    p.add_argument("--grid", help="row pattern such as 'inc|core|inc' (excludes --side/--dir/--track)")
    p.add_argument("--out", help="write the result to this file, as JSON if it ends in .json")

    for name, help_text in (
        ("complement", "print the specification of the complement class"),
        ("reverse", "print the specification of the reverse class"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_spec_source(p)
        p.add_argument("--out", help="write the result to this file, as JSON if it ends in .json")

    p = sub.add_parser("classify", help="report constructor-restriction flags")
    _add_spec_source(p)

    p = sub.add_parser("verify", help="compare a specification against the oracle's counts")
    _add_spec_source(p)
    p.add_argument("--cells", required=True,
                   help="cell list such as 'basis:2413,3142 | inc'")
    p.add_argument("--max-len", type=int, default=7, dest="max_len",
                   help=f"largest permutation length to check (default 7, at most {MAX_LENGTH})")

    p = sub.add_parser("builtins", help="list built-in specifications")
    p.add_argument("--show", choices=builtin_names(), help="print the DSL text of one built-in")

    return parser


def _cmd_enumerate(args) -> int:
    if args.terms > MAX_TERMS:
        raise _CliError(f"--terms may be at most {MAX_TERMS}")
    if args.terms < 0:
        raise _CliError("--terms must be nonnegative")
    spec = _load_spec(args)
    print(format_series(count_series(spec, args.terms)))
    return EXIT_OK


def _cmd_juxtapose(args) -> int:
    if args.grid and (args.side or args.direction):
        raise _CliError("--grid cannot be combined with --side/--dir")
    if args.grid and args.track:
        # each grid step picks the tracking the later steps need
        raise _CliError("--grid cannot be combined with --track")
    spec = _load_spec(args)
    if args.grid:
        result = build_grid(spec, args.grid)
    else:
        if not args.side or not args.direction:
            raise _CliError("--side and --dir are required without --grid")
        result = juxtapose(spec, args.side, args.direction, args.track or TRACK_NONE)
    _write_spec(result, args.out)
    return EXIT_OK


def _cmd_symmetry(args) -> int:
    symmetry = complement if args.command == "complement" else reverse
    _write_spec(symmetry(_load_spec(args)), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    flags = classify(_load_spec(args))
    print(f"regular: {'yes' if flags.regular else 'no'}")
    print(f"context-free: {'yes' if flags.context_free else 'no'}")
    print(f"classification: {flags.label}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_len > MAX_LENGTH:
        raise _CliError(f"--max-len may be at most {MAX_LENGTH}")
    if args.max_len < 0:
        raise _CliError("--max-len must be nonnegative")
    spec = _load_spec(args)
    try:
        cells = parse_cells(args.cells)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    series = count_series(spec, args.max_len)
    oracle = class_counts(cells, args.max_len)
    verdict = compare_series(series, oracle)
    if verdict.equal:
        print(f"ok: series matches oracle for all sizes up to {args.max_len}")
        return EXIT_OK
    print(
        f"mismatch at size {verdict.index}: "
        f"specification {verdict.left}, oracle {verdict.right}"
    )
    return EXIT_MISMATCH


def _cmd_builtins(args) -> int:
    if args.show:
        sys.stdout.write(builtin_text(args.show))
        return EXIT_OK
    for name in builtin_names():
        print(name)
    return EXIT_OK


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "juxtapose": _cmd_juxtapose,
    "complement": _cmd_symmetry,
    "reverse": _cmd_symmetry,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "builtins": _cmd_builtins,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (_CliError, SpecError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
