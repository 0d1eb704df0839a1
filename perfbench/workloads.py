"""The four benchmark workloads: which sessions each one runs, and why.

A session is what one user does with one specification: build it, write it
to a file and read it back, classify it, enumerate it and verify it against
the brute-force oracle.  The workloads differ only in their inputs, chosen
so that each one loads different layers of juxtaspec.
"""

from __future__ import annotations

from dataclasses import dataclass

# Avoidance basis of each built-in core, in the `verify --cells` syntax.
BASES = {"av312": "312", "av321": "321", "monotone": "21", "separable": "2413,3142"}


@dataclass(frozen=True)
class Session:
    core: str
    build: tuple  # ("grid", pattern) or ("juxtapose", side, direction, track)
    order: int  # terms enumerated
    max_len: int  # largest size verified against the oracle

    @property
    def key(self) -> str:
        return f"{self.core}:{'/'.join(self.build[1:])}"

    @property
    def cells(self) -> str:
        basis = f"basis:{BASES[self.core]}"
        if self.build[0] == "grid":
            return " | ".join(basis if c == "core" else c for c in self.build[1].split("|"))
        _, side, direction, _ = self.build
        return f"{basis} | {direction}" if side == "right" else f"{direction} | {basis}"


@dataclass(frozen=True)
class Workload:
    why: str
    sessions: tuple
    via_cli: bool = False  # every job is a `juxtaspec` command run in-process


def _catalog() -> tuple:
    return tuple(
        Session(core, ("juxtapose", side, direction, track), 20, 6)
        for core in sorted(BASES)
        for side in ("left", "right")
        for direction in ("inc", "dec")
        for track in ("none", "right", "both")
    )


def _grids() -> tuple:
    sessions = []
    for core, wide in (("monotone", "inc|dec|core|inc"), ("av321", "inc|core|inc|dec")):
        for pattern in ("inc|core|inc", "dec|core|inc"):
            sessions.append(Session(core, ("grid", pattern), 12, 6))
        sessions.append(Session(core, ("grid", wide), 12, 5))
    for core in ("separable", "av312"):
        sessions.append(Session(core, ("grid", "core|inc|dec"), 12, 6))
    return tuple(sessions)


WORKLOADS = {
    "catalog": Workload(
        "48 small CLI requests (4 builtins x side x direction x track), 16 refused: "
        "per-call cost, argparse, file I/O and the refusal path dominate",
        _catalog(),
        via_cli=True,
    ),
    "grids": Workload(
        "3- and 4-cell one-row grids: expression trees blow up, so operators, "
        "symmetries, make_spec and parsing dominate and the oracle barely runs",
        _grids(),
    ),
    "deep-series": Workload(
        "right/inc juxtapositions enumerated to order 40-80: big-integer "
        "truncated products dominate, builds take milliseconds",
        (
            Session("av321", ("juxtapose", "right", "inc", "right"), 40, 6),
            Session("separable", ("juxtapose", "right", "inc", "right"), 60, 6),
            Session("av312", ("juxtapose", "right", "inc", "right"), 60, 6),
            Session("monotone", ("juxtapose", "right", "inc", "both"), 80, 6),
        ),
    ),
    "oracle": Workload(
        "verification of 2-cell rows to n=8 and 3-cell rows to n=7: "
        "count_class is nearly all of the time",
        (
            Session("av321", ("grid", "core|inc"), 12, 8),
            Session("separable", ("grid", "core|inc"), 12, 8),
            Session("av321", ("grid", "inc|core|dec"), 12, 7),
            Session("monotone", ("grid", "inc|core|inc"), 12, 7),
        ),
    ),
}
