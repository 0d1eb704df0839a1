"""Regenerate perfbench/reference.json, the expected outcome of every session.

    python3 perfbench/make_reference.py

The outcomes come from the library at the commit that runs this script, so
each is cross-checked before it is written: every series prefix up to the
oracle's feasible size against the brute-force count_class, and the long
deep-series coefficients against the independent marker_series instrument
of tests/helpers.py.  The benchmark never compares against its own output.
Run it only when the expected outcomes really change.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from helpers import marker_series  # noqa: E402
from juxtaspec.builtins import builtin_spec  # noqa: E402
from juxtaspec.cli import main as cli_main  # noqa: E402
from juxtaspec.expr import SpecError  # noqa: E402
from juxtaspec.juxtapose import build_grid, juxtapose  # noqa: E402
from juxtaspec.oracle import count_class, parse_cells  # noqa: E402
from juxtaspec.series import count_series  # noqa: E402
from juxtaspec.spec import classify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Largest size the oracle checks, by number of cells (a few seconds each).
ORACLE_LIMIT = {2: 8, 3: 7, 4: 6}


def outcome(workload, session) -> dict:
    core = builtin_spec(session.core)
    try:
        if session.build[0] == "grid":
            spec = build_grid(core, session.build[1])
        else:
            spec = juxtapose(core, *session.build[1:])
    except SpecError as exc:
        _, side, direction, track = session.build
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli_main(["juxtapose", "--builtin", session.core, "--side", side,
                             "--dir", direction, "--track", track])
        if code != 2:
            raise RuntimeError(f"{session.key}: refused by the library, CLI exit {code}")
        return {"refused": True, "reason": str(exc)}

    series = count_series(spec, session.order)
    cells = parse_cells(session.cells)
    checked = min(session.order, ORACLE_LIMIT[len(cells)])
    if checked < session.max_len:
        raise RuntimeError(f"{session.key}: verify size {session.max_len} above the checked prefix")
    oracle = [count_class(cells, n) for n in range(checked + 1)]
    if oracle != series[: checked + 1]:
        raise RuntimeError(f"{session.key}: series {series[:checked + 1]} != oracle {oracle}")
    flags = classify(spec)
    result = {"series": series, "regular": flags.regular, "context_free": flags.context_free,
              "verify": "ok", "oracle_checked_to": checked}
    if workload == "deep-series":
        totals = [sum(d.values()) for d in marker_series(spec, session.order, frozenset())]
        if totals != series:
            raise RuntimeError(f"{session.key}: marker_series disagrees")
        result["marker_series_checked_to"] = session.order
    return result


def main() -> int:
    outcomes = {}
    for name, workload in WORKLOADS.items():
        for session in workload.sessions:
            key = f"{name}:{session.key}"
            outcomes[key] = outcome(name, session)
            print(key, "refused" if outcomes[key].get("refused") else "ok", flush=True)
    document = {
        "provenance": (
            "Generated by perfbench/make_reference.py from juxtaspec at the commit that "
            "introduced the benchmark. Every series prefix up to oracle_checked_to equals "
            "count_class; deep-series coefficients equal the totals of marker_series "
            "(tests/helpers.py) up to marker_series_checked_to; refusals were confirmed "
            "as CLI exit code 2. Classification flags are the library's at that commit."
        ),
        "outcomes": outcomes,
    }
    (HERE / "reference.json").write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
