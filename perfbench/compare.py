"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS [--trace 1]

Each argument is a .perfbench/results directory written by perfbench/run.py.
One row per (metric, workload): each side's median and quartiles, the
fraction of seed-matched pairs the change wins, and a verdict:

- improved:   the change wins at least 9 of 10 pairs and the medians differ,
              in its favour, by more than the parent's quartile distance;
- worse:      the median is worse by more than the metric's bound (for a
              metric without a bound: the change loses 9 of 10 pairs by more
              than the parent's quartile distance);
- no worse:   within the bound, or every change run at least as good as
              every parent run;
- unresolved: the parent's own spread is wider than the bound, or a metric
              without a bound moved by less than the rule above can tell.

Directions and bounds come from BENCHMARK.json; metrics it does not list are
lower-is-better and have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, trace: int) -> dict:
    """(workload, metric) -> {seed: value} of every result file."""
    out = defaultdict(dict)
    for path in sorted(directory.glob("*-trace*.json")):
        if path.name.endswith("-spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["trace"] != trace:
            continue
        if not record["correct"]:
            print(f"warning: {path} has failed jobs", file=sys.stderr)
        for name, metric in record["metrics"].items():
            out[(record["workload"], name)][record["seed"]] = metric["value"]
    return out


def spread(values) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent: dict, change: dict, lower_better: bool, bound) -> tuple:
    """(win fraction, verdict) under the pairing rule described above."""
    sign = 1 if lower_better else -1
    seeds = sorted(set(parent) & set(change))
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(sorted(parent.values()), sorted(change.values())))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    p_med, p_q1, p_q3 = spread(list(parent.values()))
    c_med = spread(list(change.values()))[0]
    gain = sign * (p_med - c_med)
    iqr = p_q3 - p_q1
    if wins >= 0.9 and gain > iqr:
        return wins, "improved"
    if all(sign * (c - p) <= 0 for c in change.values() for p in parent.values()):
        return wins, "no worse"
    if bound is None:
        return wins, "worse" if losses >= 0.9 and -gain > iqr else "unresolved"
    scale = abs(p_med) or 1.0
    if iqr / scale > bound:
        return wins, "unresolved"
    return wins, "worse" if -gain / scale > bound else "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    parent, change = load(args.parent, args.trace), load(args.change, args.trace)
    print(f"{'metric':30s} {'workload':12s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins':>5s}  verdict")
    worse = 0
    for key in sorted(set(parent) & set(change), key=lambda k: (k[1], k[0])):
        workload, name = key
        meta = declared.get(name, {})
        wins, result = verdict(parent[key], change[key], meta.get("better", "lower") == "lower",
                               meta.get("bound"))
        worse += result == "worse"
        cells = []
        for side in (parent[key], change[key]):
            med, q1, q3 = spread(list(side.values()))
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(side)}")
        print(f"{name:30s} {workload:12s} {cells[0]:>36s} {cells[1]:>36s} {wins:5.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
