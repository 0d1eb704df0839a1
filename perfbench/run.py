"""Benchmark juxtaspec end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload grids --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs one job at a time in a closed loop.  A pass runs every
session of the workload once, in an order shuffled from --seed; passes
repeat until the next one would overrun --seconds (at least one runs).
Every output is checked against perfbench/reference.json.  The last line of
standard output is a JSON object with the metrics that BENCHMARK.json names;
the full result goes to .perfbench/results/ for perfbench/compare.py.
With --workload all each workload runs in a fresh process of its own.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from spans import BINDINGS, Tracer  # noqa: E402
from speed import REFERENCE_S, calibrate  # noqa: E402
from workloads import BASES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
CALIBRATE_EVERY_S = 0.5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Run in a fresh interpreter: import juxtaspec and parse the builtins, then
# calibrate; prints both times.
SETUP_PROBE = """
import sys
from time import perf_counter
start = perf_counter()
sys.path[:0] = sys.argv[1:3]
import juxtaspec, juxtaspec.builtins
for name in sys.argv[3:]:
    juxtaspec.builtins.builtin_spec(name)
setup = perf_counter() - start
from speed import calibrate
print(setup, calibrate())
"""


class Library:
    """The juxtaspec modules, imported from this checkout's src/."""

    def __init__(self):
        if not (SRC / "juxtaspec" / "__init__.py").is_file():
            raise SystemExit(f"error: no juxtaspec sources under {SRC}")
        sys.path.insert(0, str(SRC))
        # the package re-exports functions under some module names
        # (juxtaspec.juxtapose), so modules are taken from importlib
        load = importlib.import_module
        builtins = load("juxtaspec.builtins")
        self.cores = {name: builtins.builtin_spec(name) for name in sorted(BASES)}
        if Path(builtins.__file__).resolve().parent != SRC / "juxtaspec":
            raise SystemExit(f"error: imported juxtaspec from {builtins.__file__}, not {SRC}")
        self.cli = load("juxtaspec.cli")
        self.dsl = load("juxtaspec.dsl")
        self.jx = load("juxtaspec.juxtapose")
        self.series = load("juxtaspec.series")
        self.spec = load("juxtaspec.spec")

    def run_cli(self, argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()


def setup_samples(count: int) -> list:
    """(setup seconds, calibration seconds) of `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), *sorted(BASES)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup, calibration = map(float, done.stdout.split())
        samples.append((setup, calibration))
    return samples


def _verify_argv(session, path):
    return ["verify", "--spec", str(path), "--cells", session.cells,
            "--max-len", str(session.max_len)]


def _classify_lines(expected):
    return [f"regular: {'yes' if expected['regular'] else 'no'}",
            f"context-free: {'yes' if expected['context_free'] else 'no'}"]


def cli_jobs(lib, session, path, expected):
    """(kind, call, check) of each `juxtaspec` command of a catalog request."""
    _, side, direction, track = session.build
    build = ["juxtapose", "--builtin", session.core, "--side", side, "--dir", direction,
             "--track", track, "--out", str(path)]
    if expected.get("refused"):
        return [("build", lambda: lib.run_cli(build), lambda r: r[0] == 2)]
    series = ",".join(map(str, expected["series"]))
    return [
        ("build", lambda: lib.run_cli(build), lambda r: r[0] == 0),
        ("enumerate",
         lambda: lib.run_cli(["enumerate", "--spec", str(path), "--terms", str(session.order)]),
         lambda r: r[0] == 0 and r[1].strip() == series),
        ("classify", lambda: lib.run_cli(["classify", "--spec", str(path)]),
         lambda r: r[0] == 0 and r[1].splitlines()[:2] == _classify_lines(expected)),
        ("verify", lambda: lib.run_cli(_verify_argv(session, path)),
         lambda r: r[0] == 0 and r[1].startswith("ok:")),
    ]


def library_jobs(lib, session, path, expected):
    """(kind, call, check) of each step of a session run through the library."""
    state = {}

    def build():
        core = lib.cores[session.core]
        if session.build[0] == "grid":
            state["built"] = lib.jx.build_grid(core, session.build[1])
        else:
            state["built"] = lib.jx.juxtapose(core, *session.build[1:])

    def write_and_read():
        path.write_text(lib.dsl.render_spec(state["built"]), encoding="utf-8")
        state["spec"] = lib.dsl.parse_spec(path.read_text(encoding="utf-8"))

    return [
        ("build", build, lambda r: True),
        ("io", write_and_read, lambda r: True),
        ("classify", lambda: lib.spec.classify(state["spec"]),
         lambda r: (r.regular, r.context_free) == (expected["regular"], expected["context_free"])),
        ("enumerate", lambda: lib.series.count_series(state["spec"], session.order),
         lambda r: list(r) == expected["series"]),
        ("verify", lambda: lib.run_cli(_verify_argv(session, path)),
         lambda r: r[0] == 0 and r[1].startswith("ok:")),
    ]


class Runner:
    def __init__(self, lib, name, reference):
        self.lib = lib
        self.name = name
        self.workload = WORKLOADS[name]
        self.reference = reference
        self.work = OUT / "work" / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.walls = []  # raw wall time of every pass, traced or not
        self.calibrations = []
        self._calibrated = -math.inf

    def _path(self, index):
        return self.work / f"session{index}.txt"

    def run_pass(self, order):
        """Run the sessions in `order`.

        Returns (wall seconds, [(kind, seconds)]).  Between sessions, at
        most every CALIBRATE_EVERY_S, a calibration is added to
        self.calibrations; its time is left out of the wall time.
        """
        make = cli_jobs if self.workload.via_cli else library_jobs
        jobs = []
        gc.collect()
        start = perf_counter()
        paused = 0.0
        for index in order:
            if perf_counter() - self._calibrated >= CALIBRATE_EVERY_S:
                begin = perf_counter()
                self.calibrations.append(calibrate())
                self._calibrated = perf_counter()
                paused += self._calibrated - begin
            session = self.workload.sessions[index]
            expected = self.reference[f"{self.name}:{session.key}"]
            broken = False
            for kind, call, check in make(self.lib, session, self._path(index), expected):
                self.attempted += 1
                ok = False
                if not broken:
                    begin = perf_counter()
                    try:
                        result = call()
                        seconds = perf_counter() - begin
                        ok = check(result)
                    except Exception:  # a traceback is a failed job, not a crash
                        traceback.print_exc(file=sys.stderr)
                if not ok:
                    print(f"FAILED {self.name} {session.key} {kind}", file=sys.stderr)
                    self.failed += 1
                    broken = True
                    seconds = math.inf  # a failed job misses every latency limit
                jobs.append((kind, seconds))
        self.walls.append(perf_counter() - start - paused)
        return self.walls[-1], jobs

    def outputs(self):
        """DSL text of every specification the sessions produced."""
        texts = []
        for index, session in enumerate(self.workload.sessions):
            path = self._path(index)
            if not self.reference[f"{self.name}:{session.key}"].get("refused") and path.exists():
                texts.append(path.read_text(encoding="utf-8"))
        return texts


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9._]*|[()+]")


def ir_nodes(text) -> tuple:
    """(tree nodes, distinct nodes) of the right-hand sides of one DSL text.

    The text is read with the DSL grammar; a node is distinct by its kind
    and children, so a subexpression repeated anywhere in the system counts
    once in the second number.
    """
    table = {}
    tree = 0

    def node(key):
        nonlocal tree
        tree += 1
        return table.setdefault(key, len(table))

    def expr(tokens, i):
        terms = []
        while True:
            factors = []
            while i < len(tokens) and tokens[i] not in ("+", ")"):
                if tokens[i] == "(":
                    child, i = expr(tokens, i + 1)
                elif tokens[i] == "Seq":
                    inner, i = expr(tokens, i + 2)
                    child = node(("seq", inner))
                else:
                    child = node(("leaf", tokens[i]))
                i += 1  # past the name or the closing parenthesis
                factors.append(child)
            terms.append(factors[0] if len(factors) == 1 else node(("product", *factors)))
            if i < len(tokens) and tokens[i] == "+":
                i += 1
            else:
                return (terms[0] if len(terms) == 1 else node(("sum", *terms))), i

    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            expr(_TOKEN.findall(line.split("=", 1)[1]), 0)
    return tree, len(table)


def _m(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def job_tail(latencies) -> dict:
    """Highest listed percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            rank = math.ceil(q / 100 * n)
            return _m(ordered[rank - 1], "s", percentile=q, samples=n)
    return {}


def output_sizes(texts) -> dict:
    return {
        "out_symbols": _m(sum(1 for t in texts for line in t.splitlines() if "=" in line), "count"),
        "out_chars": _m(sum(len(t) for t in texts), "chars"),
    }


def end_to_end(runner, passes, setup) -> dict:
    """Medians over the passes, in seconds scaled to the reference speed."""
    k = REFERENCE_S / statistics.median(runner.calibrations)
    latencies = [s * k for _, jobs in passes for _, s in jobs]
    metrics = {
        "setup_s": _m(statistics.median(t * REFERENCE_S / c for t, c in setup), "s",
                      samples=len(setup)),
        "wall_s": _m(statistics.median(w * k for w, _ in passes), "s", passes=len(passes)),
        "job_p50_s": _m(statistics.median(latencies), "s", samples=len(latencies)),
    }
    tail = job_tail(latencies)
    if tail:
        metrics["job_tail_s"] = tail
    for stage in ("build", "io", "classify", "enumerate", "verify"):
        if any(kind == stage for kind, _ in passes[0][1]):
            totals = [k * sum(s for kind, s in jobs if kind == stage) for _, jobs in passes]
            metrics[f"{stage}_s"] = _m(statistics.median(totals), "s")
    metrics["peak_rss_mb"] = _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["fail_ratio"] = _m(runner.failed / runner.attempted, "ratio")
    metrics.update(output_sizes(runner.outputs()))
    # unscaled, for reading off how long the run really took
    metrics["setup_raw_s"] = _m(statistics.median(t for t, _ in setup), "s")
    metrics["wall_raw_s"] = _m(statistics.median(w for w, _ in passes), "s")
    metrics["calibration_s"] = _m(statistics.median(runner.calibrations), "s",
                                  samples=len(runner.calibrations))
    return metrics


def per_layer(runner, plain, traced) -> dict:
    """Self times (scaled, median over traced passes) and counts of a pass."""
    names = sorted({name for _, _, name in BINDINGS})
    k = REFERENCE_S / statistics.median(runner.calibrations)
    selfs = [tracer.self_times() for _, tracer in traced]
    metrics = {}
    for name in names:
        metrics[f"{name}.self_s"] = _m(statistics.median(
            s.get(name, (0, 0.0))[1] * k for s in selfs), "s")
        metrics[f"{name}.calls"] = _m(selfs[-1].get(name, (0, 0.0))[0], "count")
    for layer in sorted({name.split(".")[0] for name in names}):
        metrics[f"share.{layer}"] = _m(statistics.median(
            sum(v[1] for n, v in s.items() if n.split(".")[0] == layer) / wall
            for s, (wall, _) in zip(selfs, traced)), "ratio")
    metrics["dsl.render_spec.s"] = metrics["dsl.render_spec.self_s"]  # it has no child spans
    last = traced[-1][1]
    for counter in ("series.coeffs", "oracle.perms", "oracle.cut_tuples"):
        metrics[counter] = _m(last.counts.get(counter, 0), "count")
    metrics["dsl.bytes"] = _m(last.counts.get("dsl.bytes", 0), "chars")
    sizes = [ir_nodes(text) for text in runner.outputs()]
    tree, distinct = sum(t for t, _ in sizes), sum(d for _, d in sizes)
    metrics["ir.tree_nodes"] = _m(tree, "count")
    metrics["ir.distinct_nodes"] = _m(distinct, "count")
    metrics["ir.share"] = _m(distinct / tree, "ratio")
    metrics["trace.overhead_s"] = _m(
        k * (statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)), "s")
    return metrics


def measure(runner, seconds, seed, trace):
    """Run passes for `seconds`.

    Returns (metrics, tracer problems, last tracer).
    """
    rng = random.Random(seed)

    def shuffled():
        order = list(range(len(runner.workload.sessions)))
        rng.shuffle(order)
        return order

    if not trace:
        setup = setup_samples(SETUP_SAMPLES)
        deadline = perf_counter() + seconds
        passes = []
        while not passes or perf_counter() + passes[-1][0] <= deadline:
            passes.append(runner.run_pass(shuffled()))
        return end_to_end(runner, passes, setup), [], None

    # untraced and traced passes alternate, so the overhead is measured
    # under the same conditions
    plain, traced, problems = [], [], []
    deadline = perf_counter() + seconds
    while True:
        use_trace = len(traced) < len(plain)
        history = traced if use_trace else plain
        if plain and traced and perf_counter() + history[-1][0] > deadline:
            break
        if use_trace:
            tracer = Tracer()
            with tracer:
                wall, _ = runner.run_pass(shuffled())
            problems += tracer.check(wall)
            traced.append((wall, tracer))
        else:
            plain.append(runner.run_pass(shuffled()))
    return per_layer(runner, plain, traced), problems, traced[-1][1]


def print_table(workload, metrics):
    for name, m in metrics.items():
        extra = "".join(f" {k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"{workload:12s} {name:34s} {m['value']:>16.6g} {m['unit']}{extra}")


def run_one(args) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["outcomes"]
    lib = Library()
    runner = Runner(lib, args.workload, reference)
    metrics, problems, tracer = measure(runner, args.seconds, args.seed, args.trace)
    for problem in problems:
        print(f"trace self-check: {problem}", file=sys.stderr)
    print_table(args.workload, metrics)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    correct = runner.failed == 0 and not problems
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics,
              "pass_walls_raw_s": runner.walls, "calibrations_s": runner.calibrations}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")

    names = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in names},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own; one summary at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="shuffles the session order")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
