"""Span tracing of juxtaspec from outside the library.

The tracer rebinds each public function at the module attribute its callers
look up (``juxtaspec.juxtapose.complement`` is the name ``juxtapose`` calls,
``juxtaspec.operators.apply_expr`` the one the equation expansion calls) and
puts every binding back when the traced pass ends.  Spans and counts stay in
memory until the pass is over.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter

SYMMETRY = "operators.symmetry"
JUXTAPOSE = "juxtapose"

# (module, attribute, span name).  A function imported into several modules
# is bound once per importing module, so every call site is covered.
# canonicalize is traced only where spec and operators call it, not in its
# own recursion.
BINDINGS = (
    ("juxtaspec.cli", "main", "cli.main"),
    ("juxtaspec.cli", "parse_spec", "dsl.parse_spec"),
    ("juxtaspec.cli", "render_spec", "dsl.render_spec"),
    ("juxtaspec.cli", "juxtapose", JUXTAPOSE),
    ("juxtaspec.cli", "build_grid", JUXTAPOSE),
    ("juxtaspec.cli", "complement", SYMMETRY),
    ("juxtaspec.cli", "reverse", SYMMETRY),
    ("juxtaspec.cli", "classify", "spec.classify"),
    ("juxtaspec.cli", "count_series", "series.count_series"),
    ("juxtaspec.cli", "count_class", "oracle.count_class"),
    ("juxtaspec.builtins", "parse_spec", "dsl.parse_spec"),
    ("juxtaspec.dsl", "parse_spec", "dsl.parse_spec"),
    ("juxtaspec.dsl", "render_spec", "dsl.render_spec"),
    ("juxtaspec.dsl", "make_spec", "spec.make_spec"),
    ("juxtaspec.spec", "make_spec", "spec.make_spec"),
    ("juxtaspec.spec", "classify", "spec.classify"),
    ("juxtaspec.spec", "canonicalize", "expr.canonicalize"),
    ("juxtaspec.operators", "apply_expr", "operators.apply_expr"),
    ("juxtaspec.operators", "canonicalize", "expr.canonicalize"),
    ("juxtaspec.operators", "make_spec", "spec.make_spec"),
    ("juxtaspec.juxtapose", "juxtapose", JUXTAPOSE),
    ("juxtaspec.juxtapose", "juxtapose_right_inc", JUXTAPOSE),
    ("juxtaspec.juxtapose", "build_grid", JUXTAPOSE),
    ("juxtaspec.juxtapose", "complement", SYMMETRY),
    ("juxtaspec.juxtapose", "reverse", SYMMETRY),
    ("juxtaspec.juxtapose", "forget_left", SYMMETRY),
    ("juxtaspec.juxtapose", "classify", "spec.classify"),
    ("juxtaspec.juxtapose", "inline_seq", "spec.inline_seq"),
    ("juxtaspec.juxtapose", "make_spec", "spec.make_spec"),
    ("juxtaspec.series", "count_series", "series.count_series"),
    ("juxtaspec.oracle", "count_class", "oracle.count_class"),
)


def _count_series(counts, args, result):
    spec, order = args[0], args[1]
    counts["series.coeffs"] += (order + 1) * len(spec.equations)


def _count_class(counts, args, result):
    cells, n = args[0], args[1]
    perms = math.factorial(n)
    counts["oracle.perms"] += perms
    counts["oracle.cut_tuples"] += perms * math.comb(n + len(cells) - 1, len(cells) - 1)


def _count_parsed(counts, args, result):
    counts["dsl.bytes"] += len(args[0])


def _count_rendered(counts, args, result):
    counts["dsl.bytes"] += len(result)


# Work counters kept beside the spans, keyed by span name.
COUNTERS = {
    "series.count_series": _count_series,
    "oracle.count_class": _count_class,
    "dsl.parse_spec": _count_parsed,
    "dsl.render_spec": _count_rendered,
}


class Tracer:
    """Records spans (name, start, end, parent) while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # the library no longer calls it from here
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        return False

    def _span_selfs(self) -> list:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - child for (_, start, end, _), child in zip(self.spans, covered)]

    def self_times(self) -> dict:
        """Per span name: (calls, total self seconds)."""
        out = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self._span_selfs()):
            out[span[0]][0] += 1
            out[span[0]][1] += own
        return {name: tuple(v) for name, v in out.items()}

    def check(self, wall: float) -> list:
        """Problems found after a traced pass that took `wall` seconds.

        Every rebound attribute must be the original again.  Self times of
        all spans plus the untraced remainder (wall time outside every root
        span) must add up to the wall time, and no span may have a negative
        self time, which would mean overlapping children.
        """
        problems = [
            f"binding left rebound: {module.__name__}.{attr}"
            for module, attr, original in self._saved
            if getattr(module, attr) is not original
        ]
        selfs = self._span_selfs()
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        remainder = wall - roots
        if abs(sum(selfs) + remainder - wall) > 1e-6 * max(1.0, wall):
            problems.append(f"self times {sum(selfs):.6f}s + remainder {remainder:.6f}s != wall {wall:.6f}s")
        if remainder < 0:
            problems.append(f"root spans exceed the pass wall time by {-remainder:.6f}s")
        if selfs and min(selfs) < -1e-6:
            problems.append(f"negative span self time {min(selfs):.6f}s")
        return problems
