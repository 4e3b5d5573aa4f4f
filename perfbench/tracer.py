"""Span tracer installed from outside the package.

Each public function is replaced, at the module attribute its callers look
up, by a wrapper that records a span (name, start, end, parent) in memory
and, after the span has closed, adds to counters computed from the
arguments and the result.  Nothing under ``src/`` is edited: uninstalling
puts the original attributes back.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter_ns


def _groups(flags: list[bool]) -> set[tuple[int, int]]:
    out, i, n = set(), 0, len(flags)
    while i < n:
        if flags[i]:
            start = i
            while i < n and flags[i]:
                i += 1
            out.add((start, i))
        else:
            i += 1
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Trace ``owner.attr``; ``name`` is a string or a function of the
        tracer giving the span name, ``after(args, kwargs, result)`` counts."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(tracer)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append((span_name, 0, 0, parent))
            tracer.stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[index] = (span_name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """Per span name: self time in ms (duration minus direct children),
        inclusive time in ms and the number of spans."""
        child = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        total_ms: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_ms[name] += (end - start - child[i]) / 1e6
            total_ms[name] += (end - start) / 1e6
            calls[name] += 1
        return self_ms, total_ms, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, mods) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    core, engine, myers, histogram, patience, merge3, graph, cli = (
        mods.core, mods.engine, mods.myers, mods.histogram, mods.patience, mods.merge3, mods.graph, mods.cli,
    )
    count = tracer.counts

    def add(key, fn):
        def after(args, kwargs, result):
            count[key] += fn(args, kwargs, result)
        return after

    # cli
    tracer.wrap(cli, "main", "cli.main")

    # core
    tracer.wrap(core.InternTable, "intern", "core.intern", add("core.intern.lines", lambda a, k, r: len(r)))
    for owner in (cli, engine, merge3):
        tracer.wrap(owner, "flags_to_script", "core.flags_to_script",
                    add("core.flags_to_script.hunks", lambda a, k, r: len(r)))
    tracer.wrap(cli, "render_unified", "core.render_unified",
                add("core.render_unified.bytes", lambda a, k, r: len(r)))

    # engine dispatch, counted per algorithm
    def per_algorithm(args, kwargs, result):
        alg = args[2] if len(args) > 2 else kwargs.get("algorithm", "myers")
        count[f"engine.diff_lines.calls.{alg}"] += 1

    tracer.wrap(cli, "diff_lines", "engine.diff_lines", per_algorithm)
    tracer.wrap(
        merge3, "diff_lines",
        lambda t: "merge3.refine_diff" if t.current() == "merge3.refine_zealous" else "merge3.base_diff",
        per_algorithm,
    )

    # myers
    tracer.wrap(engine, "diff_myers", "myers.diff_myers")
    tracer.wrap(myers, "preprocess", "myers.preprocess",
                add("myers.preprocess.preflagged_lines",
                    lambda a, k, r: sum(r.old_prechanged) + sum(r.new_prechanged)))
    tracer.wrap(myers, "myers_flags", "myers.myers_flags")

    # histogram
    tracer.wrap(engine, "diff_histogram", "histogram.diff_histogram")
    tracer.wrap(histogram, "find_split", "histogram.find_split")
    tracer.wrap(histogram, "scan_a", "histogram.scan_a")
    tracer.wrap(histogram, "myers_flags", "myers.myers_flags", add("histogram.fallbacks", lambda a, k, r: 1))

    # patience
    tracer.wrap(engine, "diff_patience", "patience.diff_patience")
    tracer.wrap(patience, "find_matching_unique_lines", "patience.find_matching_unique_lines")
    tracer.wrap(patience, "patience_lis", "patience.patience_lis")
    tracer.wrap(patience, "myers_flags", "myers.myers_flags", add("patience.fallbacks", lambda a, k, r: 1))

    # slider
    def slid(args, kwargs, result):
        before = (_groups(args[0].old_flags), _groups(args[0].new_flags))
        after = (_groups(result.old_flags), _groups(result.new_flags))
        count["slider.groups"] += len(before[0]) + len(before[1])
        count["slider.groups_moved"] += len(before[0] - after[0]) + len(before[1] - after[1])

    tracer.wrap(cli, "slide_changed_lines", "slider.slide_changed_lines", slid)

    # merge3
    for owner in (cli, graph):
        tracer.wrap(owner, "merge3", "merge3.merge3")
    tracer.wrap(merge3, "merge_regions_pipeline", "merge3.pipeline")
    tracer.wrap(merge3, "compute_merge_regions", "merge3.compute_merge_regions",
                add("merge3.regions", lambda a, k, r: len(r)))

    def refined(args, kwargs, result):
        count["merge3.refine_zealous.pieces"] += len(result)
        count["merge3.refine_zealous.demoted"] += sum(
            1 for piece in result if args[0].kind == merge3.CONFLICT and piece.kind == merge3.SAME
        )

    tracer.wrap(merge3, "refine_zealous", "merge3.refine_zealous", refined)
    tracer.wrap(merge3, "render", "merge3.render",
                add("merge3.conflicts", lambda a, k, r: sum(1 for reg in a[0] if reg.kind == merge3.CONFLICT)))

    # graph
    tracer.wrap(graph.CommitGraph, "add_commit", "graph.add_commit")
    tracer.wrap(graph, "merge_commits", "graph.merge_commits")
    tracer.wrap(graph, "rebase", "graph.rebase")
    tracer.wrap(graph, "cherry_pick", "graph.cherry_pick")
    tracer.wrap(graph, "_lca", "graph.lca")


# Per-layer metrics reported by the traced run: (name, unit).  Span-based
# ones are "<span>.self_ms", "<span>.ms" (inclusive) or "<span>.calls";
# the rest are counters.  A layer the workload does not reach reads 0.
LAYER_METRICS = [
    ("core.intern.self_ms", "ms"), ("core.intern.lines", "count"),
    ("core.flags_to_script.self_ms", "ms"), ("core.flags_to_script.hunks", "count"),
    ("core.render_unified.self_ms", "ms"), ("core.render_unified.bytes", "bytes"),
    ("myers.diff_myers.self_ms", "ms"),
    ("myers.preprocess.self_ms", "ms"), ("myers.preprocess.preflagged_lines", "count"),
    ("myers.myers_flags.self_ms", "ms"), ("myers.myers_flags.calls", "count"),
    ("histogram.diff_histogram.self_ms", "ms"), ("histogram.find_split.self_ms", "ms"),
    ("histogram.find_split.calls", "count"), ("histogram.scan_a.self_ms", "ms"),
    ("histogram.fallbacks", "count"),
    ("patience.diff_patience.self_ms", "ms"), ("patience.find_matching_unique_lines.self_ms", "ms"),
    ("patience.patience_lis.self_ms", "ms"), ("patience.fallbacks", "count"),
    ("slider.slide_changed_lines.self_ms", "ms"), ("slider.groups", "count"),
    ("slider.groups_moved", "count"),
    ("engine.diff_lines.self_ms", "ms"),
    ("engine.diff_lines.calls.myers", "count"), ("engine.diff_lines.calls.minimal", "count"),
    ("engine.diff_lines.calls.patience", "count"), ("engine.diff_lines.calls.histogram", "count"),
    ("merge3.merge3.self_ms", "ms"), ("merge3.pipeline.self_ms", "ms"),
    ("merge3.base_diff.ms", "ms"), ("merge3.base_diff.calls", "count"),
    ("merge3.refine_diff.ms", "ms"),
    ("merge3.compute_merge_regions.self_ms", "ms"), ("merge3.regions", "count"),
    ("merge3.refine_zealous.calls", "count"), ("merge3.refine_zealous.self_ms", "ms"),
    ("merge3.refine_zealous.pieces", "count"), ("merge3.refine_zealous.demoted", "count"),
    ("merge3.render.self_ms", "ms"), ("merge3.conflicts", "count"),
    ("graph.add_commit.self_ms", "ms"), ("graph.add_commit.calls", "count"),
    ("graph.merge_commits.self_ms", "ms"), ("graph.merge_commits.calls", "count"),
    ("graph.lca.self_ms", "ms"), ("graph.rebase.self_ms", "ms"), ("graph.cherry_pick.self_ms", "ms"),
    ("graph.merge_calls", "count"), ("graph.lca_size", "count"),
    ("cli.main.self_ms", "ms"), ("cli.import_ms", "ms"),
    ("trace.spans", "count"), ("trace.tracemalloc_peak_mib", "MiB"), ("trace.overhead_ratio", "ratio"),
]


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Values of every span-derived and counted metric in LAYER_METRICS."""
    self_ms, total_ms, calls = tracer.self_times()
    values: dict[str, float] = {}
    for name, _unit in LAYER_METRICS:
        stem, _, kind = name.rpartition(".")
        if kind == "self_ms":
            values[name] = self_ms.get(stem, 0.0)
        elif kind == "ms":
            values[name] = total_ms.get(stem, 0.0)
        elif kind == "calls" and stem in calls:
            values[name] = calls[stem]
        elif name in tracer.counts:
            values[name] = tracer.counts[name]
        else:
            values[name] = 0
    values["trace.spans"] = len(tracer.spans)
    return values
