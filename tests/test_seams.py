"""The benchmark's tracer (perfbench/tracer.py) times each layer by wrapping
the module attributes its callers look up.  A call that bypasses one, such
as rebase picking through _apply_change or a merge reaching
engine.diff_lines directly, zeroes a per-layer metric and fails nothing
else.  Here every traced path runs once under that tracer, which is imported
and not changed, and each wrapped attribute must record spans, nested as the
per-layer names assume."""

import importlib
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer as tracing  # noqa: E402

_MODULES = ("core", "engine", "myers", "histogram", "patience", "merge3", "graph", "cli")

# every attribute install wraps; engine.flags_to_script is absent since no
# diff path in engine turns flags into hunks
SEAMS = sorted([
    "cli.main", "core.InternTable.intern", "cli.flags_to_script", "merge3.flags_to_script",
    "cli.render_unified", "cli.diff_lines", "merge3.diff_lines",
    "engine.diff_myers", "myers.preprocess", "myers.myers_flags",
    "engine.diff_histogram", "histogram.find_split", "histogram.scan_a", "histogram.myers_flags",
    "engine.diff_patience", "patience.find_matching_unique_lines", "patience.patience_lis", "patience.myers_flags",
    "cli.slide_changed_lines", "cli.merge3", "graph.merge3",
    "merge3.merge_regions_pipeline", "merge3.compute_merge_regions", "merge3.refine_zealous", "merge3.render",
    "graph.CommitGraph.add_commit", "graph.merge_commits", "graph.rebase", "graph.cherry_pick", "graph._lca",
])

# (child span, its parent span): the names the per-layer metrics read
NESTINGS = [
    ("graph.cherry_pick", "graph.rebase"),
    ("merge3.refine_diff", "merge3.refine_zealous"),
    ("merge3.base_diff", "merge3.pipeline"),
    ("engine.diff_lines", "cli.main"),
    ("slider.slide_changed_lines", "cli.main"),
    ("graph.lca", "graph.merge_commits"),
]

# a block inserted between two others: the indent heuristic slides the group
SLIDE = (b"{\n    a;\n}\n\n{\n    b;\n}\n", b"{\n    a;\n}\n\n{\n    c;\n}\n\n{\n    b;\n}\n")
# 70 copies of a common line pass histogram's cap: its box falls back to Myers
HISTOGRAM_FALLBACK = (b"x\n" * 70 + b"p\n", b"q\n" + b"x\n" * 70)
# no line unique to both files: patience falls back to Myers
PATIENCE_FALLBACK = (b"b\nc\nb\n", b"c\nb\nc\n")


def _seam_name(owner, attr):
    qualname = owner.__name__ if isinstance(owner, ModuleType) else f"{owner.__module__}.{owner.__qualname__}"
    return f"{qualname.removeprefix('diffmerge.')}.{attr}"


def _run_every_traced_path(mods, tmp_path):
    cli, graph = mods.cli, mods.graph

    def write(name, data):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    for i, (old, new) in enumerate([SLIDE, HISTOGRAM_FALLBACK, PATIENCE_FALLBACK]):
        old_path, new_path = write(f"old{i}", old), write(f"new{i}", new)
        for algorithm in mods.engine.ALGORITHMS:
            assert cli.main(["diff", old_path, new_path, f"--algorithm={algorithm}"]) == 1

    # the conflict 1 2 3 / 1 Z 3 refines to 2 / Z
    triple = [write(name, data) for name, data in
              [("left", b"a\n1\n2\n3\nc\n"), ("base", b"a\nb\nc\n"), ("right", b"a\n1\nZ\n3\nc\n")]]
    assert cli.main(["merge-file", *triple]) == 1

    # a criss-cross: m1 and m2 each merge a1 and b1, so a and b have two merge bases
    g = graph.CommitGraph()
    g.add_commit("r", (), {"f": b"1\n2\n3\n"})
    g.add_commit("a1", ("r",), {"f": b"A\n2\n3\n"})
    g.add_commit("b1", ("r",), {"f": b"1\n2\nB\n"})
    g.add_commit("m1", ("a1", "b1"), {"f": b"A\n2\nB\n"})
    g.add_commit("m2", ("b1", "a1"), {"f": b"A\n2\nB\n"})
    g.add_commit("a", ("m1",), {"f": b"A\nL\nB\n"})
    g.add_commit("b", ("m2",), {"f": b"A\n2\nB\nR\n"})
    assert len(graph.lowest_common_ancestors(g, "a", "b")) == 2
    assert graph.merge_commits(g, "a", "b").kind == "clean"
    assert graph.cherry_pick(g, "a1", "b1").kind == "clean"
    g.add_commit("t1", ("r",), {"f": b"1\n2\n3\nT\n"})
    g.add_commit("t2", ("t1",), {"f": b"1\n2\n3\nT\nU\n"})
    rebased = graph.rebase(g, "t2", "a1")
    assert rebased.kind == "clean" and g[rebased.head].tree["f"] == b"A\n2\n3\nT\nU\n"


def test_tracer_seams_record_spans_nested_as_named(tmp_path):
    mods = SimpleNamespace(**{n: importlib.import_module(f"diffmerge.{n}") for n in _MODULES})
    tracer = tracing.Tracer()
    spans_per_seam = {}
    try:
        tracing.install(tracer, mods)
        # what install wrapped, each wrapped once more from outside, so the
        # span its traced call records is counted per attribute
        for owner, attr, _original in tracer._installed:
            def counted(*args, _key=_seam_name(owner, attr), _traced=getattr(owner, attr), **kwargs):
                before = len(tracer.spans)
                result = _traced(*args, **kwargs)
                spans_per_seam[_key] += len(tracer.spans) > before
                return result

            spans_per_seam[_seam_name(owner, attr)] = 0
            setattr(owner, attr, counted)
        _run_every_traced_path(mods, tmp_path)
    finally:
        tracer.uninstall()

    assert sorted(spans_per_seam) == SEAMS and len(SEAMS) == 30
    assert "engine.flags_to_script" not in spans_per_seam
    assert [seam for seam, calls in spans_per_seam.items() if not calls] == []

    names = [span[0] for span in tracer.spans]
    parents = {(name, names[parent] if parent >= 0 else None) for name, _start, _end, parent in tracer.spans}
    for child, parent in NESTINGS:
        assert (child, parent) in parents, (child, parent)
    # the inputs reach what the per-layer counts read
    assert tracer.counts["slider.groups_moved"] > 0
    assert tracer.counts["histogram.fallbacks"] > 0 and tracer.counts["patience.fallbacks"] > 0
    assert tracer.counts["merge3.refine_zealous.pieces"] > 0
