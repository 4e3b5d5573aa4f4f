"""Command-line front end: diff, merge-file and graph demo commands.

Exit codes follow diff/merge conventions: 0 clean/identical, 1 differences
or conflicts, 2 verification failure, 3 usage, input or I/O errors and
internal faults (a ``DiffError`` raised by an engine's own checks).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import oracle
from .core import DiffError, InternTable, apply_script, flags_to_script, render_unified
from .engine import ALGORITHMS, diff_lines
from .graph import (
    GraphError,
    cherry_pick,
    graph_from_jsonl,
    merge_commits,
    rebase,
    revert,
)
from .merge3 import STYLES, MergeError, MergeOptions, merge3
from .slider import slide_changed_lines

EXIT_CLEAN = 0
EXIT_DIFFERENCES = 1
EXIT_VERIFY_FAILED = 2
EXIT_ERROR = 3


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cmd_diff(args: argparse.Namespace) -> int:
    # neither file's bytes outlive their intern call, nor the table's dict the second one
    table = InternTable()
    old = table.intern(_read(args.old))
    new = table.intern(_read(args.new))
    del table
    flags = diff_lines(old, new, args.algorithm)
    old.occurrence_index = None  # only this one diff reads it; freed before compaction and rendering
    flags = slide_changed_lines(flags, old, new, args.indent_heuristic)
    script = flags_to_script(flags, old, new)

    if script:
        header = b"--- %s\n+++ %s\n" % (os.fsencode(args.old), os.fsencode(args.new))
        sys.stdout.buffer.write(header + render_unified(old, new, script, args.context))
        sys.stdout.buffer.flush()

    if args.verify:
        # against the file as read, not new's own lines, which the script copies
        if apply_script(old, script, new) != _read(args.new):
            print("verify: round-trip failed", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        if args.algorithm == "minimal":
            expected = oracle.min_edit_distance(old.tokens, new.tokens)
            if flags.flag_count() != expected:
                print(
                    f"verify: minimal diff has {flags.flag_count()} flags, oracle says {expected}",
                    file=sys.stderr,
                )
                return EXIT_VERIFY_FAILED

    return EXIT_DIFFERENCES if script else EXIT_CLEAN


def cmd_merge_file(args: argparse.Namespace) -> int:
    options = MergeOptions(
        algorithm=args.algorithm,
        style=args.style,
        zealous=not args.no_zealous,
        labels=tuple(args.labels),
    )
    # unbound, the bytes are freed once interned; read in argument order, so an error names the first bad file
    outcome = merge3(left_data=_read(args.left), o_data=_read(args.base), right_data=_read(args.right), options=options)
    sys.stdout.buffer.write(outcome.rendered)
    sys.stdout.flush()
    if outcome.conflict_count:
        shown = min(outcome.conflict_count, 99)
        print(f"{shown} conflict(s), {outcome.conflict_line_count} conflicting lines", file=sys.stderr)
        return EXIT_DIFFERENCES
    return EXIT_CLEAN


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_jsonl(fh.read())


def _tree_json(tree: dict[str, bytes]) -> dict[str, str]:
    return {path: blob.decode(errors="replace") for path, blob in tree.items()}


def cmd_graph(args: argparse.Namespace) -> int:
    graph = _load_graph(args.script)
    if args.action == "merge":
        result = merge_commits(graph, args.a, args.b)
    elif args.action == "cherry-pick":
        result = cherry_pick(graph, args.a, args.b)
    elif args.action == "revert":
        result = revert(graph, args.a, args.b)
    else:  # rebase
        rb = rebase(graph, args.a, args.b)
        failed_pick = None if rb.failed_index is None else rb.failed_index + 1
        payload = {"result": rb.kind, "head": rb.head, "failed_pick": failed_pick,
                   "conflicts": _tree_json(rb.conflicts)}
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_CLEAN if rb.kind == "clean" else EXIT_DIFFERENCES

    payload = {
        "result": result.kind,
        "commit": result.commit.id if result.commit else None,
        "tree": _tree_json(result.commit.tree) if result.commit else None,
        "conflicts": _tree_json(result.conflicts),
        "merge_calls": result.stats.merge_calls,
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_CLEAN if result.kind != "conflict" else EXIT_DIFFERENCES


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # cached: building the parser costs some thirty times what parsing does, so
    # a process builds it once, on first use; each parse returns a fresh Namespace
    parser = argparse.ArgumentParser(prog="diffmerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser("diff", help="unified diff of two files")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument("--algorithm", choices=ALGORITHMS, default="myers")
    p_diff.add_argument("--context", type=non_negative_int, default=3)
    p_diff.add_argument(
        "--no-indent-heuristic", dest="indent_heuristic", action="store_false"
    )
    p_diff.add_argument("--verify", action="store_true",
                        help="assert round-trip (and minimality for --algorithm=minimal)")
    p_diff.set_defaults(func=cmd_diff)

    p_merge = sub.add_parser("merge-file", help="three-way merge of left/base/right")
    p_merge.add_argument("left")
    p_merge.add_argument("base")
    p_merge.add_argument("right")
    p_merge.add_argument("--style", choices=STYLES, default=MergeOptions.style)
    p_merge.add_argument("--algorithm", choices=ALGORITHMS, default=MergeOptions.algorithm)
    p_merge.add_argument("--labels", nargs=3, metavar=("LEFT", "BASE", "RIGHT"), default=MergeOptions.labels)
    p_merge.add_argument("--no-zealous", action="store_true")
    p_merge.set_defaults(func=cmd_merge_file)

    p_graph = sub.add_parser("graph", help="commit graph demos driven by a JSON-lines script")
    graph_sub = p_graph.add_subparsers(dest="action", required=True)
    for action, (name_a, name_b) in {
        "merge": ("a", "b"),
        "cherry-pick": ("commit", "onto"),
        "revert": ("commit", "current"),
        "rebase": ("head", "onto"),
    }.items():
        p = graph_sub.add_parser(action)
        p.add_argument("script", help="JSON-lines commit records {id,parents,files,ts}")
        p.add_argument("a", metavar=name_a)
        p.add_argument("b", metavar=name_b)
        p.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize to the documented code
        return EXIT_ERROR if exc.code else EXIT_CLEAN
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, DiffError, MergeError, GraphError, oracle.SizeGuard) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
