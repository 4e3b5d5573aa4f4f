"""Command-line front end: diff, merge-file and graph demo commands.

Exit codes follow diff/merge conventions: 0 clean/identical, 1 differences
or conflicts, 2 verification failure, 3 usage, input or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import oracle
from .core import InternTable, apply_script, flags_to_script, render_unified
from .engine import ALGORITHMS, diff_lines
from .graph import (
    GraphError,
    build_exponential_graph,
    cherry_pick,
    graph_from_jsonl,
    merge_commits,
    rebase,
    revert,
)
from .merge3 import MergeError, MergeOptions, merge3
from .slider import slide_changed_lines

EXIT_CLEAN = 0
EXIT_DIFFERENCES = 1
EXIT_VERIFY_FAILED = 2
EXIT_ERROR = 3


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cmd_diff(args: argparse.Namespace) -> int:
    old_data = _read(args.old)
    new_data = _read(args.new)
    table = InternTable()
    old = table.intern(old_data)
    new = table.intern(new_data)
    flags = diff_lines(old, new, args.algorithm)
    old.occurrence_index = None  # only this one diff reads it; freed before sliding and rendering
    if args.indent_heuristic:
        flags = slide_changed_lines(flags, old, new)
    script = flags_to_script(flags, old, new)

    if len(script):
        header = f"--- {args.old}\n+++ {args.new}\n".encode()
        sys.stdout.buffer.write(header + render_unified(old, new, script, args.context))
        sys.stdout.buffer.flush()

    if args.verify:
        if apply_script(old, script, new) != new_data:
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

    return EXIT_DIFFERENCES if len(script) else EXIT_CLEAN


def cmd_merge_file(args: argparse.Namespace) -> int:
    left = _read(args.left)
    base = _read(args.base)
    right = _read(args.right)
    options = MergeOptions(
        algorithm=args.algorithm,
        style=args.style,
        zealous=not args.no_zealous,
        labels=tuple(args.labels) if args.labels else ("ours", "base", "theirs"),
    )
    outcome = merge3(base, left, right, options)
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
    if args.action == "expo-demo":
        rows = []
        for n in range(args.max_n + 1):
            graph, a, b = build_exponential_graph(n)
            commits = len(graph)
            start = time.perf_counter()
            result = merge_commits(graph, a, b)
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "n": n,
                    "commits": commits,
                    "merge_calls": result.stats.merge_calls,
                    "seconds": round(elapsed, 6),
                }
            )
        json.dump(rows, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_CLEAN

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


def build_parser() -> argparse.ArgumentParser:
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
    p_merge.add_argument("--style", choices=("merge", "diff3", "zdiff3"), default="merge")
    p_merge.add_argument("--algorithm", choices=ALGORITHMS, default="histogram")
    p_merge.add_argument("--labels", nargs=3, metavar=("LEFT", "BASE", "RIGHT"))
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
    p_expo = graph_sub.add_parser("expo-demo")
    p_expo.add_argument("max_n", type=non_negative_int)
    p_expo.set_defaults(func=cmd_graph)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Building the parser costs some thirty times what parsing does, so one
    # process builds it once, on first use; each parse returns a fresh
    # Namespace.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize to the documented code
        return EXIT_ERROR if exc.code else EXIT_CLEAN
    try:
        return args.func(args)
    except (OSError, MergeError, GraphError, oracle.SizeGuard) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
