"""The mutation catalogue: known ways to break diffmerge, each with the tests
that must catch it.

    python tests/mutants.py                  # run every entry
    python tests/mutants.py NAME [NAME ...]  # run the named entries only

Each entry replaces one exact snippet of one file, or several, with a broken
version and runs its target tests on that copy.  A ``killed`` entry must make
them fail (or hang past the timeout); an ``equivalent`` entry names why it
cannot change any output, and its tests must still pass.  The tree is copied
to a temporary directory first, so the checkout is never edited, and the
target tests are run once unmutated there before any mutant.  The run fails
when a snippet is not found exactly once, when the unmutated targets fail, or
when an entry's outcome is not the one it expects.  A rewrite that moves a
snippet therefore carries its mutants forward: restate the snippet (and its
replacement) for the new code, or, when the code it broke is gone, delete the
entry and say why.

To add an entry, break the code the way a plausible slip would, find the
narrowest tests that catch it, and append a ``Mutant`` to MUTANTS below.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# src/ and tests/, and perfbench/, from which two test files import helpers
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT = 120  # seconds per run; a mutant whose tests hang this long counts as killed
KILLED = "killed"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    expect: str  # KILLED, or "equivalent: <why no output can change>"
    also: tuple[tuple[str, str], ...] = ()  # more (snippet, replacement) pairs in the same file


MUTANTS = (
    # core
    Mutant("core-make-skips-range-check", "src/diffmerge/core.py",
           "    @classmethod\n    def _make(cls, iterable) -> Change:\n        return cls(*iterable)\n", "",
           ("tests/test_core.py::test_every_way_of_building_a_change_checks_its_range",), KILLED),
    Mutant("core-intern-tokens-off-by-one", "src/diffmerge/core.py",
           "tokens = [add(rec, len(ids)) for rec", "tokens = [add(rec, len(ids) + 1) for rec",
           ("tests/test_core.py::test_split_and_intern_match_reference",), KILLED),
    Mutant("core-intern-missing-token-off-by-one", "src/diffmerge/core.py",
           "self[rec] = token = len(self)\n", "self[rec] = token = len(self) + 1\n",
           ("tests/test_core.py::test_split_and_intern_match_reference",), KILLED),
    Mutant("core-prefix-halving-stops-at-two", "src/diffmerge/core.py",
           "    while step > 1:\n        step >>= 1\n        if k + step <= limit and a[i + k:",
           "    while step > 2:\n        step >>= 1\n        if k + step <= limit and a[i + k:",
           ("tests/test_core.py::test_common_runs_match_reference",
            "tests/test_core.py::test_common_runs_match_reference_on_random_lists"), KILLED),
    Mutant("core-script-run-end-read-past-the-file", "src/diffmerge/core.py",
           "                i = ro.index(0, i)\n", "                i = (of + b\"\\1\\0\").index(0, i)\n",
           ("tests/test_core.py",), KILLED),
    Mutant("core-flags-from-lists-not-converted", "src/diffmerge/core.py",
           "        if self.old_flags.__class__ is not bytearray or", "        if False and",
           ("tests/test_core.py::test_flags_are_one_byte_a_line_and_other_forms_convert",), KILLED),
    # engine
    Mutant("engine-error-omits-the-algorithms", "src/diffmerge/engine.py",
           '; expected one of {ALGORITHMS}")', '")',
           ("tests/test_core.py::test_diff_lines_rejects_an_unknown_algorithm_naming_the_known_ones",), KILLED),
    # myers
    Mutant("myers-band-lower-clamp-dropped", "src/diffmerge/myers.py",
           "        bottom = bmin if bmin > fmin else fmin\n", "        bottom = bmin\n",
           ("tests/test_myers.py",), KILLED),
    Mutant("myers-frontier-lists-one-short", "src/diffmerge/myers.py",
           "size = len(self.ha1) + len(self.ha2) + 3", "size = len(self.ha1) + len(self.ha2) + 2",
           ("tests/test_myers.py::test_frontier_lists_wrap_at_both_ends",), KILLED),
    Mutant("myers-budget-not-gits-bogosqrt", "src/diffmerge/myers.py",
           "max(bogosqrt(n + 3),", "max(bogosqrt(n + 2),",
           ("tests/test_myers.py::test_step_budget_doubles_where_git_does",), KILLED),
    Mutant("myers-frequent-block-at-a-quarter", "src/diffmerge/myers.py",
           "- un + 1) < un:", "- un + 1) <= un:",
           ("tests/test_myers.py::test_flag_frequent_matches_walk_reference",
            "tests/test_myers.py::test_preprocess_matches_reference"), KILLED),
    Mutant("myers-frequent-line-counted-once", "src/diffmerge/myers.py",
           "- un + 1) < un:", "- un) < un:",
           ("tests/test_myers.py::test_flag_frequent_matches_walk_reference",
            "tests/test_myers.py::test_preprocess_matches_reference"), KILLED),
    Mutant("myers-frequent-counted-in-the-same-file", "src/diffmerge/myers.py",
           "_flag_frequent(a, count_b, old_pre", "_flag_frequent(a, count_a, old_pre",
           ("tests/test_myers.py::test_preprocess_matches_reference",
            "tests/test_git_parity.py::test_myers_census_agrees_with_git_on_every_pair"), KILLED,
           also=(("_flag_frequent(b, count_a, new_pre", "_flag_frequent(b, count_b, new_pre"),)),
    Mutant("myers-frequent-above-the-limit", "src/diffmerge/myers.py",
           "if c >= limit}", "if c > limit}",
           ("tests/test_myers.py::test_preprocess_matches_reference",
            "tests/test_git_parity.py::test_myers_census_agrees_with_git_on_every_pair"), KILLED),
    Mutant("myers-frequent-window-dropped", "src/diffmerge/myers.py",
           "    w = SIMSCAN_WINDOW\n", "    w = len(tokens)\n",
           ("tests/test_myers.py::test_frequent_line_window_reads_100_lines_each_way",
            "tests/test_git_parity.py::test_myers_census_agrees_with_git_on_every_pair"), KILLED),
    Mutant("myers-frequent-limit-uncapped", "src/diffmerge/myers.py",
           "min(bogosqrt(len(tokens)), MAX_EQLIMIT)", "bogosqrt(len(tokens))",
           ("tests/test_git_parity.py::test_myers_witness_agrees_with_git",), KILLED),
    Mutant("myers-invert-table-is-identity", "src/diffmerge/myers.py",
           'bytes.maketrans(b"\\0\\1", b"\\1\\0")', 'bytes.maketrans(b"\\0\\1", b"\\0\\1")',
           ("tests/test_myers.py::test_preprocess_strips_ends_and_flags_unmatched",
            "tests/test_myers.py::test_diff_myers_matches_reference"), KILLED),
    Mutant("myers-invert-table-arguments-swapped", "src/diffmerge/myers.py",
           'bytes.maketrans(b"\\0\\1", b"\\1\\0")', 'bytes.maketrans(b"\\1\\0", b"\\0\\1")',
           ("tests/test_myers.py::test_preprocess_matches_reference", "tests/test_myers.py::test_diff_myers_matches_reference"),
           "equivalent: a table that swaps 0 and 1 maps each to the other whichever way round it is written"),
    Mutant("myers-kept-mask-not-inverted", "src/diffmerge/myers.py",
           "    kept_a = of[lo:hi_a].translate(_INVERT)\n", "    kept_a = of[lo:hi_a]\n",
           ("tests/test_myers.py::test_diff_myers_matches_reference",), KILLED,
           also=(("    kept_b = nf[lo:hi_b].translate(_INVERT)\n", "    kept_b = nf[lo:hi_b]\n"),)),
    Mutant("myers-fallback-skips-the-discard", "src/diffmerge/myers.py",
           "    cls = preprocess(a, b, minimal=minimal)\n",
           "    return _recs_cmp(_SearchEnv(a, b, minimal, SNAKE_CNT, HEUR_MIN_COST, step_budget(len(a) + len(b))))\n",
           ("tests/test_git_parity.py::test_histogram_census_agrees_with_git_on_every_pair",
            "tests/test_git_parity.py::test_patience_census_agrees_with_git_on_every_pair"), KILLED),
    # histogram
    Mutant("histogram-gate-held-at-the-cap", "src/diffmerge/histogram.py",
           "            if len(positions) <= lowest:\n",
           "            if len(positions) <= max(lowest, MAX_OCCURRENCES):\n",
           ("tests/test_histogram.py", "tests/test_acceptance.py::test_criterion_4_histogram_pathology_and_asymmetry"),
           KILLED,
           also=(("if hi - lo <= lowest else", "if hi - lo <= max(lowest, MAX_OCCURRENCES) else"),)),
    Mutant("histogram-gate-starts-at-infinity", "src/diffmerge/histogram.py",
           "    lowest = MAX_OCCURRENCES + 1 ", "    lowest = math.inf ",
           ("tests/test_histogram.py",), KILLED),
    Mutant("histogram-fallback-even-when-a-region-was-found", "src/diffmerge/histogram.py",
           "    if best is None:\n        if has_common:",
           "    if has_common:\n        raise FallbackSignal\n    if best is None:\n        if has_common:",
           ("tests/test_histogram.py",), KILLED),
    Mutant("histogram-common-line-recorded-only-when-skipped", "src/diffmerge/histogram.py",
           "            has_common = True\n            if len(positions) <= lowest:\n",
           "            if len(positions) > lowest:\n                has_common = True\n            else:\n",
           ("tests/test_histogram.py::test_find_split_falls_back_on_a_line_at_the_initial_lowest_count",), KILLED),
    Mutant("histogram-one-line-candidate-strictly-rarer", "src/diffmerge/histogram.py",
           "and lowest <= len(positions):", "and lowest < len(positions):",
           ("tests/test_histogram.py", "tests/test_acceptance.py::test_criterion_4_histogram_pathology_and_asymmetry"),
           "equivalent: a one-line candidate as rare as the best is no longer than it and its record count is "
           "not lower, so it never wins"),
    Mutant("histogram-one-line-leaf-flags-equal-lines", "src/diffmerge/histogram.py",
           "            if a[lo1] != b[lo2]:\n", "            if a[lo1] == b[lo2]:\n",
           ("tests/test_histogram.py::test_history_shaped_blobs_match_reference",), KILLED),
    Mutant("histogram-seed-outside-the-box", "src/diffmerge/histogram.py",
           "positions = (positions,) if lo1 <= positions < hi1 else None", "positions = (positions,)",
           ("tests/test_histogram.py",), KILLED),
    # patience
    Mutant("patience-repeated-line-counted-unique", "src/diffmerge/patience.py",
           "pos[tok] = -1 if tok in pos else i", "pos[tok] = i",
           ("tests/test_patience.py",), KILLED),
    Mutant("patience-lis-forgets-the-previous-pile", "src/diffmerge/patience.py",
           "previous.append(top[pile - 1] if pile else -1)", "previous.append(-1)",
           ("tests/test_patience.py", "tests/test_acceptance.py::test_criterion_3_patience_lis"), KILLED),
    Mutant("patience-walk-grows-nothing-back", "src/diffmerge/patience.py",
           "back = common_suffix(a, pos_a, b, pos_b, limit) if pos_a < hi_a else 0", "back = 0",
           ("tests/test_git_parity.py::test_patience_census_agrees_with_git_on_every_pair",
            "tests/test_patience.py::test_diff_patience_matches_reference"), KILLED),
    Mutant("patience-walk-grows-the-end-back", "src/diffmerge/patience.py",
           "back = common_suffix(a, pos_a, b, pos_b, limit) if pos_a < hi_a else 0",
           "back = common_suffix(a, pos_a, b, pos_b, limit)",
           ("tests/test_git_parity.py::test_patience_census_agrees_with_git_on_every_pair",
            "tests/test_patience.py::test_diff_patience_matches_reference"), KILLED),
    # slider
    Mutant("slider-tie-keeps-the-first-shift", "src/diffmerge/slider.py",
           "+ penalty - best_penalty <= 0:", "+ penalty - best_penalty < 0:",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",
            "tests/test_slider.py::test_slide_and_measure_match_reference"), KILLED),
    Mutant("slider-blank-runs-uncapped", "src/diffmerge/slider.py",
           "        if blank == MAX_BLANKS:\n            return blank, 0\n", "",
           ("tests/test_slider.py::test_slide_and_measure_match_reference",), KILLED),
    Mutant("slider-window-not-capped-at-100-shifts", "src/diffmerge/slider.py",
           ", end - INDENT_HEURISTIC_MAX_SLIDING)", ")",
           ("tests/test_slider.py::test_slide_and_measure_match_reference",), KILLED),
    Mutant("slider-window-not-capped-at-the-group-size", "src/diffmerge/slider.py",
           "max(earliest_end, end - size - 1, ", "max(earliest_end, ",
           ("tests/test_slider.py::test_slide_and_measure_match_reference",), KILLED),
    Mutant("slider-no-alignment-with-the-other-file", "src/diffmerge/slider.py",
           "        if end_matching_other != -1:\n            best = end_matching_other\n        elif indent_heuristic:",
           "        if indent_heuristic:",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",
            "tests/test_slider.py::test_slide_and_measure_match_reference"), KILLED),
    Mutant("slider-groups-never-fuse", "src/diffmerge/slider.py",
           "                while rchg[start - 1]:\n                    start -= 1\n", "",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",
            "tests/test_slider.py::test_slide_and_measure_match_reference"), KILLED,
           also=(("                while rchg[end]:\n                    end += 1\n", ""),)),
    Mutant("slider-pad-stop-byte-dropped", "src/diffmerge/slider.py",
           'old_flags = flags.old_flags + b"\\0\\1\\0"', 'old_flags = flags.old_flags + b"\\0\\0\\0"',
           ("tests/test_slider.py::test_slide_and_measure_match_reference",), KILLED,
           also=(('new_flags = flags.new_flags + b"\\0\\1\\0"', 'new_flags = flags.new_flags + b"\\0\\0\\0"'),)),
    # merge3
    Mutant("merge3-keeps-gaps-of-three-apart", "src/diffmerge/merge3.py",
           "piece.start_l - prev.end_l <= _REMERGE_GAP", "piece.start_l - prev.end_l < _REMERGE_GAP",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",
            "tests/test_merge3.py::test_refine_splits_and_remerges_close_conflicts"), KILLED),
    Mutant("merge3-equal-sides-not-demoted", "src/diffmerge/merge3.py",
           "        return [region._replace(kind=SAME)]\n", "        return [region]\n",
           ("tests/test_merge3.py::test_refine_demotes_identical_sides",
            "tests/test_merge3.py::test_zealous_pipeline_matches_reference"), KILLED),
    Mutant("merge3-zealous-skips-conflicts-too", "src/diffmerge/merge3.py",
           "if region.kind != CONFLICT:  #", "if region.kind != SAME:  #",
           ("tests/test_merge3.py::test_zealous_pipeline_matches_reference",), KILLED),
    Mutant("merge3-hunks-bypass-the-module-seam", "src/diffmerge/merge3.py",
           "    return flags_to_script(slide_changed_lines(diff_lines(old, new, algorithm), old, new, False), old, new)\n",
           "    from . import engine\n"
           "    return flags_to_script(slide_changed_lines(engine.diff_lines(old, new, algorithm), old, new, False), old, new)\n",
           ("tests/test_seams.py",), KILLED),
    Mutant("merge3-hunks-not-compacted", "src/diffmerge/merge3.py",
           "flags_to_script(slide_changed_lines(diff_lines(old, new, algorithm), old, new, False), old, new)",
           "flags_to_script(diff_lines(old, new, algorithm), old, new)",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",), KILLED),
    Mutant("merge3-zdiff3-trims-three-files", "src/diffmerge/merge3.py",
           "    k = common_prefix(left.tokens, sl, right.tokens, sr, min(el - sl, er - sr))\n",
           "    sa, ea = region.start_a, region.end_a\n"
           "    k = common_prefix(left.tokens, sl, right.tokens, sr,\n"
           "                      common_prefix(o.tokens, sa, left.tokens, sl, min(ea - sa, el - sl, er - sr)))\n"
           "    sa += k\n",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded[merge-file zdiff3]",), KILLED,
           also=(("    k = common_suffix(left.tokens, el, right.tokens, er, min(el - sl, er - sr))\n",
                  "    k = common_suffix(left.tokens, el, right.tokens, er,\n"
                  "                      common_suffix(o.tokens, ea, left.tokens, el, min(ea - sa, el - sl, er - sr)))\n"),
                 ("def _trim_zdiff3(region: MergeRegion, left: InternedSequence, right: InternedSequence)",
                  "def _trim_zdiff3(region: MergeRegion, left: InternedSequence, right: InternedSequence, o=None)"),
                 ("_trim_zdiff3(r, left, right) if", "_trim_zdiff3(r, left, right, o) if"))),
    Mutant("merge3-crlf-markers-skip-the-base", "src/diffmerge/merge3.py",
           'if crlf and _eol_crlf(o, 0) == 1 else', 'if crlf == 1 else',
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",), KILLED),
    Mutant("merge3-crlf-markers-read-ours-only", "src/diffmerge/merge3.py",
           "crlf = _eol_crlf(left, max(region.start_l - 1, 0)) and _eol_crlf(right, max(region.start_r - 1, 0))",
           "crlf = _eol_crlf(left, max(region.start_l - 1, 0))",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",), KILLED),
    Mutant("merge3-added-newline-always-lf", "src/diffmerge/merge3.py",
           "            self.parts.append(eol)\n", "            self.parts.append(b\"\\n\")\n",
           ("tests/test_git_parity.py::test_cases_matching_git_are_those_recorded",), KILLED),
    # graph
    Mutant("graph-merge-call-not-counted", "src/diffmerge/graph.py",
           "    ctx.stats.merge_calls += 1\n", "    pass\n",
           ("tests/test_graph.py::test_exponential_family_counts",), KILLED),
    Mutant("graph-memo-hit-adds-no-calls", "src/diffmerge/graph.py",
           "        ctx.stats.merge_calls += calls\n", "        pass\n",
           ("tests/test_ancestry.py::test_fold_memo_lives_in_one_merge_and_is_keyed_by_the_whole_base_list",),
           KILLED),
    Mutant("graph-memo-keyed-by-a-prefix", "src/diffmerge/graph.py",
           "    key = tuple(bases)\n", "    key = tuple(bases[:-1])\n",
           ("tests/test_ancestry.py::test_fold_memo_lives_in_one_merge_and_is_keyed_by_the_whole_base_list",),
           KILLED),
    Mutant("graph-memo-keyed-by-the-set", "src/diffmerge/graph.py",
           "    key = tuple(bases)\n", "    key = frozenset(bases)\n",
           ("tests/test_ancestry.py::test_fold_memo_lives_in_one_merge_and_is_keyed_by_the_whole_base_list",
            "tests/test_ancestry.py::test_tree_fold_matches_the_virtual_commit_fold",
            "tests/test_ancestry.py::test_tree_fold_matches_the_virtual_commit_fold_on_the_exponential_family"),
           "equivalent: within one merge the bases are a fixed sort of their set"),
    Mutant("graph-fold-memo-kept-across-merges", "src/diffmerge/graph.py",
           "    if key in ctx.folds:\n        tree, calls = ctx.folds[key]\n",
           "    if key in _FOLDS:\n        tree, calls = _FOLDS[key]\n",
           ("tests/test_ancestry.py::test_fold_memo_lives_in_one_merge_and_is_keyed_by_the_whole_base_list",),
           KILLED,
           also=(("    ctx.folds[key] = tree,", "    _FOLDS[key] = tree,"),
                 ("\nclass _DefaultId(str):", "\n_FOLDS: dict = {}\n\n\nclass _DefaultId(str):"))),
    Mutant("graph-family-takes-a-negative-size", "src/diffmerge/graph.py",
           "    if n < 0:\n", "    if n < -1:\n",
           ("tests/test_graph.py::test_exponential_family_rejects_a_negative_size",), KILLED),
    Mutant("graph-rebase-skips-cherry-pick", "src/diffmerge/graph.py",
           "        result = cherry_pick(graph, cid, tip, options, new_id=_DefaultId(f\"rebase({cid}@{tip})\"))\n",
           "        result = _apply_change(graph, cid, tip, options, _DefaultId(f\"rebase({cid}@{tip})\"), undo=False)\n",
           ("tests/test_seams.py",), KILLED),
    Mutant("graph-generation-from-the-last-parent", "src/diffmerge/graph.py",
           "            if parent.generation > top:\n                top = parent.generation\n",
           "            top = parent.generation\n",
           ("tests/test_ancestry.py::test_add_commit_matches_reference",), KILLED),
    Mutant("graph-timestamp-clock-runs-back", "src/diffmerge/graph.py",
           "self._next_ts = (timestamp if timestamp > next_ts else next_ts) + 1", "self._next_ts = timestamp + 1",
           ("tests/test_ancestry.py::test_add_commit_matches_reference",), KILLED),
)


def _mutated(mutant: Mutant, text: str) -> str:
    for snippet, replacement in ((mutant.snippet, mutant.replacement), *mutant.also):
        count = text.count(snippet)
        if count != 1:
            raise SystemExit(f"{mutant.name}: a snippet occurs {count} times in {mutant.file}, not once: {snippet!r}")
        text = text.replace(snippet, replacement)
    return text


def _pytest(tree: Path, tests) -> tuple[str, str]:
    """Run the tests in the copied tree: ("passed" | "failed" | "uncollected"
    | "timeout" | "error", pytest's output).  pytest exits 1 when a test
    fails and 2 when a module cannot be collected; both catch a mutant, but
    an entry should break behaviour, not the module's syntax or imports."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # its own session, so a timeout also stops the subprocesses some tests start
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return "timeout", out.decode(errors="replace")
    except BaseException:  # an interrupted run leaves no pytest behind
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    outcome = {0: "passed", 1: "failed", 2: "uncollected"}.get(proc.returncode, "error")
    return outcome, out.decode(errors="replace")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if len(by_name) != len(MUTANTS):
        raise SystemExit("two entries share a name")
    unknown = sorted(set(args.names) - by_name.keys())
    if unknown:
        parser.error(f"unknown mutants {unknown}")
    chosen = [by_name[name] for name in args.names] if args.names else list(MUTANTS)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="diffmerge-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(source, tree / name)
        originals = {m.file: (tree / m.file).read_text() for m in chosen}
        for m in chosen:  # every snippet is checked before any test runs
            _mutated(m, originals[m.file])

        targets = list(dict.fromkeys(test for m in chosen for test in m.tests))
        outcome, out = _pytest(tree, targets)
        if outcome != "passed":
            print(out)
            print(f"the unmutated targets did not pass ({outcome}); no mutant was run")
            return 1
        print(f"unmutated targets passed ({time.perf_counter() - start:.1f} s)")

        wrong = []
        for m in chosen:
            path = tree / m.file
            path.write_text(_mutated(m, originals[m.file]))
            t0 = time.perf_counter()
            try:
                outcome, out = _pytest(tree, m.tests)
            finally:
                path.write_text(originals[m.file])
            killed = outcome in ("failed", "uncollected", "timeout")
            ok = outcome != "error" and killed == (m.expect == KILLED)
            verdict = ("killed" if killed else "survived") if outcome != "error" else "error"
            # the first test that caught it, from pytest's short summary
            caught = next((line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))), "")
            print(f"{'ok ' if ok else 'BAD'} {m.name:46} {verdict:8} ({outcome}, {time.perf_counter() - t0:.1f} s)"
                  f" {caught[:150]}".rstrip())
            if not ok:
                wrong.append(m.name)
                print(out[-3000:])
    total = time.perf_counter() - start
    print(f"{len(chosen) - len(wrong)} of {len(chosen)} mutants as expected in {total:.0f} s")
    if wrong:
        print("not as expected: " + ", ".join(wrong))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
