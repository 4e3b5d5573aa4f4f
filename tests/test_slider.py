import random

import pytest

from diffmerge.core import InternTable, apply_script, flags_to_script
from diffmerge.engine import diff_lines
from diffmerge.slider import _groups, line_indent, slidable_range, slide_changed_lines, slide_group, split_scores

import reference
from reference import SplitMeasurement, measure_split_reference, split_indent, split_penalty
from conftest import lines_executed, random_file


def test_line_indent_tabs_and_blanks():
    assert line_indent(b"x\n") == 0
    assert line_indent(b"    x\n") == 4
    assert line_indent(b"\tx\n") == 8
    assert line_indent(b"  \tx\n") == 8
    assert line_indent(b"   \n") is None
    assert line_indent(b"\n") is None


def test_line_indent_is_capped_at_200_columns():
    assert line_indent(b" " * 199 + b"x\n") == 199
    assert line_indent(b" " * 250 + b"x\n") == 200
    assert line_indent(b"\t" * 30 + b"x\n") == 200
    # the walk stops at the cap, so a longer blank line reads as indented
    assert line_indent(b" " * 250 + b"\n") == 200


# The scorer as first written, on hand-made measurements, and the same
# splits in files through split_scores.


def test_split_penalty_start_of_file():
    m = SplitMeasurement(at_end=False, indent=0, pre_blank=0, pre_indent=None, post_blank=0, post_indent=0)
    assert split_penalty(m) == 1
    # split 0 of a file whose first two lines sit at indent 0
    assert split_scores(InternTable().intern(b"a\nb\n"), 0, 0) == [(1, 0)]


def test_split_penalty_end_of_file():
    m = SplitMeasurement(at_end=True, indent=None, pre_blank=0, pre_indent=0, post_blank=0, post_indent=None)
    assert split_penalty(m) == 21
    assert split_scores(InternTable().intern(b"a\n"), 1, 1) == [(21, 0)]


def test_split_penalty_blank_terms():
    # split at a blank line with one blank above: 2 blanks around, 1 after
    m = SplitMeasurement(at_end=False, indent=None, pre_blank=1, pre_indent=4, post_blank=0, post_indent=4)
    assert split_penalty(m) == 2 * -30 + 1 * 6
    assert split_scores(InternTable().intern(b"    a\n\n\n    b\n"), 2, 2) == [(2 * -30 + 1 * 6, 4)]


def test_measure_split_blank_line_inherits_following_indent():
    seq = InternTable().intern(b"a\n\n    b\n")
    m = measure_split_reference(seq, 1)
    assert m.indent is None
    assert m.post_indent == 4
    assert split_indent(m) == 4
    assert split_scores(seq, 1, 1)[0][1] == 4


def test_measure_split_blank_run_to_eof_is_undefined():
    seq = InternTable().intern(b"a\n\n\n")
    m = measure_split_reference(seq, 1)
    assert m.indent is None and m.post_indent is None
    assert split_indent(m) == 0
    assert split_scores(seq, 1, 1)[0][1] == 0


def test_slidable_range_distinct_borders():
    seq = InternTable().intern(b"a\nb\nc\n")
    flags = [False, True, False]
    assert slidable_range(flags, seq, (1, 2)) == (0, 0)


def test_slidable_range_repeated_insertion():
    # one b inserted into a..bb..: the group slides across the run of b's
    table = InternTable()
    old = table.intern(b"a\nb\nb\nc\n")
    new = table.intern(b"a\nb\nb\nb\nc\n")
    flags = diff_lines(old, new, "minimal")
    group = next((i, i + 1) for i, f in enumerate(flags.new_flags) if f)
    lo, hi = slidable_range(flags.new_flags, new, group)
    assert hi - lo >= 2


def test_slide_group_not_slidable_is_unchanged():
    seq = InternTable().intern(b"a\nb\nc\n")
    flags = [False, True, False]
    assert slide_group(flags, seq, (1, 2)) == (1, 2)


def _function_boundary_files():
    old = (
        b"def alpha():\n"
        b"    return 1\n"
        b"\n"
        b"\n"
        b"def omega():\n"
        b"    return 9\n"
    )
    new = (
        b"def alpha():\n"
        b"    return 1\n"
        b"\n"
        b"\n"
        b"def middle():\n"
        b"    return 5\n"
        b"\n"
        b"\n"
        b"def omega():\n"
        b"    return 9\n"
    )
    return old, new


def test_function_boundary_insertion_prefers_boundary_split():
    table = InternTable()
    old, new = (table.intern(f) for f in _function_boundary_files())
    flags = diff_lines(old, new, "minimal")
    start = min(i for i, f in enumerate(flags.new_flags) if f)
    group = (start, start + 4)
    lo, hi = slidable_range(flags.new_flags, new, group)
    assert hi - lo >= 2  # genuinely ambiguous position

    # the reference scorer evaluates the penalty sum for every allowed shift
    best = reference.best_shift_reference(new, group, lo, hi)
    chosen = slide_group(list(flags.new_flags), new, group)
    assert chosen == (group[0] + best, group[1] + best)
    # the chosen split starts the group at the function boundary: the line at
    # the top split is "def middle():"
    assert new.lines[new.tokens[chosen[0]]] == b"def middle():\n"


def test_three_line_insertion_picks_function_boundary():
    # single-blank separators: the inserted trio can sit at two positions and
    # the weights favour the one whose group starts at the new def line
    table = InternTable()
    old = table.intern(b"def alpha():\n    return 1\n\ndef omega():\n    return 9\n")
    new = table.intern(
        b"def alpha():\n    return 1\n\ndef middle():\n    return 5\n\ndef omega():\n    return 9\n"
    )
    flags = diff_lines(old, new, "minimal")
    start = min(i for i, f in enumerate(flags.new_flags) if f)
    lo, hi = slidable_range(flags.new_flags, new, (start, start + 3))
    assert hi - lo + 1 >= 2
    slid = slide_changed_lines(flags, old, new)
    chosen = min(i for i, f in enumerate(slid.new_flags) if f)
    assert new.lines[new.tokens[chosen]] == b"def middle():\n"


def test_tied_shifts_pick_lowest_shift():
    # every shift of the inserted "b" scores penalty 0 and indent 0 on both
    # splits, so all of them tie
    table = InternTable()
    old = table.intern(b"a\nb\nb\nc\n")
    new = table.intern(b"a\nb\nb\nb\nc\n")
    flags = diff_lines(old, new, "minimal")
    group = next((i, i + 1) for i, f in enumerate(flags.new_flags) if f)
    lo, hi = slidable_range(flags.new_flags, new, group)
    assert lo < hi
    for shift in range(lo, hi + 1):
        for split in (group[0] + shift, group[1] + shift):
            assert split_scores(new, split, split) == [(0, 0)]
    chosen = slide_group(list(flags.new_flags), new, group)
    assert chosen == (group[0] + lo, group[1] + lo)


def test_slide_group_is_idempotent():
    rng = random.Random(41)
    for _ in range(200):
        a = random_file(rng, 15, 2)
        b = random_file(rng, 15, 2)
        table = InternTable()
        old, new = table.intern(a), table.intern(b)
        flags = diff_lines(old, new, "minimal")
        once = slide_changed_lines(flags, old, new)
        twice = slide_changed_lines(once, old, new)
        assert once.old_flags == twice.old_flags
        assert once.new_flags == twice.new_flags


def test_sliding_preserves_counts_and_round_trip():
    rng = random.Random(77)
    for _ in range(400):
        a = random_file(rng, 20, 2, allow_missing_nl=True)
        b = random_file(rng, 20, 2, allow_missing_nl=True)
        table = InternTable()
        old, new = table.intern(a), table.intern(b)
        flags = diff_lines(old, new, "myers")
        slid = slide_changed_lines(flags, old, new)
        assert slid.flag_count() == flags.flag_count()
        script = flags_to_script(slid, old, new)
        assert apply_script(old, script, new) == b


def test_penalty_ordering_invariant_under_constant_indent():
    base = (
        b"def f():\n"
        b"    a\n"
        b"    a\n"
        b"\n"
        b"x\n"
    )
    shifted = b"".join(b"  " + line if line.strip() else line for line in base.splitlines(keepends=True))
    scores1 = split_scores(InternTable().intern(base), 0, 5)
    scores2 = split_scores(InternTable().intern(shifted), 0, 5)
    for (penalty1, indent1), (penalty2, indent2) in zip(scores1, scores2):
        # relation categories unchanged => identical penalty
        assert penalty1 == penalty2
        # the bias side compares totals, which shift together
        assert indent2 >= indent1


def test_groups_match_reference():
    rng = random.Random(19)
    cases = [[], [True], [False], [True] * 9, [False] * 9]
    for _ in range(2000):
        density = rng.random()
        cases.append([rng.random() < density for _ in range(rng.randrange(30))])
    for flags in cases:
        assert _groups(flags) == reference.groups_reference(flags), flags


# Differential tests against the indent heuristic that walks the blank lines
# around each split on its own, kept in reference.py.

_BLANKS = (b"\n", b"\n", b"  \n", b"\t\n", b"\r\n")
_TEXT = (b"x\n", b"    y\n", b"\tz\n", b"  }\n", b"}\n", b"        w\n")


def _blank_pair(rng):
    """Old and new files with long runs of blank lines of several kinds."""

    def build():
        out = []
        length = rng.randrange(300)
        while len(out) < length:
            if rng.random() < 0.4:
                out += [rng.choice(_BLANKS)] * rng.randrange(1, rng.choice((4, 60)))
            else:
                out += [rng.choice(_TEXT) for _ in range(rng.randrange(1, 6))]
        return out

    old = build()
    new = list(old)
    for _ in range(rng.randrange(1, 6)):
        at = rng.randrange(len(new) + 1)
        new[at:at + rng.randrange(3)] = rng.choice((_BLANKS, _TEXT))[:rng.randrange(1, 4)] * rng.randrange(1, 4)
    if rng.random() < 0.2:
        new[-1:] = [line.rstrip(b"\n") for line in new[-1:]]
    return old, new


@pytest.mark.parametrize("algorithm", ("myers", "minimal", "patience", "histogram"))
def test_slide_and_measure_match_reference(algorithm):
    rng = random.Random(f"slider-{algorithm}")
    moved = 0
    for _ in range(100):
        old_lines, new_lines = _blank_pair(rng)
        table = InternTable()
        old, new = table.intern(b"".join(old_lines)), table.intern(b"".join(new_lines))
        for a, b in ((old, new), (new, old)):
            flags = diff_lines(a, b, algorithm)
            got = slide_changed_lines(flags, a, b)
            assert got == reference.slide_changed_lines_reference(flags, a, b)
            moved += got != flags
        want = reference.split_scores_reference(new, 0, len(new))
        assert split_scores(new, 0, len(new)) == want
        for _ in range(10):
            lo = rng.randrange(len(new) + 1)
            hi = rng.randrange(lo, len(new) + 1)
            assert split_scores(new, lo, hi) == want[lo:hi + 1], (lo, hi)
    assert moved > 100


def _blank_run(n):
    """One blank line inserted into a run of n blank lines."""
    table = InternTable()
    return table.intern(b"x\n" + b"\n" * n + b"y\n"), table.intern(b"x\n" + b"\n" * (n + 1) + b"y\n")


def test_slide_work_is_linear_in_a_blank_run():
    n = 1000
    old, new = _blank_run(n)
    for a, b in ((old, new), (new, old)):
        flags = diff_lines(a, b, "myers")
        got = slide_changed_lines(flags, a, b)
        assert got == reference.slide_changed_lines_reference(flags, a, b)
        # the group slides over all n + 1 positions; the reference, which
        # walks the run again for every split, executes 24M lines here
        assert lines_executed(slide_changed_lines, flags, a, b) <= 200 * n


def test_slide_measures_each_split_once():
    # a one-line group in a blank run: its top and bottom split ranges
    # overlap in all but one split, so the union is measured and scored
    # once; measuring and scoring both ranges executes about 102k lines
    n = 1000
    old, new = _blank_run(n)
    for a, b in ((old, new), (new, old)):
        flags = diff_lines(a, b, "myers")
        assert lines_executed(slide_changed_lines, flags, a, b) <= 75 * n
