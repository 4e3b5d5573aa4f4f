"""git's change compaction (``xdl_change_compact``, ``xdiff/xdiffi.c``).

The rules are pinned on small files, and the package's group-at-a-time walk
is compared with reference.py's literal port, which moves groups a line at
a time in both files and measures each split on its own, as git does.
"""

import json
import random

import pytest

from diffmerge.core import ChangedLines, Change, InternTable, apply_script, flags_to_script
from diffmerge.engine import ALGORITHMS, diff_lines
from diffmerge.slider import Indents, line_indent, slide_changed_lines, split_score

import reference
from reference import SplitScore, get_indent_reference, measure_split_reference, score_add_split_reference
from conftest import lines_executed, random_file
from make_git_fixtures import DIFF_SETTINGS, FIXTURES, unb64


def test_line_indent_tabs_and_blanks():
    assert line_indent(b"x\n") == 0
    assert line_indent(b"    x\n") == 4
    assert line_indent(b"\tx\n") == 8
    assert line_indent(b"  \tx\n") == 8
    assert line_indent(b"   \n") == -1
    assert line_indent(b"\n") == -1
    assert line_indent(b" \r\n") == -1
    # git's isspace holds no form feed or vertical tab: either ends the indent
    assert line_indent(b"\f\n") == line_indent(b"\v\n") == 0
    assert line_indent(b"  \fx\n") == 2


def test_line_indent_is_capped_at_200_columns():
    assert line_indent(b" " * 199 + b"x\n") == 199
    assert line_indent(b" " * 250 + b"x\n") == 200
    assert line_indent(b"\t" * 30 + b"x\n") == 200
    # git stops as soon as the width reaches the cap, so a whitespace-only
    # line of 200 columns or more reads as indented, not blank
    assert line_indent(b" " * 199 + b"\n") == -1
    assert line_indent(b" " * 200 + b"\n") == 200
    assert line_indent(b"\t" * 25 + b"\n") == 200
    assert line_indent(b" " * 250 + b"\n") == 200
    for record in (b" " * 199 + b"\n", b" " * 200 + b"\n", b"\t" * 25 + b"\n", b"\f\n", b"\t \r\n", b"  y\n"):
        assert line_indent(record) == get_indent_reference(record), record


def _scores(data: bytes, splits) -> list[tuple[int, int]]:
    """split_score of each split, (effective indent, penalty), which must be
    what git's measure_split and score_add_split give in the reference."""
    seq = InternTable().intern(data)
    recs = [seq.lines[t] for t in seq.tokens]
    indents = Indents(seq.lines)
    got = []
    for split in splits:
        want = SplitScore()
        score_add_split_reference(measure_split_reference(recs, split), want)
        got.append(split_score(seq.tokens, indents, split))
        assert got[-1] == (want.effective_indent, want.penalty), (data, split)
    return got


def _score(data: bytes, split: int) -> tuple[int, int]:
    return _scores(data, [split])[0]


def _position_score(data: bytes, start: int, size: int) -> tuple[int, int]:
    """The summed (effective indent, penalty) of a group's two splits."""
    top, bottom = _score(data, start), _score(data, start + size)
    return top[0] + bottom[0], top[1] + bottom[1]


def _better(s1: tuple[int, int], s2: tuple[int, int]) -> bool:
    """git's score_cmp(s1, s2) < 0."""
    return 60 * ((s1[0] > s2[0]) - (s1[0] < s2[0])) + s1[1] - s2[1] < 0


def test_split_penalty_start_of_file():
    # split 0 of a file whose first two lines sit at indent 0
    assert _score(b"a\nb\n", 0) == (0, 1)


def test_split_penalty_end_of_file():
    # git counts the end of the file as one blank line below the split, with
    # effective indent -1: 21 - 30 + 6
    assert _score(b"a\n", 1) == (-1, 21 - 30 + 6)
    # and the blank lines above it as well
    assert _score(b"a\n\n", 2) == (-1, 21 - 30 * 2 + 6)


def test_split_penalty_blank_terms():
    # split at a blank line with one blank above: 2 blanks around, 1 after
    assert _score(b"    a\n\n\n    b\n", 2) == (4, 2 * -30 + 1 * 6)


def test_measure_split_blank_line_inherits_following_indent():
    m = measure_split_reference([b"a\n", b"\n", b"    b\n"], 1)
    assert (m.indent, m.post_indent) == (-1, 4)
    assert _score(b"a\n\n    b\n", 1)[0] == 4


def test_measure_split_blank_run_to_eof_is_undefined():
    # no line below the blank run: the effective indent is git's -1
    m = measure_split_reference([b"a\n", b"\n", b"\n"], 1)
    assert (m.indent, m.post_indent) == (-1, -1)
    assert _score(b"a\n\n\n", 1)[0] == -1


def test_blank_runs_are_measured_up_to_20_lines():
    # 25 blank lines above the split: git counts 20 and reads the line above
    # them as indent 0, so an indented line below the run is a relative indent
    data = b"        x\n" + b"\n" * 25 + b"    y\n"
    assert _score(data, 26) == (4, -30 * 20 + 10)
    # the same below a split
    m = measure_split_reference([b"a\n"] + [b"\n"] * 25 + [b"    y\n"], 0)
    assert (m.pre_blank, m.post_blank, m.post_indent) == (0, 20, 0)


def test_penalty_ordering_invariant_under_constant_indent():
    base = (
        b"def f():\n"
        b"    a\n"
        b"    a\n"
        b"\n"
        b"x\n"
    )
    shifted = b"".join(b"  " + line if line.strip() else line for line in base.splitlines(keepends=True))
    for split in range(6):
        (indent1, penalty1), (indent2, penalty2) = _score(base, split), _score(shifted, split)
        # relation categories unchanged => identical penalty
        assert penalty1 == penalty2
        # the bias compares totals, which shift together
        assert indent2 >= indent1


def _flagged(flags: ChangedLines) -> tuple[list[int], list[int]]:
    return tuple([i for i, f in enumerate(side) if f] for side in (flags.old_flags, flags.new_flags))


def _compact(old: bytes, new: bytes, flags=None, indent_heuristic=True, algorithm="myers"):
    """The flagged lines of old and new after compaction of ``flags`` (by
    default, the algorithm's diff), which must equal the literal port's."""
    table = InternTable()
    a, b = table.intern(old), table.intern(new)
    if flags is None:
        flags = diff_lines(a, b, algorithm)
    got = slide_changed_lines(flags, a, b, indent_heuristic)
    assert got == reference.slide_changed_lines_reference(flags, a, b, indent_heuristic)
    return _flagged(got)


def test_slidable_range_distinct_borders():
    # b between a and c differs from both: the group cannot move
    flags = ChangedLines([False, False], [False, True, False])
    for heuristic in (True, False):
        assert _compact(b"a\nc\n", b"a\nb\nc\n", flags, heuristic) == ([], [1])


def test_slidable_range_repeated_insertion():
    # one b inserted into a b b c can sit on any of the three b's; from each,
    # the group slides the whole run, and ends at its bottom in both settings
    old, new = b"a\nb\nb\nc\n", b"a\nb\nb\nb\nc\n"
    for at in (1, 2, 3):
        flags = ChangedLines([False] * 4, [i == at for i in range(5)])
        for heuristic in (True, False):
            assert _compact(old, new, flags, heuristic) == ([], [3]), (at, heuristic)


def test_slide_group_not_slidable_is_unchanged():
    flags = ChangedLines([False, True, False], [False, False])
    for heuristic in (True, False):
        assert _compact(b"a\nb\nc\n", b"a\nc\n", flags, heuristic) == ([1], [])


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
    old, new = _function_boundary_files()
    # the four added lines can start at lines 2, 3 or 4; the heuristic scores
    # each position's two splits, and no start scores better than line 4,
    # "def middle():"
    for start in (2, 3):
        assert not _better(_position_score(new, start, 4), _position_score(new, 4, 4))
    assert _compact(old, new, algorithm="minimal") == ([], [4, 5, 6, 7])
    # with the heuristic off, git leaves the group at the bottom of its range
    assert _compact(old, new, algorithm="minimal", indent_heuristic=False) == ([], [4, 5, 6, 7])
    assert _compact(old, new, ChangedLines([False] * 6, [False] * 2 + [True] * 4 + [False] * 4), False) \
        == ([], [4, 5, 6, 7])


def test_three_line_insertion_picks_function_boundary():
    # single-blank separators: the inserted trio can sit at two positions and
    # the weights favour the one whose group starts at the new def line
    old = b"def alpha():\n    return 1\n\ndef omega():\n    return 9\n"
    new = b"def alpha():\n    return 1\n\ndef middle():\n    return 5\n\ndef omega():\n    return 9\n"
    for at in (2, 3):
        flags = ChangedLines([False] * 5, [at <= i < at + 3 for i in range(8)])
        assert _compact(old, new, flags) == ([], [3, 4, 5])
        # off, the group goes to the bottom, which starts at the def line too
        assert _compact(old, new, flags, False) == ([], [3, 4, 5])


def test_tied_shifts_pick_the_last_shift():
    # every split around the inserted b scores penalty 0 and indent 0, so each
    # position ties; git's score_cmp(score, best) <= 0 keeps the last
    old, new = b"a\nb\nb\nc\n", b"a\nb\nb\nb\nc\n"
    for split in (2, 3, 4):
        assert _score(new, split) == (0, 0)
    flags = ChangedLines([False] * 4, [False, True, False, False, False])
    assert _compact(old, new, flags) == ([], [3])


def test_heuristic_window_is_group_size_plus_one():
    # a fourth "def f():" added below a blank line: it can sit on any of the
    # four, and the scores prefer the first, right below the blank line, but
    # git scores only the last size + 2 positions of a group of size 1
    old = b"\n" + b"def f():\n" * 3 + b"    a\n"
    new = b"\n" + b"def f():\n" * 4 + b"    a\n"
    assert _better(_position_score(new, 1, 1), _position_score(new, 3, 1))
    for at in (1, 4):
        flags = ChangedLines([False] * 5, [i == at for i in range(6)])
        assert _compact(old, new, flags) == ([], [3])


def test_heuristic_window_is_at_most_100_shifts():
    # the same with 150 lines added to 120: size + 2 positions would reach
    # the first, but git's window stops 100 shifts above the bottom
    old = b"\n" + b"def f():\n" * 120 + b"    a\n"
    new = b"\n" + b"def f():\n" * 270 + b"    a\n"
    assert _better(_position_score(new, 1, 150), _position_score(new, 119, 150))
    flags = ChangedLines([False] * 122, [0 < i <= 150 for i in range(272)])
    assert _compact(old, new, flags) == ([], list(range(120, 270)))


def test_groups_fuse_when_they_meet():
    # p q q q s against p q s, with the first and last q added: the first
    # group slides down onto the second, and the two compact as one group
    flags = ChangedLines([False] * 3, [False, True, False, True, False])
    for heuristic in (True, False):
        assert _compact(b"p\nq\ns\n", b"p\nq\nq\nq\ns\n", flags, heuristic) == ([], [2, 3])


def test_groups_align_with_the_other_files_change():
    # a Y b c against a b b c, with Y deleted and the second b added: the
    # added b slides up level with the deleted Y, so the diff is one change,
    # where the heuristic alone would keep the b at the bottom of its run
    flags = ChangedLines([False, True, False, False], [False, False, True, False])
    table = InternTable()
    old, new = table.intern(b"a\nY\nb\nc\n"), table.intern(b"a\nb\nb\nc\n")
    for heuristic in (True, False):
        got = slide_changed_lines(flags, old, new, heuristic)
        assert _flagged(got) == ([1], [1])
        assert flags_to_script(got, old, new) == (Change(1, 2, 1, 2),)
    # with nothing to align with, the heuristic keeps the last tied position
    assert _compact(b"a\nb\nc\n", b"a\nb\nb\nc\n", ChangedLines([False] * 3, [False, False, True, False])) \
        == ([], [2])


def test_compaction_runs_old_then_new_and_is_not_idempotent():
    # git compacts old against new, then new against old, once; a second run
    # here starts from flags the first run left, and moves old's change
    table = InternTable()
    old, new = table.intern(b"a\na\na\nb\nb\na\na\n"), table.intern(b"a\nb\na\nb\nb\nb\nb\nb\na\na\na\na\n")
    once = slide_changed_lines(diff_lines(old, new, "minimal"), old, new)
    twice = slide_changed_lines(once, old, new)
    assert once == reference.slide_changed_lines_reference(diff_lines(old, new, "minimal"), old, new)
    assert twice == reference.slide_changed_lines_reference(once, old, new)
    assert _flagged(once)[0] == [2] and _flagged(twice)[0] == [1]


def test_sliding_preserves_counts_and_round_trip():
    rng = random.Random(77)
    for _ in range(400):
        a = random_file(rng, 20, 2, allow_missing_nl=True)
        b = random_file(rng, 20, 2, allow_missing_nl=True)
        table = InternTable()
        old, new = table.intern(a), table.intern(b)
        flags = diff_lines(old, new, "myers")
        for heuristic in (True, False):
            slid = slide_changed_lines(flags, old, new, heuristic)
            assert slid.flag_count() == flags.flag_count()
            script = flags_to_script(slid, old, new)
            assert apply_script(old, script, new) == b


def test_compaction_matches_reference_on_the_git_fixture():
    fixtures = json.loads(FIXTURES.read_text())
    for case in fixtures["diff"]:
        table = InternTable()
        old, new = table.intern(unb64(case["old"])), table.intern(unb64(case["new"]))
        for setting in DIFF_SETTINGS:
            algorithm, heuristic = setting.split("/")
            flags = diff_lines(old, new, algorithm)
            on = heuristic == "indent-heuristic"
            assert slide_changed_lines(flags, old, new, on) == reference.slide_changed_lines_reference(
                flags, old, new, on), (case["key"], setting)


# Differential tests against the literal port in reference.py, on files with
# long runs of blank lines of several kinds and large groups of one line

_BLANKS = (b"\n", b"\n", b"  \n", b"\t\n", b"\r\n")
_TEXT = (b"x\n", b"    y\n", b"\tz\n", b"  }\n", b"}\n", b"        w\n", b"\f\n")


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
        if rng.random() < 0.25:
            # a run of one line that new has 100-160 more of: a group larger
            # than git's 100-shift window
            run = rng.randrange(160)
            line = rng.choice(_BLANKS + _TEXT)
            old[at:at] = [line] * run
            new[at:at] = [line] * (run + rng.randrange(100, 160))
        else:
            new[at:at + rng.randrange(3)] = rng.choice((_BLANKS, _TEXT))[:rng.randrange(1, 4)] * rng.randrange(1, 4)
    if rng.random() < 0.2:
        new[-1:] = [line.rstrip(b"\n") for line in new[-1:]]
    return old, new


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_slide_and_measure_match_reference(algorithm):
    rng = random.Random(f"slider-{algorithm}")
    moved = 0
    for _ in range(100):
        old_lines, new_lines = _blank_pair(rng)
        table = InternTable()
        old, new = table.intern(b"".join(old_lines)), table.intern(b"".join(new_lines))
        for a, b in ((old, new), (new, old)):
            flags = diff_lines(a, b, algorithm)
            for heuristic in (True, False):
                got = slide_changed_lines(flags, a, b, heuristic)
                assert got == reference.slide_changed_lines_reference(flags, a, b, heuristic), heuristic
                moved += got != flags
        _scores(b"".join(new_lines), range(len(new) + 1))
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
        # the group slides over all n + 1 positions, up and then down
        assert lines_executed(slide_changed_lines, flags, a, b) <= 200 * n


def test_slide_measures_each_split_once():
    # a one-line group in a blank run: git scores only the last three of its
    # n + 1 positions, and reads at most 20 blank lines either side of a split
    n = 1000
    old, new = _blank_run(n)
    for a, b in ((old, new), (new, old)):
        flags = diff_lines(a, b, "myers")
        assert lines_executed(slide_changed_lines, flags, a, b) <= 75 * n
