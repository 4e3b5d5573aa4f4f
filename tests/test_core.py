import copy
import pickle
import random
import re
import sys
from pathlib import Path

import pytest

from diffmerge.core import (
    Change,
    ChangedLines,
    InternedSequence,
    InternTable,
    InvalidFlags,
    RangeError,
    apply_script,
    common_prefix,
    common_suffix,
    flags_to_script,
    render_unified,
)
from diffmerge.engine import ALGORITHMS, diff_lines
from diffmerge.slider import slide_changed_lines

import reference
from conftest import random_file

# perfbench's patch checker reads added lines from the patch text, where
# apply_script copies them from the new file; it is imported, not changed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from checks import apply_unified  # noqa: E402


@pytest.mark.parametrize("bounds", [(2, 1, 0, 0), (0, 0, 3, 2), (-1, 0, 0, 0), (0, 0, -1, 0)])
def test_change_rejects_a_malformed_range(bounds):
    with pytest.raises(RangeError, match="malformed change"):
        Change(*bounds)


_BUILDERS = {
    "positional": lambda bounds: Change(*bounds),
    "keywords": lambda bounds: Change(**dict(zip(Change._fields, bounds))),
    "make": Change._make,
    "replace": lambda bounds: Change(0, 0, 0, 0)._replace(**dict(zip(Change._fields, bounds))),
    "copy": lambda bounds: copy.copy(tuple.__new__(Change, bounds)),
    "pickle": lambda bounds: pickle.loads(pickle.dumps(tuple.__new__(Change, bounds))),
}


@pytest.mark.parametrize("build", sorted(_BUILDERS))
def test_every_way_of_building_a_change_checks_its_range(build):
    # copy and pickle rebuild through __new__ from the record's fields; the
    # unchecked tuple.__new__ only stands in for a record built elsewhere
    assert _BUILDERS[build]((1, 2, 3, 4)) == Change(1, 2, 3, 4)
    for bounds in [(2, 1, 0, 0), (0, 0, 3, 2), (-1, 0, 0, 0), (0, 0, -1, 0)]:
        with pytest.raises(RangeError, match=r"malformed change Change\(start_old="):
            _BUILDERS[build](bounds)


def test_change_is_an_immutable_record():
    change = Change(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        change.start_old = 0
    with pytest.raises(AttributeError):
        change.note = "no other attribute either"
    assert change == Change(1, 2, 3, 4) and hash(change) == hash(Change(1, 2, 3, 4))
    assert change != Change(1, 2, 3, 5)
    assert repr(change) == "Change(start_old=1, end_old=2, start_new=3, end_new=4)"


@pytest.mark.parametrize("script", [
    (Change(0, 3, 0, 0),),  # past the end of old
    (Change(0, 1, 0, 2),),  # past the end of new
    (Change(0, 2, 0, 0), Change(1, 2, 0, 1)),  # overlapping
    (Change(1, 2, 0, 0), Change(0, 1, 0, 1)),  # out of order
])
def test_apply_script_rejects_a_script_that_does_not_fit(script):
    table = InternTable()
    old, new = table.intern(b"p\nq\n"), table.intern(b"r\n")
    with pytest.raises(RangeError, match="does not fit old file of length 2"):
        apply_script(old, script, new)


def test_split_lines_basics():
    # interning splits on LF only and keeps each line's terminator
    def split(data):
        seq = InternTable().intern(data)
        return list(map(seq.lines.__getitem__, seq.tokens))

    assert split(b"") == []
    assert split(b"a\nb\na\n") == [b"a\n", b"b\n", b"a\n"]
    assert split(b"a\nb") == [b"a\n", b"b"]
    assert split(b"\n") == [b"\n"]


# Differential test against the first split and intern, kept in
# reference.py.  bytes.splitlines would also split on each control byte
# here except NUL; only LF may end a line.
_SPLIT_PIECES = (b"a", b"b", b" ", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x85", b"\x00", b"\n")
_SPLIT_FIXED = (b"", b"\n", b"a", b"a\rb\r\nc\x0bd\x0ce\x1cf\x1dg\x1eh\x85i\x00j\nk")


def test_split_and_intern_match_reference():
    rng = random.Random(20)
    triples = [
        _SPLIT_FIXED[:3], _SPLIT_FIXED[1:], _SPLIT_FIXED[::-1],
        # later files made only of lines the table has not seen
        (b"a\nb\n", b"c\nd\ne", b"f\n\n"),
        # a new line repeated within a later file, beside known ones
        (b"a\nb\n", b"x\na\nx\nx\nb\ny", b"y\nx\nz\nz\n"),
        # an empty first file: the second is the first to add lines
        (b"", b"a\nb\na\n", b"b\nc\na\nc\n"),
    ]
    for _ in range(600):
        triples.append(tuple(
            rng.choice(_SPLIT_FIXED) if rng.random() < 0.1
            else b"".join(rng.choice(_SPLIT_PIECES) for _ in range(rng.randrange(40)))
            for _ in range(3)
        ))
    for triple in triples:
        # the three files of one merge share one table
        table, ids, lines = InternTable(), {}, []
        for data in triple:
            got, want = table.intern(data), reference.intern_reference(ids, lines, data)
            assert (got.tokens, got.lines) == (want.tokens, want.lines), triple
            assert got.lines is table.lines and b"".join(map(got.lines.__getitem__, got.tokens)) == data, triple


def test_intern_empty_input():
    seq = InternTable().intern(b"")
    assert len(seq) == 0
    assert b"".join(map(seq.lines.__getitem__, seq.tokens)) == b""


def test_intern_repetition_gives_equal_tokens():
    seq = InternTable().intern(b"a\nb\na\n")
    assert len(seq) == 3
    assert seq.tokens[0] == seq.tokens[2]
    assert seq.tokens[0] != seq.tokens[1]


def test_intern_missing_final_newline_is_distinct():
    table = InternTable()
    with_nl = table.intern(b"a\nb\n")
    without = table.intern(b"a\nb")
    assert len(without) == 2
    assert without.lines[without.tokens[-1]] == b"b"
    # "b" and "b\n" must not compare equal
    assert with_nl.tokens[1] != without.tokens[1]
    assert with_nl.tokens[0] == without.tokens[0]


def test_intern_table_shared_across_files():
    table = InternTable()
    a = table.intern(b"x\n")
    b = table.intern(b"x\ny\n")
    assert a.tokens[0] == b.tokens[0]


def test_equal_lines_across_files_are_one_object():
    # the table keeps each distinct line once; its files read it through tokens
    table = InternTable()
    a = table.intern(b"x\ny\nx\n")
    b = table.intern(b"y\nz\nx\n")
    assert a.lines is b.lines is table.lines
    assert table.lines == [b"x\n", b"y\n", b"z\n"]
    texts = [seq.lines[t] for seq in (a, b) for t in seq.tokens]
    assert len({id(text) for text in texts}) == 3
    assert tuple(b"".join(map(x.lines.__getitem__, x.tokens)) for x in (a, b)) == (b"x\ny\nx\n", b"y\nz\nx\n")
    # a file that adds no line leaves the list as it was
    c = table.intern(b"z\n")
    assert table.lines == [b"x\n", b"y\n", b"z\n"] and c.lines is table.lines


def test_cr_is_line_content():
    seq = InternTable().intern(b"a\r\nb\n")
    assert [seq.lines[t] for t in seq.tokens] == [b"a\r\n", b"b\n"]


def test_flags_to_script_all_false():
    table = InternTable()
    old = table.intern(b"a\nb\n")
    new = table.intern(b"a\nb\n")
    flags = ChangedLines([False, False], [False, False])
    assert len(flags_to_script(flags, old, new)) == 0


def test_flags_to_script_single_substitution():
    table = InternTable()
    old = table.intern(b"a\nb\nc\n")
    new = table.intern(b"a\nX\nc\n")
    flags = ChangedLines([False, True, False], [False, True, False])
    script = flags_to_script(flags, old, new)
    assert script == (Change(1, 2, 1, 2),)


def test_flags_to_script_pure_deletion():
    table = InternTable()
    old = table.intern(b"a\nb\n")
    new = table.intern(b"b\n")
    flags = ChangedLines([True, False], [False])
    script = flags_to_script(flags, old, new)
    assert script == (Change(0, 1, 0, 0),)


def test_flags_are_one_byte_a_line_and_other_forms_convert():
    """Every algorithm and the slider give git's ``rchg`` format: a bytearray
    of 0s and 1s, one byte per line of each file.  ChangedLines converts flags
    given another way, as README's list-built example gives them, to that
    form, and they make the same hunks as the byte form."""
    rng = random.Random("byte-flags")
    table = InternTable()
    # two letters over 300 lines: every line repeats, so histogram and patience fall back to myers
    pairs = [(b"a\nb\nc\n", b"a\nx\nc\n"), (random_file(rng, 300, 2), random_file(rng, 300, 2)),
             (random_file(rng, 40, 5, True), random_file(rng, 40, 5, True)), (b"", b"a\n")]
    for old_data, new_data in pairs:
        old, new = table.intern(old_data), table.intern(new_data)
        for algorithm in ALGORITHMS:
            flags = diff_lines(old, new, algorithm)
            for got in (flags, *(slide_changed_lines(flags, old, new, heuristic) for heuristic in (True, False))):
                assert got.old_flags.__class__ is bytearray and got.new_flags.__class__ is bytearray
                assert (len(got.old_flags), len(got.new_flags)) == (len(old), len(new))
                assert set(got.old_flags) | set(got.new_flags) <= {0, 1}
    listed = ChangedLines([False, True, False], [0, 2, 0])
    assert listed.old_flags.__class__ is bytearray and listed.new_flags.__class__ is bytearray
    assert listed == ChangedLines(bytearray(b"\0\1\0"), bytearray(b"\0\1\0"))
    assert ChangedLines(bytearray(b"\1"), [True]).new_flags == bytearray(b"\1")
    old, new = table.intern(b"a\nb\nc\n"), table.intern(b"a\nx\nc\n")
    script = flags_to_script(diff_lines(old, new, "histogram"), old, new)
    assert flags_to_script(listed, old, new) == script == (Change(1, 2, 1, 2),)


def test_flags_to_script_rejects_mismatched_survivors():
    table = InternTable()
    old = table.intern(b"a\nb\n")
    new = table.intern(b"c\nb\n")
    with pytest.raises(InvalidFlags):
        flags_to_script(ChangedLines([False, False], [False, False]), old, new)


def test_apply_identity():
    table = InternTable()
    old = table.intern(b"p\nq\n")
    assert apply_script(old, (), old) == b"p\nq\n"


def test_apply_abab_extension():
    # the locality example file: abab with ab appended
    table = InternTable()
    old = table.intern(b"a\nb\na\nb\n")
    new = table.intern(b"a\nb\na\nb\na\nb\n")
    flags = diff_lines(old, new, "myers")
    script = flags_to_script(flags, old, new)
    assert apply_script(old, script, new) == b"a\nb\na\nb\na\nb\n"


def test_apply_random_round_trip_all_engines():
    rng = random.Random(2024)
    for _ in range(300):
        a = random_file(rng, 25, 4, allow_missing_nl=True)
        b = random_file(rng, 25, 4, allow_missing_nl=True)
        table = InternTable()
        old, new = table.intern(a), table.intern(b)
        for algo in ALGORITHMS:
            script = flags_to_script(diff_lines(old, new, algo), old, new)
            assert apply_script(old, script, new) == b


def test_diff_lines_rejects_an_unknown_algorithm_naming_the_known_ones():
    table = InternTable()
    old, new = table.intern(b"a\n"), table.intern(b"b\n")
    with pytest.raises(ValueError, match="'bogus'.*" + re.escape(str(ALGORITHMS))):
        diff_lines(old, new, "bogus")


def test_render_unified_identical_is_empty():
    table = InternTable()
    old = table.intern(b"same\n")
    assert render_unified(old, old, ()) == b""


def test_render_unified_single_line_change():
    # reference bytes captured from `git diff -U3` on the same inputs
    table = InternTable()
    old = table.intern(b"a\n")
    new = table.intern(b"b")
    script = flags_to_script(diff_lines(old, new, "myers"), old, new)
    assert render_unified(old, new, script, 3) == (
        b"@@ -1 +1 @@\n-a\n+b\n\\ No newline at end of file\n"
    )


def test_render_unified_context_and_trailing_newline_marker():
    table = InternTable()
    old = table.intern(b"x\ny\n")
    new = table.intern(b"x\nz")
    script = flags_to_script(diff_lines(old, new, "myers"), old, new)
    assert render_unified(old, new, script, 3) == (
        b"@@ -1,2 +1,2 @@\n x\n-y\n+z\n\\ No newline at end of file\n"
    )


def test_render_unified_deletion_at_eof_without_newline():
    table = InternTable()
    old = table.intern(b"a\nb")
    new = table.intern(b"a")
    script = flags_to_script(diff_lines(old, new, "minimal"), old, new)
    assert render_unified(old, new, script, 3) == (
        b"@@ -1,2 +1 @@\n"
        b"-a\n"
        b"-b\n\\ No newline at end of file\n"
        b"+a\n\\ No newline at end of file\n"
    )


def test_render_unified_hunk_merging_by_context():
    table = InternTable()
    old = table.intern(b"a\nx1\nx2\nx3\nx4\nx5\nx6\nx7\nb\n")
    new = table.intern(b"A\nx1\nx2\nx3\nx4\nx5\nx6\nx7\nB\n")
    script = flags_to_script(diff_lines(old, new, "minimal"), old, new)
    one_hunk = render_unified(old, new, script, 4)
    assert one_hunk.count(b"@@") == 2  # a single header
    two_hunks = render_unified(old, new, script, 3)
    assert two_hunks.count(b"@@") == 4


def _changed_lines(script):
    return sum(c.end_old - c.start_old + c.end_new - c.start_new for c in script)


def test_render_parse_apply_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        a = random_file(rng, 20, 3, allow_missing_nl=True)
        b = random_file(rng, 20, 3, allow_missing_nl=True)
        table = InternTable()
        old, new = table.intern(a), table.intern(b)
        script = flags_to_script(diff_lines(old, new, "myers"), old, new)
        context = rng.randrange(4)
        assert apply_unified(a, render_unified(old, new, script, context)) == (b, _changed_lines(script))


# lines a patch parser could mistake for its own syntax, and bytes that line
# splitting must carry through
_HOSTILE_LINES = [
    b"-x\n", b"+y\n", b"@@ -1 +1 @@\n", b"\\ No newline at end of file\n", b"<<<<<<< ours\n",
    b"a\r\n", b"\r\n", b"\x00\n", b"b\x00c\n", b"\n", b"a\n", b"b\n", b"-\n", b"+\n",
]


def test_render_parse_apply_round_trip_hostile_lines():
    rng = random.Random("render-parse-apply")
    for _ in range(300):
        old_lines = [rng.choice(_HOSTILE_LINES) for _ in range(rng.randrange(30))]
        new_lines = list(old_lines)
        for _ in range(rng.randrange(1, 5)):
            at = rng.randrange(len(new_lines) + 1)
            new_lines[at:at + rng.randrange(3)] = rng.choices(_HOSTILE_LINES, k=rng.randrange(3))
        a, b = b"".join(old_lines), b"".join(new_lines)
        if a and rng.random() < 0.3:
            a = a[:-1]
        if b and rng.random() < 0.3:
            b = b[:-1]
        table = InternTable()
        old, new = table.intern(a), table.intern(b)
        for algo in ALGORITHMS:
            flags = diff_lines(old, new, algo)
            for slide in (False, True):
                script = flags_to_script(slide_changed_lines(flags, old, new) if slide else flags, old, new)
                changed = _changed_lines(script)
                for context in range(4):
                    patch = render_unified(old, new, script, context)
                    assert apply_unified(a, patch) == (b, changed), (a, b, algo, slide, context)


# Differential tests against the line-by-line scan kept in reference.py.


def _script_or_error(fn, flags, old, new):
    try:
        return fn(flags, old, new)
    except InvalidFlags as exc:
        return f"InvalidFlags: {exc}"


def _valid_flags(rng, alphabet):
    """Two token lists and flags whose unflagged lines are one common sequence."""
    old, new, of, nf = [], [], [], []
    for _ in range(rng.randrange(25)):
        for tokens, flags in ((old, of), (new, nf)):
            for _ in range(rng.choice((0, 0, 1, 3))):
                tokens.append(rng.randrange(alphabet))
                flags.append(True)
        common = rng.randrange(alphabet)
        old.append(common)
        new.append(common)
        of.append(False)
        nf.append(False)
    if rng.random() < 0.5 and old:
        # end on a change, or with one file's tail entirely flagged
        old.append(rng.randrange(alphabet))
        of.append(True)
    return old, new, of, nf


def test_flags_to_script_matches_reference():
    rng = random.Random(83)
    for trial in range(3000):
        alphabet = rng.choice((1, 2, 3, 50))
        if trial % 2:
            old, new, of, nf = _valid_flags(rng, alphabet)
        else:
            # random flags: mostly invalid, raising at a mismatch or a tail
            old = [rng.randrange(alphabet) for _ in range(rng.randrange(20))]
            new = [rng.randrange(alphabet) for _ in range(rng.randrange(20))]
            density = rng.choice((0.0, 0.3, 0.7, 1.0))
            of = [rng.random() < density for _ in old]
            nf = [rng.random() < density for _ in new]
        o, n = InternedSequence(old, []), InternedSequence(new, [])
        flags = ChangedLines(of, nf)
        got = _script_or_error(flags_to_script, flags, o, n)
        assert got == _script_or_error(reference.flags_to_script_reference, flags, o, n), (old, new, of, nf)
        if trial % 2:
            assert type(got) is tuple and all(type(c) is Change for c in got)
    o, n = InternedSequence([1, 2], []), InternedSequence([1], [])
    flags = ChangedLines([False], [False])
    assert _script_or_error(flags_to_script, flags, o, n) == "InvalidFlags: flag arrays do not match file lengths"


# runs around the galloping start (8), its first doubling (16) and a long one
_RUN_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 17, 1000)


@pytest.mark.parametrize("run", _RUN_LENGTHS)
def test_common_runs_match_reference(run):
    # a run of `run` equal lines between random padding, ended by a mismatch;
    # every limit from 0 to 40 and around the run's length, in both directions
    rng = random.Random(f"common-run-{run}")
    for _ in range(3):
        common = [rng.randrange(4) for _ in range(run)]
        pad_a = [rng.randrange(4) for _ in range(rng.randrange(5))]
        pad_b = [rng.randrange(4) for _ in range(rng.randrange(5))]
        tail_a = [rng.randrange(4) for _ in range(60)]
        tail_b = [rng.randrange(4) for _ in range(60)]
        limits = {*range(41), run - 1, run, run + 1, run + 40}
        # forward: a = pad + common + 4 + tail, b = pad + common + 5 + tail
        a, b = pad_a + common + [4] + tail_a, pad_b + common + [5] + tail_b
        i, j = len(pad_a), len(pad_b)
        for limit in limits:
            if 0 <= limit <= min(len(a) - i, len(b) - j):
                want = reference.common_prefix_reference(a, i, b, j, limit)
                assert want == min(run, limit)
                assert common_prefix(a, i, b, j, limit) == want, (run, limit)
        # backward: the mirror image, measured back from the end of the run
        a, b = tail_a + [4] + common + pad_a, tail_b + [5] + common + pad_b
        i, j = len(a) - len(pad_a), len(b) - len(pad_b)
        for limit in limits:
            if 0 <= limit <= min(i, j):
                want = reference.common_suffix_reference(a, i, b, j, limit)
                assert want == min(run, limit)
                assert common_suffix(a, i, b, j, limit) == want, (run, limit)


def test_common_runs_match_reference_on_random_lists():
    # small alphabets make runs of every length; the start and limit are random
    rng = random.Random(16)
    for _ in range(3000):
        alphabet = rng.choice((1, 2, 3))
        a = [rng.randrange(alphabet) for _ in range(rng.randrange(80))]
        b = [rng.randrange(alphabet) for _ in range(rng.randrange(80))]
        i, j = rng.randrange(len(a) + 1), rng.randrange(len(b) + 1)
        limit = rng.randrange(min(len(a) - i, len(b) - j) + 1)
        assert common_prefix(a, i, b, j, limit) == reference.common_prefix_reference(a, i, b, j, limit), (a, i, b, j, limit)
        limit = rng.randrange(min(i, j) + 1)
        assert common_suffix(a, i, b, j, limit) == reference.common_suffix_reference(a, i, b, j, limit), (a, i, b, j, limit)


def test_star_import_matches_all():
    import diffmerge

    namespace = {}
    exec("from diffmerge import *", namespace)
    for name in diffmerge.__all__:
        assert hasattr(diffmerge, name), name
        assert namespace[name] is getattr(diffmerge, name)
