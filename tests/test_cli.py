import io
import json
import os
import random
import sys
import tracemalloc

import pytest

from diffmerge import oracle
from diffmerge.cli import main
from diffmerge.engine import ALGORITHMS
from diffmerge.merge3 import STYLES

from conftest import edited_source, source_lines


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def test_diff_identical_files_exit_zero(tmp_path, capsys):
    f = write(tmp_path, "f", b"same\n")
    assert main(["diff", f, f]) == 0
    assert capsys.readouterr().out == ""


def test_diff_different_files_exit_one(tmp_path, capsys):
    a = write(tmp_path, "a", b"x\n")
    b = write(tmp_path, "b", b"y\n")
    assert main(["diff", a, b]) == 1
    out = capsys.readouterr().out
    assert "@@ -1 +1 @@" in out
    assert "-x" in out and "+y" in out


def test_diff_missing_file_exit_three(tmp_path):
    a = write(tmp_path, "a", b"x\n")
    assert main(["diff", a, str(tmp_path / "nope")]) == 3


def test_internal_fault_exits_three_not_one(tmp_path, monkeypatch, capsys):
    # a split that returns a corner of its box trips the search's own check;
    # the DiffError it raises is a fault, not "differences" (exit 1).  Every
    # line is in both files and no end is common, so the search gets all four
    from diffmerge import myers

    monkeypatch.setattr(myers, "_split", lambda env, off1, lim1, off2, lim2, need_min: (off1, off2, True, True))
    a = write(tmp_path, "a", b"1\n2\n3\n4\n")
    b = write(tmp_path, "b", b"2\n1\n4\n3\n")
    assert main(["diff", a, b]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: split of box (0, 4, 0, 4) returned pivot (0, 0)\n"


def test_diff_header_writes_a_name_that_is_not_utf8_as_its_bytes(tmp_path, capsysbinary):
    old = write(tmp_path, os.fsdecode(b"old\xff"), b"x\n")
    new = write(tmp_path, "new", b"y\n")
    assert main(["diff", old, new]) == 1
    out = capsysbinary.readouterr().out
    assert out.startswith(b"--- " + os.fsencode(old) + b"\n+++ " + os.fsencode(new) + b"\n@@ -1 +1 @@\n")
    assert b"/old\xff\n" in out


def _second_run_peak(argv, expected):
    """The tracemalloc peak of main(argv), run once untraced first: that run
    builds the parser, which lives for the process.  Both runs must exit
    ``expected``, and each writes its output to a buffer of its own."""
    stdout, stderr = sys.stdout, sys.stderr
    try:
        sys.stderr = io.StringIO()
        sys.stdout = io.TextIOWrapper(io.BytesIO())
        assert main(argv) == expected
        sys.stdout = io.TextIOWrapper(io.BytesIO())
        tracemalloc.start()
        try:
            assert main(argv) == expected
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        sys.stdout, sys.stderr = stdout, stderr


def diff_peak(directory, algorithm):
    """The second-run peak of ``diff`` on a seeded 5k-line source pair with 50
    edits, and the pair's bytes.  The memory gates and CI's record share it."""
    rng = random.Random(5000)
    old = source_lines(rng, 5000)
    new = list(old)
    for _ in range(50):
        i = rng.randrange(len(new))
        new[i:i + rng.randrange(3)] = source_lines(rng, rng.randrange(1, 4))
    size = len(b"".join(old)) + len(b"".join(new))
    argv = ["diff", f"--algorithm={algorithm}", write(directory, "old", b"".join(old)), write(directory, "new", b"".join(new))]
    return _second_run_peak(argv, 1), size


def merge_file_peak(directory, style):
    """The second-run peak of ``merge-file`` on a seeded 5k-line source triple
    with 50 edits a side, and the three files' bytes."""
    rng = random.Random(5001)
    base = source_lines(rng, 5000)
    left, right = edited_source(rng, base, 50), edited_source(rng, base, 50)
    size = sum(len(b"".join(lines)) for lines in (left, base, right))
    paths = [write(directory, name, b"".join(lines)) for name, lines in (("left", left), ("base", base), ("right", right))]
    # every style leaves conflicts in this triple: 5 under merge, 6 under diff3 and zdiff3
    return _second_run_peak(["merge-file", f"--style={style}", *paths], 1), size


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_diff_peak_memory_is_a_small_multiple_of_the_input(tmp_path, algorithm):
    # each distinct line is kept once, interning holds no list of the file's
    # lines and the diff holds neither file's bytes: a 5k-line pair peaks at
    # 3.8-4.4 times its bytes (3.9 under myers).  With a listed file read
    # before interning and Myers' kept-position lists it read 4.4-5.3 (5.3
    # under myers); with a bytes object per line, the file bytes and the
    # table's dict besides, 7.6-8.6.  cmd_diff's bytes are a temporary of
    # intern's call, freed when it returns under every Python version
    peak, size = diff_peak(tmp_path, algorithm)
    assert peak < 5.0 * size, f"peak {peak / size:.2f} x the input's {size} bytes"


@pytest.mark.parametrize("style", STYLES)
def test_merge_file_peak_memory_is_a_small_multiple_of_the_input(tmp_path, style):
    # merge3 frees the three files' bytes once they are interned, and
    # interning and histogram's index allocate per distinct line: a 5k-line
    # triple peaks at 3.16-3.18 times its bytes on 3.11.  Holding the bytes
    # through the merge, listing each file's lines to intern them and keeping
    # a list per line in the index, it read 4.74; with only one of the three
    # back, 4.17, 3.62 and 3.74.  Before 3.11 a call keeps its arguments on
    # the caller's stack until it returns, so cmd_merge_file holds the three
    # files' bytes (1 x the input) through the merge whatever merge3 frees
    held = 1.0 if sys.version_info < (3, 11) else 0.0
    peak, size = merge_file_peak(tmp_path, style)
    assert peak < (3.5 + held) * size, f"peak {peak / size:.2f} x the three files' {size} bytes"


def test_diff_histogram_bad_pair_counts(tmp_path, capsys):
    before = write(tmp_path, "before", b"A\n" + b"b\nc\n" * 3)
    after = write(tmp_path, "after", b"b\nc\n" * 3 + b"A\n")
    main(["diff", before, after, "--algorithm=histogram", "--context=0"])
    hist = capsys.readouterr().out
    hist_flags = sum(1 for l in hist.splitlines() if l[:1] in "+-" and not l.startswith(("---", "+++")))
    main(["diff", before, after, "--algorithm=minimal", "--context=0"])
    mini = capsys.readouterr().out
    mini_flags = sum(1 for l in mini.splitlines() if l[:1] in "+-" and not l.startswith(("---", "+++")))
    assert hist_flags == 12
    assert mini_flags == 2


def test_diff_minimal_verify_on_random_corpus(tmp_path):
    rng = random.Random(55)
    for i in range(25):
        a = write(tmp_path, f"a{i}", b"".join(rng.choice([b"p\n", b"q\n", b"r\n"]) for _ in range(rng.randrange(20))))
        b = write(tmp_path, f"b{i}", b"".join(rng.choice([b"p\n", b"q\n", b"r\n"]) for _ in range(rng.randrange(20))))
        code = main(["diff", a, b, "--algorithm=minimal", "--verify"])
        assert code in (0, 1)  # never 2: the oracle must agree


def _edited_pair(tmp_path, lines):
    rng = random.Random(lines)
    old = [b"line %d\n" % rng.randrange(lines) for _ in range(lines)]
    new = list(old)
    for _ in range(lines // 50):
        new[rng.randrange(lines)] = b"edit %d\n" % rng.randrange(lines)
    return write(tmp_path, "old", b"".join(old)), write(tmp_path, "new", b"".join(new))


def test_diff_minimal_verify_above_the_old_2000_line_guard(tmp_path):
    old, new = _edited_pair(tmp_path, 2500)
    assert main(["diff", old, new, "--algorithm=minimal", "--verify"]) == 1


def test_diff_minimal_verify_above_the_oracle_guard_is_an_error(tmp_path, monkeypatch, capsys):
    old, new = _edited_pair(tmp_path, 300)
    monkeypatch.setattr(oracle, "_LCS_LIMIT", 200)
    assert main(["diff", old, new, "--algorithm=minimal", "--verify"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "guard" in err


def test_diff_verify_fails_on_a_diff_that_is_not_minimal(tmp_path, monkeypatch, capsys):
    from diffmerge import cli
    from diffmerge.core import ChangedLines

    def flag_everything(old, new, algorithm):
        return ChangedLines([True] * len(old), [True] * len(new))

    old = write(tmp_path, "old", b"a\nb\nc\n")
    new = write(tmp_path, "new", b"a\nB\nc\n")
    monkeypatch.setattr(cli, "diff_lines", flag_everything)
    assert main(["diff", old, new, "--algorithm=minimal", "--verify"]) == 2
    err = capsys.readouterr().err
    assert err == "verify: minimal diff has 6 flags, oracle says 2\n"
    # the same flags round-trip, so only the minimality check can fail
    assert main(["diff", old, new, "--algorithm=myers", "--verify"]) == 1


def test_diff_verify_fails_on_a_broken_round_trip(tmp_path, monkeypatch, capsys):
    from diffmerge import cli

    old = write(tmp_path, "old", b"a\n")
    new = write(tmp_path, "new", b"b\n")
    monkeypatch.setattr(cli, "apply_script", lambda old, script, new: b"")
    assert main(["diff", old, new, "--verify"]) == 2
    assert capsys.readouterr().err == "verify: round-trip failed\n"


@pytest.mark.parametrize("value", ["-1", "x"])
def test_diff_rejects_a_bad_context(tmp_path, capsys, value):
    a = write(tmp_path, "a", b"x\n")
    b = write(tmp_path, "b", b"y\n")
    assert main(["diff", a, b, "--context", value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--context" in captured.err


def test_merge_file_left_equals_base_prints_right(tmp_path, capsys):
    base = write(tmp_path, "base", b"a\nb\n")
    left = write(tmp_path, "left", b"a\nb\n")
    right = write(tmp_path, "right", b"a\nX\nb\n")
    assert main(["merge-file", left, base, right]) == 0
    assert capsys.readouterr().out == "a\nX\nb\n"


def test_merge_file_abab_conflict_exit_one(tmp_path, capsys):
    o = b"a\nb\n" * 2
    base = write(tmp_path, "base", o)
    left = write(tmp_path, "left", b"a\nb\n" + o)
    right = write(tmp_path, "right", b"a\nb\nc\n")
    assert main(["merge-file", left, base, right]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("<<<<<<<") == 1
    assert "conflict" in captured.err


def test_merge_file_swapped_inputs_change_middle_line(tmp_path, capsys):
    base = write(tmp_path, "base", b"X\n")
    left = write(tmp_path, "left", b"A\na\nb\nc\nB\na\nb\nc\n")
    right = write(tmp_path, "right", b"B\na\nb\nc\nA\na\nb\nc\n")
    main(["merge-file", left, base, right])
    first = capsys.readouterr().out
    main(["merge-file", right, base, left])
    second = capsys.readouterr().out

    def middle(out):
        return out.split(">>>>>>> theirs\n")[1].split("<<<<<<< ours\n")[0]

    assert middle(first).startswith("B")
    assert middle(second).startswith("A")


def test_merge_file_diff3_ignores_no_zealous(tmp_path, capsys):
    base = write(tmp_path, "base", b"b\n")
    left = write(tmp_path, "left", b"l\n")
    right = write(tmp_path, "right", b"r\n")
    assert main(["merge-file", left, base, right, "--style=diff3"]) == 1
    zealous = capsys.readouterr().out
    assert main(["merge-file", left, base, right, "--style=diff3", "--no-zealous"]) == 1
    out = capsys.readouterr().out
    assert "||||||| base" in out
    assert zealous == out


# Written by git 2.39.5 from the three files of the test below:
#   git merge-file -p --diff3 -L mine -L orig -L yours left base right
GIT_MERGE_FILE_DIFF3 = (
    b"one\nTWO\nthree\n"
    b"<<<<<<< mine\nL4\nshared\nL5\n||||||| orig\nfour\nfive\n=======\nR4\nshared\nR5\n>>>>>>> yours\n"
    b"six\nseven\neight\n"
)


@pytest.mark.parametrize("zealous", [[], ["--no-zealous"]], ids=["zealous", "no-zealous"])
def test_merge_file_diff3_labels_match_git(tmp_path, capsysbinary, zealous):
    base = write(tmp_path, "base", b"one\ntwo\nthree\nfour\nfive\nsix\nseven\n")
    left = write(tmp_path, "left", b"one\nTWO\nthree\nL4\nshared\nL5\nsix\nseven\neight\n")
    right = write(tmp_path, "right", b"one\nTWO\nthree\nR4\nshared\nR5\nsix\nseven\n")
    args = ["merge-file", left, base, right, "--style=diff3", "--labels", "mine", "orig", "yours"]
    assert main(args + zealous) == 1
    assert capsysbinary.readouterr().out == GIT_MERGE_FILE_DIFF3


def test_merge_file_writes_a_label_that_is_not_utf8_as_its_bytes(tmp_path, capsysbinary):
    base = write(tmp_path, "base", b"b\n")
    left = write(tmp_path, "left", b"l\n")
    right = write(tmp_path, "right", b"r\n")
    assert main(["merge-file", left, base, right, "--labels", os.fsdecode(b"o\xff"), "b", "t\u00e9"]) == 1
    assert capsysbinary.readouterr().out == b"<<<<<<< o\xff\nl\n=======\nr\n>>>>>>> t\xc3\xa9\n"


def test_graph_merge_and_stats(tmp_path, capsys):
    script = write(
        tmp_path,
        "graph.jsonl",
        b'{"id": "base", "parents": [], "files": {"f": "0\\n"}, "ts": 0}\n'
        b'{"id": "l", "parents": ["base"], "files": {"f": "0\\nl\\n"}, "ts": 1}\n'
        b'{"id": "r", "parents": ["base"], "files": {"f": "r\\n0\\n"}, "ts": 2}\n',
    )
    assert main(["graph", "merge", script, "l", "r"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "clean"
    assert payload["tree"]["f"] == "r\n0\nl\n"
    assert payload["merge_calls"] == 1


def test_graph_merge_crisscross_builds_virtual_base(tmp_path, capsys):
    script = write(
        tmp_path,
        "criss.jsonl",
        b'{"id": "c1", "parents": [], "files": {"f": "x\\n"}, "ts": 0}\n'
        b'{"id": "c3", "parents": [], "files": {"f": "x\\n"}, "ts": 1}\n'
        b'{"id": "c2", "parents": ["c1", "c3"], "files": {"f": "x\\n"}, "ts": 2}\n'
        b'{"id": "c4", "parents": ["c3", "c1"], "files": {"f": "x\\n"}, "ts": 3}\n',
    )
    assert main(["graph", "merge", script, "c2", "c4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # one top-level call plus one recursive call for the two-element base fold
    assert payload["merge_calls"] == 2


def test_graph_rebase_both_directions(tmp_path, capsys):
    script = write(
        tmp_path,
        "rebase.jsonl",
        b'{"id": "o", "parents": [], "files": {"f": "b\\n"}, "ts": 0}\n'
        b'{"id": "x1", "parents": ["o"], "files": {"f": "b\\nb\\n"}, "ts": 1}\n'
        b'{"id": "x2", "parents": ["x1"], "files": {"f": "b\\n"}, "ts": 2}\n'
        b'{"id": "y1", "parents": ["o"], "files": {"f": "b\\na\\n"}, "ts": 3}\n'
        b'{"id": "y2", "parents": ["y1"], "files": {"f": "a\\n"}, "ts": 4}\n',
    )
    assert main(["graph", "rebase", script, "y2", "x2"]) == 0
    ok = json.loads(capsys.readouterr().out)
    assert ok["result"] == "clean"
    assert main(["graph", "rebase", script, "x2", "y2"]) == 1
    bad = json.loads(capsys.readouterr().out)
    assert bad["result"] == "conflict"
    assert bad["failed_pick"] == 1


PICK_SCRIPT = (
    b'{"id": "o", "parents": [], "files": {"f": "a\\nb\\nc\\n"}, "ts": 0}\n'
    b'{"id": "x", "parents": ["o"], "files": {"f": "a\\nB\\nc\\n"}, "ts": 1}\n'
    b'{"id": "y", "parents": ["o"], "files": {"f": "a\\nb\\nc\\n", "g": "new\\n"}, "ts": 2}\n'
    b'{"id": "z", "parents": ["o"], "files": {"f": "a\\nZ\\nc\\n"}, "ts": 3}\n'
)


def test_graph_cherry_pick(tmp_path, capsys):
    script = write(tmp_path, "pick.jsonl", PICK_SCRIPT)
    assert main(["graph", "cherry-pick", script, "x", "y"]) == 0
    ok = json.loads(capsys.readouterr().out)
    assert ok == {"result": "clean", "commit": "pick(x@y)", "tree": {"f": "a\nB\nc\n", "g": "new\n"},
                  "conflicts": {}, "merge_calls": 0}
    assert main(["graph", "cherry-pick", script, "x", "z"]) == 1
    bad = json.loads(capsys.readouterr().out)
    assert (bad["result"], bad["commit"], bad["tree"]) == ("conflict", None, None)
    # as in git 2.39.5, where `git cherry-pick x` on z gives
    # a <<<<<<< HEAD Z ======= B >>>>>>> x c: the commit picked onto is ours
    assert bad["conflicts"] == {"f": "a\n<<<<<<< ours\nZ\n=======\nB\n>>>>>>> theirs\nc\n"}


def test_graph_revert(tmp_path, capsys):
    script = write(tmp_path, "revert.jsonl", PICK_SCRIPT)
    assert main(["graph", "revert", script, "x", "x"]) == 0
    ok = json.loads(capsys.readouterr().out)
    assert (ok["result"], ok["commit"], ok["tree"]) == ("clean", "revert(x@x)", {"f": "a\nb\nc\n"})
    assert main(["graph", "revert", script, "x", "z"]) == 1
    assert json.loads(capsys.readouterr().out)["result"] == "conflict"


@pytest.mark.parametrize("record", [
    '{"id": "a", "ts": "soon"}',
    '{"id": "a", "ts": true}',
    '{"id": ["x"]}',
    '{"parents": []}',
    '{"id": "b", "parents": "ab"}',
    '{"id": "b", "parents": [1]}',
    '{"id": "b", "files": ["f"]}',
    '{"id": "b", "files": {"f": 1}}',
    '["a"]',
    '{"id": "c", "parent": ["a"]}',
    '{"id": "a"}',
    '{"id": "c", "parents": ["nope"]}',
])
def test_graph_mistyped_record_exit_three(tmp_path, capsys, record):
    script = write(tmp_path, "bad.jsonl", b'{"id": "a"}\n{"id": "b", "parents": ["a"]}\n' + record.encode() + b"\n")
    assert main(["graph", "merge", script, "a", "b"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad graph record on line 3: ")


def test_graph_malformed_script_exit_three(tmp_path, capsys):
    script = write(tmp_path, "bad.jsonl", b"this is not json\n")
    assert main(["graph", "merge", script, "a", "b"]) == 3
    assert "error" in capsys.readouterr().err


def test_graph_script_not_utf8_exit_three(tmp_path, capsys):
    script = write(tmp_path, "bad.jsonl", b'{"id": "a", "files": {"f": "\xff"}}\n')
    assert main(["graph", "merge", script, "a", "a"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "utf-8" in captured.err


def test_usage_error_exit_three():
    assert main(["diff"]) == 3


def test_main_keeps_no_value_from_one_call_to_the_next(tmp_path, capsys):
    # main builds its parser once per process; every call must still see only
    # its own arguments.  Each output is compared with a run on a new parser.
    from diffmerge import cli

    old = write(tmp_path, "old", b"def alpha():\n    return 1\n\ndef omega():\n    return 9\n")
    new = write(tmp_path, "new", b"def alpha():\n    return 1\n\ndef middle():\n    return 5\n\n"
                                 b"def omega():\n    return 9\n")
    base = write(tmp_path, "base", b"a\nb\nc\n")
    left = write(tmp_path, "left", b"a\nL\nc\n")
    right = write(tmp_path, "right", b"a\nR\nc\n")
    argvs = [
        ["diff", old, new, "--no-indent-heuristic", "--context", "0"],
        ["diff", old, new],
        ["merge-file", left, base, right, "--labels", "mine", "old", "yours"],
        ["merge-file", left, base, right],
        ["diff", old, new, "--algorithm=patience", "--context", "0"],
        ["diff", old, new, "--context=1"],
        ["diff", old, new],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    outputs = [run(argv) for argv in argvs]
    parser = cli.build_parser()
    assert parser is not None
    main(["diff", old, old])
    assert cli.build_parser() is parser
    # the flags change the output, so a value kept from an earlier call shows
    assert outputs[0] != outputs[1] and outputs[2] != outputs[3] and outputs[5] != outputs[6]
    assert "<<<<<<< mine" in outputs[2][1].out and "<<<<<<< ours" in outputs[3][1].out
    assert outputs[1] == outputs[6]
    for argv, output in zip(argvs, outputs):
        cli.build_parser.cache_clear()
        assert run(argv) == output, argv
