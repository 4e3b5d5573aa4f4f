import json
import random

import pytest

from diffmerge import oracle
from diffmerge.cli import main


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


def test_merge_file_diff3_requires_no_zealous(tmp_path, capsys):
    base = write(tmp_path, "base", b"b\n")
    left = write(tmp_path, "left", b"l\n")
    right = write(tmp_path, "right", b"r\n")
    assert main(["merge-file", left, base, right, "--style=diff3"]) == 3
    capsys.readouterr()
    assert main(["merge-file", left, base, right, "--style=diff3", "--no-zealous"]) == 1
    out = capsys.readouterr().out
    assert "||||||| base" in out


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


def test_graph_expo_demo_counts(tmp_path, capsys):
    assert main(["graph", "expo-demo", "8"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["merge_calls"] for r in rows[1:]] == [3, 5, 9, 17, 33, 65, 129, 257]
    assert all(r["commits"] == 6 * r["n"] + 4 for r in rows)


@pytest.mark.parametrize("value", ["-1", "x"])
def test_graph_expo_demo_rejects_a_bad_max_n(capsys, value):
    assert main(["graph", "expo-demo", value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_n" in captured.err


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


def test_usage_error_exit_three():
    assert main(["diff"]) == 3


def test_main_keeps_no_value_from_one_call_to_the_next(tmp_path, capsys, monkeypatch):
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
    parser = cli._parser
    assert parser is not None
    main(["diff", old, old])
    assert cli._parser is parser
    # the flags change the output, so a value kept from an earlier call shows
    assert outputs[0] != outputs[1] and outputs[2] != outputs[3] and outputs[5] != outputs[6]
    assert "<<<<<<< mine" in outputs[2][1].out and "<<<<<<< ours" in outputs[3][1].out
    assert outputs[1] == outputs[6]
    for argv, output in zip(argvs, outputs):
        monkeypatch.setattr(cli, "_parser", None)
        assert run(argv) == output, argv
