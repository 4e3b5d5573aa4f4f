import json

import pytest

from diffmerge.graph import (
    Commit,
    CommitGraph,
    GraphError,
    MergeStats,
    MultiParent,
    UnknownCommit,
    build_exponential_graph,
    cherry_pick,
    graph_from_jsonl,
    lowest_common_ancestors,
    merge_commits,
    rebase,
    revert,
)

from conftest import merge_base_tree


def linear_graph():
    g = CommitGraph()
    g.add_commit("c1", (), {"f": b"one\n"})
    g.add_commit("c2", ("c1",), {"f": b"one\ntwo\n"})
    return g


def test_add_commit_validates_parents():
    g = CommitGraph()
    with pytest.raises(UnknownCommit):
        g.add_commit("x", ("missing",))


def test_membership_tests_the_commit_ids():
    # without __contains__, `in` would fall back to __getitem__(0) and raise
    g = linear_graph()
    assert "c1" in g and "c2" in g
    assert "c3" not in g


def test_commit_is_an_immutable_record():
    g = linear_graph()
    commit = g["c2"]
    with pytest.raises(AttributeError):
        commit.generation = 5
    with pytest.raises(AttributeError):
        commit.note = "no other attribute either"
    assert commit == Commit("c2", ("c1",), {"f": b"one\ntwo\n"}, 1, 2)
    assert commit != Commit("c2", ("c1",), {"f": b"one\ntwo\n"}, 1, 3)
    assert repr(commit) == "Commit(id='c2', parents=('c1',), tree={'f': b'one\\ntwo\\n'}, timestamp=1, generation=2)"
    # its tree is a dict, so a commit is not hashable, as before
    with pytest.raises(TypeError):
        hash(commit)


def test_lca_linear_chain():
    g = linear_graph()
    assert lowest_common_ancestors(g, "c1", "c2") == {"c1"}


def test_lca_crisscross_returns_both_cross_parents():
    g = CommitGraph()
    g.add_commit("c1", (), {"f": b"x\n"})
    g.add_commit("c3", (), {"f": b"x\n"})
    g.add_commit("c2", ("c1", "c3"), {"f": b"x\n"})
    g.add_commit("c4", ("c3", "c1"), {"f": b"x\n"})
    assert lowest_common_ancestors(g, "c2", "c4") == {"c1", "c3"}


def test_lca_disjoint_roots_is_empty():
    g = CommitGraph()
    g.add_commit("a", (), {})
    g.add_commit("b", (), {})
    assert lowest_common_ancestors(g, "a", "b") == set()


def test_merge_base_unique_lca_leaves_stats_untouched():
    g = CommitGraph()
    g.add_commit("base", (), {"f": b"0\n"})
    g.add_commit("l", ("base",), {"f": b"l\n"})
    g.add_commit("r", ("base",), {"f": b"r\n"})
    stats = MergeStats()
    tree = merge_base_tree(g, "l", "r", stats)
    assert tree == {"f": b"0\n"}
    assert stats.merge_calls == 0


def test_fast_forward_moves_pointer_without_new_commit():
    g = linear_graph()
    before = len(g)
    result = merge_commits(g, "c1", "c2")
    assert result.kind == "fast-forward"
    assert result.commit.id == "c2"
    assert len(g) == before


def test_merge_commit_carries_both_parents():
    # the simple divergent topology: C3 and C5 merged over base C2
    g = CommitGraph()
    g.add_commit("c1", (), {"f": b"base\n"})
    g.add_commit("c2", ("c1",), {"f": b"base\nmore\n"})
    g.add_commit("c3", ("c2",), {"f": b"base\nmore\nmain\n"})
    g.add_commit("c4", ("c2",), {"f": b"feature\nbase\nmore\n"})
    g.add_commit("c5", ("c4",), {"f": b"feature\nfeature2\nbase\nmore\n"})
    result = merge_commits(g, "c3", "c5", new_id="c6")
    assert result.kind == "clean"
    assert result.commit.parents == ("c3", "c5")
    assert result.commit.tree["f"] == b"feature\nfeature2\nbase\nmore\nmain\n"
    assert result.stats.merge_calls == 1


def test_conflicting_merge_reports_paths():
    g = CommitGraph()
    g.add_commit("base", (), {"f": b"line\n"})
    g.add_commit("l", ("base",), {"f": b"left\n"})
    g.add_commit("r", ("base",), {"f": b"right\n"})
    result = merge_commits(g, "l", "r")
    assert result.kind == "conflict"
    assert sorted(result.conflicts) == ["f"]
    assert b"<<<<<<<" in result.conflicts["f"]


def test_cherry_pick_parent_equals_onto():
    g = CommitGraph()
    g.add_commit("p", (), {"f": b"a\n"})
    g.add_commit("c", ("p",), {"f": b"a\nb\n"})
    result = cherry_pick(g, "c", "p")
    assert result.kind == "clean"
    assert result.commit.tree == {"f": b"a\nb\n"}
    assert result.commit.parents == ("p",)


def test_cherry_pick_matches_direct_merge():
    from diffmerge.merge3 import merge3

    g = CommitGraph()
    g.add_commit("c1", (), {"f": b"shared\n"})
    g.add_commit("c2", ("c1",), {"f": b"shared\npicked\n"})
    g.add_commit("cm", ("c1",), {"f": b"other\nshared\n"})
    result = cherry_pick(g, "c2", "cm")
    assert result.kind == "clean"
    # a pick merges with the commit picked onto as ours, as in git; a clean
    # merge's bytes do not depend on the order of its sides, so the order is
    # pinned by the conflicting cases test_graph_cherry_pick and
    # test_revert_conflict_puts_the_current_commit_on_ours
    expected = merge3(b"shared\n", b"other\nshared\n", b"shared\npicked\n")
    assert result.commit.tree["f"] == expected.rendered


def test_cherry_pick_already_applied_change_is_clean():
    g = CommitGraph()
    g.add_commit("p", (), {"f": b"a\nz\n"})
    g.add_commit("c", ("p",), {"f": b"a\nnew\nz\n"})
    g.add_commit("onto", ("p",), {"f": b"a\nnew\nz\n"})
    result = cherry_pick(g, "c", "onto")
    assert result.kind == "clean"
    assert result.commit.tree == {"f": b"a\nnew\nz\n"}


def test_cherry_pick_rejects_merge_commits():
    g = CommitGraph()
    g.add_commit("a", (), {})
    g.add_commit("b", (), {})
    g.add_commit("m", ("a", "b"), {})
    g.add_commit("onto", (), {})
    with pytest.raises(MultiParent):
        cherry_pick(g, "m", "onto")


def test_cherry_pick_of_a_root_adds_its_files():
    g = CommitGraph()
    g.add_commit("root", (), {"f": b"root\n", "g": b"g\n"})
    g.add_commit("onto", (), {"h": b"h\n"})
    result = cherry_pick(g, "root", "onto")
    assert result.kind == "clean"
    assert result.commit.parents == ("onto",)
    assert result.commit.tree == {"f": b"root\n", "g": b"g\n", "h": b"h\n"}


def test_revert_head_restores_parent_tree():
    g = CommitGraph()
    g.add_commit("p", (), {"f": b"a\n"})
    g.add_commit("c", ("p",), {"f": b"a\nb\n"})
    result = revert(g, "c", "c")
    assert result.kind == "clean"
    assert result.commit.tree == {"f": b"a\n"}
    assert result.commit.parents == ("c",)


def test_revert_old_commit_with_untouched_lines():
    g = CommitGraph()
    g.add_commit("p", (), {"f": b"a\nz\n"})
    g.add_commit("c", ("p",), {"f": b"a\nmid\nz\n"})
    g.add_commit("head", ("c",), {"f": b"a\nmid\nz\ntail\n"})
    result = revert(g, "c", "head")
    assert result.kind == "clean"
    assert result.commit.tree == {"f": b"a\nz\ntail\n"}


def test_revert_conflicts_when_lines_were_edited_later():
    g = CommitGraph()
    g.add_commit("p", (), {"f": b"a\n"})
    g.add_commit("c", ("p",), {"f": b"b\n"})
    g.add_commit("head", ("c",), {"f": b"c\n"})
    result = revert(g, "c", "head")
    assert result.kind == "conflict"


def test_revert_conflict_puts_the_current_commit_on_ours():
    # as `git revert z` on y, whose conflict is a <<<<<<< HEAD Y ======= b
    # >>>>>>> parent of z c in git 2.39.5: ours is the current commit, theirs
    # the reverted commit's parent
    g = CommitGraph()
    g.add_commit("o", (), {"f": b"a\nb\nc\n"})
    g.add_commit("z", ("o",), {"f": b"a\nZ\nc\n"})
    g.add_commit("y", ("z",), {"f": b"a\nY\nc\n"})
    result = revert(g, "z", "y")
    assert result.kind == "conflict"
    assert result.conflicts == {"f": b"a\n<<<<<<< ours\nY\n=======\nb\n>>>>>>> theirs\nc\n"}


def test_revert_of_a_root_conflicts_with_a_later_edit():
    # reverting the root deletes f, which the descendant modified
    g = CommitGraph()
    g.add_commit("root", (), {"f": b"a\n"})
    g.add_commit("head", ("root",), {"f": b"b\n"})
    result = revert(g, "root", "head")
    assert result.kind == "conflict"
    assert sorted(result.conflicts) == ["f"]


def test_rebase_onto_own_ancestor_reproduces_trees():
    g = CommitGraph()
    g.add_commit("r", (), {"f": b"0\n"})
    g.add_commit("m1", ("r",), {"f": b"0\n1\n"})
    g.add_commit("m2", ("m1",), {"f": b"0\n1\n2\n"})
    result = rebase(g, "m2", "r")
    assert result.kind == "clean"
    replayed = []
    cur = result.head
    while cur != "r":
        replayed.append(g[cur].tree["f"])
        cur = g[cur].parents[0]
    assert replayed == [b"0\n1\n2\n", b"0\n1\n"]


def test_rebase_empty_branch_returns_onto():
    g = linear_graph()
    result = rebase(g, "c1", "c2")
    assert result.kind == "clean"
    assert result.head == "c2"


def test_rebase_of_an_unrelated_branch_replays_its_root_first():
    g = CommitGraph()
    g.add_commit("o", (), {"f": b"o\n"})
    g.add_commit("b1", (), {"g": b"1\n"})
    g.add_commit("b2", ("b1",), {"g": b"1\n2\n", "h": b"h\n"})
    result = rebase(g, "b2", "o")
    assert result.kind == "clean"
    tip = g[result.head]
    assert tip.tree == {"f": b"o\n", "g": b"1\n2\n", "h": b"h\n"}
    first = g[tip.parents[0]]
    assert first.id == "rebase(b1@o)"
    assert first.parents == ("o",)
    assert first.tree == {"f": b"o\n", "g": b"1\n"}


def test_rebase_non_commutativity_minimal_example():
    g = CommitGraph()
    g.add_commit("o", (), {"f": b"b\n"})
    g.add_commit("x1", ("o",), {"f": b"b\nb\n"})
    g.add_commit("x2", ("x1",), {"f": b"b\n"})
    g.add_commit("y1", ("o",), {"f": b"b\na\n"})
    g.add_commit("y2", ("y1",), {"f": b"a\n"})
    forward = rebase(g, "y2", "x2")
    assert forward.kind == "clean"
    assert g[forward.head].tree == {"f": b"a\n"}
    backward = rebase(g, "x2", "y2")
    assert backward.kind == "conflict"
    assert backward.failed_index == 0


def test_clean_merge_content_is_symmetric_without_zealous():
    from diffmerge.merge3 import MergeOptions

    g = CommitGraph()
    g.add_commit("base", (), {"f": b"a\nb\nc\nd\n"})
    g.add_commit("l", ("base",), {"f": b"a\nB\nc\nd\n"})
    g.add_commit("r", ("base",), {"f": b"a\nb\nc\nD\n"})
    opts = MergeOptions(zealous=False)
    one = merge_commits(g, "l", "r", opts, new_id="m1")
    g2 = CommitGraph()
    g2.add_commit("base", (), {"f": b"a\nb\nc\nd\n"})
    g2.add_commit("l", ("base",), {"f": b"a\nB\nc\nd\n"})
    g2.add_commit("r", ("base",), {"f": b"a\nb\nc\nD\n"})
    two = merge_commits(g2, "r", "l", opts, new_id="m2")
    assert one.kind == two.kind == "clean"
    assert one.commit.tree == two.commit.tree


def test_exponential_family_counts():
    for n in range(0, 7):
        graph, a, b = build_exponential_graph(n)
        assert len(graph) == 6 * n + 4
        result = merge_commits(graph, a, b)
        assert result.kind == "clean"
        assert result.stats.merge_calls == 2 ** n + 1


def test_exponential_family_rejects_a_negative_size():
    with pytest.raises(ValueError, match="n must be >= 0"):
        build_exponential_graph(-1)


def test_exponential_family_interior_lca_triples():
    graph, _, _ = build_exponential_graph(4)
    for level in range(1, 3):
        got = lowest_common_ancestors(graph, f"A{level}", f"B{level}")
        assert got == {f"A{level + 1}", f"B{level + 1}", f"C{level + 1}"}


def test_merge_calls_double_per_block():
    previous = None
    for n in range(0, 8):
        graph, a, b = build_exponential_graph(n)
        calls = merge_commits(graph, a, b).stats.merge_calls
        if previous is not None:
            assert calls == 2 * previous - 1
        previous = calls


def test_graph_from_jsonl_and_errors():
    text = (
        '{"id": "a", "parents": [], "files": {"f": "1\\n"}, "ts": 0}\n'
        '{"id": "b", "parents": ["a"], "files": {"f": "1\\n2\\n"}, "ts": 1}\n'
    )
    g = graph_from_jsonl(text)
    assert g["b"].tree["f"] == b"1\n2\n"
    with pytest.raises(GraphError):
        graph_from_jsonl('{"id": "x", "parents": ["nope"]}\n')
    with pytest.raises(GraphError):
        graph_from_jsonl("not json\n")


@pytest.mark.parametrize("record, problem", [
    ('{"id": "a", "ts": "soon"}', "ts must be an integer"),
    ('{"id": "a", "ts": false}', "ts must be an integer"),
    ('{"id": "a", "ts": 1.5}', "ts must be an integer"),
    ('{"id": ["x"]}', "id must be a string"),
    ('{"files": {}}', "id must be a string"),
    ('{"id": "a", "parents": "ab"}', "parents must be a list of strings"),
    ('{"id": "a", "parents": [["b"]]}', "parents must be a list of strings"),
    ('{"id": "a", "files": "f"}', "files must map paths to strings"),
    ('{"id": "a", "files": {"f": null}}', "files must map paths to strings"),
    ('"a"', "a record must be a JSON object"),
    ('{"id": "a", "parent": ["b"]}', "unknown keys ['parent']"),
    ('{"id": "a", "tree": {}, "ts": 1, "message": "m"}', "unknown keys ['message', 'tree']"),
    ('{"id": "b", "ts": 3}', "duplicate commit id 'b'"),
])
def test_graph_from_jsonl_rejects_mistyped_records(record, problem):
    # the bad record comes after two good ones, so line 4 counts the blank line
    with pytest.raises(GraphError) as info:
        graph_from_jsonl('{"id": "b"}\n\n{"id": "c", "parents": ["b"], "ts": 7}\n' + record + "\n")
    assert type(info.value) is GraphError
    assert str(info.value) == f"bad graph record on line 4: {problem}"


def test_graph_from_jsonl_puts_the_line_on_an_unknown_parent():
    with pytest.raises(UnknownCommit) as info:
        graph_from_jsonl('{"id": "a"}\n{"id": "x", "parents": ["a", "nope"]}\n')
    assert str(info.value) == "bad graph record on line 2: parent 'nope' of 'x' does not exist"


def test_graph_from_jsonl_rejects_text_that_cannot_be_encoded():
    with pytest.raises(GraphError, match="^bad graph record on line 1: .*surrogate"):
        graph_from_jsonl('{"id": "a", "files": {"f": "\\ud800"}}\n')


def test_graph_from_jsonl_splits_records_on_lf_only():
    # json.dumps(..., ensure_ascii=False) writes these line breaks raw
    # inside strings; only LF ends a record, and CRLF still does
    files = {"f": "a\x85b\u2028c\u2029d\x1c\n"}
    text = json.dumps({"id": "a", "files": files}, ensure_ascii=False) + "\r\n"
    text += json.dumps({"id": "b", "parents": ["a"]}, ensure_ascii=False) + "\n"
    g = graph_from_jsonl(text)
    assert g["a"].tree == {"f": files["f"].encode()}
    assert g["b"].parents == ("a",)


def test_graph_from_jsonl_reads_optional_fields():
    g = graph_from_jsonl('{"id": "a", "ts": null}\n{"id": "b", "parents": ["a"], "files": {"f": "x"}, "ts": 5}\n')
    assert (g["a"].parents, g["a"].tree, g["a"].timestamp) == ((), {}, 0)
    assert (g["b"].parents, g["b"].tree, g["b"].timestamp) == (("a",), {"f": b"x"}, 5)


def test_acyclicity_by_construction():
    g = CommitGraph()
    g.add_commit("a", (), {})
    with pytest.raises(GraphError):
        g.add_commit("a", ())  # duplicate id
    # parents must already exist, so a cycle cannot be introduced
    with pytest.raises(UnknownCommit):
        g.add_commit("b", ("c",))


def diverged_graph():
    g = CommitGraph()
    g.add_commit("base", (), {"f": b"a\nb\nc\nd\n"})
    g.add_commit("l", ("base",), {"f": b"a\nB\nc\nd\n"})
    g.add_commit("r", ("base",), {"f": b"a\nb\nc\nD\n"})
    return g


def test_repeated_merge_returns_the_first_merge_commit():
    g = diverged_graph()
    first = merge_commits(g, "l", "r")
    again = merge_commits(g, "l", "r")
    assert again.kind == "clean"
    assert again.commit is first.commit
    assert len(g) == 4


def test_merge_id_collisions_still_raise():
    g = diverged_graph()
    merge_commits(g, "l", "r", new_id="m")
    with pytest.raises(GraphError):
        merge_commits(g, "l", "r", new_id="m")
    # the default id already names a commit with another tree
    g.add_commit("merge(r,l)", ("r", "l"), {"f": b"other\n"})
    with pytest.raises(GraphError):
        merge_commits(g, "r", "l")


def test_repeated_cherry_pick_revert_and_rebase_reuse_their_commits():
    g = diverged_graph()
    g.add_commit("l2", ("l",), {"f": b"z\na\nB\nc\nd\n"})
    pick = cherry_pick(g, "l2", "r")
    assert cherry_pick(g, "l2", "r").commit is pick.commit
    undo = revert(g, "l2", "l2")
    assert revert(g, "l2", "l2").commit is undo.commit
    size = len(g)
    first = rebase(g, "l2", "r")
    assert first.kind == "clean"
    assert rebase(g, "l2", "r").head == first.head
    assert len(g) == size + 2
    with pytest.raises(GraphError):
        cherry_pick(g, "l2", "r", new_id=pick.commit.id)


def test_unknown_heads_raise_unknown_commit():
    g, a, b = build_exponential_graph(2)
    for heads in ((a, "missing"), ("missing", b), ("missing", "gone")):
        with pytest.raises(UnknownCommit):
            merge_commits(g, *heads)
