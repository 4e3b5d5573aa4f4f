"""Generation-number ancestry and rebase against the references in reference.py."""

import copy
import hashlib
import random
import tracemalloc

import pytest

from diffmerge import graph as graph_mod
from diffmerge.graph import (
    CommitGraph,
    MergeStats,
    MultiParent,
    UnknownCommit,
    build_exponential_graph,
    cherry_pick,
    lowest_common_ancestors,
    merge_commits,
    rebase,
    revert,
)
from diffmerge.merge3 import MergeOptions

import reference
from conftest import lines_executed, merge_base_tree

# name -> keyword arguments of random_dag
SHAPES = {
    "long-chains": dict(n=300, merge_p=0.05, window=4),
    "crisscross": dict(n=70, merge_p=0.6, window=6, crisscross_p=0.5),
    "wide-fan-in": dict(n=90, merge_p=0.35, window=25, max_parents=8),
    "disjoint-roots": dict(n=80, merge_p=0.3, window=10, components=3),
    "out-of-order-timestamps": dict(n=80, merge_p=0.4, window=8, crisscross_p=0.3, shuffle_ts=True),
}


def random_dag(rng, n, merge_p, window, max_parents=2, crisscross_p=0.0, components=1, shuffle_ts=False,
               edit=None):
    """A seeded DAG.  Each commit takes parents from the last ``window``
    commits of its component; a criss-cross adds a second merge of the same
    two parents in swapped order.  ``edit(rng, cid, parent_tree)`` gives a
    commit's tree (empty when None)."""
    g = CommitGraph()
    pools = [[] for _ in range(components)]

    def add(cid, parents, pool):
        tree = edit(rng, cid, g[parents[0]].tree if parents else {}) if edit else {}
        g.add_commit(cid, parents, tree, rng.randrange(10_000) if shuffle_ts else None)
        pool.append(cid)

    for i in range(n):
        pool = pools[i % components]
        recent = pool[-window:]
        if not recent:
            add(f"c{i}", (), pool)
            continue
        k = rng.randint(2, max_parents) if rng.random() < merge_p else 1
        parents = tuple(rng.sample(recent, min(k, len(recent))))
        add(f"c{i}", parents, pool)
        if len(parents) == 2 and rng.random() < crisscross_p:
            add(f"x{i}", parents[::-1], pool)
    return g


def query_pairs(rng, g, count=400, last=0):
    ids = list(g.commits)[-last:]
    return [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_add_commit_matches_reference(shape):
    rng = random.Random(f"add-commit/{shape}")
    parents_of = {cid: c.parents for cid, c in random_dag(rng, **SHAPES[shape]).commits.items()}
    # explicit timestamps, out of order and some negative, among defaults
    given = [rng.choice((None, rng.randrange(-20, 400))) for _ in parents_of]
    g = CommitGraph()
    for (cid, parents), ts in zip(parents_of.items(), given):
        tree = {"f": cid.encode()}
        assert g.add_commit(cid, list(parents), tree, ts) is g[cid]
        tree["f"] = b"changed later"  # the commit keeps a copy
    stamps, next_ts = reference.timestamps_reference(given)
    generations = reference.generations_reference(parents_of)
    assert g._next_ts == next_ts
    for (cid, commit), ts in zip(g.commits.items(), stamps):
        assert commit == graph_mod.Commit(cid, parents_of[cid], {"f": cid.encode()}, ts, generations[cid])
        assert type(commit.parents) is tuple

    # a failed addition changes nothing; a duplicate id is reported before
    # its parents are looked at, and of the missing parents the first
    known = rng.choice(list(parents_of))
    before = (dict(g.commits), g._next_ts)
    with pytest.raises(UnknownCommit, match="parent 'gone' of 'new'"):
        g.add_commit("new", (known, "gone", "gone too"), {}, 10**6)
    with pytest.raises(graph_mod.GraphError, match=f"duplicate commit id '{known}'") as excinfo:
        g.add_commit(known, ("gone",), {}, 10**6)
    assert excinfo.type is graph_mod.GraphError
    assert (g.commits, g._next_ts) == before
    leaf = g.add_commit("leaf", (known,))
    assert (leaf.tree, leaf.timestamp, leaf.generation) == ({}, next_ts, generations[known] + 1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_ancestry_matches_frozenset_reference(shape, seed):
    rng = random.Random(f"{shape}/{seed}")
    g = random_dag(rng, **SHAPES[shape])
    ref = reference.ancestors_reference(g)
    for cid in g.commits:
        assert graph_mod._Descent([cid], g.commits).lower(0) == ref[cid], cid
    ctx = graph_mod._MergeContext(g, MergeStats(), MergeOptions())
    for a, b in query_pairs(rng, g):
        # rebase's question: is a below b, from a descent stopped at a's generation
        below_b = graph_mod._Descent([b], g.commits).lower(g[a].generation)
        assert (a in below_b) == (a in ref[b]), (a, b)
        want = reference.lca_reference(ref.__getitem__, a, b)
        assert lowest_common_ancestors(g, a, b) == want, (a, b)
        ordered = sorted(want, key=lambda cid: (-g[cid].timestamp, cid))
        assert graph_mod._lca(ctx, frozenset((a,)), b) == ordered, (a, b)


def test_disjoint_components_have_no_common_ancestor():
    rng = random.Random(7)
    g = random_dag(rng, **SHAPES["disjoint-roots"])
    assert lowest_common_ancestors(g, "c30", "c31") == set()
    assert "c0" not in graph_mod._Descent(["c31"], g.commits).lower(0)


def test_unknown_commits():
    g = CommitGraph()
    g.add_commit("a")
    with pytest.raises(UnknownCommit):
        lowest_common_ancestors(g, "a", "missing")
    for head, onto in (("a", "missing"), ("missing", "a")):
        with pytest.raises(UnknownCommit):
            rebase(g, head, onto)


def _reference_lca(ctx, a, b):
    """graph._lca computed from frozensets: the ancestors of the commits a
    folds, taken together, against those of b."""
    commits = ctx.graph.commits
    memo = {}

    def ancestors_of(cid):
        if isinstance(cid, frozenset):
            return frozenset().union(*map(ancestors_of, cid))
        if cid not in memo:
            memo[cid] = frozenset({cid}).union(*(ancestors_of(p) for p in commits[cid].parents))
        return memo[cid]

    return sorted(reference.lca_reference(ancestors_of, a, b), key=lambda cid: (-commits[cid].timestamp, cid))


def _edit_one_line(rng, cid, parent_tree):
    # every commit rewrites one line of one file to its own id, so each
    # merge base gives a different three-way merge
    tree = dict(parent_tree) or {path: b"".join(b"%d\n" % i for i in range(24)) for path in ("f", "g", "h")}
    path = rng.choice(sorted(tree))
    lines = tree[path].splitlines(keepends=True)
    lines[rng.randrange(len(lines))] = cid.encode() + b"\n"
    tree[path] = b"".join(lines)
    return tree


def _merge_outcome(g, a, b, merge=merge_commits):
    result = merge(copy.deepcopy(g), a, b)
    commit = result.commit
    commit_id, parents, tree = (commit.id, commit.parents, commit.tree) if commit is not None else (None, None, None)
    return (result.kind, commit_id, parents, tree, result.conflicts, result.stats.merge_calls,
            sorted(result.conflicts))


def ancestor_pairs(rng, g, ref, count):
    """(ancestor, descendant) in both orders, and each descendant with itself."""
    pairs = []
    for d in rng.sample(list(g.commits), count):
        anc = rng.choice(sorted(ref[d] - {d}) or [d])
        pairs += [(anc, d), (d, anc), (d, d)]
    return pairs


def _crisscross_dag(seed):
    """A criss-crossed DAG with distinct trees, its ancestor sets and head
    pairs to merge."""
    rng = random.Random(seed)
    g = random_dag(rng, n=60, merge_p=0.6, window=5, crisscross_p=0.6, shuffle_ts=seed % 2 == 1,
                   edit=_edit_one_line)
    ref = reference.ancestors_reference(g)
    # heads near the tip share the most criss-crossed history
    pairs = query_pairs(rng, g, 60, last=20) + ancestor_pairs(rng, g, ref, 10)
    return g, ref, pairs


def _shape_dag(shape):
    """A SHAPES DAG with distinct trees and head pairs near its tip."""
    rng = random.Random(f"memo/{shape}")
    g = random_dag(rng, **SHAPES[shape], edit=_edit_one_line)
    return g, query_pairs(rng, g, 30, last=30)


@pytest.mark.parametrize("seed", range(6))
def test_merges_match_reference_lca_through_virtual_commits(monkeypatch, seed):
    g, ref, pairs = _crisscross_dag(seed)
    got = [_merge_outcome(g, a, b) for a, b in pairs]
    monkeypatch.setattr(graph_mod, "_lca", _reference_lca)
    want = [_merge_outcome(g, a, b) for a, b in pairs]
    assert got == want
    # a fast-forward exactly when one head is an ancestor of the other
    for (a, b), (kind, commit_id, *_, merge_calls, _paths) in zip(pairs, got):
        if a in ref[b] or b in ref[a]:
            assert (kind, commit_id, merge_calls) == ("fast-forward", b if a in ref[b] else a, 0), (a, b)
        else:
            assert kind != "fast-forward" and merge_calls >= 1, (a, b)
    # the random DAGs do reach the recursive virtual-base path
    assert max(outcome[5] for outcome in got) > 2


def _checked_lca(monkeypatch):
    """Make every graph._lca call compare its answer with the one from
    frozensets as it runs; returns the list of the calls' (a, b), a being
    the set of real commits folded so far."""
    calls = []
    walk_lca = graph_mod._lca

    def lca(ctx, a, b):
        got = walk_lca(ctx, a, b)
        assert got == _reference_lca(ctx, a, b), (a, b)
        calls.append((a, b))
        return got

    monkeypatch.setattr(graph_mod, "_lca", lca)
    return calls


def test_each_lca_walk_equals_the_frozenset_reference_call_by_call(monkeypatch):
    calls = _checked_lca(monkeypatch)
    for shape in sorted(SHAPES):
        g, pairs = _shape_dag(shape)
        for a, b in pairs:
            merge_commits(copy.deepcopy(g), a, b)
    # wide-fan-in reaches lookups from two or more folded bases
    assert sum(len(a) > 1 for a, _b in calls) >= 10


def test_each_lca_walk_equals_the_frozenset_reference_on_the_exponential_family(monkeypatch):
    calls = _checked_lca(monkeypatch)
    for n in range(11):
        g, a, b = build_exponential_graph(n)
        before = len(calls)
        stats = merge_commits(copy.deepcopy(g), a, b).stats
        assert stats.merge_calls == 2**n + 1
        # one lookup per merge performed: each distinct base list is folded once
        assert len(calls) - before == stats.merges_performed == (2 * n + 1 if n else 2)


def _fold_outcomes(g, pairs, merge=merge_commits, merge_base=merge_base_tree):
    """Each pair's merge outcome, and its merge base tree with the merge
    calls of that fold (git's count; the merges performed are the engine's
    own)."""
    outcomes = []
    for a, b in pairs:
        stats = MergeStats()
        base_tree = merge_base(g, a, b, stats)
        outcomes.append((_merge_outcome(g, a, b, merge), base_tree, stats.merge_calls))
    return outcomes


def _check_fold_against_virtual_commits(g, pairs):
    got = _fold_outcomes(g, pairs)
    assert got == _fold_outcomes(g, pairs, reference.merge_commits_reference,
                                 reference.merge_base_recursive_reference)


@pytest.mark.parametrize("kind, name", [("shape", shape) for shape in sorted(SHAPES)]
                         + [("crisscross", seed) for seed in range(6)])
def test_tree_fold_matches_the_virtual_commit_fold(kind, name):
    if kind == "shape":
        g, pairs = _shape_dag(name)
    else:
        g, _ref, pairs = _crisscross_dag(name)
    _check_fold_against_virtual_commits(g, pairs)


def test_tree_fold_matches_the_virtual_commit_fold_on_the_exponential_family():
    for n in range(11):
        g, a, b = build_exponential_graph(n)
        _check_fold_against_virtual_commits(g, [(a, b)])


def _distinct_tree_family(n):
    """build_exponential_graph(n) with the same DAG and timestamps, but each
    commit rewrites one line, so the folds merge differing trees."""
    family, a, b = build_exponential_graph(n)
    rng = random.Random(f"family/{n}")
    g = CommitGraph()
    for cid, commit in family.commits.items():
        parent_tree = g[commit.parents[0]].tree if commit.parents else {}
        g.add_commit(cid, commit.parents, _edit_one_line(rng, cid, parent_tree), commit.timestamp)
    return g, a, b


@pytest.mark.parametrize("n", range(1, 13))
def test_distinct_tree_family_folds_like_virtual_commits(monkeypatch, n):
    g, a, b = _distinct_tree_family(n)
    calls = _checked_lca(monkeypatch)
    merged = []
    merge3 = graph_mod.merge3
    monkeypatch.setattr(graph_mod, "merge3", lambda *args: merged.append(args) or merge3(*args))
    result = merge_commits(copy.deepcopy(g), a, b)
    assert result.kind == ("conflict" if n in (3, 6, 10) else "clean")
    assert result.stats.merge_calls == 2**n + 1
    # one lookup per merge performed: each distinct base list is folded once
    assert len(calls) == result.stats.merges_performed == 2 * n + 1
    # lookups from a fold of two or more bases: one per distinct (A, B) -> C step
    assert sum(len(folded) > 1 for folded, _b in calls) == n - 1
    # the outer merge has three paths, so more merge3 calls come from folds
    assert len(merged) > 3 or n == 1
    _check_fold_against_virtual_commits(g, [(a, b)])


def _fold_memo_dag():
    """A criss-cross DAG whose heads H1 and H2 have four merge bases.

    Folding [X, Y, Z, W] folds [P, Q], then [P, R], then [P, Q] again: a
    hit, and two lists with one prefix.  [P, Q] merges f = c / c c / a c c
    (base, P, Q), which gives a c c c under myers and a c c under
    histogram, so the virtual base depends on the options; the trees of X,
    Y, Z, W and the heads carry that difference, and the difference
    between [P, R] and [P, Q] on g, to the merged tree."""
    g = CommitGraph()
    for cid, parents, f, gfile in [
        ("O", (), "c", "0"),
        ("Q", ("O",), "a c c", "0"),
        ("R", ("O",), "c", "r"),
        ("P", ("O",), "c c", "0"),
        ("W", ("P", "Q"), "a c c", "0"),
        ("Z", ("P", "R"), "c c", "r"),
        ("Y", ("P", "Q"), "a c c", "0"),
        ("X", ("P", "Q", "R"), "a c c c", "0"),
        ("H1", ("X", "Y", "Z", "W"), "a c c", "0"),
        ("H2", ("X", "Y", "Z", "W"), "a c c c", "h"),
    ]:
        g.add_commit(cid, parents, {path: "".join(f"{line}\n" for line in text.split()).encode()
                                    for path, text in (("f", f), ("g", gfile))})
    return g


def test_fold_memo_lives_in_one_merge_and_is_keyed_by_the_whole_base_list(monkeypatch):
    # A memo kept across merges gives the second merge the first one's
    # virtual bases; a hit that does not count its calls again reports 6
    # calls, not 7; a key of bases[:-1] takes [P, Q]'s fold for [P, R].  A
    # frozenset(bases) key would be equivalent: within one merge the bases
    # are a fixed sort of their set.
    g = _fold_memo_dag()
    folds = []
    fold = graph_mod._fold_bases
    monkeypatch.setattr(graph_mod, "_fold_bases", lambda ctx, bases: folds.append(bases) or fold(ctx, bases))
    outcomes = {}
    for algorithm in ("myers", "histogram"):
        options = MergeOptions(algorithm=algorithm)
        del folds[:]
        got = merge_commits(copy.deepcopy(g), "H1", "H2", options)
        want = reference.merge_commits_reference(copy.deepcopy(g), "H1", "H2", options)
        assert (got.kind, got.commit, got.stats.merge_calls) == (want.kind, want.commit, 7), algorithm
        assert folds == [["X", "Y", "Z", "W"], ["P", "Q"], ["O"], ["P", "R"], ["O"], ["P", "Q"]]
        assert got.stats.merges_performed == 6
        assert merge_base_tree(g, "H1", "H2", options=options) == reference.merge_base_recursive_reference(
            g, "H1", "H2", options=options), algorithm
        outcomes[algorithm] = got.commit.tree
    assert outcomes == {"myers": {"f": b"a\nc\nc\nc\n", "g": b"h\n"}, "histogram": {"f": b"a\nc\nc\n", "g": b"h\n"}}


def _family_outcome(shape, n):
    """(kind, merge_calls, sha256 of the merged tree and the conflicts) of
    merging the heads of the identical- or distinct-tree family."""
    g, a, b = build_exponential_graph(n) if shape == "identical" else _distinct_tree_family(n)
    result = merge_commits(g, a, b)
    tree = result.commit.tree if result.commit is not None else {}
    digest = hashlib.sha256(repr((sorted(tree.items()), sorted(result.conflicts.items()))).encode())
    return result.kind, result.stats.merge_calls, digest.hexdigest()


# The reference fold takes seconds from n = 13 on, so these outcomes were
# recorded once from the code of commit 887cbb8, which performed all
# 2**n + 1 merges, by running, with this file in its tests/ directory,
#   PYTHONPATH=src:tests python -c 'import test_ancestry as t; print({(s, n): t._family_outcome(s, n)
#       for s in ("identical", "distinct") for n in range(13, 17)})'
RECORDED_FAMILY_OUTCOMES = {
    ("identical", 13): ("clean", 8193, "24e10480bdb3bc4eeffdcf2b68cdb3d22ba983e9fe1a60d9a1428e9cc073b66b"),
    ("identical", 14): ("clean", 16385, "24e10480bdb3bc4eeffdcf2b68cdb3d22ba983e9fe1a60d9a1428e9cc073b66b"),
    ("identical", 15): ("clean", 32769, "24e10480bdb3bc4eeffdcf2b68cdb3d22ba983e9fe1a60d9a1428e9cc073b66b"),
    ("identical", 16): ("clean", 65537, "24e10480bdb3bc4eeffdcf2b68cdb3d22ba983e9fe1a60d9a1428e9cc073b66b"),
    ("distinct", 13): ("clean", 8193, "05a040d42285b5cb32102a061bce820e2aed8431d06e1f3dc8bd41fdecc0927a"),
    ("distinct", 14): ("clean", 16385, "9311a1cb6c42f81024e273305849ecd947b37fbc9f96cdfe523d1da1a1f7d0e1"),
    ("distinct", 15): ("clean", 32769, "2b3dd0a7140b807a7e5053dbee8362aad87571351f07d1f2fae4fc7883889948"),
    ("distinct", 16): ("clean", 65537, "2077254aed34de51a5935a82f2726c54d530eb488aa1d4288d893c1333aa16fa"),
}


@pytest.mark.parametrize("n", range(13, 17))
@pytest.mark.parametrize("shape", ["identical", "distinct"])
def test_large_family_outcomes_equal_the_recorded_ones(shape, n):
    assert _family_outcome(shape, n) == RECORDED_FAMILY_OUTCOMES[shape, n]


def _count_walks(monkeypatch):
    walks = []
    walk = graph_mod._merge_bases

    def counted(starts, b, commits):
        walks.append((starts, b))
        return walk(starts, b, commits)

    monkeypatch.setattr(graph_mod, "_merge_bases", counted)
    return walks


@pytest.mark.parametrize("n", range(13))
def test_exponential_family_walks_once_per_distinct_base_query(monkeypatch, n):
    walks = _count_walks(monkeypatch)
    g, a, b = build_exponential_graph(n)
    result = merge_commits(g, a, b)
    assert result.kind == "clean"
    assert result.stats.merge_calls == 2**n + 1
    assert len(walks) == (2 * n + 1 if n else 2)

    # a second merge on the grown graph walks again from scratch: the memo
    # ended with the first merge
    g.add_commit("X", (a,), {"file": b"changed\n"})
    del walks[:]
    got = _merge_outcome(g, "X", b)
    assert len(walks) == (2 * n + 1 if n else 2)
    monkeypatch.setattr(graph_mod, "_lca", _reference_lca)
    assert got == _merge_outcome(g, "X", b)


def test_long_chain_memory_stays_linear():
    tracemalloc.start()
    try:
        g = CommitGraph()
        g.add_commit("c0")
        for i in range(1, 100_000):
            g.add_commit(f"c{i}", (f"c{i - 1}",))
        g.add_commit("s0", ("c50000",))
        for i in range(1, 10):
            g.add_commit(f"s{i}", (f"s{i - 1}",))
        assert lowest_common_ancestors(g, "c99999", "s9") == {"c50000"}
        below = graph_mod._Descent(["c99999"], g.commits)
        assert "s0" not in below.lower(g["s0"].generation)
        assert "c0" in below.lower(g["c0"].generation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _rebase_outcome(rebase_fn, g, head, onto):
    work = copy.deepcopy(g)
    try:
        result = rebase_fn(work, head, onto)
    except MultiParent as exc:
        # a merge commit on the chain cannot be picked
        return "multi-parent", str(exc)
    tree = work[result.head].tree if result.head is not None else None
    return result.kind, result.head, result.failed_index, result.conflicts, tree


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rebase_matches_per_step_ancestry_reference(shape):
    rng = random.Random(f"rebase/{shape}")
    g = random_dag(rng, **SHAPES[shape], edit=_edit_one_line)
    ref = reference.ancestors_reference(g)
    pairs = query_pairs(rng, g, 40) + ancestor_pairs(rng, g, ref, 5)
    kinds = set()
    for head, onto in pairs:
        got = _rebase_outcome(rebase, g, head, onto)
        assert got == _rebase_outcome(reference.rebase_reference, g, head, onto), (head, onto)
        kinds.add(got[0])
    # every shape reaches clean picks; disjoint-roots must also reach a merge
    # on a chain, which stops the rebase before its first pick, and the
    # other shapes a conflicting pick
    assert {"clean", "multi-parent" if shape == "disjoint-roots" else "conflict"} <= kinds


def test_rebase_with_a_merge_on_its_chain_adds_no_commit():
    # b1 would pick cleanly onto o; the merge b2 above it stops the rebase
    # before that pick
    g = CommitGraph()
    g.add_commit("r", (), {"f": b"r\n"})
    g.add_commit("o", ("r",), {"f": b"r\n", "g": b"o\n"})
    g.add_commit("x", ("r",), {"f": b"r\n", "h": b"x\n"})
    g.add_commit("b1", ("r",), {"f": b"b1\n"})
    g.add_commit("b2", ("b1", "x"), {"f": b"b1\n", "h": b"x\n"})
    g.add_commit("b3", ("b2",), {"f": b"b3\n", "h": b"x\n"})
    before = set(g.commits)
    with pytest.raises(MultiParent, match="'b2' has 2 parents"):
        rebase(g, "b3", "o")
    assert set(g.commits) == before

    raised = 0
    for shape in sorted(SHAPES):
        rng = random.Random(f"rebase/{shape}")
        g = random_dag(rng, **SHAPES[shape], edit=_edit_one_line)
        before = set(g.commits)
        for head, onto in query_pairs(rng, g, 40):
            try:
                rebase(g, head, onto)
            except MultiParent:
                raised += 1
                assert set(g.commits) == before, (shape, head, onto)
            before = set(g.commits)
    assert raised > 20


def test_rebase_walks_the_mainline_once():
    # a k-commit branch forked at the root of an N-commit mainline: a walk
    # per branch commit would cover the mainline k times
    n, k = 2000, 200
    g = CommitGraph()
    g.add_commit("m0")
    for i in range(1, n):
        g.add_commit(f"m{i}", (f"m{i - 1}",))
    g.add_commit("b0", ("m0",))
    for i in range(1, k):
        g.add_commit(f"b{i}", (f"b{i - 1}",))
    work = lines_executed(rebase, g, f"b{k - 1}", f"m{n - 1}")
    result = rebase(g, f"b{k - 1}", f"m{n - 1}")
    assert result.kind == "clean"
    head = g[result.head]
    for _ in range(k):
        head = g[head.parents[0]]
    assert head.id == f"m{n - 1}"
    assert work <= 20 * (n + k), work


# History operations on hostile blobs: CR/LF, NUL, conflict-marker text and a
# missing final newline, with paths that are empty or absent.
_HOSTILE_LINES = (b"a\r\n", b"\r\n", b"\x00\n", b"b\x00c\n", b"<<<<<<< ours\n", b"=======\n",
                  b">>>>>>> theirs\n", b"||||||| base\n", b"x\n", b"y\n")


def _hostile_edit(rng, cid, parent_tree):
    """Each path is left alone, removed, emptied or edited at one spot; an
    edited blob sometimes loses its final newline."""
    tree = dict(parent_tree)
    for path in ("f", "g", "h"):
        roll = rng.random()
        if roll < 0.1:
            tree.pop(path, None)
        elif roll < 0.2:
            tree[path] = b""
        elif roll < 0.6:
            lines = reference.split_lines_reference(tree.get(path, b""))
            at = rng.randrange(len(lines) + 1)
            lines[at:at + rng.randrange(3)] = rng.choices(_HOSTILE_LINES, k=rng.randrange(4))
            blob = b"".join(lines)
            tree[path] = blob[:-1] if blob.endswith(b"\n") and rng.random() < 0.2 else blob
    return tree


@pytest.mark.parametrize("seed", range(4))
def test_history_operations_on_hostile_blobs(seed):
    rng = random.Random(f"hostile/{seed}")
    g = random_dag(rng, n=40, merge_p=0.3, window=6, crisscross_p=0.3, edit=_hostile_edit)
    trees = [c.tree for c in g.commits.values()]
    # the DAG holds every hostile shape
    assert any(b"" in t.values() for t in trees) and any(len(t) < 3 for t in trees)
    assert any(b"\x00" in blob for t in trees for blob in t.values())
    assert any(blob and not blob.endswith(b"\n") for t in trees for blob in t.values())
    ids = list(g.commits)
    picks = merges = 0
    for commit, onto in query_pairs(rng, g, 60):
        if len(g[commit].parents) > 1:
            continue
        work = copy.deepcopy(g)
        pick = cherry_pick(work, commit, onto)
        if pick.kind == "clean":
            picks += 1
            # reverting the pick on top of itself gives back onto's tree,
            # an empty blob staying a file and an absent path staying out
            undo = revert(work, pick.commit.id, pick.commit.id)
            assert undo.kind == "clean" and undo.commit.tree == g[onto].tree, (commit, onto)
    ref = reference.ancestors_reference(g)
    for a, b in query_pairs(rng, g, 60):
        if a in ref[b]:
            a, b = b, a
        ancestor = rng.choice(sorted(ref[a]))
        for heads in ((a, ancestor), (ancestor, a)):
            result = merge_commits(g, *heads)
            assert (result.kind, result.commit.id) == ("fast-forward", a), heads
        if b in ref[a]:
            continue
        work = copy.deepcopy(g)
        first = merge_commits(work, a, b)
        if first.kind == "clean":
            merges += 1
            size = len(work)
            again = merge_commits(work, a, b)
            assert again.kind == "clean" and again.commit is first.commit and len(work) == size, (a, b)
    assert picks >= 10 and merges >= 5, (picks, merges)
    assert ids == list(g.commits)
