"""In-memory commit DAG: merge bases, merges, cherry-pick, revert, rebase.

Commits carry a tree (path -> blob bytes), ordered parents and an integer
timestamp used to order merge bases by descending creation time.  When two
heads have several lowest common ancestors those are folded pairwise into
one virtual merge base, a tree, recursing for each pairwise base; every
invocation of the recursive merge function is counted in MergeStats.

Every commit carries its generation number, 1 + the largest generation of
its parents (git's commit-graph topological level), so the graph holds O(N)
state and each walk reads one commit lookup.  Merge bases come from git's
paint_down_to_common walk, whose generation order leaves its candidates
independent without git's remove_redundant check; every other ancestry
question is one _Descent from the descendant, stopped at the
generation of the candidate ancestor.  Both pop commits highest generation
first, so a walk covers only the commits between the heads and that
generation.

A virtual base is never an ancestor of a real commit, so the merge bases
of the bases folded so far and the next one are those of the real commits
folded: one walk paints them all as its start.  Within one merge each
answer is remembered, so in the exponential family 2n + 1 walks answer all
2**n + 1 recursive calls.  The call count itself still doubles per block,
as in git, and the memo ends with its merge.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from .merge3 import MergeOptions, merge3


class GraphError(Exception):
    pass


class UnknownCommit(GraphError):
    pass


class MultiParent(GraphError):
    """Operation cannot take a merge commit, one with several parents."""


@dataclass(frozen=True)
class Commit:
    id: str
    parents: tuple[str, ...]
    tree: dict[str, bytes]
    timestamp: int
    generation: int


@dataclass
class MergeStats:
    merge_calls: int = 0
    conflict_paths: list[str] = field(default_factory=list)


@dataclass
class MergeResult:
    kind: str  # "clean" | "fast-forward" | "conflict"
    commit: Commit | None
    conflicts: dict[str, bytes]
    stats: MergeStats

    @property
    def clean(self) -> bool:
        return self.kind != "conflict"


class CommitGraph:
    def __init__(self) -> None:
        self.commits: dict[str, Commit] = {}
        self._next_ts = 0

    def add_commit(
        self,
        cid: str,
        parents: tuple[str, ...] | list[str] = (),
        tree: dict[str, bytes] | None = None,
        timestamp: int | None = None,
    ) -> Commit:
        if cid in self.commits:
            raise GraphError(f"duplicate commit id {cid!r}")
        parents = tuple(parents)
        for p in parents:
            if p not in self.commits:
                raise UnknownCommit(f"parent {p!r} of {cid!r} does not exist")
        if timestamp is None:
            timestamp = self._next_ts
        self._next_ts = max(self._next_ts, timestamp) + 1
        generation = 1 + max((self.commits[p].generation for p in parents), default=0)
        commit = self.commits[cid] = Commit(cid, parents, dict(tree or {}), timestamp, generation)
        return commit

    def copy(self) -> CommitGraph:
        """A graph with the same commits; commits added later to one stay out of the other."""
        fresh = CommitGraph()
        fresh.commits = dict(self.commits)
        fresh._next_ts = self._next_ts
        return fresh

    def __getitem__(self, cid: str) -> Commit:
        try:
            return self.commits[cid]
        except KeyError:
            raise UnknownCommit(cid) from None

    def __contains__(self, cid: str) -> bool:
        return cid in self.commits

    def __len__(self) -> int:
        return len(self.commits)

    def ancestors_of(self, cid: str) -> frozenset[str]:
        """Ancestors including the commit itself."""
        return frozenset(_Descent([self[cid].id], self.commits).lower(0))

    def is_ancestor(self, a: str, b: str) -> bool:
        """Whether a is b or one of its ancestors; an unknown a is no ancestor."""
        descent = _Descent([self[b].id], self.commits)
        return a in self.commits and a in descent.lower(self.commits[a].generation)


class _Descent:
    """The ancestors of some start commits, expanded highest generation first.

    ``lower(floor)`` expands every queued commit whose generation is above
    ``floor`` and returns the commits seen so far.  Every commit on a path
    down to a commit has a higher generation than it, so afterwards the set
    holds every reachable commit of generation ``floor`` or more, and only
    reachable commits.  A later call with a lower floor resumes where this
    one stopped."""

    def __init__(self, starts, commits: dict[str, Commit]) -> None:
        self.commits = commits
        self.seen = set(starts)
        self.queue = [(-commits[cid].generation, cid) for cid in self.seen]
        heapq.heapify(self.queue)

    def lower(self, floor: int) -> set[str]:
        queue, seen, commits = self.queue, self.seen, self.commits
        while queue and -queue[0][0] > floor:
            for p in commits[heapq.heappop(queue)[1]].parents:
                if p not in seen:
                    seen.add(p)
                    heapq.heappush(queue, (-commits[p].generation, p))
        return seen


_PARENT1, _PARENT2, _STALE = 1, 2, 4


def _merge_bases(starts, b: str, commits: dict[str, Commit]) -> list[str]:
    """Lowest common ancestors of the start commits, taken together, and b:
    git's paint_down_to_common.

    Ancestors of the starts are painted PARENT1 and those of b PARENT2.  A
    commit painted both is a candidate, and everything below it is STALE;
    the walk ends when only stale commits are queued.  Commits leave the
    queue highest generation first, and every descendant has a higher
    generation, so a commit's paint is final when it is popped.  In
    particular a candidate is popped before its ancestors and paints them
    STALE first, so no candidate is an ancestor of another and git's
    remove_redundant check is not needed.
    """
    paint = dict.fromkeys(starts, _PARENT1)
    paint[b] = paint.get(b, 0) | _PARENT2
    queue = [(-commits[cid].generation, cid) for cid in paint]
    heapq.heapify(queue)
    nonstale = len(queue)  # queued commits not painted STALE
    candidates = []
    while nonstale:
        _, cid = heapq.heappop(queue)
        flags = paint[cid]
        if not flags & _STALE:
            nonstale -= 1
        if flags == _PARENT1 | _PARENT2:
            candidates.append(cid)
            flags |= _STALE
        for p in commits[cid].parents:
            # p is below cid, so it is still queued if it was painted at all
            old = paint.get(p, 0)
            if old | flags == old:
                continue
            paint[p] = old | flags
            if not old:
                heapq.heappush(queue, (-commits[p].generation, p))
                if not flags & _STALE:
                    nonstale += 1
            elif flags & _STALE and not old & _STALE:
                nonstale -= 1
    return candidates


def graph_from_jsonl(text: str) -> CommitGraph:
    """Build a graph from JSON-lines records {id, parents, files, ts}: a
    string id, a list of parent ids, an object of path -> text and an
    optional integer timestamp."""
    graph = CommitGraph()
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            _check_record(rec)
            files = {path: content.encode() for path, content in rec.get("files", {}).items()}
        except (ValueError, TypeError) as exc:
            raise GraphError(f"bad graph record on line {line_no}: {exc}") from exc
        graph.add_commit(rec["id"], rec.get("parents", ()), files, rec.get("ts"))
    return graph


def _check_record(rec) -> None:
    """Raise TypeError unless rec has the field types graph_from_jsonl reads."""
    if not isinstance(rec, dict):
        raise TypeError("a record must be a JSON object")
    parents, files, ts = rec.get("parents", []), rec.get("files", {}), rec.get("ts")
    if not isinstance(rec.get("id"), str):
        raise TypeError("id must be a string")
    if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
        raise TypeError("parents must be a list of strings")
    # JSON object keys are always strings
    if not isinstance(files, dict) or not all(isinstance(c, str) for c in files.values()):
        raise TypeError("files must map paths to strings")
    if ts is not None and type(ts) is not int:  # bool is an int subclass
        raise TypeError("ts must be an integer")


@dataclass
class _MergeContext:
    """Per-merge scratch state: the merge-base memo lives here, not in the graph."""

    graph: CommitGraph
    stats: MergeStats
    options: MergeOptions
    # (a, b) -> _lca(ctx, a, b)
    bases: dict[tuple[frozenset[str], str], list[str]] = field(default_factory=dict)


def lowest_common_ancestors(graph: CommitGraph, a: str, b: str) -> set[str]:
    """All common ancestors not dominated by another common ancestor."""
    for cid in (a, b):
        if cid not in graph:
            raise UnknownCommit(cid)
    return set(_merge_bases((a,), b, graph.commits))


def _lca(ctx: _MergeContext, a: frozenset[str], b: str) -> list[str]:
    """Merge bases of the commits a, taken together, and b, newest first.
    The entry points reject unknown heads, and every id a walk reaches is a
    parent of a known commit, so this reads the commit map directly."""
    bases = ctx.bases.get((a, b))
    if bases is None:
        commits = ctx.graph.commits
        # descending creation time; id breaks ties deterministically
        bases = sorted(_merge_bases(a, b, commits), key=lambda cid: (-commits[cid].timestamp, cid))
        ctx.bases[a, b] = bases
    return bases


def _merge_tree_pair(
    options: MergeOptions,
    base: dict[str, bytes],
    left: dict[str, bytes],
    right: dict[str, bytes],
) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """Per-path three-way merge; returns (tree, conflicts)."""
    tree: dict[str, bytes] = {}
    conflicts: dict[str, bytes] = {}
    for path in sorted(set(base) | set(left) | set(right)):
        b, l, r = base.get(path), left.get(path), right.get(path)
        if l == r:
            merged = l
        elif b == l:
            merged = r
        elif b == r:
            merged = l
        else:
            # Content differs on all sides; absent files merge as empty.
            outcome = merge3(b or b"", l or b"", r or b"", options)
            merged = outcome.rendered
            if outcome.conflict_count:
                conflicts[path] = outcome.rendered
        if merged is not None:
            tree[path] = merged
    return tree, conflicts


def _merge_recursive(
    ctx: _MergeContext, left: dict[str, bytes], right: dict[str, bytes], bases: list[str]
) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """The recursive merge function: two trees over their ordered merge
    bases; every invocation counts."""
    ctx.stats.merge_calls += 1
    return _merge_tree_pair(ctx.options, _fold_bases(ctx, bases), left, right)


def _fold_bases(ctx: _MergeContext, bases: list[str]) -> dict[str, bytes]:
    """Tree of the merge bases folded pairwise, in order, into one virtual base."""
    if not bases:
        return {}
    commits = ctx.graph.commits
    tree = commits[bases[0]].tree
    for i, nxt in enumerate(bases[1:], 1):
        # conflict markers, if any, stay in the virtual base's blobs
        tree, _conflicts = _merge_recursive(ctx, tree, commits[nxt].tree, _lca(ctx, frozenset(bases[:i]), nxt))
    return tree


def merge_base_recursive(
    graph: CommitGraph,
    a: str,
    b: str,
    stats: MergeStats | None = None,
    options: MergeOptions | None = None,
) -> dict[str, bytes]:
    """Tree of the (possibly virtual) merge base of a and b."""
    ctx = _MergeContext(graph, stats if stats is not None else MergeStats(), options or MergeOptions())
    if a not in graph or b not in graph:
        raise UnknownCommit(a if a not in graph else b)
    return _fold_bases(ctx, _lca(ctx, frozenset((a,)), b))


class _DefaultId(str):
    """A commit id an operation chose itself rather than took from its caller."""


def _commit_clean(
    graph: CommitGraph,
    cid: str,
    parents: tuple[str, ...],
    tree: dict[str, bytes],
    stats: MergeStats,
) -> MergeResult:
    """Insert a clean result.  Repeating an operation that names its commit
    itself returns the commit the first run made, when parents and tree agree."""
    existing = graph.commits.get(cid)
    if isinstance(cid, _DefaultId) and existing is not None and (existing.parents, existing.tree) == (parents, tree):
        return MergeResult("clean", existing, {}, stats)
    return MergeResult("clean", graph.add_commit(str(cid), parents, tree), {}, stats)


def merge_commits(
    graph: CommitGraph,
    a: str,
    b: str,
    options: MergeOptions | None = None,
    new_id: str | None = None,
) -> MergeResult:
    """Merge two heads: fast-forward when possible, else a three-way merge.

    A clean merge inserts and returns the new commit; repeating it under the
    default id returns that commit again.  Conflicts are reported per path
    with the rendered conflict blobs, and nothing is committed.
    """
    if a not in graph or b not in graph:
        raise UnknownCommit(a if a not in graph else b)
    stats = MergeStats()
    ctx = _MergeContext(graph, stats, options or MergeOptions())
    bases = _lca(ctx, frozenset((a,)), b)
    # a head among the merge bases is an ancestor of the other head
    if a in bases:
        return MergeResult("fast-forward", graph.commits[b], {}, stats)
    if b in bases:
        return MergeResult("fast-forward", graph.commits[a], {}, stats)

    tree, conflicts = _merge_recursive(ctx, graph.commits[a].tree, graph.commits[b].tree, bases)
    if conflicts:
        stats.conflict_paths = sorted(conflicts)
        return MergeResult("conflict", None, conflicts, stats)
    return _commit_clean(graph, new_id or _DefaultId(f"merge({a},{b})"), (a, b), tree, stats)


def _require_one_parent(commit: Commit) -> None:
    """A root commit has one parent, the empty tree; a merge has too many."""
    if len(commit.parents) > 1:
        raise MultiParent(f"{commit.id!r} has {len(commit.parents)} parents")


def _apply_change(
    graph: CommitGraph,
    commit: str,
    onto: str,
    options: MergeOptions | None,
    new_id: str,
    *,
    undo: bool,
) -> MergeResult:
    """Merge the change a non-merge commit made into ``onto``, or with
    ``undo`` the inverse change; the new commit's only parent is ``onto``.
    A root commit's change is the addition of its whole tree."""
    changed = graph[commit]
    _require_one_parent(changed)
    before = graph[changed.parents[0]].tree if changed.parents else {}
    after = changed.tree
    if undo:
        before, after = after, before
    tree, conflicts = _merge_tree_pair(options or MergeOptions(), before, after, graph[onto].tree)
    stats = MergeStats(conflict_paths=sorted(conflicts))
    if conflicts:
        return MergeResult("conflict", None, conflicts, stats)
    return _commit_clean(graph, new_id, (onto,), tree, stats)


def cherry_pick(
    graph: CommitGraph,
    commit: str,
    onto: str,
    options: MergeOptions | None = None,
    new_id: str | None = None,
) -> MergeResult:
    """Apply one commit's change elsewhere: a single three-way merge whose
    base is the commit's parent; the new commit's only parent is ``onto``."""
    default_id = _DefaultId(f"pick({commit}@{onto})")
    return _apply_change(graph, commit, onto, options, new_id or default_id, undo=False)


def revert(
    graph: CommitGraph,
    commit: str,
    current: str,
    options: MergeOptions | None = None,
    new_id: str | None = None,
) -> MergeResult:
    """Undo one commit: the cherry-pick merge with commit and parent swapped."""
    default_id = _DefaultId(f"revert({commit}@{current})")
    return _apply_change(graph, commit, current, options, new_id or default_id, undo=True)


@dataclass
class RebaseResult:
    kind: str  # "clean" | "conflict"
    head: str | None
    failed_index: int | None = None
    conflicts: dict[str, bytes] = field(default_factory=dict)


def rebase(
    graph: CommitGraph,
    branch_head: str,
    onto: str,
    options: MergeOptions | None = None,
) -> RebaseResult:
    """Replay the branch's first-parent chain onto another head, pick by pick.

    The chain ends at the first commit that is an ancestor of ``onto``.  Its
    generations fall strictly, so one descent from ``onto``, lowered to each
    chain commit's generation in turn, answers every step.  A branch with no
    ancestor of ``onto`` replays down to its root, which adds its tree.  A
    merge commit on the chain raises ``MultiParent``, naming the oldest one,
    before any pick adds a commit to the graph."""
    options = options or MergeOptions()
    below_onto = _Descent([graph[onto].id], graph.commits)
    chain = []
    commit = graph[branch_head]
    while commit.id not in below_onto.lower(commit.generation):
        chain.append(commit.id)
        if not commit.parents:
            break
        commit = graph.commits[commit.parents[0]]
    chain.reverse()
    for cid in chain:
        _require_one_parent(graph.commits[cid])

    tip = onto
    for index, cid in enumerate(chain):
        result = cherry_pick(graph, cid, tip, options, new_id=_DefaultId(f"rebase({cid}@{tip})"))
        if result.kind == "conflict":
            return RebaseResult("conflict", None, index, result.conflicts)
        assert result.commit is not None
        tip = result.commit.id
    return RebaseResult("clean", tip)


def build_exponential_graph(n: int) -> tuple[CommitGraph, str, str]:
    """Commit family whose merge takes 2**n + 1 recursive merge calls.

    The two heads sit on a short chain of paired merge bases; below it, each
    block contributes a base triple {A_i, B_i, C_i} whose members all have to
    be folded into a virtual base, and both fold steps recurse into the
    next triple, doubling the work per block.  The graph has 6n + 4 commits,
    every one carrying the same single-file tree.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    graph = CommitGraph()
    tree = {"file": b"shared content\n"}

    def add(cid: str, *parents: str) -> str:
        graph.add_commit(cid, tuple(parents), tree)
        return cid

    if n == 0:
        p = add("P")
        q = add("Q")
        add("A0", p, q)
        add("B0", p, q)
        return graph, "A0", "B0"

    # depth of the padding chain keeps the commit count at exactly 6n + 4
    pad = 4 if n == 1 else 5
    bottom = add("D%d" % pad)
    for i in range(pad - 1, 0, -1):
        bottom = add("D%d" % i, bottom)

    if n == 1:
        p2 = add("P'", bottom)
        q2 = add("Q'", bottom)
    else:
        # triples from the bottom block up; C is oldest, A newest, so the
        # descending-time fold merges (A, B) first and their virtual base
        # with C second
        level = n - 1
        c = add(f"C{level}", bottom)
        b = add(f"B{level}", bottom)
        a = add(f"A{level}", bottom)
        for level in range(n - 2, 0, -1):
            hc = add(f"H(C{level})", a, b)
            hb = add(f"H(B{level})", a, b)
            ha = add(f"H(A{level})", a, b)
            new_c = add(f"C{level}", hc, c)
            new_b = add(f"B{level}", hb, c)
            new_a = add(f"A{level}", ha, c)
            a, b, c = new_a, new_b, new_c
        gp = add("G(P')", a, b)
        gq = add("G(Q')", a, b)
        p2 = add("P'", gp, c)
        q2 = add("Q'", gq, c)

    p = add("P", p2, q2)
    q = add("Q", p2, q2)
    add("A0", p, q)
    add("B0", p, q)
    return graph, "A0", "B0"
