"""Reference implementations the package is tested against.

Each is either a brute-force answer (LCS by memoised recursion, every LIS
by enumeration, frozenset ancestry) or the first, simpler form of code that
was later rewritten for speed: the per-subproblem histogram rescan, the
rebase that tests each chain commit for ancestry with a walk of its own, the
recursive merge that folds merge bases into virtual commits, the
dict-keyed patience sort, the patience diff as git walks it line by line,
the dict-lookup Myers split, the Myers pipeline that maps flags back line by
line, the
line-by-line flag scans and common-run scans (pairwise, and per line for
git's zdiff3 trim), git's zealous loop that refines every merge region, the
frequent-line rule as git scans each line's window, git's change compaction
as git writes it, a line at a time in both files with each split measured
on its own, and the line split and intern loop that handle one line at
a time in Python.  Tests require the package to give
the same answers; none of this code ships in ``src/``.
"""

from __future__ import annotations

import math
from collections import ChainMap, Counter
from dataclasses import dataclass
from itertools import compress
from operator import not_

from diffmerge import graph as graph_mod
from diffmerge.core import Change, ChangedLines, InternedSequence, InvalidFlags
from diffmerge.histogram import MAX_OCCURRENCES, FallbackSignal, Region
from diffmerge.merge3 import CONFLICT, SAME, MergeOptions, MergeRegion, _hunks
from diffmerge.myers import _BIG, HEUR_MIN_COST, SNAKE_CNT, PreprocessClassification, _recs_cmp, _SearchEnv, step_budget
from diffmerge.oracle import SizeGuard
from diffmerge.patience import patience_lis

_MEMO_LIMIT = 600
_LIS_LIMIT = 15


def lcs_length_memo(a: list[int], b: list[int]) -> int:
    """Second, independent LCS implementation (top-down memo) for cross-checks."""
    if len(a) > _MEMO_LIMIT or len(b) > _MEMO_LIMIT:
        raise SizeGuard(f"inputs of {len(a)}x{len(b)} exceed the {_MEMO_LIMIT} guard")
    memo: dict[tuple[int, int], int] = {}
    # iterative worklist to dodge recursion limits
    def solve(i: int, j: int) -> int:
        stack = [(i, j)]
        while stack:
            x, y = stack[-1]
            if (x, y) in memo:
                stack.pop()
                continue
            if x == len(a) or y == len(b):
                memo[(x, y)] = 0
                stack.pop()
                continue
            if a[x] == b[y]:
                if (x + 1, y + 1) in memo:
                    memo[(x, y)] = 1 + memo[(x + 1, y + 1)]
                    stack.pop()
                else:
                    stack.append((x + 1, y + 1))
            else:
                have_r = (x + 1, y) in memo
                have_d = (x, y + 1) in memo
                if have_r and have_d:
                    memo[(x, y)] = max(memo[(x + 1, y)], memo[(x, y + 1)])
                    stack.pop()
                else:
                    if not have_r:
                        stack.append((x + 1, y))
                    if not have_d:
                        stack.append((x, y + 1))
        return memo[(i, j)]

    return solve(0, 0)


def all_lis(perm: list[int]) -> set[tuple[int, ...]]:
    """Every longest strictly increasing subsequence, by exhaustive enumeration."""
    if len(perm) > _LIS_LIMIT:
        raise SizeGuard(f"permutation of {len(perm)} exceeds the {_LIS_LIMIT} guard")
    best: set[tuple[int, ...]] = {()}
    best_len = 0

    def extend(start: int, chain: list[int]) -> None:
        nonlocal best, best_len
        if len(chain) > best_len:
            best = {tuple(chain)}
            best_len = len(chain)
        elif len(chain) == best_len:
            best.add(tuple(chain))
        for k in range(start, len(perm)):
            if not chain or perm[k] > chain[-1]:
                chain.append(perm[k])
                extend(k + 1, chain)
                chain.pop()

    extend(0, [])
    return best


def ancestors_reference(graph) -> dict[str, frozenset[str]]:
    """Every commit's ancestors, itself included, as one frozenset per commit.

    This is how the commit graph answered ancestry before generation
    numbers: O(N^2) memory, kept as the reference the walks are tested
    against.  Commits are visited in insertion order, parents first.
    """
    ancestors: dict[str, frozenset[str]] = {}
    for cid, commit in graph.commits.items():
        ancestors[cid] = frozenset({cid}).union(*(ancestors[p] for p in commit.parents))
    return ancestors


def generations_reference(parents_of: dict[str, tuple[str, ...]]) -> dict[str, int]:
    """Each commit's generation by its definition, the length of its longest
    path down to a root, counted in commits: every commit starts at 1 and is
    raised past each parent until nothing changes, in no particular order."""
    generation = dict.fromkeys(parents_of, 1)
    changed = True
    while changed:
        changed = False
        for cid, parents in parents_of.items():
            for p in parents:
                if generation[cid] <= generation[p]:
                    generation[cid] = generation[p] + 1
                    changed = True
    return generation


def timestamps_reference(given: list[int | None]) -> tuple[list[int], int]:
    """The timestamps of commits added in order, each given or None, and the
    default left after them.  The default starts at 0, a commit without a
    timestamp takes it, and each addition moves it one past the larger of
    itself and the timestamp taken."""
    next_ts = 0
    stamps = []
    for ts in given:
        if ts is None:
            ts = next_ts
        stamps.append(ts)
        next_ts = max(next_ts, ts) + 1
    return stamps, next_ts


def lca_reference(ancestors_of, a: str, b: str) -> set[str]:
    """Common ancestors of a and b that are no ancestor of another common
    ancestor, by comparing every pair; ``ancestors_of(cid)`` includes cid."""
    common = ancestors_of(a) & ancestors_of(b)
    return {c for c in common if not any(other != c and c in ancestors_of(other) for other in common)}


def rebase_reference(graph, branch_head: str, onto: str, options=None):
    """graph.rebase as it was before its one-walk chain: one ancestry
    question per first-parent commit, answered here by ancestors_reference
    rather than by a walk, then the same parent check of every chain commit,
    oldest first, and the same picks."""
    below_onto = ancestors_reference(graph)[onto]
    chain = []
    cur = branch_head
    while cur not in below_onto:
        commit = graph[cur]
        chain.append(cur)
        if not commit.parents:
            break
        cur = commit.parents[0]
    chain.reverse()
    for cid in chain:
        parents = graph[cid].parents
        if len(parents) > 1:
            raise graph_mod.MultiParent(f"{cid!r} has {len(parents)} parents")

    tip = onto
    for index, cid in enumerate(chain):
        result = graph_mod.cherry_pick(graph, cid, tip, options, new_id=graph_mod._DefaultId(f"rebase({cid}@{tip})"))
        if result.kind == "conflict":
            return graph_mod.RebaseResult("conflict", None, index, result.conflicts)
        tip = result.commit.id
    return graph_mod.RebaseResult("clean", tip)


class VirtualMergeContext:
    """graph._MergeContext as it was when each fold step made a virtual
    ``Commit``: a synthetic id, the newer parent's timestamp and a
    generation above both parents'.  ``commits`` looks up real and virtual
    commits alike."""

    def __init__(self, graph, stats, options):
        self.graph, self.stats, self.options = graph, stats, options
        self.virtual: dict[str, graph_mod.Commit] = {}
        self.commits = ChainMap(self.virtual, graph.commits)

    def new_virtual(self, parents: tuple[str, str], tree: dict[str, bytes]) -> str:
        cid = f"virtual:{len(self.virtual)}"
        p, q = (self.commits[parent] for parent in parents)
        ts, generation = max(p.timestamp, q.timestamp), 1 + max(p.generation, q.generation)
        self.virtual[cid] = graph_mod.Commit(cid, parents, tree, ts, generation)
        return cid


def virtual_lca(ctx: VirtualMergeContext, a: str, b: str) -> list[str]:
    """Merge bases of a, real or virtual, and the real b: one walk from a
    itself, through the virtual commits above the real ones, every time."""
    bases = graph_mod._merge_bases((a,), b, ctx.commits)
    return sorted(bases, key=lambda cid: (-ctx.commits[cid].timestamp, cid))


def _merge_recursive_virtual(ctx: VirtualMergeContext, a: str, b: str, bases: list[str]):
    # git's ort: every call performs its merge
    ctx.stats.merge_calls += 1
    ctx.stats.merges_performed += 1
    base_tree = _fold_bases_virtual(ctx, bases)
    return graph_mod._merge_tree_pair(ctx.options, base_tree, ctx.commits[a].tree, ctx.commits[b].tree)


def _fold_bases_virtual(ctx: VirtualMergeContext, bases: list[str]) -> dict[str, bytes]:
    if not bases:
        return {}
    current = bases[0]
    for nxt in bases[1:]:
        tree, _conflicts = _merge_recursive_virtual(ctx, current, nxt, virtual_lca(ctx, current, nxt))
        current = ctx.new_virtual((current, nxt), tree)
    return ctx.commits[current].tree


def merge_base_recursive_reference(graph, a: str, b: str, stats=None, options=None) -> dict[str, bytes]:
    """The merge base tree of a and b through virtual commits: the reference
    for graph._fold_bases over graph._lca's ordered bases, the fold
    merge_commits makes."""
    stats = stats if stats is not None else graph_mod.MergeStats()
    ctx = VirtualMergeContext(graph, stats, options or MergeOptions())
    return _fold_bases_virtual(ctx, virtual_lca(ctx, a, b))


def merge_commits_reference(graph, a: str, b: str, options=None, new_id=None):
    """graph.merge_commits through virtual commits: the same fast-forward
    rule, recursive merge and commit of a clean result."""
    stats = graph_mod.MergeStats()
    ctx = VirtualMergeContext(graph, stats, options or MergeOptions())
    bases = virtual_lca(ctx, a, b)
    if a in bases:
        return graph_mod.MergeResult("fast-forward", graph[b], {}, stats)
    if b in bases:
        return graph_mod.MergeResult("fast-forward", graph[a], {}, stats)
    tree, conflicts = _merge_recursive_virtual(ctx, a, b, bases)
    if conflicts:
        return graph_mod.MergeResult("conflict", None, conflicts, stats)
    new_id = new_id or graph_mod._DefaultId(f"merge({a},{b})")
    return graph_mod._commit_clean(graph, new_id, (a, b), tree, stats)


def histogram_split_reference(a: list[int], b: list[int], lo1: int, hi1: int, lo2: int, hi2: int) -> Region | None:
    """The histogram split search as first written, under git's seed rule
    (``try_lcs`` and ``find_lcs`` in ``xdiff/xhistogram.c``): it rebuilds the
    occurrence lists of old[lo1:hi1] for every subproblem, extends runs one
    line at a time and takes every candidate's record count through a
    generator.  The running lowest record count starts at 65, git's
    ``max_chain_length + 1``; a seed occurring more often is skipped, and the
    search falls back when a common line was seen and the lowest count is
    still over 64.  A region replaces the best when it is longer than the
    best, an empty region at first, or its record count is lower.

    Kept as the reference ``histogram.find_split`` is tested against.
    """
    occ: dict[int, list[int]] = {}
    for i in range(lo1, hi1):
        occ.setdefault(a[i], []).append(i)
    has_common = False
    lowest_record_count = MAX_OCCURRENCES + 1
    best: Region | None = None
    best_length = 0

    b_ptr = lo2
    while b_ptr < hi2:
        b_next = b_ptr + 1
        positions = occ.get(b[b_ptr])
        if positions:
            has_common = True
            if len(positions) <= lowest_record_count:
                region_end = lo1 - 1
                for apos in positions:
                    if apos <= region_end:
                        continue
                    begin1, begin2 = apos, b_ptr
                    end1, end2 = apos, b_ptr
                    while begin1 > lo1 and begin2 > lo2 and a[begin1 - 1] == b[begin2 - 1]:
                        begin1 -= 1
                        begin2 -= 1
                    while end1 < hi1 - 1 and end2 < hi2 - 1 and a[end1 + 1] == b[end2 + 1]:
                        end1 += 1
                        end2 += 1
                    record_count = min(len(occ[a[i]]) for i in range(begin1, end1 + 1))
                    if b_next <= end2:
                        b_next = end2 + 1
                    if best_length < end1 - begin1 or record_count < lowest_record_count:
                        best = Region(begin1, end1, begin2, end2, record_count)
                        best_length = end1 - begin1
                        lowest_record_count = record_count
                    region_end = end1
        b_ptr = b_next

    if has_common and lowest_record_count > MAX_OCCURRENCES:
        raise FallbackSignal
    return best


def histogram_reference(old: InternedSequence, new: InternedSequence) -> ChangedLines:
    """Histogram diff flags through ``histogram_split_reference``, one call per
    subproblem, taken from the work stack in the same order as the engine."""
    a, b = old.tokens, new.tokens
    of = [False] * len(a)
    nf = [False] * len(b)
    work = [(0, len(a), 0, len(b))]
    while work:
        lo1, hi1, lo2, hi2 = work.pop()
        if lo1 == hi1 and lo2 == hi2:
            continue
        if lo1 == hi1:
            for j in range(lo2, hi2):
                nf[j] = True
            continue
        if lo2 == hi2:
            for i in range(lo1, hi1):
                of[i] = True
            continue
        try:
            split = histogram_split_reference(a, b, lo1, hi1, lo2, hi2)
        except FallbackSignal:
            sub = diff_myers_reference(a[lo1:hi1], b[lo2:hi2])
            for i, flag in enumerate(sub.old_flags):
                if flag:
                    of[lo1 + i] = True
            for j, flag in enumerate(sub.new_flags):
                if flag:
                    nf[lo2 + j] = True
            continue
        if split is None:
            for i in range(lo1, hi1):
                of[i] = True
            for j in range(lo2, hi2):
                nf[j] = True
        else:
            work.append((lo1, split.begin1, lo2, split.begin2))
            work.append((split.end1 + 1, hi1, split.end2 + 1, hi2))
    return ChangedLines(of, nf)


def patience_lis_reference(matches: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Patience sorting as first written, with the predecessor of each match
    in a dict keyed by the frozen match itself; the reference
    ``patience.patience_lis`` is tested against."""
    pile_tops: list[tuple[int, int]] = []
    previous: dict[tuple[int, int], tuple[int, int] | None] = {}
    for entry in matches:
        lo, hi = 0, len(pile_tops)
        while lo < hi:
            mid = (lo + hi) // 2
            if pile_tops[mid][1] < entry[1]:
                lo = mid + 1
            else:
                hi = mid
        previous[entry] = pile_tops[lo - 1] if lo else None
        if lo < len(pile_tops):
            pile_tops[lo] = entry
        else:
            pile_tops.append(entry)
    if not pile_tops:
        return []
    chain = []
    node: tuple[int, int] | None = pile_tops[-1]
    while node is not None:
        chain.append(node)
        node = previous[node]
    chain.reverse()
    return chain


def check_flags_valid(old_tokens: list[int], new_tokens: list[int], old_flags: list[bool], new_flags: list[bool]) -> bool:
    """Common-subsequence correctness of a changed-lines result."""
    kept_old = [t for t, f in zip(old_tokens, old_flags) if not f]
    kept_new = [t for t, f in zip(new_tokens, new_flags) if not f]
    return kept_old == kept_new


def validate_merge_regions(regions, o: list[int], left: list[int], right: list[int]) -> list[str]:
    """Exhaustively check a merge-region list against the three token files.

    Verifies ordering, non-overlap and file bounds in all three coordinate
    systems, the
    per-kind equality constraints, and that the text between regions is
    identical in ancestor, left and right.  Returns a list of violation
    descriptions (empty when valid).
    """
    problems = []
    pa = pl = pr = 0
    for idx, reg in enumerate(regions):
        if reg.start_a < pa or reg.start_l < pl or reg.start_r < pr:
            problems.append(f"region {idx} overlaps its predecessor: {reg}")
        if reg.end_a > len(o) or reg.end_l > len(left) or reg.end_r > len(right):
            problems.append(f"region {idx} ends past a file: {reg}")
        gap_a = o[pa:reg.start_a]
        gap_l = left[pl:reg.start_l]
        gap_r = right[pr:reg.start_r]
        if not (gap_a == gap_l == gap_r):
            problems.append(f"gap before region {idx} differs between files")
        seg_a = o[reg.start_a:reg.end_a]
        seg_l = left[reg.start_l:reg.end_l]
        seg_r = right[reg.start_r:reg.end_r]
        if reg.kind == "left-change" and seg_a != seg_r:
            problems.append(f"left-change region {idx} has ancestor != right")
        if reg.kind == "right-change" and seg_a != seg_l:
            problems.append(f"right-change region {idx} has ancestor != left")
        if reg.kind == "same-change" and seg_l != seg_r:
            problems.append(f"same-change region {idx} has left != right")
        pa, pl, pr = reg.end_a, reg.end_l, reg.end_r
    if not (o[pa:] == left[pl:] == right[pr:]):
        problems.append("tail after the last region differs between files")
    return problems


def find_matching_unique_lines_reference(a: list[int], b: list[int]) -> list[tuple[int, int]]:
    """Pairs (posA, posB) of lines occurring exactly once in each file, by posA,
    counted with two Counters over the whole lists."""
    count_a = Counter(a)
    count_b = Counter(b)
    pos_b = {tok: j for j, tok in enumerate(b) if count_b[tok] == 1}
    matches = []
    for i, tok in enumerate(a):
        if count_a[tok] == 1 and tok in pos_b:
            matches.append((i, pos_b[tok]))
    return matches


def diff_patience_reference(old: InternedSequence, new: InternedSequence) -> ChangedLines:
    """Patience diff as git's ``xdiff/xpatience.c`` runs it, one line at a
    time: every subproblem slices both files and counts its lines afresh; one
    with no common unique line falls back to ``diff_myers_reference`` on its
    range (``xdl_fall_back_diff``), and otherwise ``walk_common_sequence``
    grows each match of the LCS back over equal lines and the previous match
    forward, and recurses into what is left between them.  The end of the
    range grows nothing back, and a match right after the previous one is
    walked like any other.  The reference ``patience.diff_patience`` is
    tested against."""
    a, b = old.tokens, new.tokens
    of = [False] * len(old)
    nf = [False] * len(new)
    work = [(0, len(a), 0, len(b))]
    while work:
        lo_a, hi_a, lo_b, hi_b = work.pop()
        if lo_a == hi_a:
            for j in range(lo_b, hi_b):
                nf[j] = True
            continue
        if lo_b == hi_b:
            for i in range(lo_a, hi_a):
                of[i] = True
            continue

        matches = find_matching_unique_lines_reference(a[lo_a:hi_a], b[lo_b:hi_b])
        lcs = patience_lis(matches)
        if not lcs:
            sub = diff_myers_reference(a[lo_a:hi_a], b[lo_b:hi_b])
            for i, flag in enumerate(sub.old_flags):
                if flag:
                    of[lo_a + i] = True
            for j, flag in enumerate(sub.new_flags):
                if flag:
                    nf[lo_b + j] = True
            continue

        line_a, line_b = lo_a, lo_b
        for k in range(len(lcs) + 1):
            if k < len(lcs):
                next_a, next_b = lo_a + lcs[k][0], lo_b + lcs[k][1]
                while next_a > line_a and next_b > line_b and a[next_a - 1] == b[next_b - 1]:
                    next_a -= 1
                    next_b -= 1
            else:
                next_a, next_b = hi_a, hi_b
            while line_a < next_a and line_b < next_b and a[line_a] == b[line_b]:
                line_a += 1
                line_b += 1
            if next_a > line_a or next_b > line_b:
                work.append((line_a, next_a, line_b, next_b))
            if k < len(lcs):
                line_a, line_b = lo_a + lcs[k][0] + 1, lo_b + lcs[k][1] + 1
    return ChangedLines(of, nf)


def split_reference(env: _SearchEnv, off1: int, lim1: int, off2: int, lim2: int, need_min: bool) -> tuple[int, int, bool, bool]:
    """``myers._split`` as first written, with both neighbours of every
    diagonal looked up in a dict; tests patch it in as ``myers._split``.
    The dicts are its own and fresh on each call, since no split reads a
    diagonal that an earlier one wrote (a missing one raises KeyError), so a
    fault in the package's frontier lists cannot reach this side.

    Finds a pivot on (or near) the shortest path; returns (i1, i2, min_lo, min_hi)."""
    ha1, ha2 = env.ha1, env.ha2
    kvdf: dict[int, int] = {}
    kvdb: dict[int, int] = {}
    dmin, dmax = off1 - lim2, lim1 - off2
    fmid, bmid = off1 - off2, lim1 - lim2
    odd = (fmid - bmid) & 1
    kvdf[fmid] = off1
    kvdb[bmid] = lim1
    fmin = fmax = fmid
    bmin = bmax = bmid

    ec = 1
    while True:
        got_snake = False

        if fmin > dmin:
            fmin -= 1
            kvdf[fmin - 1] = -1
        else:
            fmin += 1
        if fmax < dmax:
            fmax += 1
            kvdf[fmax + 1] = -1
        else:
            fmax -= 1
        for d in range(fmax, fmin - 1, -2):
            if kvdf[d - 1] >= kvdf[d + 1]:
                i1 = kvdf[d - 1] + 1
            else:
                i1 = kvdf[d + 1]
            prev1 = i1
            i2 = i1 - d
            while i1 < lim1 and i2 < lim2 and ha1[i1] == ha2[i2]:
                i1 += 1
                i2 += 1
            if i1 - prev1 > env.snake:
                got_snake = True
            kvdf[d] = i1
            if odd and bmin <= d <= bmax and kvdb[d] <= i1:
                return i1, i1 - d, True, True

        if bmin > dmin:
            bmin -= 1
            kvdb[bmin - 1] = _BIG
        else:
            bmin += 1
        if bmax < dmax:
            bmax += 1
            kvdb[bmax + 1] = _BIG
        else:
            bmax -= 1
        for d in range(bmax, bmin - 1, -2):
            if kvdb[d - 1] < kvdb[d + 1]:
                i1 = kvdb[d - 1]
            else:
                i1 = kvdb[d + 1] - 1
            prev1 = i1
            i2 = i1 - d
            while i1 > off1 and i2 > off2 and ha1[i1 - 1] == ha2[i2 - 1]:
                i1 -= 1
                i2 -= 1
            if prev1 - i1 > env.snake:
                got_snake = True
            kvdb[d] = i1
            if not odd and fmin <= d <= fmax and i1 <= kvdf[d]:
                return i1, i1 - d, True, True

        if need_min:
            ec += 1
            continue

        # Snake cutoff: pivot on the best-scoring frontier point that ends a
        # long run of matching lines.  Score is total progress minus the
        # distance to the cross-file diagonal; ties go to the lower diagonal.
        if got_snake and ec > env.heur_min:
            best = 0
            spl: tuple[int, int] | None = None
            for d in range(fmin, fmax + 1, 2):
                dd = d - fmid if d > fmid else fmid - d
                i1 = kvdf[d]
                i2 = i1 - d
                v = (i1 - off1) + (i2 - off2) - dd
                if (
                    v > 4 * ec
                    and v > best
                    and off1 + env.snake <= i1 < lim1
                    and off2 + env.snake <= i2 < lim2
                ):
                    if all(ha1[i1 - k] == ha2[i2 - k] for k in range(1, env.snake + 1)):
                        best = v
                        spl = (i1, i2)
            if spl is not None:
                return spl[0], spl[1], True, False

            best = 0
            spl = None
            for d in range(bmin, bmax + 1, 2):
                dd = d - bmid if d > bmid else bmid - d
                i1 = kvdb[d]
                i2 = i1 - d
                v = (lim1 - i1) + (lim2 - i2) - dd
                if (
                    v > 4 * ec
                    and v > best
                    and off1 < i1 <= lim1 - env.snake
                    and off2 < i2 <= lim2 - env.snake
                ):
                    if all(ha1[i1 + k] == ha2[i2 + k] for k in range(env.snake)):
                        best = v
                        spl = (i1, i2)
            if spl is not None:
                return spl[0], spl[1], False, True

        # Budget cutoff: give up and pivot on the point furthest from the
        # respective origin.
        if ec >= env.mxcost:
            fbest = -1
            fbest1 = -1
            for d in range(fmax, fmin - 1, -2):
                i1 = min(kvdf[d], lim1)
                i2 = i1 - d
                if lim2 < i2:
                    i1 = lim2 + d
                    i2 = lim2
                if fbest < i1 + i2:
                    fbest = i1 + i2
                    fbest1 = i1
            bbest = _BIG
            bbest1 = _BIG
            for d in range(bmax, bmin - 1, -2):
                i1 = max(off1, kvdb[d])
                i2 = i1 - d
                if i2 < off2:
                    i1 = off2 + d
                    i2 = off2
                if bbest > i1 + i2:
                    bbest = i1 + i2
                    bbest1 = i1
            if (lim1 + lim2) - bbest < fbest - (off1 + off2):
                return fbest1, fbest - fbest1, True, False
            return bbest1, bbest - bbest1, False, True

        ec += 1


def flags_to_script_reference(flags: ChangedLines, old: InternedSequence, new: InternedSequence) -> tuple[Change, ...]:
    """``core.flags_to_script`` as first written, one line at a time.

    Maximal runs of flagged lines at one alignment point become one Change.
    Raises InvalidFlags if the unflagged lines of both files are not the
    same token sequence.
    """
    of, nf = flags.old_flags, flags.new_flags
    if len(of) != len(old) or len(nf) != len(new):
        raise InvalidFlags("flag arrays do not match file lengths")
    changes = []
    i = j = 0
    n, m = len(old), len(new)
    while i < n or j < m:
        if (i < n and of[i]) or (j < m and nf[j]):
            s_old, s_new = i, j
            while i < n and of[i]:
                i += 1
            while j < m and nf[j]:
                j += 1
            changes.append(Change(s_old, i, s_new, j))
        elif i < n and j < m:
            if old.tokens[i] != new.tokens[j]:
                raise InvalidFlags(f"unflagged lines differ at old[{i}] vs new[{j}]")
            i += 1
            j += 1
        else:
            raise InvalidFlags("unflagged tail of one file has no counterpart")
    return tuple(changes)


def common_prefix_reference(a: list[int], i: int, b: list[int], j: int, limit: int) -> int:
    """``core.common_prefix`` as the line-by-line scan that ``myers.preprocess``
    and ``myers._recs_cmp`` each kept before the galloping primitive."""
    k = 0
    while k < limit and a[i + k] == b[j + k]:
        k += 1
    return k


def common_suffix_reference(a: list[int], i: int, b: list[int], j: int, limit: int) -> int:
    """``core.common_suffix`` as a line-by-line scan."""
    k = 0
    while k < limit and a[i - 1 - k] == b[j - 1 - k]:
        k += 1
    return k


def trim_zdiff3_reference(region: MergeRegion, left: InternedSequence, right: InternedSequence) -> MergeRegion:
    """git's ``xdl_refine_zdiff3_conflicts`` as git writes it: while both sides
    have lines and ours' first equals theirs' first, drop it from both; then
    the same from the ends.  The base range is left whole."""
    sl, el = region.start_l, region.end_l
    sr, er = region.start_r, region.end_r
    while sl < el and sr < er and left.tokens[sl] == right.tokens[sr]:
        sl += 1
        sr += 1
    while sl < el and sr < er and left.tokens[el - 1] == right.tokens[er - 1]:
        el -= 1
        er -= 1
    return MergeRegion(region.start_a, region.end_a, sl, el, sr, er, CONFLICT)


def zealous_reference(
    regions: list[MergeRegion], left: InternedSequence, right: InternedSequence, algorithm: str
) -> list[MergeRegion]:
    """git's ``xdl_refine_conflicts`` then ``xdl_simplify_non_conflicts`` as
    git writes them, over every region: a conflict whose sides both hold
    lines is split along the compacted diff of its sides, and becomes a
    same-change when that diff is empty; then each conflict at most 3 lines
    of ours after the one before it is joined to it."""
    refined: list[MergeRegion] = []
    for region in regions:
        sa, ea, sl, el, sr, er, kind = region
        if kind != CONFLICT or sl == el or sr == er:
            refined.append(region)
            continue
        hunks = _hunks(InternedSequence(left.tokens[sl:el], left.lines),
                       InternedSequence(right.tokens[sr:er], right.lines), algorithm)
        if not hunks:
            refined.append(region._replace(kind=SAME))
        for i, (start_old, end_old, start_new, end_new) in enumerate(hunks):
            refined.append(MergeRegion(ea if i else sa, ea, sl + start_old, sl + end_old, sr + start_new, sr + end_new,
                                       CONFLICT))
    joined: list[MergeRegion] = []
    for region in refined:
        prev = joined[-1] if joined else None
        if prev and prev.kind == region.kind == CONFLICT and region.start_l - prev.end_l <= 3:
            joined[-1] = prev._replace(end_a=max(prev.end_a, region.end_a), end_l=region.end_l, end_r=region.end_r)
        else:
            joined.append(region)
    return joined


def preprocess_reference(a: list[int], b: list[int], *, minimal: bool) -> PreprocessClassification:
    """``myers.preprocess`` as first written, with git's frequent-line scan line by line."""
    n, m = len(a), len(b)
    prefix = common_prefix_reference(a, 0, b, 0, min(n, m))
    suffix = common_suffix_reference(a, n, b, m, min(n, m) - prefix)

    count_a = Counter(a)
    count_b = Counter(b)
    old_pre = bytearray(n)
    new_pre = bytearray(m)
    for i in range(prefix, n - suffix):
        if count_b[a[i]] == 0:
            old_pre[i] = 1
    for j in range(prefix, m - suffix):
        if count_a[b[j]] == 0:
            new_pre[j] = 1

    if not minimal:
        flag_frequent_reference(a, count_b, old_pre, prefix, n - suffix)
        flag_frequent_reference(b, count_a, new_pre, prefix, m - suffix)

    return PreprocessClassification(prefix, suffix, old_pre, new_pre)


def xdl_bogosqrt_reference(n: int) -> int:
    """git's ``xdl_bogosqrt`` (xdiff/xutils.c): doubles once per base-4 digit of n."""
    i = 1
    while n > 0:
        i <<= 1
        n >>= 2
    return i


def flag_frequent_reference(tokens: list[int], counts: Counter, pre: bytearray, lo: int, hi: int) -> None:
    """``myers._flag_frequent`` as git's ``xdl_cleanup_records`` scans, line by
    line: each line of tokens[lo:hi] is 0 (the other file's ``counts`` lack
    it), 2 (they hold it at least ``xdl_bogosqrt(len(tokens))`` times, capped
    at 1024) or 1, and each line of class 2 walks its own window."""
    mlim = min(xdl_bogosqrt_reference(len(tokens)), 1024)
    dis = {}
    for i in range(lo, hi):
        nm = counts[tokens[i]]
        dis[i] = 0 if nm == 0 else 2 if nm >= mlim else 1
    extra = [i for i in range(lo, hi) if dis[i] == 2 and clean_mmatch_reference(dis, i, lo, hi - 1)]
    for i in extra:
        pre[i] = 1


def clean_mmatch_reference(dis: dict[int, int], i: int, s: int, e: int) -> bool:
    """git's ``xdl_clean_mmatch``: walk back and forward from line i, within
    lines s to e and at most 100 (``XDL_SIMSCAN_WINDOW``) each way, over lines
    of class 0 or 2; discard i when both runs hold a line of class 0 and
    ``XDL_KPDIS_RUN`` (4) times the class-2 count, i counted once per run, is
    below the runs' length."""
    s, e = max(s, i - 100), min(e, i + 100)
    rdis0, rpdis0 = 0, 1
    r = 1
    while i - r >= s and dis[i - r] != 1:
        if dis[i - r] == 0:
            rdis0 += 1
        else:
            rpdis0 += 1
        r += 1
    if rdis0 == 0:
        return False
    rdis1, rpdis1 = 0, 1
    r = 1
    while i + r <= e and dis[i + r] != 1:
        if dis[i + r] == 0:
            rdis1 += 1
        else:
            rpdis1 += 1
        r += 1
    if rdis1 == 0:
        return False
    rpdis = rpdis0 + rpdis1
    return rpdis * 4 < rpdis + rdis0 + rdis1


def diff_myers_reference(a: list[int], b: list[int], minimal: bool = False) -> ChangedLines:
    """``myers.myers_flags`` with the line-by-line preprocess above and the
    search's flags mapped back by one pass over every line between the
    common ends.  It runs the bare search, ``myers._recs_cmp``, itself, so a
    test that patches ``split_reference`` in also runs it on dict frontiers;
    histogram's and patience's references fall back to it."""
    cls = preprocess_reference(a, b, minimal=minimal)
    lo = cls.prefix_len
    hi_a, hi_b = len(a) - cls.suffix_len, len(b) - cls.suffix_len
    of = cls.old_prechanged
    nf = cls.new_prechanged
    ha1 = list(compress(a[lo:hi_a], map(not_, of[lo:hi_a])))
    ha2 = list(compress(b[lo:hi_b], map(not_, nf[lo:hi_b])))
    budget = step_budget(len(ha1) + len(ha2))
    sub = _recs_cmp(_SearchEnv(ha1, ha2, minimal, SNAKE_CNT, HEUR_MIN_COST, budget))
    # a pre-flagged line stays flagged; each kept line takes the search's next flag
    it = iter(sub.old_flags)
    of[lo:hi_a] = [f or next(it) for f in of[lo:hi_a]]
    it = iter(sub.new_flags)
    nf[lo:hi_b] = [f or next(it) for f in nf[lo:hi_b]]
    return ChangedLines(of, nf)


# git's change compaction (``xdl_change_compact`` and its indent heuristic,
# ``xdiff/xdiffi.c``) as git writes it: groups move a line at a time in both
# files, and each split is measured on its own.  The constants are written
# out here so that the reference does not read the package's.
MAX_INDENT = 200
MAX_BLANKS = 20
INDENT_HEURISTIC_MAX_SLIDING = 100
START_OF_FILE_PENALTY = 1
END_OF_FILE_PENALTY = 21
TOTAL_BLANK_WEIGHT = -30
POST_BLANK_WEIGHT = 6
RELATIVE_INDENT_PENALTY = -4
RELATIVE_INDENT_WITH_BLANK_PENALTY = 10
RELATIVE_OUTDENT_PENALTY = 24
RELATIVE_OUTDENT_WITH_BLANK_PENALTY = 17
RELATIVE_DEDENT_PENALTY = 23
RELATIVE_DEDENT_WITH_BLANK_PENALTY = 17
INDENT_WEIGHT = 60


def get_indent_reference(rec: bytes) -> int:
    """git's ``get_indent``.  git's ``isspace`` (``sane_ctype``) holds space,
    tab, LF and CR, and no form feed or vertical tab."""
    ret = 0
    for c in rec:
        if c not in b" \t\n\r":
            return ret
        elif c == ord(" "):
            ret += 1
        elif c == ord("\t"):
            ret += 8 - ret % 8
        # other whitespace characters are ignored
        if ret >= MAX_INDENT:
            return MAX_INDENT
    # the line contains only whitespace
    return -1


@dataclass
class SplitMeasurement:
    """git's ``struct split_measurement``."""

    end_of_file: int = 0
    indent: int = 0
    pre_blank: int = 0
    pre_indent: int = 0
    post_blank: int = 0
    post_indent: int = 0


@dataclass
class SplitScore:
    """git's ``struct split_score``."""

    effective_indent: int = 0
    penalty: int = 0


def measure_split_reference(recs: list[bytes], split: int) -> SplitMeasurement:
    """git's ``measure_split``."""
    m = SplitMeasurement()
    if split >= len(recs):
        m.end_of_file = 1
        m.indent = -1
    else:
        m.end_of_file = 0
        m.indent = get_indent_reference(recs[split])

    m.pre_blank = 0
    m.pre_indent = -1
    for i in range(split - 1, -1, -1):
        m.pre_indent = get_indent_reference(recs[i])
        if m.pre_indent != -1:
            break
        m.pre_blank += 1
        if m.pre_blank == MAX_BLANKS:
            m.pre_indent = 0
            break

    m.post_blank = 0
    m.post_indent = -1
    for i in range(split + 1, len(recs)):
        m.post_indent = get_indent_reference(recs[i])
        if m.post_indent != -1:
            break
        m.post_blank += 1
        if m.post_blank == MAX_BLANKS:
            m.post_indent = 0
            break
    return m


def score_add_split_reference(m: SplitMeasurement, s: SplitScore) -> None:
    """git's ``score_add_split``: adds one split's penalty and effective
    indent to ``s``."""
    if m.pre_indent == -1 and m.pre_blank == 0:
        s.penalty += START_OF_FILE_PENALTY
    if m.end_of_file:
        s.penalty += END_OF_FILE_PENALTY

    # the blank lines following the split, the line right after it included
    post_blank = 1 + m.post_blank if m.indent == -1 else 0
    total_blank = m.pre_blank + post_blank

    s.penalty += TOTAL_BLANK_WEIGHT * total_blank
    s.penalty += POST_BLANK_WEIGHT * post_blank

    indent = m.indent if m.indent != -1 else m.post_indent
    any_blanks = total_blank != 0

    # the effective indent is -1 at the end of the file
    s.effective_indent += indent

    if indent == -1:
        pass
    elif m.pre_indent == -1:
        pass
    elif indent > m.pre_indent:
        s.penalty += RELATIVE_INDENT_WITH_BLANK_PENALTY if any_blanks else RELATIVE_INDENT_PENALTY
    elif indent == m.pre_indent:
        pass
    else:
        if m.post_indent != -1 and m.post_indent > indent:
            s.penalty += RELATIVE_OUTDENT_WITH_BLANK_PENALTY if any_blanks else RELATIVE_OUTDENT_PENALTY
        else:
            s.penalty += RELATIVE_DEDENT_WITH_BLANK_PENALTY if any_blanks else RELATIVE_DEDENT_PENALTY


def score_cmp_reference(s1: SplitScore, s2: SplitScore) -> int:
    """git's ``score_cmp``: below 0 when ``s1`` is the better score."""
    cmp_indents = (s1.effective_indent > s2.effective_indent) - (s1.effective_indent < s2.effective_indent)
    return INDENT_WEIGHT * cmp_indents + (s1.penalty - s2.penalty)


class _Rchg(list):
    """git's ``rchg``: a file's changed flags, read and written at -1 and
    nrec too, where git keeps an unchanged line."""

    def __getitem__(self, i):
        return list.__getitem__(self, i + 1)

    def __setitem__(self, i, value):
        list.__setitem__(self, i + 1, value)


class XdFile:
    """What compaction reads of git's ``xdfile_t``: the records and ``rchg``."""

    def __init__(self, seq: InternedSequence, flags: list[bool]):
        self.recs = [seq.lines[t] for t in seq.tokens]
        self.nrec = len(self.recs)
        self.rchg = _Rchg([False, *flags, False])

    def flags(self) -> list[bool]:
        return [self.rchg[i] for i in range(self.nrec)]


@dataclass
class XdlGroup:
    """git's ``struct xdlgroup``: lines start..end - 1, changed, with an
    unchanged line (or the file's edge) on either side."""

    start: int = 0
    end: int = 0


def group_init(xdf: XdFile, g: XdlGroup) -> None:
    g.start = g.end = 0
    while xdf.rchg[g.end]:
        g.end += 1


def group_next(xdf: XdFile, g: XdlGroup) -> int:
    if g.end == xdf.nrec:
        return -1
    g.start = g.end + 1
    g.end = g.start
    while xdf.rchg[g.end]:
        g.end += 1
    return 0


def group_previous(xdf: XdFile, g: XdlGroup) -> int:
    if g.start == 0:
        return -1
    g.end = g.start - 1
    g.start = g.end
    while xdf.rchg[g.start - 1]:
        g.start -= 1
    return 0


def group_slide_down(xdf: XdFile, g: XdlGroup) -> int:
    if g.end < xdf.nrec and xdf.recs[g.start] == xdf.recs[g.end]:
        xdf.rchg[g.start] = False
        g.start += 1
        xdf.rchg[g.end] = True
        g.end += 1
        while xdf.rchg[g.end]:
            g.end += 1
        return 0
    return -1


def group_slide_up(xdf: XdFile, g: XdlGroup) -> int:
    if g.start > 0 and xdf.recs[g.start - 1] == xdf.recs[g.end - 1]:
        g.start -= 1
        xdf.rchg[g.start] = True
        g.end -= 1
        xdf.rchg[g.end] = False
        while xdf.rchg[g.start - 1]:
            g.start -= 1
        return 0
    return -1


def _bug(failed: int, message: str) -> None:
    if failed:
        raise AssertionError(message)


def change_compact_reference(xdf: XdFile, xdfo: XdFile, indent_heuristic: bool) -> None:
    """git's ``xdl_change_compact``: compacts ``xdf`` against ``xdfo``."""
    g, go = XdlGroup(), XdlGroup()
    group_init(xdf, g)
    group_init(xdfo, go)

    while True:
        # a group empty in the file being compacted is skipped
        if g.end != g.start:
            # shift the change up and then down as far as possible, merging
            # any other change it bumps into
            while True:
                groupsize = g.end - g.start
                # the last end at which the group aligns with a group of
                # changed lines in the other file; -1 for none found yet
                end_matching_other = -1

                while not group_slide_up(xdf, g):
                    _bug(group_previous(xdfo, go), "group sync broken sliding up")

                earliest_end = g.end
                if go.end > go.start:
                    end_matching_other = g.end

                while True:
                    if group_slide_down(xdf, g):
                        break
                    _bug(group_next(xdfo, go), "group sync broken sliding down")
                    if go.end > go.start:
                        end_matching_other = g.end

                if groupsize == g.end - g.start:
                    break

            # the group is as far down as it goes
            if g.end == earliest_end:
                pass  # no shifting was possible
            elif end_matching_other != -1:
                # move the group back up to line up with the last group of
                # changes of the other file that it can align with
                while go.end == go.start:
                    _bug(group_slide_up(xdf, g), "match disappeared")
                    _bug(group_previous(xdfo, go), "group sync broken sliding to match")
            elif indent_heuristic:
                # score the two splits of each position the group can be
                # shifted to, and take the lowest sum
                best_shift = -1
                best_score = SplitScore()
                shift = earliest_end
                if g.end - groupsize - 1 > shift:
                    shift = g.end - groupsize - 1
                if g.end - INDENT_HEURISTIC_MAX_SLIDING > shift:
                    shift = g.end - INDENT_HEURISTIC_MAX_SLIDING
                while shift <= g.end:
                    score = SplitScore()
                    score_add_split_reference(measure_split_reference(xdf.recs, shift), score)
                    score_add_split_reference(measure_split_reference(xdf.recs, shift - groupsize), score)
                    if best_shift == -1 or score_cmp_reference(score, best_score) <= 0:
                        best_score = score
                        best_shift = shift
                    shift += 1

                while g.end > best_shift:
                    _bug(group_slide_up(xdf, g), "best shift unreached")
                    _bug(group_previous(xdfo, go), "group sync broken sliding to blank line")

        # move past the group just processed
        if group_next(xdf, g):
            break
        _bug(group_next(xdfo, go), "group sync broken moving to next group")


def slide_changed_lines_reference(flags: ChangedLines, old: InternedSequence, new: InternedSequence,
                                  indent_heuristic: bool = True) -> ChangedLines:
    """``slider.slide_changed_lines`` as git's ``xdl_diff`` runs compaction:
    old against new, then new against old."""
    xdf1, xdf2 = XdFile(old, flags.old_flags), XdFile(new, flags.new_flags)
    change_compact_reference(xdf1, xdf2, indent_heuristic)
    change_compact_reference(xdf2, xdf1, indent_heuristic)
    return ChangedLines(xdf1.flags(), xdf2.flags())


def split_lines_reference(data: bytes) -> list[bytes]:
    """Split on LF, keeping terminators, by ``bytes.split`` and a re-append."""
    if not data:
        return []
    parts = data.split(b"\n")
    records = [p + b"\n" for p in parts[:-1]]
    if parts[-1]:
        records.append(parts[-1])
    return records


def intern_reference(ids: dict[bytes, int], lines: list[bytes], data: bytes) -> InternedSequence:
    """``InternTable.intern`` by a per-line lookup; ``ids`` and ``lines``
    play the table, shared by every file of one problem."""
    tokens = []
    for rec in split_lines_reference(data):
        tok = ids.get(rec)
        if tok is None:
            tok = len(ids)
            ids[rec] = tok
            lines.append(rec)
        tokens.append(tok)
    return InternedSequence(tokens, lines)
