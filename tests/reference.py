"""Reference implementations the package is tested against.

Each is either a brute-force answer (LCS by memoised recursion, every LIS
by enumeration, frozenset ancestry) or the first, simpler form of code that
was later rewritten for speed: the per-subproblem histogram rescan, the
rebase that tests each chain commit for ancestry with a walk of its own, the
recursive merge that folds merge bases into virtual commits, the
dict-keyed patience sort, the slicing patience diff, the dict-lookup Myers
split, the line-by-line flag scans, the frequent-line rule that rescans a
block around each of its lines, the indent heuristic that rescans the
blank lines around each split into a record and scores the record's
fields, and the line split and intern loop that handle one line at a time
in Python.  Tests require the package to give the same answers; none of
this code ships in ``src/``.
"""

from __future__ import annotations

import math
from collections import ChainMap, Counter
from dataclasses import dataclass

from diffmerge import graph as graph_mod
from diffmerge.core import Change, ChangedLines, EditScript, InternedSequence, InvalidFlags
from diffmerge.histogram import MAX_OCCURRENCES, FallbackSignal, Region
from diffmerge.merge3 import MergeOptions
from diffmerge.myers import _BIG, MYERS, PreprocessClassification, _SearchEnv, approx_sqrt, myers_flags
from diffmerge.oracle import SizeGuard
from diffmerge.patience import patience_lis
from diffmerge.slider import _groups, line_indent, slidable_range

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


def lca_reference(ancestors_of, a: str, b: str) -> set[str]:
    """Common ancestors of a and b that are no ancestor of another common
    ancestor, by comparing every pair; ``ancestors_of(cid)`` includes cid."""
    common = ancestors_of(a) & ancestors_of(b)
    return {c for c in common if not any(other != c and c in ancestors_of(other) for other in common)}


def rebase_reference(graph, branch_head: str, onto: str, options=None):
    """graph.rebase as it was before its one-walk chain: one is_ancestor walk
    per first-parent commit, then the same parent check of every chain
    commit, oldest first, and the same picks."""
    chain = []
    cur = branch_head
    while not graph.is_ancestor(cur, onto):
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
    ctx.stats.merge_calls += 1
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
    """graph.merge_base_recursive through virtual commits."""
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
        stats.conflict_paths = sorted(conflicts)
        return graph_mod.MergeResult("conflict", None, conflicts, stats)
    new_id = new_id or graph_mod._DefaultId(f"merge({a},{b})")
    return graph_mod._commit_clean(graph, new_id, (a, b), tree, stats)


def histogram_split_reference(a: list[int], b: list[int], lo1: int, hi1: int, lo2: int, hi2: int) -> Region | None:
    """The histogram split search as first written: it rebuilds the occurrence
    lists of old[lo1:hi1] for every subproblem, extends runs one line at a
    time and takes every candidate's record count through a generator.

    Kept as the reference ``histogram.find_split`` is tested against.
    """
    occ: dict[int, list[int]] = {}
    for i in range(lo1, hi1):
        occ.setdefault(a[i], []).append(i)
    has_common = False
    lowest_record_count = math.inf
    best: Region | None = None

    b_ptr = lo2
    while b_ptr < hi2:
        b_next = b_ptr + 1
        positions = occ.get(b[b_ptr])
        if positions:
            has_common = True
            count = len(positions)
            if count <= max(lowest_record_count, MAX_OCCURRENCES):
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
                    if (
                        best is not None and best.end1 - best.begin1 < end1 - begin1
                    ) or record_count < lowest_record_count:
                        best = Region(begin1, end1, begin2, end2, record_count)
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
            sub = myers_flags(a[lo1:hi1], b[lo2:hi2], MYERS)
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
    """Patience diff as first written: every subproblem, equal ones included,
    slices both files and counts its lines afresh; the reference
    ``patience.diff_patience`` is tested against."""
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
            sub = myers_flags(a[lo_a:hi_a], b[lo_b:hi_b], MYERS)
            for i, flag in enumerate(sub.old_flags):
                if flag:
                    of[lo_a + i] = True
            for j, flag in enumerate(sub.new_flags):
                if flag:
                    nf[lo_b + j] = True
            continue

        # recurse on the segments between matched unique lines
        prev_a, prev_b = lo_a, lo_b
        for pos_a, pos_b in lcs:
            abs_a, abs_b = lo_a + pos_a, lo_b + pos_b
            work.append((prev_a, abs_a, prev_b, abs_b))
            prev_a, prev_b = abs_a + 1, abs_b + 1
        work.append((prev_a, hi_a, prev_b, hi_b))
    return ChangedLines(of, nf)


def split_reference(env: _SearchEnv, off1: int, lim1: int, off2: int, lim2: int, need_min: bool) -> tuple[int, int, bool, bool]:
    """``myers._split`` as first written, with both neighbours of every
    diagonal looked up in the dict; tests patch it in as ``myers._split``.

    Finds a pivot on (or near) the shortest path; returns (i1, i2, min_lo, min_hi)."""
    ha1, ha2 = env.ha1, env.ha2
    kvdf, kvdb = env.kvdf, env.kvdb
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


def flags_to_script_reference(flags: ChangedLines, old: InternedSequence, new: InternedSequence) -> EditScript:
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
    return EditScript(tuple(changes))


def groups_reference(flags: list[bool]) -> list[tuple[int, int]]:
    """``slider._groups`` as first written, one flag at a time."""
    groups = []
    i = 0
    while i < len(flags):
        if flags[i]:
            start = i
            while i < len(flags) and flags[i]:
                i += 1
            groups.append((start, i))
        else:
            i += 1
    return groups


def preprocess_reference(old: InternedSequence, new: InternedSequence, *, minimal: bool) -> PreprocessClassification:
    """``myers.preprocess`` as first written: each frequent line rescans its block."""
    a, b = old.tokens, new.tokens
    n, m = len(a), len(b)
    prefix = 0
    while prefix < n and prefix < m and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    while suffix < n - prefix and suffix < m - prefix and a[n - 1 - suffix] == b[m - 1 - suffix]:
        suffix += 1

    count_a = Counter(a)
    count_b = Counter(b)
    old_pre = [False] * n
    new_pre = [False] * m
    for i in range(prefix, n - suffix):
        if count_b[a[i]] == 0:
            old_pre[i] = True
    for j in range(prefix, m - suffix):
        if count_a[b[j]] == 0:
            new_pre[j] = True

    if not minimal:
        flag_frequent_reference(a, count_a, old_pre, prefix, n - suffix)
        flag_frequent_reference(b, count_b, new_pre, prefix, m - suffix)

    return PreprocessClassification(prefix, suffix, old_pre, new_pre)


def flag_frequent_reference(tokens: list[int], counts: Counter, pre: list[bool], lo: int, hi: int) -> None:
    limit = approx_sqrt(len(tokens))
    frequent = [lo <= i < hi and not pre[i] and counts[tokens[i]] > limit for i in range(len(tokens))]
    extra = []
    for i in range(lo, hi):
        if frequent[i] and block_qualifies_reference(pre, frequent, i, lo, hi):
            extra.append(i)
    for i in extra:
        pre[i] = True


def block_qualifies_reference(unmatched: list[bool], frequent: list[bool], i: int, lo: int, hi: int) -> bool:
    # Scan outwards while lines are unmatched or frequent; require at least
    # one unmatched line on each side, and strictly fewer than a quarter of
    # the block being merely frequent.
    un_above, fr_above = 0, 1  # the line itself counts as frequent
    k = i - 1
    while k >= lo:
        if unmatched[k]:
            un_above += 1
        elif frequent[k]:
            fr_above += 1
        else:
            break
        k -= 1
    if un_above == 0:
        return False
    un_below, fr_below = 0, 0
    k = i + 1
    while k < hi:
        if unmatched[k]:
            un_below += 1
        elif frequent[k]:
            fr_below += 1
        else:
            break
        k += 1
    if un_below == 0:
        return False
    fr_total = fr_above + fr_below
    un_total = un_above + un_below
    return fr_total * 4 < fr_total + un_total


# git's indent-heuristic weights (``xdiff/xdiffi.c``), written out here so
# the reference scorer does not read the package's constants
START_OF_FILE = 1
END_OF_FILE = 21
TOTAL_BLANKS = -30
POST_BLANK = 6
RELATIVE_INDENT = -4
RELATIVE_INDENT_WITH_BLANK = 10
RELATIVE_OUTDENT = 24
RELATIVE_OUTDENT_WITH_BLANK = 17
RELATIVE_DEDENT = 23
RELATIVE_DEDENT_WITH_BLANK = 17
TOTAL_INDENT_BIAS = 60


@dataclass(frozen=True)
class SplitMeasurement:
    """What the indent heuristic reads around one split, as first recorded."""

    at_end: bool
    indent: int | None          # None for a blank line or a split at EOF
    pre_blank: int
    pre_indent: int | None
    post_blank: int
    post_indent: int | None


def measure_split_reference(seq: InternedSequence, split: int) -> SplitMeasurement:
    """The measurement of one split as first written: walks the blank lines around one split."""
    n = len(seq)
    if split >= n:
        at_end, indent = True, None
    else:
        at_end, indent = False, line_indent(seq.raw[split])

    pre_blank = 0
    pre_indent = None
    for i in range(split - 1, -1, -1):
        pre_indent = line_indent(seq.raw[i])
        if pre_indent is not None:
            break
        pre_blank += 1

    post_blank = 0
    post_indent = None
    for i in range(split + 1, n):
        post_indent = line_indent(seq.raw[i])
        if post_indent is not None:
            break
        post_blank += 1

    return SplitMeasurement(at_end, indent, pre_blank, pre_indent, post_blank, post_indent)


def split_penalty(m: SplitMeasurement) -> int:
    """Penalty of one measured split, as first written; lower is better."""
    if m.at_end:
        indent = None
        total_blank = m.pre_blank
        post_blank = 0
    elif m.indent is None:
        indent = m.post_indent
        total_blank = m.pre_blank + m.post_blank + 1
        post_blank = m.post_blank + 1
    else:
        indent = m.indent
        total_blank = m.pre_blank
        post_blank = 0

    penalty = 0
    if m.pre_indent is None and m.pre_blank == 0:
        penalty += START_OF_FILE
    if m.at_end:
        penalty += END_OF_FILE
    penalty += TOTAL_BLANKS * total_blank
    penalty += POST_BLANK * post_blank

    any_blanks = total_blank != 0
    if indent is None or m.pre_indent is None:
        pass
    elif indent > m.pre_indent:
        penalty += RELATIVE_INDENT_WITH_BLANK if any_blanks else RELATIVE_INDENT
    elif indent < m.pre_indent:
        if m.post_indent is not None and m.post_indent > indent:
            penalty += RELATIVE_OUTDENT_WITH_BLANK if any_blanks else RELATIVE_OUTDENT
        else:
            penalty += RELATIVE_DEDENT_WITH_BLANK if any_blanks else RELATIVE_DEDENT
    return penalty


def split_indent(m: SplitMeasurement) -> int:
    """Effective indent entering the 60-bias comparison; undefined counts zero."""
    if m.at_end:
        return 0
    indent = m.indent if m.indent is not None else m.post_indent
    return indent if indent is not None else 0


def split_scores_reference(seq: InternedSequence, lo: int, hi: int) -> list[tuple[int, int]]:
    """(split_penalty, split_indent) of each split lo..hi, each measured alone."""
    scores = []
    for split in range(lo, hi + 1):
        m = measure_split_reference(seq, split)
        scores.append((split_penalty(m), split_indent(m)))
    return scores


def best_shift_reference(seq: InternedSequence, group: tuple[int, int], lo: int, hi: int) -> int:
    """The shift in lo..hi whose two splits score best, ties to the lowest."""
    start, end = group
    best_shift = None
    best_penalty = 0
    best_indent = 0
    for shift in range(lo, hi + 1):
        top = measure_split_reference(seq, start + shift)
        bottom = measure_split_reference(seq, end + shift)
        penalty = split_penalty(top) + split_penalty(bottom)
        indent = split_indent(top) + split_indent(bottom)
        if best_shift is None:
            best_shift, best_penalty, best_indent = shift, penalty, indent
            continue
        a_score, b_score = penalty, best_penalty
        if indent > best_indent:
            a_score += TOTAL_INDENT_BIAS
        elif best_indent > indent:
            b_score += TOTAL_INDENT_BIAS
        if a_score < b_score:
            best_shift, best_penalty, best_indent = shift, penalty, indent
    assert best_shift is not None
    return best_shift


def slide_group_reference(flags: list[bool], seq: InternedSequence, group: tuple[int, int]) -> tuple[int, int]:
    """``slider.slide_group`` as first written, measuring each shift's splits alone."""
    start, end = group
    lo, hi = slidable_range(flags, seq, group)
    if lo == hi == 0:
        return group

    best_shift = best_shift_reference(seq, group, lo, hi)
    if best_shift:
        for i in range(start, end):
            flags[i] = False
        for i in range(start + best_shift, end + best_shift):
            flags[i] = True
    return start + best_shift, end + best_shift


def slide_changed_lines_reference(flags: ChangedLines, old: InternedSequence, new: InternedSequence) -> ChangedLines:
    of = list(flags.old_flags)
    nf = list(flags.new_flags)
    for group in _groups(of):
        slide_group_reference(of, old, group)
    for group in _groups(nf):
        slide_group_reference(nf, new, group)
    return ChangedLines(of, nf)


def split_lines_reference(data: bytes) -> list[bytes]:
    """Split on LF, keeping terminators, by ``bytes.split`` and a re-append."""
    if not data:
        return []
    parts = data.split(b"\n")
    records = [p + b"\n" for p in parts[:-1]]
    if parts[-1]:
        records.append(parts[-1])
    return records


def intern_reference(ids: dict[bytes, int], data: bytes) -> InternedSequence:
    """``InternTable.intern`` by a per-line lookup; ``ids`` plays the table,
    shared by every file of one problem."""
    records = split_lines_reference(data)
    tokens = []
    for rec in records:
        tok = ids.get(rec)
        if tok is None:
            tok = len(ids)
            ids[rec] = tok
        tokens.append(tok)
    return InternedSequence(tokens, records)
