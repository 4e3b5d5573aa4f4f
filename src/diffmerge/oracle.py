"""Exact references used by tests and the CLI --verify mode.

Guards raise instead of approximating, because an oracle that silently
truncates is worse than none.
"""

from __future__ import annotations

import math

from .core import ChangedLines, InternedSequence
from .histogram import MAX_OCCURRENCES, FallbackSignal, Region
from .myers import MYERS, myers_flags
from .patience import UniqueMatch


class SizeGuard(Exception):
    """Input too large for an exact brute-force computation."""


_LCS_LIMIT = 100_000
_MEMO_LIMIT = 600
_LIS_LIMIT = 15


def lcs_length(a: list[int], b: list[int]) -> int:
    """Exact longest-common-subsequence length, by the bit-vector recurrence
    of Allison & Dix (1986) in the form Hyyrö (2004) gives.

    After the first j lines of b, bit i of ``v`` is 0 exactly when
    LCS(a[:i+1], b[:j]) exceeds LCS(a[:i], b[:j]), so the LCS length is the
    count of 0 bits.  Each line of b costs a few big-int operations on
    len(a)-bit numbers, O(N*M/w) word operations in all.
    """
    if len(a) > _LCS_LIMIT or len(b) > _LCS_LIMIT:
        raise SizeGuard(f"inputs of {len(a)}x{len(b)} exceed the {_LCS_LIMIT} guard")
    masks: dict[int, int] = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        mask = masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


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


def min_edit_distance(a: list[int], b: list[int]) -> int:
    """Minimal changed-line count: (N - |LCS|) + (M - |LCS|)."""
    lcs = lcs_length(a, b)
    return (len(a) - lcs) + (len(b) - lcs)


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


def patience_lis_reference(matches: list[UniqueMatch]) -> list[UniqueMatch]:
    """Patience sorting as first written, with the predecessor of each match
    in a dict keyed by the frozen match itself; the reference
    ``patience.patience_lis`` is tested against."""
    pile_tops: list[UniqueMatch] = []
    previous: dict[UniqueMatch, UniqueMatch | None] = {}
    for entry in matches:
        lo, hi = 0, len(pile_tops)
        while lo < hi:
            mid = (lo + hi) // 2
            if pile_tops[mid].pos_b < entry.pos_b:
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
    node: UniqueMatch | None = pile_tops[-1]
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

    Verifies ordering and non-overlap in all three coordinate systems, the
    per-kind equality constraints, and that the text between regions is
    identical in ancestor, left and right.  Returns a list of violation
    descriptions (empty when valid).
    """
    problems = []
    pa = pl = pr = 0
    for idx, reg in enumerate(regions):
        if reg.start_a < pa or reg.start_l < pl or reg.start_r < pr:
            problems.append(f"region {idx} overlaps its predecessor: {reg}")
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
