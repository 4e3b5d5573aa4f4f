"""Patience diff: LCS over lines unique in both files, via patience sorting."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .core import ChangedLines, InternedSequence
from .myers import MYERS, myers_flags


@dataclass(frozen=True)
class UniqueMatch:
    pos_a: int
    pos_b: int


def find_matching_unique_lines(a: list[int], b: list[int]) -> list[UniqueMatch]:
    """Pairs (posA, posB) of lines occurring exactly once in each file, by posA."""
    count_a = Counter(a)
    count_b = Counter(b)
    pos_b = {tok: j for j, tok in enumerate(b) if count_b[tok] == 1}
    matches = []
    for i, tok in enumerate(a):
        if count_a[tok] == 1 and tok in pos_b:
            matches.append(UniqueMatch(i, pos_b[tok]))
    return matches


def patience_lis(matches: list[UniqueMatch]) -> list[UniqueMatch]:
    """Longest strictly increasing (in pos_b) subsequence via patience sorting.

    Each entry lands on the leftmost pile whose top is >= its pos_b and
    remembers the previous pile's top; the result is reconstructed from the
    last element of the last pile, so ties resolve to the latest chain.
    """
    top_pos_b: list[int] = []  # pos_b of each pile's top, ascending
    top: list[int] = []  # index into matches of each pile's top
    previous: list[int] = []  # per match, the index of its predecessor or -1
    for k, entry in enumerate(matches):
        pile = bisect_left(top_pos_b, entry.pos_b)
        previous.append(top[pile - 1] if pile else -1)
        if pile < len(top):
            top_pos_b[pile] = entry.pos_b
            top[pile] = k
        else:
            top_pos_b.append(entry.pos_b)
            top.append(k)
    chain = []
    k = top[-1] if top else -1
    while k >= 0:
        chain.append(matches[k])
        k = previous[k]
    chain.reverse()
    return chain


def diff_patience(old: InternedSequence, new: InternedSequence) -> ChangedLines:
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

        matches = find_matching_unique_lines(a[lo_a:hi_a], b[lo_b:hi_b])
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
        for m in lcs:
            abs_a, abs_b = lo_a + m.pos_a, lo_b + m.pos_b
            work.append((prev_a, abs_a, prev_b, abs_b))
            prev_a, prev_b = abs_a + 1, abs_b + 1
        work.append((prev_a, hi_a, prev_b, hi_b))
    return ChangedLines(of, nf)
